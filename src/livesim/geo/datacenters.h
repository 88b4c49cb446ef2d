// Datacenter catalogs for the paper's measured CDN footprint (Figure 9):
// 8 Wowza ingest sites on Amazon EC2 and 23 Fastly edge sites (the 2015
// footprint, i.e. before the Dec-2015 Perth/Wellington/Sao-Paulo adds the
// paper explicitly excludes). 6 of 8 Wowza sites are co-located with a
// Fastly site in the same city, 7 of 8 on the same continent, with South
// America the exception -- matching the paper's observation.
#ifndef LIVESIM_GEO_DATACENTERS_H
#define LIVESIM_GEO_DATACENTERS_H

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "livesim/geo/geo.h"
#include "livesim/util/ids.h"

namespace livesim::geo {

enum class Continent {
  kNorthAmerica,
  kSouthAmerica,
  kEurope,
  kAsia,
  kOceania,
};

enum class CdnRole { kIngest, kEdge };  // Wowza-like vs Fastly-like

struct Datacenter {
  DatacenterId id;
  std::string city;
  Continent continent;
  GeoPoint location;
  CdnRole role;
};

/// One ranked site and its distance from the query: the very double
/// haversine_km (or the catalog's distance cache) gives for the pair.
struct RankedSite {
  const Datacenter* dc = nullptr;
  double km = 0.0;
};

/// Sites of one role in (distance, id) order: what k_nearest returns.
/// Held inline while the role has at most kInlineSites sites (the paper
/// footprint has 23 edges and 8 ingests), so a ranking allocates nothing;
/// a larger custom catalog spills to the heap.
class SiteRanking {
 public:
  static constexpr std::size_t kInlineSites = 32;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const RankedSite& operator[](std::size_t i) const { return view()[i]; }
  auto begin() const noexcept { return view().begin(); }
  auto end() const noexcept { return view().end(); }

 private:
  friend class DatacenterCatalog;

  std::span<const RankedSite> view() const noexcept {
    if (!spilled_.empty()) return spilled_;
    return std::span<const RankedSite>(inline_).first(size_);
  }
  void push(RankedSite site);
  /// Sorts by (distance, id) and keeps the first k (0: all).
  void rank(std::size_t k);

  std::array<RankedSite, kInlineSites> inline_{};
  std::vector<RankedSite> spilled_;  // all sites, once past kInlineSites
  std::size_t size_ = 0;
};

/// The full catalog: ids are stable across runs (index order below).
class DatacenterCatalog {
 public:
  /// Builds the paper-era catalog (8 ingest + 23 edge).
  static DatacenterCatalog paper_footprint();

  /// A reduced single-region footprint, handy for unit tests.
  static DatacenterCatalog single_site();

  /// Appends a site to the catalog (id = current size). Custom topologies
  /// for tests and what-if footprints; the paper catalogs above are built
  /// through the same path, so ids are always dense and insertion-ordered.
  DatacenterId add_site(std::string city, Continent cont, double lat,
                        double lon, CdnRole role);

  const std::vector<Datacenter>& all() const noexcept { return dcs_; }
  const Datacenter& get(DatacenterId id) const;

  std::vector<const Datacenter*> ingest_sites() const;
  std::vector<const Datacenter*> edge_sites() const;

  /// Nearest datacenter of a role to a point (how Periscope assigns
  /// broadcasters to Wowza, and IP anycast assigns viewers to Fastly).
  /// Tie-break: among equidistant sites the smallest DatacenterId wins —
  /// the same rule k_nearest and every failover/spill path applies, so
  /// anycast decisions are reproducible bit for bit.
  const Datacenter& nearest(const GeoPoint& p, CdnRole role) const;

  /// Site-keyed variant: nearest datacenter of a role to another catalog
  /// site, answered from the precomputed pairwise-distance cache (no
  /// haversine evaluation). Same (distance, id) tie-break, and the cached
  /// distances are the very doubles the point-keyed overload computes, so
  /// both overloads always agree bit for bit.
  const Datacenter& nearest(DatacenterId from, CdnRole role) const;

  /// The k nearest datacenters of a role, sorted by (distance, id) — the
  /// explicit tie-break above, so the ordering is total and deterministic.
  /// k == 0 means "all sites of the role". Sites whose id appears in
  /// `exclude` are skipped before ranking (a failover must never
  /// re-consider the PoP that just failed it). Allocation-free on the
  /// paper footprint, and safe to call from several threads at once.
  SiteRanking k_nearest(const GeoPoint& p, CdnRole role, std::size_t k,
                        std::span<const DatacenterId> exclude = {}) const;

  /// Site-keyed variant of k_nearest, served from the distance cache.
  SiteRanking k_nearest(DatacenterId from, CdnRole role, std::size_t k,
                        std::span<const DatacenterId> exclude = {}) const;

  /// Edge site co-located (same city) with the given ingest site, if any.
  /// Returns nullptr for the South-America exception.
  const Datacenter* colocated_edge(DatacenterId ingest) const;

  /// Distance between two catalog datacenters in km. Served from the
  /// pairwise cache: failover storms rank candidate sites over and over,
  /// and the catalog is immutable between add_site calls, so every
  /// site-to-site distance is computed exactly once per topology.
  double distance_km(DatacenterId a, DatacenterId b) const;

 private:
  void add(std::string city, Continent cont, double lat, double lon,
           CdnRole role);
  void rebuild_distance_cache();
  /// k_nearest's one implementation: `distance(dc)` is the km to rank by.
  template <class Distance>
  SiteRanking rank(CdnRole role, std::size_t k,
                   std::span<const DatacenterId> exclude,
                   Distance distance) const;
  const double* distance_row(DatacenterId from) const {
    return dist_.data() + from.value * dcs_.size();
  }

  std::vector<Datacenter> dcs_;
  // Row-major n x n matrix of haversine_km over ordered site pairs,
  // rebuilt on add(). Ordered (not just symmetric) so dist_[a][b] is the
  // bit-exact double haversine_km(a.location, b.location) would return.
  std::vector<double> dist_;
};

/// Random user-location sampler weighted by the paper-era user base:
/// concentrated in North America and Europe, with Asia/Oceania/South
/// America tails. Used to place broadcasters and viewers.
class UserGeoSampler {
 public:
  GeoPoint sample(Rng& rng) const;

 private:
  struct Region {
    GeoPoint center;
    double spread_deg;
    double weight;
  };
  static const std::vector<Region>& regions();
};

}  // namespace livesim::geo

#endif  // LIVESIM_GEO_DATACENTERS_H
