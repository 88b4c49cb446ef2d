#include "livesim/geo/datacenters.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace livesim::geo {

void DatacenterCatalog::add(std::string city, Continent cont, double lat,
                            double lon, CdnRole role) {
  Datacenter dc;
  dc.id = DatacenterId{dcs_.size()};
  dc.city = std::move(city);
  dc.continent = cont;
  dc.location = GeoPoint{lat, lon};
  dc.role = role;
  dcs_.push_back(std::move(dc));
  rebuild_distance_cache();
}

void DatacenterCatalog::rebuild_distance_cache() {
  // O(n^2) per add, but catalogs are tens of sites built once; every
  // query afterwards is a cache read.
  const std::size_t n = dcs_.size();
  dist_.resize(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      dist_[i * n + j] = haversine_km(dcs_[i].location, dcs_[j].location);
}

DatacenterId DatacenterCatalog::add_site(std::string city, Continent cont,
                                         double lat, double lon,
                                         CdnRole role) {
  add(std::move(city), cont, lat, lon, role);
  return dcs_.back().id;
}

DatacenterCatalog DatacenterCatalog::paper_footprint() {
  DatacenterCatalog c;
  using enum Continent;
  // --- Wowza ingest sites: the 8 Amazon EC2 regions of mid-2015. ---
  c.add("Ashburn", kNorthAmerica, 39.04, -77.49, CdnRole::kIngest);
  c.add("San Jose", kNorthAmerica, 37.34, -121.89, CdnRole::kIngest);
  c.add("Boardman", kNorthAmerica, 45.84, -119.70, CdnRole::kIngest);  // Oregon
  c.add("Dublin", kEurope, 53.35, -6.26, CdnRole::kIngest);
  c.add("Frankfurt", kEurope, 50.11, 8.68, CdnRole::kIngest);
  c.add("Tokyo", kAsia, 35.68, 139.69, CdnRole::kIngest);
  c.add("Singapore", kAsia, 1.35, 103.82, CdnRole::kIngest);
  c.add("Sao Paulo", kSouthAmerica, -23.55, -46.63, CdnRole::kIngest);
  // --- Fastly edge sites: the 23-site footprint of 2015. ---
  c.add("Ashburn", kNorthAmerica, 39.04, -77.49, CdnRole::kEdge);
  c.add("New York", kNorthAmerica, 40.71, -74.01, CdnRole::kEdge);
  c.add("Boston", kNorthAmerica, 42.36, -71.06, CdnRole::kEdge);
  c.add("Atlanta", kNorthAmerica, 33.75, -84.39, CdnRole::kEdge);
  c.add("Miami", kNorthAmerica, 25.76, -80.19, CdnRole::kEdge);
  c.add("Chicago", kNorthAmerica, 41.88, -87.63, CdnRole::kEdge);
  c.add("Dallas", kNorthAmerica, 32.78, -96.80, CdnRole::kEdge);
  c.add("Denver", kNorthAmerica, 39.74, -104.99, CdnRole::kEdge);
  c.add("Los Angeles", kNorthAmerica, 34.05, -118.24, CdnRole::kEdge);
  c.add("San Jose", kNorthAmerica, 37.34, -121.89, CdnRole::kEdge);
  c.add("San Francisco", kNorthAmerica, 37.77, -122.42, CdnRole::kEdge);
  c.add("Seattle", kNorthAmerica, 47.61, -122.33, CdnRole::kEdge);
  c.add("Toronto", kNorthAmerica, 43.65, -79.38, CdnRole::kEdge);
  c.add("London", kEurope, 51.51, -0.13, CdnRole::kEdge);
  c.add("Dublin", kEurope, 53.35, -6.26, CdnRole::kEdge);
  c.add("Amsterdam", kEurope, 52.37, 4.90, CdnRole::kEdge);
  c.add("Paris", kEurope, 48.86, 2.35, CdnRole::kEdge);
  c.add("Frankfurt", kEurope, 50.11, 8.68, CdnRole::kEdge);
  c.add("Stockholm", kEurope, 59.33, 18.07, CdnRole::kEdge);
  c.add("Tokyo", kAsia, 35.68, 139.69, CdnRole::kEdge);
  c.add("Singapore", kAsia, 1.35, 103.82, CdnRole::kEdge);
  c.add("Hong Kong", kAsia, 22.32, 114.17, CdnRole::kEdge);
  c.add("Sydney", kOceania, -33.87, 151.21, CdnRole::kEdge);
  return c;
}

DatacenterCatalog DatacenterCatalog::single_site() {
  DatacenterCatalog c;
  c.add("Testville", Continent::kNorthAmerica, 40.0, -100.0, CdnRole::kIngest);
  c.add("Testville", Continent::kNorthAmerica, 40.0, -100.0, CdnRole::kEdge);
  return c;
}

const Datacenter& DatacenterCatalog::get(DatacenterId id) const {
  if (!id.valid() || id.value >= dcs_.size())
    throw std::out_of_range("DatacenterCatalog::get: bad id");
  return dcs_[id.value];
}

std::vector<const Datacenter*> DatacenterCatalog::ingest_sites() const {
  std::vector<const Datacenter*> out;
  for (const auto& dc : dcs_)
    if (dc.role == CdnRole::kIngest) out.push_back(&dc);
  return out;
}

std::vector<const Datacenter*> DatacenterCatalog::edge_sites() const {
  std::vector<const Datacenter*> out;
  for (const auto& dc : dcs_)
    if (dc.role == CdnRole::kEdge) out.push_back(&dc);
  return out;
}

const Datacenter& DatacenterCatalog::nearest(const GeoPoint& p,
                                             CdnRole role) const {
  // Explicit tie-break: (distance, id) lexicographic, so two equidistant
  // sites resolve to the smaller id instead of whatever the iteration
  // order happened to be. Iteration is in id order, so the strict `<`
  // keeps the first (smallest-id) site of any tied group.
  const Datacenter* best = nullptr;
  double best_km = std::numeric_limits<double>::infinity();
  for (const auto& dc : dcs_) {
    if (dc.role != role) continue;
    const double km = haversine_km(p, dc.location);
    if (km < best_km ||
        (km == best_km && best != nullptr && dc.id.value < best->id.value)) {
      best_km = km;
      best = &dc;
    }
  }
  if (best == nullptr)
    throw std::logic_error("DatacenterCatalog::nearest: no site of role");
  return *best;
}

const Datacenter& DatacenterCatalog::nearest(DatacenterId from,
                                             CdnRole role) const {
  const Datacenter& origin = get(from);
  const double* row = distance_row(origin.id);
  const Datacenter* best = nullptr;
  double best_km = std::numeric_limits<double>::infinity();
  for (const auto& dc : dcs_) {
    if (dc.role != role) continue;
    const double km = row[dc.id.value];
    if (km < best_km ||
        (km == best_km && best != nullptr && dc.id.value < best->id.value)) {
      best_km = km;
      best = &dc;
    }
  }
  if (best == nullptr)
    throw std::logic_error("DatacenterCatalog::nearest: no site of role");
  return *best;
}

void SiteRanking::push(RankedSite site) {
  if (spilled_.empty() && size_ < kInlineSites) {
    inline_[size_++] = site;
    return;
  }
  if (spilled_.empty()) spilled_.assign(inline_.begin(), inline_.end());
  spilled_.push_back(site);
  ++size_;
}

void SiteRanking::rank(std::size_t k) {
  const std::span<RankedSite> sites =
      spilled_.empty() ? std::span<RankedSite>(inline_).first(size_)
                       : std::span<RankedSite>(spilled_);
  std::sort(sites.begin(), sites.end(),
            [](const RankedSite& a, const RankedSite& b) {
              if (a.km != b.km) return a.km < b.km;
              return a.dc->id.value < b.dc->id.value;
            });
  if (k != 0 && size_ > k) {
    size_ = k;
    if (!spilled_.empty()) spilled_.resize(k);
  }
}

template <class Distance>
SiteRanking DatacenterCatalog::rank(CdnRole role, std::size_t k,
                                    std::span<const DatacenterId> exclude,
                                    Distance distance) const {
  SiteRanking out;
  for (const auto& dc : dcs_) {
    if (dc.role != role) continue;
    if (std::find(exclude.begin(), exclude.end(), dc.id) != exclude.end())
      continue;
    out.push({&dc, distance(dc)});
  }
  out.rank(k);
  return out;
}

SiteRanking DatacenterCatalog::k_nearest(
    const GeoPoint& p, CdnRole role, std::size_t k,
    std::span<const DatacenterId> exclude) const {
  return rank(role, k, exclude, [&p](const Datacenter& dc) {
    return haversine_km(p, dc.location);
  });
}

SiteRanking DatacenterCatalog::k_nearest(
    DatacenterId from, CdnRole role, std::size_t k,
    std::span<const DatacenterId> exclude) const {
  const double* row = distance_row(get(from).id);
  return rank(role, k, exclude,
              [row](const Datacenter& dc) { return row[dc.id.value]; });
}

const Datacenter* DatacenterCatalog::colocated_edge(DatacenterId ingest) const {
  const Datacenter& in = get(ingest);
  for (const auto& dc : dcs_) {
    if (dc.role == CdnRole::kEdge && dc.city == in.city) return &dc;
  }
  return nullptr;
}

double DatacenterCatalog::distance_km(DatacenterId a, DatacenterId b) const {
  get(a);  // bounds checks, same failure mode as the uncached version
  get(b);
  return distance_row(a)[b.value];
}

const std::vector<UserGeoSampler::Region>& UserGeoSampler::regions() {
  // Weights approximate the 2015 Periscope user base: US-heavy, strong
  // European presence, growing Asia, small Oceania / South America tails.
  static const std::vector<Region> kRegions = {
      {{40.0, -98.0}, 12.0, 0.40},   // continental US
      {{37.5, -120.0}, 4.0, 0.10},   // US west coast cluster
      {{50.0, 8.0}, 8.0, 0.22},      // western/central Europe
      {{56.0, 16.0}, 5.0, 0.04},     // northern Europe
      {{35.7, 139.7}, 5.0, 0.08},    // Japan
      {{10.0, 105.0}, 8.0, 0.06},    // southeast Asia
      {{-33.0, 150.0}, 5.0, 0.04},   // Australia
      {{-20.0, -50.0}, 8.0, 0.06},   // South America
  };
  return kRegions;
}

GeoPoint UserGeoSampler::sample(Rng& rng) const {
  const auto& rs = regions();
  double total = 0.0;
  for (const auto& r : rs) total += r.weight;
  double pick = rng.uniform() * total;
  const Region* chosen = &rs.back();
  for (const auto& r : rs) {
    if (pick < r.weight) {
      chosen = &r;
      break;
    }
    pick -= r.weight;
  }
  GeoPoint p;
  p.lat_deg = chosen->center.lat_deg + rng.normal(0.0, chosen->spread_deg);
  p.lon_deg = chosen->center.lon_deg + rng.normal(0.0, chosen->spread_deg);
  if (p.lat_deg > 85.0) p.lat_deg = 85.0;
  if (p.lat_deg < -85.0) p.lat_deg = -85.0;
  while (p.lon_deg > 180.0) p.lon_deg -= 360.0;
  while (p.lon_deg < -180.0) p.lon_deg += 360.0;
  return p;
}

}  // namespace livesim::geo
