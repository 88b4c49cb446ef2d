#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "livesim/geo/datacenters.h"
#include "livesim/geo/geo.h"

namespace livesim::geo {
namespace {

TEST(Haversine, ZeroForSamePoint) {
  const GeoPoint p{37.77, -122.42};
  EXPECT_NEAR(haversine_km(p, p), 0.0, 1e-9);
}

TEST(Haversine, KnownDistances) {
  const GeoPoint sf{37.77, -122.42}, nyc{40.71, -74.01};
  EXPECT_NEAR(haversine_km(sf, nyc), 4130.0, 60.0);
  const GeoPoint london{51.51, -0.13}, tokyo{35.68, 139.69};
  EXPECT_NEAR(haversine_km(london, tokyo), 9560.0, 120.0);
}

TEST(Haversine, Symmetric) {
  const GeoPoint a{10.0, 20.0}, b{-30.0, 140.0};
  EXPECT_DOUBLE_EQ(haversine_km(a, b), haversine_km(b, a));
}

TEST(LatencyModel, MeanGrowsWithDistance) {
  EXPECT_LT(mean_delay(100.0), mean_delay(1000.0));
  EXPECT_LT(mean_delay(1000.0), mean_delay(10000.0));
}

TEST(LatencyModel, ZeroDistanceIsBaseDelay) {
  EXPECT_EQ(mean_delay(0.0), kLatencyBase);
}

TEST(LatencyModel, SampleAtLeastBase) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i)
    EXPECT_GE(sample_delay(500.0, rng), kLatencyBase);
}

TEST(LatencyModel, SampleNearMeanOnAverage) {
  Rng rng(6);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(sample_delay(3000.0, rng));
  const double mean_sampled = sum / n;
  const double mean_model = static_cast<double>(mean_delay(3000.0));
  // Jitter is one-sided; the sample mean sits a bit above the model mean.
  EXPECT_GT(mean_sampled, mean_model);
  EXPECT_LT(mean_sampled, mean_model * 1.25);
}

TEST(Catalog, PaperFootprintCounts) {
  const auto c = DatacenterCatalog::paper_footprint();
  EXPECT_EQ(c.ingest_sites().size(), 8u);   // Wowza on 8 EC2 regions
  EXPECT_EQ(c.edge_sites().size(), 23u);    // Fastly's 2015 footprint
}

TEST(Catalog, SixOfEightIngestSitesColocated) {
  const auto c = DatacenterCatalog::paper_footprint();
  int colocated = 0, same_continent = 0;
  for (const auto* ingest : c.ingest_sites()) {
    const auto* edge = c.colocated_edge(ingest->id);
    if (edge != nullptr) {
      ++colocated;
      EXPECT_EQ(edge->city, ingest->city);
    }
    // Same-continent: any edge on the ingest's continent?
    for (const auto* e : c.edge_sites()) {
      if (e->continent == ingest->continent) {
        ++same_continent;
        break;
      }
    }
  }
  EXPECT_EQ(colocated, 6);        // the paper's "6 out of 8"
  EXPECT_EQ(same_continent, 7);   // "7 out of 8", Sao Paulo the exception
}

TEST(Catalog, SaoPauloHasNoColocatedEdge) {
  const auto c = DatacenterCatalog::paper_footprint();
  for (const auto* ingest : c.ingest_sites()) {
    if (ingest->city == "Sao Paulo") {
      EXPECT_EQ(c.colocated_edge(ingest->id), nullptr);
    }
  }
}

TEST(Catalog, NearestPicksLocalSite) {
  const auto c = DatacenterCatalog::paper_footprint();
  // Broadcaster in Santa Barbara -> San Jose ingest (the paper's own
  // controlled-experiment geometry).
  const auto& ingest = c.nearest({34.42, -119.70}, CdnRole::kIngest);
  EXPECT_EQ(ingest.city, "San Jose");
  // Viewer in Berlin -> Frankfurt edge via anycast.
  const auto& edge = c.nearest({52.52, 13.40}, CdnRole::kEdge);
  EXPECT_EQ(edge.city, "Frankfurt");
}

TEST(Catalog, NearestRespectsRole) {
  const auto c = DatacenterCatalog::paper_footprint();
  const auto& edge = c.nearest({40.71, -74.01}, CdnRole::kEdge);
  EXPECT_EQ(edge.role, CdnRole::kEdge);
  const auto& ingest = c.nearest({40.71, -74.01}, CdnRole::kIngest);
  EXPECT_EQ(ingest.role, CdnRole::kIngest);
}

// Regression: equidistant sites used to resolve to whatever the
// iteration order happened to be; the tie-break is now explicit —
// (distance, id) lexicographic, smallest id wins — and shared by
// nearest(), k_nearest(), and the session spill policy.
TEST(Catalog, NearestBreaksExactTiesBySmallestId) {
  DatacenterCatalog c;
  using enum Continent;
  // Two edge sites at the SAME coordinates: distances are identical bit
  // patterns, not merely close, so the comparison truly ties.
  const auto a = c.add_site("Twin A", kNorthAmerica, 40.0, -100.0,
                            CdnRole::kEdge);
  const auto b = c.add_site("Twin B", kNorthAmerica, 40.0, -100.0,
                            CdnRole::kEdge);
  ASSERT_LT(a.value, b.value);
  const GeoPoint viewer{41.0, -101.0};
  EXPECT_EQ(c.nearest(viewer, CdnRole::kEdge).id.value, a.value);
  // A viewer exactly on top of the twins ties at 0 km.
  EXPECT_EQ(c.nearest({40.0, -100.0}, CdnRole::kEdge).id.value, a.value);
}

TEST(Catalog, KNearestRanksByDistanceThenId) {
  DatacenterCatalog c;
  using enum Continent;
  const auto far = c.add_site("Far", kNorthAmerica, 45.0, -90.0,
                              CdnRole::kEdge);
  const auto twin_b = c.add_site("Twin B", kNorthAmerica, 40.0, -100.0,
                                 CdnRole::kEdge);
  const auto twin_a = c.add_site("Twin A", kNorthAmerica, 40.0, -100.0,
                                 CdnRole::kEdge);
  c.add_site("Ingest", kNorthAmerica, 40.0, -100.0, CdnRole::kIngest);
  const GeoPoint viewer{40.0, -100.0};

  // Equidistant twins: the smaller id ranks first even though it was
  // added later; the ingest site never appears for the edge role.
  const auto all = c.k_nearest(viewer, CdnRole::kEdge, 0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].dc->id.value, twin_b.value);  // twin_b has the smaller id
  EXPECT_EQ(all[1].dc->id.value, twin_a.value);
  EXPECT_EQ(all[2].dc->id.value, far.value);

  // k truncates after ranking; k > size is the whole ranking.
  EXPECT_EQ(c.k_nearest(viewer, CdnRole::kEdge, 1).size(), 1u);
  EXPECT_EQ(c.k_nearest(viewer, CdnRole::kEdge, 99).size(), 3u);

  // Excluded sites are removed BEFORE truncation, so k live candidates
  // survive an exclusion of the nearest.
  const DatacenterId excl[] = {twin_b};
  const auto rest = c.k_nearest(viewer, CdnRole::kEdge, 2, excl);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].dc->id.value, twin_a.value);
  EXPECT_EQ(rest[1].dc->id.value, far.value);
}

TEST(Catalog, KNearestMatchesNearestOnTheFootprint) {
  const auto c = DatacenterCatalog::paper_footprint();
  const GeoPoint probes[] = {{52.52, 13.40}, {34.42, -119.70},
                             {-33.87, 151.21}, {1.35, 103.82}};
  for (const auto& p : probes) {
    for (CdnRole role : {CdnRole::kEdge, CdnRole::kIngest}) {
      const auto ranked = c.k_nearest(p, role, 3);
      ASSERT_FALSE(ranked.empty());
      EXPECT_EQ(ranked[0].dc->id.value, c.nearest(p, role).id.value);
    }
  }
}

// k_nearest ranks sites inline, spilling to the heap past
// SiteRanking::kInlineSites; both must give a full sort's order. The
// reference sorts every site of the role by (haversine, id), drops the
// excluded ones and keeps the first k. Inputs: random points, k in
// {0, 1, 3, all}, random exclusions, on the paper footprint and on a
// 40-edge add_site catalog whose sites come in co-located pairs (exact
// distance ties).
TEST(Catalog, KNearestMatchesAFullSort) {
  DatacenterCatalog twins;
  Rng place(11);
  for (int i = 0; i < 20; ++i) {
    const double lat = place.uniform(-50.0, 60.0);
    const double lon = place.uniform(-170.0, 170.0);
    twins.add_site("Twin", Continent::kEurope, lat, lon, CdnRole::kEdge);
    twins.add_site("Ingest", Continent::kEurope, lat, lon, CdnRole::kIngest);
    twins.add_site("Twin", Continent::kEurope, lat, lon, CdnRole::kEdge);
  }
  const DatacenterCatalog footprint = DatacenterCatalog::paper_footprint();
  Rng rng(29);
  const DatacenterCatalog* catalogs[] = {&footprint, &twins};
  for (const DatacenterCatalog* c : catalogs) {
    const auto edges = c->edge_sites();
    for (int round = 0; round < 400; ++round) {
      GeoPoint p{rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)};
      if (round % 5 == 0) {  // on top of a site: ties at 0 km
        p = edges[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(edges.size()) - 1))]
                ->location;
      }
      std::vector<DatacenterId> exclude;
      for (const Datacenter* dc : edges)
        if (rng.bernoulli(0.2)) exclude.push_back(dc->id);

      std::vector<std::pair<double, std::uint64_t>> want;
      for (const Datacenter* dc : edges)
        if (std::find(exclude.begin(), exclude.end(), dc->id) == exclude.end())
          want.emplace_back(haversine_km(p, dc->location), dc->id.value);
      std::sort(want.begin(), want.end());

      for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            edges.size()}) {
        const auto got = c->k_nearest(p, CdnRole::kEdge, k, exclude);
        const std::size_t n = k == 0 ? want.size() : std::min(k, want.size());
        ASSERT_EQ(got.size(), n) << "round " << round << ", k " << k;
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(got[i].dc->id.value, want[i].second) << "rank " << i;
          EXPECT_EQ(got[i].km, want[i].first) << "rank " << i;
        }
      }
    }
  }
}

TEST(Catalog, GetRejectsBadId) {
  const auto c = DatacenterCatalog::paper_footprint();
  EXPECT_THROW(c.get(DatacenterId{9999}), std::out_of_range);
  EXPECT_THROW(c.get(DatacenterId{}), std::out_of_range);
}

TEST(Catalog, DistanceSymmetricAndZeroForColocated) {
  const auto c = DatacenterCatalog::paper_footprint();
  const auto ingests = c.ingest_sites();
  const auto edges = c.edge_sites();
  EXPECT_DOUBLE_EQ(c.distance_km(ingests[0]->id, edges[0]->id),
                   c.distance_km(edges[0]->id, ingests[0]->id));
  // Ashburn ingest and Ashburn edge are the same location.
  EXPECT_NEAR(c.distance_km(ingests[0]->id, edges[0]->id), 0.0, 1e-9);
}

TEST(Catalog, DistanceCacheMatchesDirectHaversine) {
  const auto c = DatacenterCatalog::paper_footprint();
  // The cache must hold the bit-exact doubles haversine_km produces for
  // every ordered pair -- equality, not tolerance: anycast tie-breaks
  // compare these values with ==.
  for (const auto& a : c.all())
    for (const auto& b : c.all())
      EXPECT_EQ(c.distance_km(a.id, b.id),
                haversine_km(a.location, b.location))
          << a.city << " -> " << b.city;
}

TEST(Catalog, DistanceCacheExtendsOnAddSite) {
  auto c = DatacenterCatalog::single_site();
  const DatacenterId added =
      c.add_site("Springfield", Continent::kNorthAmerica, 44.0, -93.0,
                 CdnRole::kEdge);
  for (const auto& other : c.all())
    EXPECT_EQ(c.distance_km(added, other.id),
              haversine_km(c.get(added).location, other.location));
}

TEST(Catalog, SiteKeyedNearestMatchesPointKeyed) {
  const auto c = DatacenterCatalog::paper_footprint();
  for (const auto& dc : c.all()) {
    for (CdnRole role : {CdnRole::kIngest, CdnRole::kEdge}) {
      EXPECT_EQ(c.nearest(dc.id, role).id.value,
                c.nearest(dc.location, role).id.value)
          << dc.city;
    }
  }
}

TEST(Catalog, SiteKeyedKNearestMatchesPointKeyed) {
  const auto c = DatacenterCatalog::paper_footprint();
  const std::vector<DatacenterId> exclude = {c.edge_sites()[0]->id};
  for (const auto& dc : c.all()) {
    const auto by_id = c.k_nearest(dc.id, CdnRole::kEdge, 5, exclude);
    const auto by_pt = c.k_nearest(dc.location, CdnRole::kEdge, 5, exclude);
    ASSERT_EQ(by_id.size(), by_pt.size()) << dc.city;
    for (std::size_t i = 0; i < by_id.size(); ++i)
      EXPECT_EQ(by_id[i].dc->id.value, by_pt[i].dc->id.value) << dc.city;
  }
}

TEST(UserGeoSampler, ProducesValidCoordinates) {
  UserGeoSampler s;
  Rng rng(7);
  int north_america = 0;
  for (int i = 0; i < 5000; ++i) {
    const GeoPoint p = s.sample(rng);
    ASSERT_GE(p.lat_deg, -85.0);
    ASSERT_LE(p.lat_deg, 85.0);
    ASSERT_GE(p.lon_deg, -180.0);
    ASSERT_LE(p.lon_deg, 180.0);
    if (p.lat_deg > 20 && p.lat_deg < 60 && p.lon_deg > -130 &&
        p.lon_deg < -60)
      ++north_america;
  }
  // The 2015 user base is US-heavy.
  EXPECT_GT(north_america, 1500);
  EXPECT_LT(north_america, 4000);
}

TEST(Catalog, SingleSiteForTests) {
  const auto c = DatacenterCatalog::single_site();
  EXPECT_EQ(c.ingest_sites().size(), 1u);
  EXPECT_EQ(c.edge_sites().size(), 1u);
  EXPECT_NE(c.colocated_edge(c.ingest_sites()[0]->id), nullptr);
}

}  // namespace
}  // namespace livesim::geo
