#include <gtest/gtest.h>

#include "livesim/crawler/service_crawler.h"
#include "livesim/util/fingerprint.h"

namespace livesim::crawler {
namespace {

class ServiceCrawlerFixture : public ::testing::Test {
 protected:
  // One simulated service with its broadcast arrival process.
  struct World {
    explicit World(const core::LivestreamService::Config& cfg)
        : catalog(geo::DatacenterCatalog::paper_footprint()),
          service(sim, catalog, cfg) {}

    // A stream of broadcasts over `horizon`, each with a few viewers and
    // some hearts.
    void drive(DurationUs horizon, double per_minute = 6.0) {
      arrive = [this, horizon, per_minute] {
        if (sim.now() >= horizon) return;
        geo::UserGeoSampler geo_sampler;
        const auto id = service.start_broadcast(
            geo_sampler.sample(arrival_rng),
            time::from_seconds(40.0 + arrival_rng.uniform() * 80.0));
        for (int v = 0; v < 4; ++v) {
          if (auto h = service.join(id, geo_sampler.sample(arrival_rng))) {
            const auto handle = *h;
            sim.schedule_in(25 * time::kSecond,
                            [this, handle] { service.send_heart(handle); });
          }
        }
        sim.schedule_in(
            time::from_seconds(arrival_rng.exponential(60.0 / per_minute)),
            [this] { arrive(); });
      };
      sim.schedule_in(0, [this] { arrive(); });
    }

    sim::Simulator sim;
    geo::DatacenterCatalog catalog;
    core::LivestreamService service;
    // The arrival process re-schedules itself through this member, not
    // through a closure that owns a pointer to itself (a leaked cycle).
    Rng arrival_rng{72};
    std::function<void()> arrive;
  };

  static core::LivestreamService::Config service_config() {
    core::LivestreamService::Config cfg;
    cfg.seed = 71;
    return cfg;
  }
};

TEST_F(ServiceCrawlerFixture, CapturesEveryBroadcastWithAccurateMetadata) {
  // The paper's two tiers, and a ladder that puts each broadcast's four
  // viewers on all three tiers: 1 RTMP, 2 LL-HLS, 1 HLS.
  auto ladder = service_config();
  ladder.rtmp_slot_cap = 1;
  ladder.llhls_slot_cap = 2;
  for (const auto& cfg : {service_config(), ladder}) {
    SCOPED_TRACE(cfg.llhls_slot_cap ? "three tiers" : "two tiers");
    World w(cfg);
    w.drive(4 * time::kMinute);
    ServiceCrawler crawler(w.sim, w.service, Rng(73));
    crawler.start();
    w.sim.schedule_at(6 * time::kMinute, [&] { crawler.stop(); });
    w.sim.run();

    // Ground truth: every broadcast the service ever created.
    std::uint64_t total = 0;
    for (std::uint64_t i = 0;; ++i) {
      const auto info = w.service.info(BroadcastId{i});
      if (!info) break;
      ++total;
      // Captured, with matching interaction metadata.
      auto rec = crawler.records().find(i);
      ASSERT_NE(rec, crawler.records().end()) << "missed broadcast " << i;
      EXPECT_EQ(rec->second.hearts, info->hearts);
      EXPECT_EQ(rec->second.comments, info->comments);
      EXPECT_EQ(rec->second.peak_viewers,
                info->rtmp_viewers + info->llhls_viewers + info->hls_viewers);
      EXPECT_TRUE(rec->second.ended);
      // Detected within seconds of starting (0.25 s effective refresh).
      EXPECT_LT(rec->second.first_seen - info->started_at,
                5 * time::kSecond);
    }
    EXPECT_GT(total, 10u);
    EXPECT_EQ(crawler.broadcasts_captured(), total);
  }
}

TEST_F(ServiceCrawlerFixture, OutageLosesOnlyShortBroadcastsInWindow) {
  World w(service_config());
  w.drive(8 * time::kMinute, 14.0);
  ServiceCrawler crawler(w.sim, w.service, Rng(74));
  crawler.start();
  // The Aug 7-9 bug, scaled down: list refreshes fail for two minutes.
  crawler.schedule_outage(2 * time::kMinute, 4 * time::kMinute);
  w.sim.schedule_at(10 * time::kMinute, [&] { crawler.stop(); });
  w.sim.run();

  std::uint64_t total = 0, missed = 0, missed_in_window = 0;
  for (std::uint64_t i = 0;; ++i) {
    const auto info = w.service.info(BroadcastId{i});
    if (!info) break;
    ++total;
    if (crawler.records().count(i)) continue;
    ++missed;
    // Every miss must be a broadcast that lived entirely inside the
    // outage window (otherwise a refresh would have caught it).
    if (info->started_at >= 2 * time::kMinute - 5 * time::kSecond &&
        info->started_at + info->length <=
            4 * time::kMinute + 5 * time::kSecond)
      ++missed_in_window;
  }
  EXPECT_GT(missed, 0u);  // the outage did cost us data ("missing ~4.5%")
  EXPECT_EQ(missed, missed_in_window);
  EXPECT_LT(static_cast<double>(missed) / static_cast<double>(total), 0.35);
}

TEST_F(ServiceCrawlerFixture, PrivateBroadcastsAreInvisible) {
  World w(service_config());
  w.service.start_private_broadcast({37.77, -122.42}, 2 * time::kMinute,
                                    {UserId{1}});
  w.service.start_broadcast({37.77, -122.42}, 2 * time::kMinute);
  ServiceCrawler crawler(w.sim, w.service, Rng(75));
  crawler.start();
  w.sim.schedule_at(3 * time::kMinute, [&] { crawler.stop(); });
  w.sim.run();
  // Only the public broadcast is on the global list.
  EXPECT_EQ(crawler.broadcasts_captured(), 1u);
  EXPECT_TRUE(crawler.records().count(1));
  EXPECT_FALSE(crawler.records().count(0));
}

// Golden: every record's first sighting, last live poll and metadata.
// The account interval and list size set first_seen, the monitor poll
// sets last_live.
TEST_F(ServiceCrawlerFixture, RecordsMatchGolden) {
  World w(service_config());
  w.drive(3 * time::kMinute);
  ServiceCrawler crawler(w.sim, w.service, Rng(76));
  crawler.start();
  w.sim.schedule_at(5 * time::kMinute, [&] { crawler.stop(); });
  w.sim.run();

  util::Fingerprint h;
  for (const auto& [id, rec] : crawler.records())
    h.mix(id)
        .mix(static_cast<std::uint64_t>(rec.first_seen))
        .mix(static_cast<std::uint64_t>(rec.last_live))
        .mix(rec.peak_viewers)
        .mix(rec.hearts)
        .mix(rec.comments)
        .mix(rec.ended ? 1 : 0);
  EXPECT_GT(crawler.broadcasts_captured(), 10u);
  EXPECT_EQ(h.value(), 0x6259f0785a8c7090ULL);
}

}  // namespace
}  // namespace livesim::crawler
