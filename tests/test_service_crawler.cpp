#include <gtest/gtest.h>

#include "livesim/crawler/service_crawler.h"

namespace livesim::crawler {
namespace {

class ServiceCrawlerFixture : public ::testing::Test {
 protected:
  ServiceCrawlerFixture()
      : catalog_(geo::DatacenterCatalog::paper_footprint()),
        service_(sim_, catalog_, service_config()) {}

  static core::LivestreamService::Config service_config() {
    core::LivestreamService::Config cfg;
    cfg.seed = 71;
    return cfg;
  }

  // A stream of broadcasts over `horizon`, each with a few viewers and
  // some hearts.
  void drive_service(DurationUs horizon, double per_minute = 6.0) {
    arrive_ = [this, horizon, per_minute] {
      if (sim_.now() >= horizon) return;
      geo::UserGeoSampler geo_sampler;
      const auto id = service_.start_broadcast(
          geo_sampler.sample(arrival_rng_),
          time::from_seconds(40.0 + arrival_rng_.uniform() * 80.0));
      for (int v = 0; v < 4; ++v) {
        if (auto h = service_.join(id, geo_sampler.sample(arrival_rng_))) {
          const auto handle = *h;
          sim_.schedule_in(25 * time::kSecond, [this, handle] {
            service_.send_heart(handle);
          });
        }
      }
      sim_.schedule_in(
          time::from_seconds(arrival_rng_.exponential(60.0 / per_minute)),
          [this] { arrive_(); });
    };
    sim_.schedule_in(0, [this] { arrive_(); });
  }

  sim::Simulator sim_;
  geo::DatacenterCatalog catalog_;
  core::LivestreamService service_;
  // The arrival process re-schedules itself through this member, not
  // through a closure that owns a pointer to itself (a leaked cycle).
  Rng arrival_rng_{72};
  std::function<void()> arrive_;
};

TEST_F(ServiceCrawlerFixture, CapturesEveryBroadcastWithAccurateMetadata) {
  drive_service(4 * time::kMinute);
  ServiceCrawler crawler(sim_, service_, {}, Rng(73));
  crawler.start();
  sim_.schedule_at(6 * time::kMinute, [&] { crawler.stop(); });
  sim_.run();

  // Ground truth: every broadcast the service ever created.
  std::uint64_t total = 0;
  for (std::uint64_t i = 0;; ++i) {
    const auto info = service_.info(BroadcastId{i});
    if (!info) break;
    ++total;
    // Captured, with matching interaction metadata.
    auto rec = crawler.records().find(i);
    ASSERT_NE(rec, crawler.records().end()) << "missed broadcast " << i;
    EXPECT_EQ(rec->second.hearts, info->hearts);
    EXPECT_EQ(rec->second.comments, info->comments);
    EXPECT_EQ(rec->second.peak_viewers,
              info->rtmp_viewers + info->hls_viewers);
    EXPECT_TRUE(rec->second.ended);
    // Detected within seconds of starting (0.25 s effective refresh).
    EXPECT_LT(rec->second.first_seen - info->started_at,
              5 * time::kSecond);
  }
  EXPECT_GT(total, 10u);
  EXPECT_EQ(crawler.broadcasts_captured(), total);
}

TEST_F(ServiceCrawlerFixture, OutageLosesOnlyShortBroadcastsInWindow) {
  drive_service(8 * time::kMinute, 14.0);
  ServiceCrawler crawler(sim_, service_, {}, Rng(74));
  crawler.start();
  // The Aug 7-9 bug, scaled down: list refreshes fail for two minutes.
  crawler.schedule_outage(2 * time::kMinute, 4 * time::kMinute);
  sim_.schedule_at(10 * time::kMinute, [&] { crawler.stop(); });
  sim_.run();

  std::uint64_t total = 0, missed = 0, missed_in_window = 0;
  for (std::uint64_t i = 0;; ++i) {
    const auto info = service_.info(BroadcastId{i});
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
  service_.start_private_broadcast({37.77, -122.42}, 2 * time::kMinute,
                                   {UserId{1}});
  service_.start_broadcast({37.77, -122.42}, 2 * time::kMinute);
  ServiceCrawler crawler(sim_, service_, {}, Rng(75));
  crawler.start();
  sim_.schedule_at(3 * time::kMinute, [&] { crawler.stop(); });
  sim_.run();
  // Only the public broadcast is on the global list.
  EXPECT_EQ(crawler.broadcasts_captured(), 1u);
  EXPECT_TRUE(crawler.records().count(1));
  EXPECT_FALSE(crawler.records().count(0));
}

}  // namespace
}  // namespace livesim::crawler
