#include <gtest/gtest.h>

#include "livesim/crawler/crawler.h"
#include "livesim/util/fingerprint.h"

namespace livesim::crawler {
namespace {

TEST(GlobalList, TracksActiveBroadcasts) {
  GlobalList list;
  list.broadcast_started(BroadcastId{1});
  list.broadcast_started(BroadcastId{2});
  EXPECT_EQ(list.active_count(), 2u);
  list.broadcast_ended(BroadcastId{1});
  EXPECT_EQ(list.active_count(), 1u);
  list.broadcast_ended(BroadcastId{99});  // unknown: no-op
  EXPECT_EQ(list.active_count(), 1u);
}

TEST(GlobalList, SampleReturnsAllWhenFew) {
  GlobalList list;
  for (std::uint64_t i = 0; i < 10; ++i) list.broadcast_started(BroadcastId{i});
  Rng rng(1);
  const auto s = list.sample(50, rng);
  EXPECT_EQ(s.size(), 10u);
}

TEST(GlobalList, SampleIsUniqueAndBounded) {
  GlobalList list;
  for (std::uint64_t i = 0; i < 500; ++i) list.broadcast_started(BroadcastId{i});
  Rng rng(2);
  const auto s = list.sample(50, rng);
  EXPECT_EQ(s.size(), 50u);
  std::unordered_set<std::uint64_t> seen;
  for (auto id : s) EXPECT_TRUE(seen.insert(id.value).second);
}

TEST(GlobalList, SampleCoversUniformly) {
  GlobalList list;
  for (std::uint64_t i = 0; i < 100; ++i) list.broadcast_started(BroadcastId{i});
  Rng rng(3);
  std::vector<int> hits(100, 0);
  for (int round = 0; round < 2000; ++round)
    for (auto id : list.sample(50, rng)) ++hits[id.value];
  // Each broadcast should appear ~1000 times (50% of rounds).
  for (int h : hits) EXPECT_NEAR(h, 1000, 150);
}

TEST(ListCrawler, StaggeredAccountsRefreshFaster) {
  sim::Simulator sim;
  GlobalList list;
  for (std::uint64_t i = 0; i < 10; ++i) list.broadcast_started(BroadcastId{i});
  ListCrawler crawler(sim, list, 20, Rng(4));
  EXPECT_EQ(crawler.effective_refresh(), 250 * time::kMillisecond);
  crawler.start();
  sim.run_until(10 * time::kSecond);
  crawler.stop();
  sim.run();
  // 20 accounts x every 5 s over 10 s = ~40 refreshes.
  EXPECT_NEAR(static_cast<double>(crawler.refreshes()), 40.0, 3.0);
  for (std::uint64_t i = 0; i < 10; ++i)
    EXPECT_TRUE(crawler.has_seen(BroadcastId{i}));
}

TEST(Coverage, PaperRefreshCapturesEverything) {
  CoverageParams p;
  p.arrivals_per_s = 2.0;
  p.mean_duration_s = 150.0;
  p.accounts = 20;  // 0.25 s effective refresh, the paper's configuration
  p.horizon = 10 * time::kMinute;
  const auto r = run_coverage_experiment(p);
  EXPECT_GT(r.total_broadcasts, 800u);
  EXPECT_GT(r.coverage, 0.995);  // "exhaustively captures all broadcasts"
  EXPECT_LT(r.mean_detection_latency_s, 60.0);
}

TEST(Coverage, SlowRefreshMissesShortBroadcasts) {
  CoverageParams fast, slow;
  fast.arrivals_per_s = slow.arrivals_per_s = 5.0;
  fast.mean_duration_s = slow.mean_duration_s = 30.0;  // short streams
  fast.accounts = 20;
  slow.accounts = 1;  // one account = 5 s refresh and 50-item samples only
  fast.horizon = slow.horizon = 10 * time::kMinute;
  const auto rf = run_coverage_experiment(fast);
  const auto rs = run_coverage_experiment(slow);
  EXPECT_GT(rf.coverage, rs.coverage);
  EXPECT_GT(rf.coverage, 0.98);
  EXPECT_GT(rs.mean_detection_latency_s, rf.mean_detection_latency_s);
}

TEST(Coverage, HigherVolumeNeedsFasterRefresh) {
  // With 50-item samples, a large active set dilutes each refresh; at a
  // fixed refresh rate coverage degrades as volume grows.
  CoverageParams low, high;
  low.arrivals_per_s = 1.0;
  high.arrivals_per_s = 20.0;
  low.mean_duration_s = high.mean_duration_s = 60.0;
  low.accounts = high.accounts = 2;
  low.horizon = high.horizon = 8 * time::kMinute;
  const auto rl = run_coverage_experiment(low);
  const auto rh = run_coverage_experiment(high);
  EXPECT_GT(rh.peak_active, rl.peak_active);
  EXPECT_LT(rh.coverage, rl.coverage);
}

TEST(Coverage, Deterministic) {
  CoverageParams p;
  p.horizon = 3 * time::kMinute;
  const auto a = run_coverage_experiment(p);
  const auto b = run_coverage_experiment(p);
  EXPECT_EQ(a.total_broadcasts, b.total_broadcasts);
  EXPECT_EQ(a.captured, b.captured);
}

// Golden: the account interval and the list size decide what each
// refresh sees. About 300 broadcasts are live at once, so a 50-item list
// samples the active set; one account refreshes every interval, twenty
// accounts every interval / 20.
TEST(Coverage, MatchesGolden) {
  const struct {
    std::uint32_t accounts;
    std::uint64_t golden;
  } cases[] = {{20, 0xf2355210e2b4081cULL}, {1, 0x12716db246e798d7ULL}};
  for (const auto& c : cases) {
    CoverageParams p;
    p.arrivals_per_s = 5.0;
    p.mean_duration_s = 60.0;
    p.accounts = c.accounts;
    p.horizon = 4 * time::kMinute;
    p.seed = 11;
    const auto r = run_coverage_experiment(p);
    const std::uint64_t fp = util::Fingerprint()
                                 .mix(r.total_broadcasts)
                                 .mix(r.captured)
                                 .mix_double(r.mean_detection_latency_s)
                                 .mix_double(r.peak_active)
                                 .value();
    EXPECT_EQ(fp, c.golden) << c.accounts << " accounts";
  }
}

}  // namespace
}  // namespace livesim::crawler
