// Unit tests for the fault-injection building blocks: schedules,
// the injector, backoff, poll retry, and the per-layer fault hooks.
#include <gtest/gtest.h>

#include <vector>

#include "livesim/cdn/servers.h"
#include "livesim/client/retry.h"
#include "livesim/fault/backoff.h"
#include "livesim/fault/fault.h"
#include "livesim/fault/injector.h"
#include "livesim/media/encoder.h"
#include "livesim/net/link.h"
#include "livesim/sim/simulator.h"

namespace {
using namespace livesim;

// --- FaultSchedule ---------------------------------------------------

TEST(FaultSchedule, AddKeepsTimeOrder) {
  fault::FaultSchedule s;
  s.add({30 * time::kSecond, fault::FaultKind::kIngestCrash, 0});
  s.add({10 * time::kSecond, fault::FaultKind::kEdgeCacheFlush, 0});
  s.add({20 * time::kSecond, fault::FaultKind::kLinkDegrade, 0});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.events()[0].at, 10 * time::kSecond);
  EXPECT_EQ(s.events()[1].at, 20 * time::kSecond);
  EXPECT_EQ(s.events()[2].at, 30 * time::kSecond);
}

TEST(FaultSchedule, AddIsStableAtEqualTimes) {
  fault::FaultSchedule s;
  s.add({5 * time::kSecond, fault::FaultKind::kIngestCrash, 0});
  s.add({5 * time::kSecond, fault::FaultKind::kLinkDegrade, 0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.events()[0].kind, fault::FaultKind::kIngestCrash);
  EXPECT_EQ(s.events()[1].kind, fault::FaultKind::kLinkDegrade);
}

TEST(FaultSchedule, ActiveCoversHalfOpenWindow) {
  fault::FaultSchedule s;
  s.add({10 * time::kSecond, fault::FaultKind::kLinkDegrade,
         4 * time::kSecond});
  EXPECT_FALSE(s.active(fault::FaultKind::kLinkDegrade, 9 * time::kSecond));
  EXPECT_TRUE(s.active(fault::FaultKind::kLinkDegrade, 10 * time::kSecond));
  EXPECT_TRUE(s.active(fault::FaultKind::kLinkDegrade,
                       14 * time::kSecond - 1));
  EXPECT_FALSE(s.active(fault::FaultKind::kLinkDegrade, 14 * time::kSecond));
  EXPECT_FALSE(s.active(fault::FaultKind::kIngestCrash, 11 * time::kSecond));
}

TEST(FaultSchedule, RandomizedIsDeterministicInSeed) {
  fault::RandomFaultParams p;
  p.faults_per_minute = 3.0;
  p.horizon = 5 * time::kMinute;
  const auto a = fault::FaultSchedule::randomized(p, 1234);
  const auto b = fault::FaultSchedule::randomized(p, 1234);
  const auto c = fault::FaultSchedule::randomized(p, 1235);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
  }
  EXPECT_GT(a.size(), 0u);
  // A different seed yields a different script (overwhelmingly likely).
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a.events()[i].at != c.events()[i].at;
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, ZeroRateOrHorizonDrawsNothing) {
  fault::RandomFaultParams p;
  p.faults_per_minute = 0.0;
  p.horizon = time::kMinute;
  EXPECT_TRUE(fault::FaultSchedule::randomized(p, 7).empty());

  p.faults_per_minute = 5.0;
  p.horizon = 0;
  EXPECT_TRUE(fault::FaultSchedule::randomized(p, 7).empty());
}

TEST(FaultSchedule, RandomizedRespectsHorizonAndRate) {
  fault::RandomFaultParams p;
  p.faults_per_minute = 6.0;
  p.horizon = 10 * time::kMinute;
  const auto s = fault::FaultSchedule::randomized(p, 99);
  for (const auto& e : s.events()) {
    EXPECT_GE(e.at, 0);
    EXPECT_LT(e.at, p.horizon);
  }
  // Poisson(60) — a wide tolerance band keeps this deterministic test
  // meaningful without being seed-brittle.
  EXPECT_GT(s.size(), 30u);
  EXPECT_LT(s.size(), 120u);
}

TEST(FaultSchedule, OfKindFilters) {
  fault::RandomFaultParams p;
  p.faults_per_minute = 4.0;
  p.horizon = 5 * time::kMinute;
  const auto s = fault::FaultSchedule::randomized(p, 21);
  std::size_t total = 0;
  for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
    const auto kind = static_cast<fault::FaultKind>(k);
    const auto filtered = s.of_kind(kind);
    for (const auto& e : filtered) EXPECT_EQ(e.kind, kind);
    total += filtered.size();
  }
  EXPECT_EQ(total, s.size());
}

// --- FaultInjector ---------------------------------------------------

TEST(FaultInjector, DispatchesEveryEventAtItsTime) {
  sim::Simulator sim;
  fault::FaultSchedule s;
  s.add({2 * time::kSecond, fault::FaultKind::kIngestCrash,
         1 * time::kSecond});
  s.add({5 * time::kSecond, fault::FaultKind::kEdgeCacheFlush, 0});
  s.add({5 * time::kSecond, fault::FaultKind::kIngestCrash, 0});

  fault::FaultInjector inj(sim, s);
  std::vector<TimeUs> crash_times;
  std::size_t flushes = 0;
  inj.on(fault::FaultKind::kIngestCrash,
         [&](const fault::FaultEvent&) { crash_times.push_back(sim.now()); });
  inj.on(fault::FaultKind::kEdgeCacheFlush,
         [&](const fault::FaultEvent&) { ++flushes; });
  inj.arm();
  sim.run();

  ASSERT_EQ(crash_times.size(), 2u);
  EXPECT_EQ(crash_times[0], 2 * time::kSecond);
  EXPECT_EQ(crash_times[1], 5 * time::kSecond);
  EXPECT_EQ(flushes, 1u);
  EXPECT_EQ(inj.injected(), 3u);
  EXPECT_EQ(inj.injected(fault::FaultKind::kIngestCrash), 2u);
  EXPECT_EQ(inj.injected(fault::FaultKind::kEdgeCacheFlush), 1u);
  EXPECT_EQ(inj.injected(fault::FaultKind::kLinkDegrade), 0u);
}

TEST(FaultInjector, ArmIsIdempotent) {
  sim::Simulator sim;
  fault::FaultSchedule s;
  s.add({1 * time::kSecond, fault::FaultKind::kLinkDegrade, 0});
  fault::FaultInjector inj(sim, s);
  std::size_t fired = 0;
  inj.on(fault::FaultKind::kLinkDegrade,
         [&](const fault::FaultEvent&) { ++fired; });
  inj.arm();
  inj.arm();  // second arm must not double-schedule
  sim.run();
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(inj.injected(), 1u);
}

TEST(FaultInjector, UnhandledKindsStillCount) {
  sim::Simulator sim;
  fault::FaultSchedule s;
  s.add({1 * time::kSecond, fault::FaultKind::kChunkCorruption,
         2 * time::kSecond});
  fault::FaultInjector inj(sim, s);
  inj.arm();
  sim.run();  // no handler registered: must not crash
  EXPECT_EQ(inj.injected(), 1u);
}

// --- Backoff ---------------------------------------------------------

TEST(BackoffPolicy, BaseDelayGrowsGeometricallyToCap) {
  EXPECT_EQ(fault::backoff_base_delay(1), 500 * time::kMillisecond);
  EXPECT_EQ(fault::backoff_base_delay(2), 1 * time::kSecond);
  EXPECT_EQ(fault::backoff_base_delay(3), 2 * time::kSecond);
  EXPECT_EQ(fault::backoff_base_delay(4), 4 * time::kSecond);
  EXPECT_EQ(fault::backoff_base_delay(5), 8 * time::kSecond);
  EXPECT_EQ(fault::backoff_base_delay(6), 8 * time::kSecond);   // capped
  EXPECT_EQ(fault::backoff_base_delay(40), 8 * time::kSecond);  // no overflow
}

TEST(BackoffPolicy, JitterStaysInBand) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const DurationUs d = fault::backoff_delay(1, rng);
    EXPECT_GE(d, static_cast<DurationUs>(0.8 * 500 * time::kMillisecond));
    EXPECT_LE(d, static_cast<DurationUs>(1.2 * 500 * time::kMillisecond));
  }
}

TEST(BackoffPolicy, JitterIsDeterministicInRngState) {
  Rng a(42), b(42);
  for (std::uint32_t attempt = 1; attempt <= 8; ++attempt)
    EXPECT_EQ(fault::backoff_delay(attempt, a),
              fault::backoff_delay(attempt, b));
}

// --- PollRetryState --------------------------------------------------

TEST(PollRetryState, BacksOffThenGivesUp) {
  client::PollRetryState retry;
  Rng rng(1);
  Rng witness = rng;  // replays the retry's jitter draws

  TimeUs t = 10 * time::kSecond;
  for (std::uint32_t k = 1; k < client::PollRetryState::kMaxAttempts; ++k) {
    const auto next = retry.on_failure(t, rng);
    ASSERT_TRUE(next.has_value()) << "failure " << k;
    EXPECT_EQ(*next, t + fault::backoff_delay(k, witness));
    EXPECT_EQ(retry.consecutive_failures(), k);
    t = *next;
  }
  // The streak hits kMaxAttempts: the client gives up.
  EXPECT_FALSE(retry.on_failure(t, rng).has_value());
  EXPECT_TRUE(retry.gave_up());
  // Terminal: success no longer revives it, later failures stay nullopt.
  retry.on_success();
  EXPECT_TRUE(retry.gave_up());
  EXPECT_FALSE(retry.on_failure(t + 20 * time::kSecond, rng).has_value());
  EXPECT_EQ(retry.total_failures(), client::PollRetryState::kMaxAttempts);
}

TEST(PollRetryState, SuccessResetsTheStreak) {
  constexpr std::uint32_t kMax = client::PollRetryState::kMaxAttempts;
  client::PollRetryState retry;
  Rng rng(5);
  for (std::uint32_t k = 1; k < kMax; ++k)
    ASSERT_TRUE(retry.on_failure(k * time::kSecond, rng).has_value());
  retry.on_success();
  EXPECT_EQ(retry.consecutive_failures(), 0u);
  // The streak restarts, so kMax - 1 more failures do not exhaust it.
  for (std::uint32_t k = 1; k < kMax; ++k)
    EXPECT_TRUE(retry.on_failure((kMax + k) * time::kSecond, rng).has_value());
  EXPECT_FALSE(retry.gave_up());
  EXPECT_EQ(retry.total_failures(), 2 * (kMax - 1));
}

// Audit pin: give-up is TERMINAL. Once the streak exhausts max_attempts,
// later on_failure calls must stay nullopt without inflating
// total_failures() (the ledger records real attempts, not post-mortem
// noise) and without consuming RNG (a dead retry loop must not perturb
// the caller's substream); on_success must not resurrect the streak or
// un-give-up the client.
TEST(PollRetryState, GiveUpIsTerminalAndDoesNotInflateTheLedger) {
  constexpr std::uint32_t kMax = client::PollRetryState::kMaxAttempts;
  client::PollRetryState retry;
  Rng rng(9);

  for (std::uint32_t k = 1; k < kMax; ++k)
    ASSERT_TRUE(retry.on_failure(k * time::kSecond, rng).has_value());
  ASSERT_FALSE(retry.on_failure(kMax * time::kSecond, rng).has_value());
  ASSERT_TRUE(retry.gave_up());
  EXPECT_EQ(retry.total_failures(), kMax);
  EXPECT_EQ(retry.consecutive_failures(), kMax);

  // Post-give-up failures: terminal, ledger frozen, RNG untouched.
  Rng witness = rng;  // value copy: same state iff no draws happen
  for (std::uint32_t i = 1; i <= 5; ++i)
    EXPECT_FALSE(
        retry.on_failure((kMax + i) * time::kSecond, rng).has_value());
  EXPECT_EQ(retry.total_failures(), kMax);
  EXPECT_EQ(retry.consecutive_failures(), kMax);
  EXPECT_EQ(rng.next_u64(), witness.next_u64());

  // A late success (a stale response finally arriving) must not revive
  // the session or zero the streak that justified the give-up.
  retry.on_success();
  EXPECT_TRUE(retry.gave_up());
  EXPECT_EQ(retry.consecutive_failures(), kMax);
  EXPECT_EQ(retry.total_failures(), kMax);
  // And the combination stays dead: success then failure, still nullopt.
  EXPECT_FALSE(retry.on_failure(20 * time::kSecond, rng).has_value());
  EXPECT_EQ(retry.total_failures(), kMax);
}

// --- Layer hooks -----------------------------------------------------

TEST(FaultHooks, UplinkOutageDelaysDeliveryUntilRecovery) {
  sim::Simulator sim;
  net::FifoUplink::Params p;
  p.link.base_delay = 10 * time::kMillisecond;
  p.link.jitter_fraction = 0.0;
  p.link.loss_rate = 0.0;
  net::FifoUplink link(sim, p, Rng(1));

  link.inject_outage(2 * time::kSecond);
  std::vector<TimeUs> delivered;
  link.send(1000, [&](TimeUs at) { delivered.push_back(at); });
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_GE(delivered[0], 2 * time::kSecond);

  // Without an injected outage, the same message is delivered promptly.
  sim::Simulator sim2;
  net::FifoUplink clean(sim2, p, Rng(1));
  std::vector<TimeUs> prompt;
  clean.send(1000, [&](TimeUs at) { prompt.push_back(at); });
  sim2.run();
  ASSERT_EQ(prompt.size(), 1u);
  EXPECT_LT(prompt[0], 1 * time::kSecond);
}

TEST(FaultHooks, IngestSetDownDropsFrames) {
  sim::Simulator sim;
  cdn::IngestServer server(sim, DatacenterId{0}, media::kChunkTarget);
  std::size_t pushed = 0;
  server.add_rtmp_subscriber([&](const media::VideoFrame&, TimeUs) {
    ++pushed;
    return true;
  });
  media::FrameSource src(Rng(1));

  server.on_frame(src.next());
  EXPECT_EQ(pushed, 1u);
  EXPECT_FALSE(server.down());

  server.set_down(true);
  server.on_frame(src.next());
  server.on_frame(src.next());
  EXPECT_EQ(pushed, 1u);  // nothing reached subscribers
  EXPECT_EQ(server.frames_dropped(), 2u);
  EXPECT_TRUE(server.down());

  server.set_down(false);
  server.on_frame(src.next());
  EXPECT_EQ(pushed, 2u);
}

TEST(FaultHooks, EdgeFlushForcesOriginRefetch) {
  sim::Simulator sim;
  std::size_t origin_fetches = 0;
  cdn::EdgeServer edge(
      sim, DatacenterId{1},
      [&](std::function<void(cdn::EdgeServer::FetchResult)> done) {
        ++origin_fetches;
        media::Chunk c;
        c.seq = 0;
        sim.schedule_in(10 * time::kMillisecond, [done = std::move(done), c] {
          done(std::vector<media::Chunk>{c});
        });
      });

  edge.on_expire_notice(0);
  std::size_t got_first = 0;
  edge.on_poll(-1, [&](TimeUs, std::uint32_t begin, std::uint32_t end) {
    got_first = end - begin;
  });
  sim.run();
  EXPECT_EQ(got_first, 1u);
  EXPECT_EQ(origin_fetches, 1u);
  EXPECT_EQ(edge.cache_flushes(), 0u);

  // Cached now: a fresh poll is served without touching the origin.
  edge.on_poll(-1, [](TimeUs, std::uint32_t, std::uint32_t) {});
  sim.run();
  EXPECT_EQ(origin_fetches, 1u);

  edge.flush_cache();
  EXPECT_EQ(edge.cache_flushes(), 1u);
  edge.on_poll(-1, [](TimeUs, std::uint32_t, std::uint32_t) {});
  sim.run();
  EXPECT_EQ(origin_fetches, 2u);  // cache was really gone
}

}  // namespace
