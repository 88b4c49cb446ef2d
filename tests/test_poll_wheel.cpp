// The HLS tick lane battery (ctest binary: livesim_poll_wheel_tests).
//
// HLS viewers poll only through their edge's PollWheel. Two layers of
// contract are pinned here:
//  1. PollWheel unit semantics: grid quantization, attach-order fan-out,
//     churn safety (detach during fan-out, attach during fan-out, stale
//     handles against recycled slots), and the empty-wheel-holds-no-event
//     invariant the soak test's drained-queue pin relies on.
//  2. Wheel-vs-timer equivalence: a randomized churn schedule driven
//     through a PollWheel and through one-PeriodicProcess-per-member
//     timers produces the identical (time, tag) tick sequence; a full
//     BroadcastSession on shared edge wheels produces byte-identical
//     ViewerResults to the per-viewer-timer oracle (a wheel per viewer,
//     tests/session_fingerprint.h) through clean runs, ingest crashes,
//     edge blackouts, corruption windows, and capacity spills, each also
//     on a crowded input where viewers share wheel buckets.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "livesim/core/broadcast_session.h"
#include "livesim/fault/scenario.h"
#include "livesim/geo/datacenters.h"
#include "livesim/sim/poll_wheel.h"
#include "livesim/sim/simulator.h"
#include "livesim/util/rng.h"
#include "session_fingerprint.h"

namespace {
using namespace livesim;

// --- 1. PollWheel unit semantics --------------------------------------

using Fired = std::vector<std::pair<TimeUs, std::uint64_t>>;

TEST(PollWheel, EmptyWheelSchedulesNothing) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(wheel.size(), 0u);
  sim.run();  // drains instantly: a zero-member wheel never fires
  EXPECT_EQ(wheel.ticks(), 0u);
}

TEST(PollWheel, GeometryIsSlotWidthTimesBuckets) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  EXPECT_EQ(wheel.slot_width(), 250);
  EXPECT_EQ(wheel.effective_period(), 1000);
  EXPECT_EQ(wheel.buckets(), 4u);
  // The 2.8 s / 64 session default divides exactly.
  sim::PollWheel hls(sim, time::from_seconds(2.8), 64);
  EXPECT_EQ(hls.slot_width(), 43750);
  EXPECT_EQ(hls.effective_period(), time::from_seconds(2.8));
  // A non-dividing period floors the width; the effective rotation is
  // what callers must poll at, not the requested period.
  sim::PollWheel odd(sim, 1000, 3);
  EXPECT_EQ(odd.slot_width(), 333);
  EXPECT_EQ(odd.effective_period(), 999);
}

TEST(PollWheel, QuantizeSnapsToGridStrictlyAfterNow) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  EXPECT_EQ(wheel.quantize(0), 250);    // never "now", even at t=0
  EXPECT_EQ(wheel.quantize(1), 250);
  EXPECT_EQ(wheel.quantize(250), 250);
  EXPECT_EQ(wheel.quantize(251), 500);
  // Advance the clock: phases at or before now snap to the next boundary
  // strictly after it.
  sim.schedule_at(600, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 600);
  EXPECT_EQ(wheel.quantize(250), 750);
  EXPECT_EQ(wheel.quantize(600), 750);
  EXPECT_EQ(wheel.quantize(750), 750);
  EXPECT_EQ(wheel.quantize(900), 1000);  // off-grid raw snaps up
}

TEST(PollWheel, SingleMemberTicksEveryEffectivePeriod) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  Fired fired;
  wheel.set_fanout([&](TimeUs t, std::uint64_t tag, sim::CohortSlot) {
    fired.emplace_back(t, tag);
  });
  wheel.attach(wheel.quantize(100), 7);
  sim.run_until(3250);
  const Fired expect{{250, 7}, {1250, 7}, {2250, 7}, {3250, 7}};
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(wheel.ticks(), 4u);  // one bucket fan-out per rotation
}

TEST(PollWheel, FanoutVisitsBucketMembersInAttachOrder) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  Fired fired;
  wheel.set_fanout([&](TimeUs t, std::uint64_t tag, sim::CohortSlot) {
    fired.emplace_back(t, tag);
  });
  for (std::uint64_t tag : {31u, 7u, 19u})  // same bucket, in this order
    wheel.attach(wheel.quantize(0), tag);
  sim.run_until(1250);  // two rotations of bucket 1
  const Fired expect{{250, 31}, {250, 7}, {250, 19},
                     {1250, 31}, {1250, 7}, {1250, 19}};
  EXPECT_EQ(fired, expect);  // re-arms preserve the order, too
}

TEST(PollWheel, DetachedMemberStopsAndEmptyWheelDropsItsEvent) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  std::uint64_t ticks_seen = 0;
  wheel.set_fanout(
      [&](TimeUs, std::uint64_t, sim::CohortSlot) { ++ticks_seen; });
  const auto s = wheel.attach(wheel.quantize(0), 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(250);
  EXPECT_EQ(ticks_seen, 1u);
  EXPECT_TRUE(wheel.detach(s));
  // The wheel emptied: its pending event is cancelled on the spot, so a
  // drained simulation holds no wheel events (the soak-test invariant).
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(ticks_seen, 1u);
}

TEST(PollWheel, ReattachAfterWheelEmptiedReschedules) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  Fired fired;
  wheel.set_fanout([&](TimeUs t, std::uint64_t tag, sim::CohortSlot) {
    fired.emplace_back(t, tag);
  });
  const auto s = wheel.attach(wheel.quantize(0), 1);
  wheel.detach(s);
  ASSERT_EQ(sim.pending(), 0u);
  wheel.attach(wheel.quantize(0), 2);
  sim.run_until(300);
  const Fired expect{{250, 2}};
  EXPECT_EQ(fired, expect);
}

TEST(PollWheel, MemberMayDetachItselfDuringItsOwnFanout) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  std::vector<sim::CohortSlot> slots(3);
  Fired fired;
  wheel.set_fanout([&](TimeUs t, std::uint64_t tag, sim::CohortSlot s) {
    fired.emplace_back(t, tag);
    if (tag == 1) {
      EXPECT_TRUE(wheel.detach(s));  // one-shot member
    }
  });
  for (std::uint64_t tag : {0u, 1u, 2u})
    slots[tag] = wheel.attach(wheel.quantize(0), tag);
  sim.run_until(1250);
  const Fired expect{{250, 0}, {250, 1}, {250, 2}, {1250, 0}, {1250, 2}};
  EXPECT_EQ(fired, expect);
  EXPECT_FALSE(wheel.attached(slots[1]));
  EXPECT_EQ(wheel.size(), 2u);
}

TEST(PollWheel, DetachingTheUpcomingMemberMidFanoutSkipsIt) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  std::vector<sim::CohortSlot> slots(3);
  Fired fired;
  wheel.set_fanout([&](TimeUs t, std::uint64_t tag, sim::CohortSlot) {
    fired.emplace_back(t, tag);
    // During member 0's first visit, unlink member 1 -- the exact slot
    // the fan-out cursor points at next.
    if (tag == 0 && t == 250) {
      EXPECT_TRUE(wheel.detach(slots[1]));
    }
  });
  for (std::uint64_t tag : {0u, 1u, 2u})
    slots[tag] = wheel.attach(wheel.quantize(0), tag);
  sim.run_until(1250);
  const Fired expect{{250, 0}, {250, 2}, {1250, 0}, {1250, 2}};
  EXPECT_EQ(fired, expect);
}

TEST(PollWheel, AttachDuringOwnBucketFanoutWaitsOneRotation) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  Fired fired;
  bool attached_late = false;
  wheel.set_fanout([&](TimeUs t, std::uint64_t tag, sim::CohortSlot) {
    fired.emplace_back(t, tag);
    if (tag == 1 && !attached_late) {
      attached_late = true;
      // Lands in the bucket that is firing RIGHT NOW (same phase, one
      // rotation out). Appended at the tail behind member 2, so the
      // running cursor WILL walk onto it in this very pass -- the
      // per-slot first-due gate must skip it until the next rotation.
      wheel.attach(wheel.quantize(sim.now() + wheel.effective_period()), 99);
    }
  });
  wheel.attach(wheel.quantize(0), 1);
  wheel.attach(wheel.quantize(0), 2);
  sim.run_until(1250);
  const Fired expect{{250, 1}, {250, 2},
                     {1250, 1}, {1250, 2}, {1250, 99}};
  EXPECT_EQ(fired, expect);
}

TEST(PollWheel, StaleHandlesAreInertAgainstRecycledSlots) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  wheel.set_fanout([](TimeUs, std::uint64_t, sim::CohortSlot) {});
  const auto s = wheel.attach(wheel.quantize(0), 5);
  EXPECT_TRUE(wheel.attached(s));
  EXPECT_EQ(wheel.tag(s), 5u);
  EXPECT_TRUE(wheel.detach(s));
  EXPECT_FALSE(wheel.detach(s));  // double-detach: refused
  EXPECT_FALSE(wheel.attached(s));
  EXPECT_EQ(wheel.tag(s), 0u);

  // The freed slot is recycled for the next member under a bumped
  // generation; the stale handle must not read or detach the new tenant.
  const auto s2 = wheel.attach(wheel.quantize(0), 6);
  ASSERT_EQ(s2.index, s.index);
  ASSERT_NE(s2.generation, s.generation);
  EXPECT_FALSE(wheel.attached(s));
  EXPECT_EQ(wheel.tag(s), 0u);
  EXPECT_FALSE(wheel.detach(s));
  EXPECT_TRUE(wheel.attached(s2));
  EXPECT_EQ(wheel.tag(s2), 6u);
}

TEST(PollWheel, RejectsMoreBucketsThanItsMaskHolds) {
  sim::Simulator sim;
  EXPECT_THROW(sim::PollWheel(sim, 64'000, 65), std::invalid_argument);
  sim::PollWheel widest(sim, 64'000, 64);
  EXPECT_EQ(widest.buckets(), 64u);
}

// The wheel finds its earliest due bucket by walking a non-empty mask in
// rotation order from now's slot. A linear scan of every bucket is the
// reference: random attaches with first ticks up to five rotations ahead,
// detaches (also from inside a fan-out), fan-outs and off-grid clock moves
// on 3-, 4- and 64-bucket wheels must choose the same bucket and due time.
TEST(PollWheel, EarliestDueMatchesALinearScan) {
  for (std::uint32_t buckets : {3u, 4u, 64u}) {
    sim::Simulator sim;
    sim::PollWheel wheel(sim, 64'000, buckets);
    const DurationUs period = wheel.effective_period();
    Rng rng(41 + buckets);
    std::vector<sim::CohortSlot> live;
    std::uint64_t checks = 0;
    const auto check = [&] {
      TimeUs best = -1;
      std::uint32_t best_b = sim::PollWheel::kNoBucket;
      for (std::uint32_t b = 0; b < wheel.buckets(); ++b) {
        const TimeUs due = wheel.bucket_due(b);
        if (due >= 0 && (best < 0 || due < best)) {
          best = due;
          best_b = b;
        }
      }
      std::uint32_t chosen = 0;
      EXPECT_EQ(wheel.earliest_due(&chosen), best) << "t=" << sim.now();
      EXPECT_EQ(chosen, best_b) << "t=" << sim.now();
      ++checks;
    };
    const auto drop = [&](std::size_t i) {
      EXPECT_TRUE(wheel.detach(live[i]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    };
    wheel.set_fanout([&](TimeUs, std::uint64_t, sim::CohortSlot s) {
      check();  // mid fan-out: the firing bucket is due a period later
      if (rng.bernoulli(0.1))
        drop(static_cast<std::size_t>(
            std::find(live.begin(), live.end(), s) - live.begin()));
    });
    for (int round = 0; round < 3000; ++round) {
      const auto op = rng.uniform_int(0, 9);
      if (op < 4 || live.empty()) {
        const TimeUs raw = sim.now() + rng.uniform_int(0, 5 * period);
        live.push_back(wheel.attach(wheel.quantize(raw),
                                    static_cast<std::uint64_t>(round)));
      } else if (op < 6) {
        drop(static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1)));
      } else if (op < 8) {
        // The one pending engine event fires at the chosen due time.
        const TimeUs due = wheel.earliest_due(nullptr);
        ASSERT_EQ(sim.step(1), 1u);
        EXPECT_EQ(sim.now(), due);
      } else {
        sim.run_until(sim.now() + rng.uniform_int(1, period));  // off-grid
      }
      check();
      EXPECT_EQ(sim.pending(), live.empty() ? 0u : 1u);
      ASSERT_FALSE(HasFailure()) << buckets << " buckets, round " << round;
    }
    EXPECT_GT(checks, 5000u);
  }
}

TEST(PollWheel, MidFanoutMigrationMovesAMemberBetweenWheels) {
  // Two edges, two wheels. During wheel A's fan-out the member migrates:
  // detach from A, attach to B. It must never tick on A again and must
  // tick on B at its fresh quantized phase.
  sim::Simulator sim;
  sim::PollWheel a(sim, 1000, 4);
  sim::PollWheel b(sim, 1000, 4);
  Fired on_a, on_b;
  bool migrated = false;
  sim::CohortSlot slot_b;
  a.set_fanout([&](TimeUs t, std::uint64_t tag, sim::CohortSlot s) {
    on_a.emplace_back(t, tag);
    if (!migrated) {
      migrated = true;
      EXPECT_TRUE(a.detach(s));
      slot_b = b.attach(b.quantize(sim.now() + 100), tag);
    }
  });
  b.set_fanout([&](TimeUs t, std::uint64_t tag, sim::CohortSlot) {
    on_b.emplace_back(t, tag);
  });
  a.attach(a.quantize(0), 42);
  sim.run_until(2000);
  const Fired expect_a{{250, 42}};
  const Fired expect_b{{500, 42}, {1500, 42}};
  EXPECT_EQ(on_a, expect_a);
  EXPECT_EQ(on_b, expect_b);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_TRUE(b.attached(slot_b));
}

// --- 2a. Randomized churn: wheel vs per-member timers -----------------

// One churn schedule -- attaches and detaches at randomized instants --
// driven through a PollWheel in one simulation and through
// one-PeriodicProcess-per-member timers in another. The observable tick
// sequences (time, tag) must be identical, element for element: this is
// the ordering contract the session's shared-wheel vs per-viewer-timer
// bit-identity rests on.
struct ChurnOp {
  TimeUs at;
  bool attach;
  std::uint64_t tag;
  TimeUs raw_phase;  // attach only
};

std::vector<ChurnOp> churn_schedule(std::uint64_t seed, std::size_t members,
                                    TimeUs horizon, DurationUs period) {
  Rng rng(seed);
  std::vector<ChurnOp> ops;
  for (std::uint64_t tag = 0; tag < members; ++tag) {
    // Join at an off-grid instant, poll phase anywhere in one period.
    const auto join =
        static_cast<TimeUs>(rng.uniform() * static_cast<double>(horizon / 2));
    const auto phase = join + static_cast<TimeUs>(
                                  rng.uniform() * static_cast<double>(period));
    ops.push_back({join, true, tag, phase});
    if (rng.bernoulli(0.6)) {  // most members also leave
      const auto leave =
          join + 1 +
          static_cast<TimeUs>(rng.uniform() *
                              static_cast<double>(horizon - join - 1));
      ops.push_back({leave, false, tag, 0});
    }
  }
  std::sort(ops.begin(), ops.end(), [](const ChurnOp& x, const ChurnOp& y) {
    if (x.at != y.at) return x.at < y.at;
    return x.tag < y.tag;
  });
  return ops;
}

Fired run_churn_on_wheel(const std::vector<ChurnOp>& ops, TimeUs horizon,
                         DurationUs period, std::uint32_t buckets) {
  sim::Simulator sim;
  sim::PollWheel wheel(sim, period, buckets);
  Fired fired;
  wheel.set_fanout([&](TimeUs t, std::uint64_t tag, sim::CohortSlot) {
    fired.emplace_back(t, tag);
  });
  std::vector<sim::CohortSlot> slots(256);
  for (const ChurnOp& op : ops) {
    sim.schedule_at(op.at, [&, op] {
      if (op.attach)
        slots[op.tag] = wheel.attach(wheel.quantize(op.raw_phase), op.tag);
      else
        wheel.detach(slots[op.tag]);
    });
  }
  sim.run_until(horizon);
  return fired;
}

Fired run_churn_on_timers(const std::vector<ChurnOp>& ops, TimeUs horizon,
                          DurationUs period, std::uint32_t buckets) {
  sim::Simulator sim;
  const DurationUs width = std::max<DurationUs>(1, period / buckets);
  const DurationUs effective = width * buckets;
  Fired fired;
  std::vector<std::unique_ptr<sim::PeriodicProcess>> procs(256);
  for (const ChurnOp& op : ops) {
    sim.schedule_at(op.at, [&, op] {
      if (op.attach) {
        TimeUs t = ((op.raw_phase + width - 1) / width) * width;
        if (t <= sim.now()) t = (sim.now() / width + 1) * width;
        procs[op.tag] = std::make_unique<sim::PeriodicProcess>(
            sim, t, effective, [&fired, &sim, op](sim::PeriodicProcess&) {
              fired.emplace_back(sim.now(), op.tag);
            });
      } else {
        procs[op.tag].reset();
      }
    });
  }
  sim.run_until(horizon);
  procs.clear();
  return fired;
}

TEST(PollWheelChurn, RandomizedScheduleMatchesPerMemberTimersExactly) {
  constexpr DurationUs kPeriod = 1000;
  constexpr std::uint32_t kBuckets = 8;
  constexpr TimeUs kHorizon = 20000;  // 20 rotations
  // Same-instant ticks are compared as a set (sorted by tag): when an
  // attach lands between an older member's re-arms, the timer's firing
  // order within that instant is scheduling order while the wheel's is
  // attach order. Nothing observable depends on intra-instant order --
  // each tick draws only from per-member state -- and the strict-order
  // contract for a stable cohort is pinned by
  // FanoutVisitsBucketMembersInAttachOrder above.
  auto canonical = [](Fired f) {
    std::sort(f.begin(), f.end());
    return f;
  };
  for (std::uint64_t seed : {3u, 17u, 99u}) {
    const auto ops = churn_schedule(seed, 40, kHorizon, kPeriod);
    const auto wheel = run_churn_on_wheel(ops, kHorizon, kPeriod, kBuckets);
    const auto timers = run_churn_on_timers(ops, kHorizon, kPeriod, kBuckets);
    ASSERT_FALSE(wheel.empty());
    EXPECT_EQ(canonical(wheel), canonical(timers))
        << "churn divergence at seed " << seed;
  }
}

TEST(PollWheelChurn, HeavyChurnKeepsLedgerConsistent) {
  // Attach/detach hammering with slot recycling: every live member ticks
  // exactly once per rotation it is attached for, and size() tracks the
  // reference count at every step.
  sim::Simulator sim;
  sim::PollWheel wheel(sim, 1000, 4);
  std::uint64_t ticks = 0;
  wheel.set_fanout([&](TimeUs, std::uint64_t, sim::CohortSlot) { ++ticks; });
  Rng rng(7);
  std::vector<sim::CohortSlot> live;
  for (int round = 0; round < 200; ++round) {
    if (rng.bernoulli(0.55) || live.empty()) {
      live.push_back(
          wheel.attach(wheel.quantize(sim.now() + static_cast<TimeUs>(
                                          rng.uniform() * 1000.0)),
                       static_cast<std::uint64_t>(round)));
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform() * static_cast<double>(live.size()));
      EXPECT_TRUE(wheel.detach(live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    EXPECT_EQ(wheel.size(), live.size());
    for (const auto& s : live) EXPECT_TRUE(wheel.attached(s));
    // Let some time pass so slots tick and recycle under churn.
    sim.run_until(sim.now() + 300);
  }
  EXPECT_GT(ticks, 0u);
  for (const auto& s : live) EXPECT_TRUE(wheel.detach(s));
  EXPECT_EQ(sim.pending(), 0u);  // empty wheel holds no event
}

// --- 2b. Session level: shared edge wheels vs per-viewer timers -------

using test::run_session;

// Runs `cfg` on shared edge wheels and on the per-viewer-timer oracle,
// then again on a crowded copy: 32 HLS viewers at the broadcaster share
// one edge's 64 buckets, so fan-outs visit several members per bucket.
// The sparse inputs alone almost never put two viewers in one bucket.
void expect_wheels_match_timers(const core::SessionConfig& cfg) {
  auto crowded = cfg;
  crowded.global_viewers = false;
  crowded.hls_viewers = 32;
  EXPECT_EQ(run_session(cfg), run_session(cfg, /*per_viewer_timers=*/true))
      << "sparse input, seed " << cfg.seed;
  EXPECT_EQ(run_session(crowded),
            run_session(crowded, /*per_viewer_timers=*/true))
      << "crowded input, seed " << cfg.seed;
}

TEST(WheelDifferential, CleanRunByteIdenticalAcrossSeeds) {
  for (std::uint64_t seed : {1, 9, 23, 77}) {
    core::SessionConfig cfg;
    cfg.broadcast_len = 40 * time::kSecond;
    cfg.rtmp_viewers = 2;
    cfg.hls_viewers = 5;
    cfg.seed = seed;
    expect_wheels_match_timers(cfg);
  }
}

TEST(WheelDifferential, IngestCrashMigrationByteIdentical) {
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 3;
  cfg.hls_viewers = 2;
  cfg.seed = 4;
  cfg.faults.add({20 * time::kSecond, fault::FaultKind::kIngestCrash,
                  10 * time::kSecond});
  expect_wheels_match_timers(cfg);
}

TEST(WheelDifferential, EdgeBlackoutFailoverByteIdentical) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 4;
  cfg.global_viewers = false;
  cfg.seed = 5;
  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 15 * time::kSecond;
  spec.center = cfg.broadcaster_location;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  cfg.faults = scenario.expand(catalog, cfg.seed);
  expect_wheels_match_timers(cfg);
}

TEST(WheelDifferential, CapacitySpillByteIdentical) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 6;
  cfg.global_viewers = false;
  cfg.edge_capacity = 2;
  cfg.seed = 5;
  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 15 * time::kSecond;
  spec.center = cfg.broadcaster_location;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  cfg.faults = scenario.expand(catalog, cfg.seed);
  expect_wheels_match_timers(cfg);
}

TEST(WheelDifferential, CorruptionWindowByteIdentical) {
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 3;
  cfg.seed = 8;
  fault::FaultEvent corrupt;
  corrupt.at = 10 * time::kSecond;
  corrupt.kind = fault::FaultKind::kChunkCorruption;
  corrupt.duration = 40 * time::kSecond;
  corrupt.magnitude = 1.0;
  cfg.faults.add(corrupt);
  expect_wheels_match_timers(cfg);
}

TEST(WheelDifferential, WheelPathIsRunToRunDeterministic) {
  core::SessionConfig cfg;
  cfg.broadcast_len = 45 * time::kSecond;
  cfg.rtmp_viewers = 1;
  cfg.hls_viewers = 4;
  cfg.seed = 13;
  EXPECT_EQ(run_session(cfg), run_session(cfg));
}

// --- 2c. Stale-outstanding regression (failover mid-poll) -------------

// The bug this pins out: a viewer whose poll request is in flight when
// its PoP dies must not carry the outstanding flag into its new
// attachment. The old response evaporates against the bumped generation,
// the migration's teardown clears the flag, and the viewer resumes
// polling on the new edge -- a wedged flag would silence it forever and
// show up here as a starved post-migration playback.
TEST(StaleOutstanding, MigratedViewersResumePollingOnTheNewEdge) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 4;
  cfg.global_viewers = false;
  cfg.seed = 5;
  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;  // mid-broadcast: polls are in flight
  spec.duration = 20 * time::kSecond;
  spec.center = cfg.broadcaster_location;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  cfg.faults = scenario.expand(catalog, cfg.seed);
  const std::uint64_t dead_site = cfg.faults.events()[0].target;

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  ASSERT_EQ(session.edge_failovers(), cfg.hls_viewers);
  // The dead PoP dropped the in-flight polls on the floor...
  ASSERT_NE(session.edges().find(dead_site), session.edges().end());
  EXPECT_GT(session.edges().at(dead_site)->polls_dropped(), 0u);
  // ...and every migrated viewer kept polling and playing on the new
  // edge: the live (post-migration) schedule received most of the
  // remaining broadcast.
  for (std::size_t i = 0; i < session.viewer_count(); ++i) {
    const auto& pb = session.viewer_playback(i);
    EXPECT_TRUE(pb.started());
    EXPECT_GE(pb.media_offered(), 20 * time::kSecond);
  }
  for (const auto& v : session.viewer_results()) {
    EXPECT_FALSE(v.orphaned);
    EXPECT_NE(v.attachment.value, dead_site);
    EXPECT_GT(v.units_played, 0u);
  }
}

}  // namespace
