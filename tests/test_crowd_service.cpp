// Crowd-consumption battery: BatchTimeline quantization + single-event
// chaining, LivestreamService::drive_crowd admission/churn contracts,
// wheel-vs-timer churn parity, steered placement against published
// drain verdicts (the cross-session control-plane gap), and the
// flash-crowd experiment's thread-determinism pin.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "livesim/analysis/flash_crowd.h"
#include "livesim/core/service.h"
#include "livesim/fault/scenario.h"
#include "livesim/geo/datacenters.h"
#include "livesim/sim/batch.h"
#include "livesim/sim/simulator.h"
#include "livesim/workload/crowd.h"

namespace livesim {
namespace {

using core::LivestreamService;

// --- sim::BatchTimeline ------------------------------------------------

TEST(BatchTimeline, QuantizeCeilsToWindowBoundary) {
  sim::Simulator sim;
  sim::BatchTimeline tl(sim, 100);
  EXPECT_EQ(tl.quantize(0), 0);
  EXPECT_EQ(tl.quantize(1), 100);
  EXPECT_EQ(tl.quantize(99), 100);
  EXPECT_EQ(tl.quantize(100), 100);  // boundary ops pay zero latency
  EXPECT_EQ(tl.quantize(101), 200);
  EXPECT_EQ(tl.quantize(-5), 0);  // negative clamps, never fires in past
}

TEST(BatchTimeline, ZeroWindowClampsToOneMicrosecond) {
  sim::Simulator sim;
  sim::BatchTimeline tl(sim, 0);
  EXPECT_EQ(tl.window(), 1);
  EXPECT_EQ(tl.quantize(7), 7);  // every op its own batch
}

TEST(BatchTimeline, WithinWindowOpsFireInAddOrder) {
  sim::Simulator sim;
  sim::BatchTimeline tl(sim, 1000);
  // All three quantize to the same boundary (1000); insertion order is
  // 42, 7, 99 even though the requested times are descending.
  tl.add(900, 42);
  tl.add(500, 7);
  tl.add(100, 99);
  std::vector<std::uint64_t> seen;
  TimeUs fired_at = -1;
  tl.seal([&](TimeUs at, std::span<const std::uint64_t> ops) {
    fired_at = at;
    seen.assign(ops.begin(), ops.end());
  });
  sim.run();
  EXPECT_EQ(fired_at, 1000);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{42, 7, 99}));
  EXPECT_EQ(tl.batches_fired(), 1u);
}

TEST(BatchTimeline, OneEngineEventPerNonEmptyWindow) {
  // The storm-thaw contract: a timeline of N ops spread over W non-empty
  // windows costs the engine exactly W events, not N.
  sim::Simulator sim;
  sim::BatchTimeline tl(sim, 100);
  // 40 ops, but only windows 100, 300, and 900 are non-empty.
  for (std::uint64_t i = 0; i < 20; ++i) tl.add(10 + static_cast<TimeUs>(i), i);
  for (std::uint64_t i = 0; i < 10; ++i) tl.add(250, 100 + i);
  for (std::uint64_t i = 0; i < 10; ++i) tl.add(900, 200 + i);
  std::size_t calls = 0;
  std::size_t total_ops = 0;
  tl.seal([&](TimeUs, std::span<const std::uint64_t> ops) {
    ++calls;
    total_ops += ops.size();
  });
  EXPECT_EQ(tl.batches(), 3u);
  sim.run();
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(total_ops, 40u);
  // The whole 40-op timeline was exactly 3 engine events.
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(BatchTimeline, DestructorCancelsPendingChain) {
  sim::Simulator sim;
  std::size_t calls = 0;
  {
    sim::BatchTimeline tl(sim, 100);
    tl.add(50, 1);
    tl.add(450, 2);
    tl.seal([&](TimeUs, std::span<const std::uint64_t>) { ++calls; });
  }  // destroyed before the engine runs: the chain must die with it
  sim.run();
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(BatchTimeline, EmptyTimelineSealsToNothing) {
  sim::Simulator sim;
  sim::BatchTimeline tl(sim, 100);
  tl.seal([&](TimeUs, std::span<const std::uint64_t>) { FAIL(); });
  EXPECT_EQ(tl.batches(), 0u);
  sim.run();
  EXPECT_EQ(sim.events_processed(), 0u);
}

// --- LivestreamService::drive_crowd ------------------------------------

workload::CrowdPreset small_crowd(std::uint32_t channels,
                                  std::uint32_t viewers) {
  workload::CrowdPreset p = workload::CrowdPreset::twitch_flash_crowd();
  p.name = "test_small";
  p.channels = channels;
  p.viewers = viewers;
  p.horizon = 60 * time::kSecond;
  p.mean_session_s = 12.0;
  p.spike_at_frac = 0.5;
  p.spike_amplitude = 4.0;
  p.spike_ramp_s = 10.0;
  return p;
}

LivestreamService::Config hls_only_config(std::uint64_t seed = 11) {
  LivestreamService::Config cfg;
  cfg.rtmp_slot_cap = 0;  // the whole crowd rides the HLS poll wheels
  cfg.seed = seed;
  return cfg;
}

TEST(DriveCrowd, AdmitsEveryRecordWithinOneWindow) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  sim::Simulator sim;
  LivestreamService service(sim, catalog, hls_only_config());

  const auto preset = small_crowd(4, 400);
  const auto records = workload::generate_crowd(preset, 2016);
  std::vector<BroadcastId> channels;
  for (std::uint32_t c = 0; c < preset.channels; ++c)
    channels.push_back(
        service.start_broadcast({37.77 + c, -122.42}, preset.horizon));

  LivestreamService::CrowdDriveConfig dcfg;
  dcfg.batch_window = 500 * time::kMillisecond;
  const std::size_t drive = service.drive_crowd(channels, records, dcfg);
  sim.run();

  const auto& stats = service.crowd_stats(drive);
  EXPECT_EQ(stats.records, records.size());
  // Every record resolves exactly one way: admitted or late.
  EXPECT_EQ(stats.joins + stats.late_joins, stats.records);
  EXPECT_GT(stats.joins, 0u);
  // Every admitted viewer also left through the early-leave path.
  EXPECT_EQ(stats.leaves, stats.joins);
  // The quantize contract: admission latency is bounded by the window.
  EXPECT_EQ(stats.admission_latency_s.count(), stats.joins);
  EXPECT_GE(stats.admission_latency_s.min(), 0.0);
  EXPECT_LT(stats.admission_latency_s.max(),
            time::to_seconds(dcfg.batch_window));
  // The storm was batched: far fewer engine callbacks than records, and
  // no more than one per window over the horizon (+1 for pushed leaves).
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(stats.batches,
            static_cast<std::uint64_t>(preset.horizon / dcfg.batch_window) + 2);
}

TEST(DriveCrowd, RecordsPastBroadcastEndCountAsLateJoins) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  sim::Simulator sim;
  LivestreamService service(sim, catalog, hls_only_config());

  // The crowd keeps arriving for 60 s but the broadcast ends at 10 s:
  // everything after the horizon cut is a late join, not a crash.
  const auto preset = small_crowd(1, 300);
  const auto records = workload::generate_crowd(preset, 5);
  const BroadcastId channels[] = {
      service.start_broadcast({37.77, -122.42}, 10 * time::kSecond)};
  const std::size_t drive = service.drive_crowd(channels, records);
  sim.run();

  const auto& stats = service.crowd_stats(drive);
  EXPECT_EQ(stats.joins + stats.late_joins, stats.records);
  EXPECT_GT(stats.joins, 0u);
  EXPECT_GT(stats.late_joins, 0u);
  EXPECT_EQ(stats.leaves, stats.joins);
}

TEST(DriveCrowd, UnmappedChannelRankIsLateNotFatal) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  sim::Simulator sim;
  LivestreamService service(sim, catalog, hls_only_config());

  // 4-channel crowd, but only channel 0 exists as a broadcast: ranks
  // 1..3 have no mapping and must be absorbed as late joins.
  const auto preset = small_crowd(4, 200);
  const auto records = workload::generate_crowd(preset, 6);
  const BroadcastId channels[] = {
      service.start_broadcast({37.77, -122.42}, preset.horizon)};
  const std::size_t drive = service.drive_crowd(channels, records);
  sim.run();

  const auto& stats = service.crowd_stats(drive);
  EXPECT_EQ(stats.joins + stats.late_joins, stats.records);
  EXPECT_GT(stats.late_joins, 0u);
  EXPECT_EQ(stats.leaves, stats.joins);
}

TEST(DriveCrowd, WheelAndTimerLanesAgreeOnChurn) {
  // The poll-wheel determinism contract extended to crowd churn: the
  // same drive against wheels-on and wheels-off services produces the
  // same admissions, the same leaves, and the same playback totals.
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const auto preset = small_crowd(1, 250);
  const auto records = workload::generate_crowd(preset, 77);

  auto run_lane = [&](bool wheel) {
    sim::Simulator sim;
    auto cfg = hls_only_config();
    cfg.session_defaults.poll_wheel = wheel;
    LivestreamService service(sim, catalog, cfg);
    const BroadcastId channels[] = {
        service.start_broadcast({37.77, -122.42}, preset.horizon)};
    const std::size_t drive = service.drive_crowd(channels, records);
    sim.run();

    const auto& stats = service.crowd_stats(drive);
    std::uint64_t units = 0;
    for (const auto& r : service.session(channels[0])->viewer_results())
      units += r.units_played;
    return std::tuple{stats.joins, stats.late_joins, stats.leaves,
                      stats.batches, units};
  };

  EXPECT_EQ(run_lane(true), run_lane(false));
}

// --- steered placement (published verdicts -> organic joins) -----------

TEST(SteeredPlacement, OrganicJoinRoutesAroundAnotherSessionsVerdict) {
  // Broadcast A's control plane watches a site die and publishes the
  // verdict; broadcast B never saw the fault. A later organic join into
  // B must still route around the dead site: the service-wide published
  // union, not per-session knowledge, steers placement.
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const geo::GeoPoint hotspot{37.77, -122.42};
  fault::RegionalBlackoutSpec spec;
  spec.center = hotspot;
  spec.radius_km = 0.0;  // exactly the nearest PoP
  const std::uint64_t dead =
      fault::FaultScenario::blackout_sites(catalog, spec).at(0).value;

  sim::Simulator sim;
  auto cfg = hls_only_config(7);
  cfg.session_defaults.control.enabled = true;
  LivestreamService service(sim, catalog, cfg);

  const auto a = service.start_broadcast(hotspot, 60 * time::kSecond);
  const auto b = service.start_broadcast(hotspot, 60 * time::kSecond);

  // A viewer on A instantiates the hotspot edge so A's plane scrapes it.
  ASSERT_TRUE(service.join(a, hotspot).has_value());

  // Blackout injected into A ONLY (B's session keeps believing the site
  // is fine): down at 2 s for 40 s.
  spec.at = 2 * time::kSecond;
  spec.duration = 40 * time::kSecond;
  fault::FaultScenario scenario;
  scenario.add(spec);
  service.session(a)->inject_faults(scenario.expand(catalog, cfg.seed));

  // By 5 s the death has been scraped (<= 500 ms cadence) and published
  // (+100 ms steer latency). An organic join lands on B near the dead
  // site.
  std::vector<std::uint64_t> avoid;
  std::optional<LivestreamService::ViewerHandle> handle;
  sim.schedule_in(5 * time::kSecond, [&] {
    avoid = service.published_avoid();
    handle = service.join(b, hotspot);
  });
  sim.run();

  ASSERT_TRUE(std::binary_search(avoid.begin(), avoid.end(), dead))
      << "A's verdict never reached the service-wide union";
  ASSERT_TRUE(handle.has_value());
  const auto results = service.session(b)->viewer_results();
  ASSERT_GT(results.size(), handle->viewer_index);
  EXPECT_NE(results[handle->viewer_index].attachment.value, dead)
      << "join landed on a site another session published as dead";
  EXPECT_FALSE(results[handle->viewer_index].orphaned);
  EXPECT_EQ(service.steered_joins(), 1u);
}

TEST(SteeredPlacement, NoControlPlaneMeansEmptyUnionAndNoSteering) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  sim::Simulator sim;
  LivestreamService service(sim, catalog, hls_only_config());
  const auto a = service.start_broadcast({37.77, -122.42}, 10 * time::kSecond);
  ASSERT_TRUE(service.join(a, {37.77, -122.42}).has_value());
  EXPECT_TRUE(service.published_avoid().empty());
  sim.run();
  EXPECT_EQ(service.steered_joins(), 0u);
}

// --- analysis::flash_crowd_experiment ----------------------------------

analysis::FlashCrowdConfig experiment_config(unsigned threads) {
  analysis::FlashCrowdConfig cfg;
  cfg.preset = small_crowd(8, 2000);
  cfg.preset.spike_amplitude = 6.0;
  cfg.threads = threads;
  cfg.session.edge_capacity = 0;
  cfg.session.control.enabled = true;
  return cfg;
}

TEST(FlashCrowdExperiment, ByteIdenticalAcrossThreadCounts) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const auto one = flash_crowd_experiment(catalog, experiment_config(1));
  const auto two = flash_crowd_experiment(catalog, experiment_config(2));
  const auto eight = flash_crowd_experiment(catalog, experiment_config(8));

  EXPECT_EQ(one.fingerprint, two.fingerprint);
  EXPECT_EQ(one.fingerprint, eight.fingerprint);
  EXPECT_EQ(one.joins, eight.joins);
  EXPECT_EQ(one.leaves, eight.leaves);
  EXPECT_EQ(one.events_processed, eight.events_processed);
  EXPECT_EQ(one.peak_edge_load, eight.peak_edge_load);
}

TEST(FlashCrowdExperiment, BlackoutUnderStormForcesProactiveMigration) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const auto stats = flash_crowd_experiment(catalog, experiment_config(1));

  EXPECT_EQ(stats.viewers, 2000u);
  EXPECT_EQ(stats.joins + stats.late_joins, stats.viewers);
  EXPECT_GT(stats.joins, 0u);
  EXPECT_EQ(stats.leaves, stats.joins);
  // The admission-latency pin at experiment level.
  EXPECT_LT(stats.admission_latency_s.max(), 0.5);
  // The blackout really collided with the storm...
  EXPECT_GT(stats.edge_failovers, 0u);
  // ...and the control plane moved at least part of the herd before the
  // reactive client timeout would have.
  EXPECT_GT(stats.proactive_migrations, 0u);
  EXPECT_GT(stats.control_drains + stats.proactive_migrations, 0u);
  EXPECT_GT(stats.peak_edge_load, 0u);
}

TEST(FlashCrowdExperiment, NoBlackoutNoControlIsQuiet) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  auto cfg = experiment_config(1);
  cfg.preset = small_crowd(4, 600);
  cfg.blackout = false;
  cfg.session.control.enabled = false;
  const auto stats = flash_crowd_experiment(catalog, cfg);

  EXPECT_EQ(stats.joins + stats.late_joins, stats.viewers);
  EXPECT_EQ(stats.edge_failovers, 0u);
  EXPECT_EQ(stats.proactive_migrations, 0u);
  EXPECT_EQ(stats.steered_joins, 0u);
  EXPECT_EQ(stats.control_drains, 0u);
  EXPECT_EQ(stats.orphaned_viewers, 0u);
}

// --- the giant-channel preset (the adversarial scaling case) ------------

TEST(GiantChannelPreset, OneChannelOwnsAtLeastNinetyPercent) {
  auto p = workload::CrowdPreset::twitch_giant_channel();
  p.viewers = 20000;  // the share is a per-draw property, not a scale one
  const auto records = workload::generate_crowd(p, 2016);
  const auto shape = workload::crowd_shape(records, p.horizon);
  EXPECT_GE(shape.top_channel_share, 0.90);
  EXPECT_EQ(records.size(), 20000u);
}

// --- analysis::crowd_shard_plan ----------------------------------------

TEST(CrowdShardPlan, CoversEveryRecordOnceInChannelSubShardOrder) {
  const std::size_t sizes[] = {10, 0, 5};
  const auto plan = analysis::crowd_shard_plan(sizes, 3, 4);

  // Units come out in (channel, sub-shard) order; an empty channel still
  // yields exactly one (empty) unit.
  ASSERT_EQ(plan.units.size(), 3u + 1u + 3u);
  std::size_t u = 0;
  for (std::uint32_t c = 0; c < 3; ++c) {
    std::size_t expect_begin = 0;
    std::uint32_t s = 0;
    for (; u < plan.units.size() && plan.units[u].channel == c; ++u, ++s) {
      EXPECT_EQ(plan.units[u].sub_shard, s);
      EXPECT_EQ(plan.units[u].begin, expect_begin);
      EXPECT_GE(plan.units[u].end, plan.units[u].begin);
      expect_begin = plan.units[u].end;
    }
    EXPECT_EQ(expect_begin, sizes[c]);  // contiguous, complete cover
  }
  EXPECT_EQ(u, plan.units.size());

  // Every unit is assigned to exactly one worker.
  std::vector<int> seen(plan.units.size(), 0);
  for (const auto& w : plan.worker_units)
    for (std::size_t unit : w) seen[unit] += 1;
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(CrowdShardPlan, SingleSubShardReducesToByChannelUnits) {
  const std::size_t sizes[] = {100, 3, 0};
  const auto plan = analysis::crowd_shard_plan(sizes, 1, 8);
  ASSERT_EQ(plan.units.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(plan.units[c].channel, c);
    EXPECT_EQ(plan.units[c].sub_shard, 0u);
    EXPECT_EQ(plan.units[c].begin, 0u);
    EXPECT_EQ(plan.units[c].end, sizes[c]);
  }
}

TEST(CrowdShardPlan, LptUnserializesTheGiantChannel) {
  // One channel owns ~93% of the records: by-channel units serialize
  // (planned speedup ~1), eight sub-shards balance (>= 3x at 8 workers).
  const std::size_t sizes[] = {9300, 100, 100, 100, 100, 100, 100, 100};
  const auto before = analysis::crowd_shard_plan(sizes, 1, 8);
  const auto after = analysis::crowd_shard_plan(sizes, 8, 8);
  EXPECT_LT(before.planned_speedup(), 1.5);
  EXPECT_GE(after.planned_speedup(), 3.0);
  EXPECT_GT(after.planned_speedup(), before.planned_speedup());
}

TEST(CrowdShardPlan, DeterministicInItsInputs) {
  const std::size_t sizes[] = {977, 0, 13, 400};
  const auto a = analysis::crowd_shard_plan(sizes, 5, 3);
  const auto b = analysis::crowd_shard_plan(sizes, 5, 3);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t i = 0; i < a.units.size(); ++i) {
    EXPECT_EQ(a.units[i].begin, b.units[i].begin);
    EXPECT_EQ(a.units[i].end, b.units[i].end);
    EXPECT_EQ(a.units[i].weight, b.units[i].weight);
  }
  EXPECT_EQ(a.worker_units, b.worker_units);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.max_worker_weight, b.max_worker_weight);
}

// --- intra-channel sub-shard invariance --------------------------------

analysis::FlashCrowdConfig sub_shard_config(unsigned threads,
                                            std::uint32_t sub_shards) {
  analysis::FlashCrowdConfig cfg;
  cfg.preset = small_crowd(4, 1500);
  cfg.preset.channel_zipf_s = 4.0;  // one giant channel
  cfg.threads = threads;
  cfg.sub_shards = sub_shards;
  // The crowd-core invariance regime: load-blind joins, no control
  // verdicts (both couple viewers ACROSS a partition boundary).
  cfg.session.edge_capacity = 0;
  cfg.session.control.enabled = false;
  // Mid-storm (spike 30..40 s) but OFF the 0.5 s batch grid: a
  // quantized leave can never tie with the injection, the detection
  // sweep (+2 s) or the revive (+10 s) instant, so same-instant
  // ordering — which depends on where each slice's timeline chained
  // its windows — never arises.
  cfg.blackout_at = 30 * time::kSecond + 250 * time::kMillisecond;
  cfg.blackout_duration = 10 * time::kSecond;
  return cfg;
}

TEST(FlashCrowdSubShard, CrowdCoreInvariantAcrossSubShardCounts) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const auto one = flash_crowd_experiment(catalog, sub_shard_config(1, 1));
  const auto two = flash_crowd_experiment(catalog, sub_shard_config(1, 2));
  const auto seven = flash_crowd_experiment(catalog, sub_shard_config(1, 7));

  // The per-viewer crowd core is a pure function of the global record
  // index: identical however the channel is partitioned.
  EXPECT_EQ(one.crowd_fingerprint, two.crowd_fingerprint);
  EXPECT_EQ(one.crowd_fingerprint, seven.crowd_fingerprint);

  // The blackout landed identically across every sub-shard boundary.
  EXPECT_GT(one.edge_failovers, 0u);
  EXPECT_EQ(one.edge_failovers, two.edge_failovers);
  EXPECT_EQ(one.edge_failovers, seven.edge_failovers);
  EXPECT_EQ(one.joins, seven.joins);
  EXPECT_EQ(one.late_joins, seven.late_joins);
  EXPECT_EQ(one.leaves, seven.leaves);
  EXPECT_EQ(one.orphaned_viewers, seven.orphaned_viewers);

  // Record-order sampler rebuild: bitwise-equal merged admission and
  // re-attachment statistics at every partition.
  EXPECT_EQ(one.admission_latency_s.count(), seven.admission_latency_s.count());
  EXPECT_EQ(one.admission_latency_s.mean(), seven.admission_latency_s.mean());
  EXPECT_EQ(one.admission_latency_s.max(), seven.admission_latency_s.max());
  EXPECT_EQ(one.reattach_latency_s.count(), seven.reattach_latency_s.count());
  EXPECT_EQ(one.reattach_latency_s.mean(), seven.reattach_latency_s.mean());
  EXPECT_EQ(one.reattach_latency_s.max(), seven.reattach_latency_s.max());

  // Config echo.
  EXPECT_EQ(one.sub_shards, 1u);
  EXPECT_EQ(two.sub_shards, 2u);
  EXPECT_EQ(seven.sub_shards, 7u);
  EXPECT_GT(seven.shard_units, one.shard_units);
}

TEST(FlashCrowdSubShard, ByteIdenticalAcrossThreadCountsAtEachSubShardCount) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  for (const std::uint32_t v : {1u, 2u, 7u}) {
    const auto one = flash_crowd_experiment(catalog, sub_shard_config(1, v));
    const auto two = flash_crowd_experiment(catalog, sub_shard_config(2, v));
    const auto eight = flash_crowd_experiment(catalog, sub_shard_config(8, v));
    // The FULL fingerprint (every per-unit ledger in merge order): the
    // threads=1 serial run IS the reference the parallel merges match.
    EXPECT_EQ(one.fingerprint, two.fingerprint) << "sub_shards=" << v;
    EXPECT_EQ(one.fingerprint, eight.fingerprint) << "sub_shards=" << v;
    EXPECT_EQ(one.crowd_fingerprint, eight.crowd_fingerprint)
        << "sub_shards=" << v;
    EXPECT_EQ(one.events_processed, eight.events_processed)
        << "sub_shards=" << v;
  }
}

TEST(FlashCrowdSubShard, ReattachLedgerScoresEveryRefugeeOnce) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const auto stats = flash_crowd_experiment(catalog, sub_shard_config(1, 2));
  // Capacity off + control off: every edge failover re-attaches to a
  // wheel (no mesh rescues), and nothing else ever scores the ledger.
  ASSERT_GT(stats.edge_failovers, 0u);
  EXPECT_EQ(stats.reattach_latency_s.count(), stats.edge_failovers);
  // Quantize-to-next-slot bound: under one poll interval plus a slot.
  const auto& s = sub_shard_config(1, 2).session;
  const double bound_s =
      time::to_seconds(s.hls_poll_interval) *
      (1.0 + 1.0 / std::max<std::uint32_t>(1, s.poll_wheel_slots));
  EXPECT_GT(stats.reattach_latency_s.min(), 0.0);
  EXPECT_LE(stats.reattach_latency_s.max(), bound_s);
}

}  // namespace
}  // namespace livesim
