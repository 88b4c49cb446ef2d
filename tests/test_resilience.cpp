// Resilience-subsystem acceptance tests (ctest label: resilience).
//
// Three contracts are pinned here:
//  1. No-fault parity: with an empty FaultSchedule the fault machinery is
//     fully inert — the §5.2/§6 experiment pipelines produce bit-identical
//     output at threads 1 and 8, and a session reports zero fault
//     activity.
//  2. Thread determinism: a fixed-seed resilience run with a non-empty
//     randomized schedule is byte-identical at threads {1, 2, 8}.
//  3. Failover accounting: an ingest crash mid-broadcast migrates every
//     RTMP viewer onto the HLS/W2F path instead of dropping them, and the
//     latency ledger matches the migration count.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "livesim/analysis/resilience.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/core/service.h"
#include "livesim/fault/scenario.h"
#include "livesim/sim/parallel.h"
#include "livesim/workload/crowd.h"
#include "session_fingerprint.h"

namespace {
using namespace livesim;

std::uint64_t fingerprint(const stats::Sampler& s) {
  return util::Fingerprint().mix_doubles(s.samples()).value();
}

std::uint64_t fingerprint(const analysis::ResilienceStats& r) {
  return util::Fingerprint()
      .mix(fingerprint(r.stall_ratio))
      .mix(fingerprint(r.rebuffer_count))
      .mix(fingerprint(r.failover_latency_s))
      .mix(r.counters.viewers)
      .mix(r.counters.faults_injected)
      .mix(r.counters.ingest_crashes)
      .mix(r.counters.failovers)
      .mix(r.counters.unrecoverable)
      .mix(r.counters.chunk_refetches)
      .value();
}

std::vector<analysis::BroadcastTrace> small_trace_set(unsigned threads) {
  analysis::TraceSetConfig cfg;
  cfg.broadcasts = 120;
  cfg.broadcast_len = time::kMinute;
  cfg.seed = 11;
  cfg.threads = threads;
  return analysis::generate_traces(cfg);
}

// --- 1. No-fault parity ----------------------------------------------

TEST(NoFaultParity, PollingPipelineIdenticalAtThreads1And8) {
  const auto t1 = small_trace_set(1);
  const auto t8 = small_trace_set(8);
  const auto p1 = analysis::polling_experiment(t1, 3 * time::kSecond,
                                               300 * time::kMillisecond, 5, 1);
  const auto p8 = analysis::polling_experiment(t8, 3 * time::kSecond,
                                               300 * time::kMillisecond, 5, 8);
  EXPECT_EQ(fingerprint(p1.per_broadcast_mean_s),
            fingerprint(p8.per_broadcast_mean_s));
  EXPECT_EQ(fingerprint(p1.per_broadcast_std_s),
            fingerprint(p8.per_broadcast_std_s));
}

TEST(NoFaultParity, BufferingPipelineIdenticalAtThreads1And8) {
  const auto t1 = small_trace_set(1);
  const auto t8 = small_trace_set(8);
  const auto b1 =
      analysis::rtmp_buffering_experiment(t1, time::kSecond, 5, 1);
  const auto b8 =
      analysis::rtmp_buffering_experiment(t8, time::kSecond, 5, 8);
  EXPECT_EQ(fingerprint(b1.stall_ratio), fingerprint(b8.stall_ratio));
  EXPECT_EQ(fingerprint(b1.mean_delay_s), fingerprint(b8.mean_delay_s));
}

TEST(NoFaultParity, ZeroFaultRateIsInertInResilienceRun) {
  const auto traces = small_trace_set(1);
  analysis::ResilienceConfig cfg;  // faults_per_minute defaults to 0
  cfg.seed = 3;
  const auto r = analysis::resilience_experiment(traces, cfg);
  EXPECT_EQ(r.counters.viewers, traces.size());
  EXPECT_EQ(r.counters.faults_injected, 0u);
  EXPECT_EQ(r.counters.ingest_crashes, 0u);
  EXPECT_EQ(r.counters.failovers, 0u);
  EXPECT_EQ(r.counters.unrecoverable, 0u);
  EXPECT_EQ(r.counters.chunk_refetches, 0u);
  EXPECT_TRUE(r.failover_latency_s.empty());
  // Every viewer played the whole broadcast over RTMP.
  EXPECT_LT(r.stall_ratio.quantile(0.5), 0.05);
}

TEST(NoFaultParity, SessionWithEmptyScheduleReportsNoFaultActivity) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 20 * time::kSecond;
  cfg.rtmp_viewers = 2;
  cfg.hls_viewers = 2;
  cfg.seed = 9;
  ASSERT_TRUE(cfg.faults.empty());  // the default is faults-disabled
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  EXPECT_EQ(session.faults_injected(), 0u);
  EXPECT_EQ(session.rtmp_failovers(), 0u);
  EXPECT_EQ(session.corrupted_downloads(), 0u);
  EXPECT_TRUE(session.failover_latency_s().empty());
  for (const auto& v : session.viewer_results())
    EXPECT_GT(v.units_played, 0u);
}

// --- 2. Thread determinism -------------------------------------------

TEST(ResilienceDeterminism, ByteIdenticalAtThreads128) {
  const auto traces = small_trace_set(1);
  analysis::ResilienceConfig cfg;
  cfg.faults.faults_per_minute = 2.0;
  cfg.seed = 77;

  cfg.threads = 1;
  const auto r1 = analysis::resilience_experiment(traces, cfg);
  ASSERT_GT(r1.counters.faults_injected, 0u);

  for (unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    const auto rn = analysis::resilience_experiment(traces, cfg);
    EXPECT_EQ(fingerprint(r1), fingerprint(rn))
        << "resilience run diverged at threads=" << threads;
  }
}

TEST(ResilienceDeterminism, SeedChangesResults) {
  const auto traces = small_trace_set(1);
  analysis::ResilienceConfig cfg;
  cfg.faults.faults_per_minute = 2.0;
  cfg.seed = 77;
  const auto a = analysis::resilience_experiment(traces, cfg);
  cfg.seed = 78;
  const auto b = analysis::resilience_experiment(traces, cfg);
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

// Golden: both rates reach every path the replay's timings feed (the
// detect window, poll timeouts with backoff, a viewer giving up, the
// steady poll cadence, corrupt re-fetches and flush re-pulls).
TEST(ResilienceDeterminism, FaultSweepMatchesGolden) {
  const auto traces = small_trace_set(1);
  const struct {
    double per_minute;
    std::uint64_t golden;
  } cases[] = {{2.0, 0x911acef062351b08ULL}, {6.0, 0x50f6f918953f7d44ULL}};
  for (const auto& c : cases) {
    analysis::ResilienceConfig cfg;
    cfg.faults.faults_per_minute = c.per_minute;
    cfg.seed = 77;
    const auto r = analysis::resilience_experiment(traces, cfg);
    EXPECT_GT(r.counters.failovers, 0u);
    EXPECT_GT(r.counters.unrecoverable, 0u);
    EXPECT_GT(r.counters.chunk_refetches, 0u);
    EXPECT_EQ(fingerprint(r), c.golden) << c.per_minute << " faults/min";
  }
}

TEST(ResilienceDeterminism, FaultySessionIsReproducible) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  auto run = [&] {
    sim::Simulator sim;
    core::SessionConfig cfg;
    cfg.broadcast_len = 40 * time::kSecond;
    cfg.rtmp_viewers = 3;
    cfg.hls_viewers = 1;
    cfg.seed = 13;
    cfg.faults.add({15 * time::kSecond, fault::FaultKind::kIngestCrash,
                    8 * time::kSecond});
    cfg.faults.add({25 * time::kSecond, fault::FaultKind::kEdgeCacheFlush, 0});
    core::BroadcastSession session(sim, catalog, cfg);
    session.start();
    sim.run();
    session.finalize();
    return test::session_fingerprint(session).value();
  };
  const std::uint64_t fp = run();
  EXPECT_EQ(run(), fp);
  EXPECT_EQ(fp, 0x93686ee3aaef0e97ULL);  // golden
}

// --- 3. Failover accounting ------------------------------------------

TEST(Failover, IngestCrashMigratesEveryRtmpViewerViaW2f) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 3;
  cfg.hls_viewers = 1;
  cfg.seed = 4;
  cfg.faults.add({20 * time::kSecond, fault::FaultKind::kIngestCrash,
                  10 * time::kSecond});
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  EXPECT_EQ(session.faults_injected(), 1u);
  EXPECT_EQ(session.rtmp_failovers(), cfg.rtmp_viewers);
  // One latency sample per migration, measured crash -> first HLS chunk,
  // so it is at least the detect timeout.
  ASSERT_EQ(session.failover_latency_s().count(), cfg.rtmp_viewers);
  EXPECT_GE(session.failover_latency_s().min(),
            time::to_seconds(cdn::kFailoverDetectTimeout));

  // Every viewer ends on the HLS path and kept playing after the crash.
  std::size_t on_hls = 0;
  for (const auto& v : session.viewer_results()) {
    if (v.tier != cdn::DeliveryTier::kRtmp) ++on_hls;
    EXPECT_GT(v.units_played, 0u);
  }
  EXPECT_EQ(on_hls, session.viewer_count());
}

TEST(Failover, MigratedViewersKeepPlayingAfterTheCrash) {
  // Crash at t=15s (5 s down) in a 60 s broadcast. Without failover the
  // RTMP viewers would freeze at the crash point; with it, each migrated
  // viewer's post-migration HLS schedule must receive and smoothly play
  // most of the post-restart media (~40 s of it).
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 2;
  cfg.hls_viewers = 0;
  cfg.seed = 21;
  cfg.faults.add({15 * time::kSecond, fault::FaultKind::kIngestCrash,
                  5 * time::kSecond});
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  ASSERT_EQ(session.rtmp_failovers(), 2u);
  for (std::size_t i = 0; i < session.viewer_count(); ++i) {
    // viewer_playback is the live schedule — post-migration, the fresh
    // HLS one. It re-anchored (started) and got the rest of the stream.
    const auto& pb = session.viewer_playback(i);
    EXPECT_TRUE(pb.started());
    EXPECT_GE(pb.media_offered(), 30 * time::kSecond);
    EXPECT_EQ(pb.units_discarded(), 0u);
  }
  // Merged (RTMP phase + HLS phase) per-viewer results barely stall.
  for (const auto& v : session.viewer_results()) {
    EXPECT_EQ(v.tier, cdn::DeliveryTier::kHls);
    EXPECT_LT(v.stall_ratio, 0.2);
  }
}

// --- 4. Correlated fault scenarios -----------------------------------

std::uint64_t fingerprint(const fault::FaultSchedule& s) {
  util::Fingerprint h;
  for (const auto& e : s.events())
    h.mix(static_cast<std::uint64_t>(e.at))
        .mix(static_cast<std::uint64_t>(e.kind))
        .mix(static_cast<std::uint64_t>(e.duration))
        .mix(e.target)
        .mix_double(e.magnitude);
  return h.value();
}

TEST(ScenarioExpansion, EmptyScenarioExpandsToEmptySchedule) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  fault::FaultScenario scenario;
  EXPECT_TRUE(scenario.empty());
  EXPECT_TRUE(scenario.expand(catalog, 1).empty());
}

TEST(ScenarioExpansion, ZeroRadiusBlackoutKillsExactlyTheNearestEdge) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  fault::RegionalBlackoutSpec spec;
  spec.center = {50.11, 8.68};  // Frankfurt
  spec.radius_km = 0.0;
  const auto sites = fault::FaultScenario::blackout_sites(catalog, spec);
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].value,
            catalog.nearest(spec.center, geo::CdnRole::kEdge).id.value);

  fault::FaultScenario scenario;
  scenario.add(spec);
  const auto schedule = scenario.expand(catalog, 1);
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_EQ(schedule.events()[0].kind, fault::FaultKind::kEdgeDown);
  EXPECT_EQ(schedule.events()[0].target, sites[0].value);
}

TEST(ScenarioExpansion, WiderRadiusDarkensMoreSites) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  fault::RegionalBlackoutSpec spec;
  spec.center = {50.11, 8.68};
  spec.radius_km = 1500.0;
  const auto regional = fault::FaultScenario::blackout_sites(catalog, spec);
  EXPECT_GT(regional.size(), 1u);
  spec.radius_km = 50000.0;  // the whole planet
  const auto global = fault::FaultScenario::blackout_sites(catalog, spec);
  EXPECT_EQ(global.size(), catalog.edge_sites().size());
}

TEST(ScenarioExpansion, DeterministicInSeedAndSubstreamPerSpec) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  fault::CascadeSpec cascade;
  cascade.origin = {37.77, -122.42};
  cascade.at = 5 * time::kSecond;
  fault::FaultScenario one;
  one.add(cascade);

  // Same (scenario, catalog, seed) -> same schedule, bit for bit.
  EXPECT_EQ(fingerprint(one.expand(catalog, 9)),
            fingerprint(one.expand(catalog, 9)));
  EXPECT_NE(fingerprint(one.expand(catalog, 9)),
            fingerprint(one.expand(catalog, 10)));

  // Appending a neighbour never perturbs an earlier spec's expansion:
  // the cascade's events must appear unchanged in the combined schedule.
  fault::RollingWaveSpec wave;
  wave.start = 60 * time::kSecond;
  fault::FaultScenario both = one;
  both.add(wave);
  const auto solo = one.expand(catalog, 9);
  const auto combined = both.expand(catalog, 9);
  for (const auto& e : solo.events()) {
    const bool present = std::any_of(
        combined.events().begin(), combined.events().end(),
        [&](const fault::FaultEvent& c) {
          return c.at == e.at && c.kind == e.kind &&
                 c.duration == e.duration && c.target == e.target;
        });
    EXPECT_TRUE(present) << "cascade event perturbed by appended wave";
  }
}

TEST(ScenarioExpansion, RollingWaveSweepsEveryEdgeWestToEast) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  fault::RollingWaveSpec wave;
  wave.site_gap = 3 * time::kSecond;
  fault::FaultScenario scenario;
  scenario.add(wave);
  const auto schedule = scenario.expand(catalog, 1);
  EXPECT_EQ(schedule.size(), catalog.edge_sites().size());
  // One site at a time: event times strictly increase by the gap.
  const auto& ev = schedule.events();
  for (std::size_t i = 1; i < ev.size(); ++i)
    EXPECT_EQ(ev[i].at - ev[i - 1].at, wave.site_gap);
}

// --- 5. Edge-to-edge failover ----------------------------------------

TEST(Failover, EdgeDeathReanycastsEveryAttachedViewerWithZeroOrphans) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 4;
  cfg.global_viewers = false;  // everyone on the broadcaster's edge
  cfg.seed = 5;
  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 15 * time::kSecond;
  spec.center = cfg.broadcaster_location;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  cfg.faults = scenario.expand(catalog, cfg.seed);

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  // 100% of the dead PoP's viewers re-anycast; none orphaned.
  EXPECT_EQ(session.edge_failovers(), cfg.hls_viewers);
  EXPECT_EQ(session.orphaned_viewers(), 0u);
  // One latency sample per completed failover, >= the detect timeout
  // (detection + re-anycast + re-anchored first chunk).
  ASSERT_EQ(session.edge_failover_latency_s().count(), cfg.hls_viewers);
  EXPECT_GE(session.edge_failover_latency_s().min(),
            time::to_seconds(cdn::kFailoverDetectTimeout));
  for (const auto& v : session.viewer_results()) {
    EXPECT_FALSE(v.orphaned);
    EXPECT_GT(v.units_played, 0u);
    // Everyone moved off the dead site.
    EXPECT_NE(v.attachment.value, cfg.faults.events()[0].target);
  }
}

TEST(Failover, RegionalBlackoutOfEveryEdgeOrphansViewers) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 3;
  cfg.global_viewers = false;
  cfg.seed = 6;
  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 30 * time::kSecond;
  spec.center = cfg.broadcaster_location;
  spec.radius_km = 50000.0;  // the whole footprint goes dark
  fault::FaultScenario scenario;
  scenario.add(spec);
  cfg.faults = scenario.expand(catalog, cfg.seed);

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  EXPECT_EQ(session.edge_failovers(), 0u);
  EXPECT_EQ(session.orphaned_viewers(), cfg.hls_viewers);
  std::size_t orphaned = 0;
  for (const auto& v : session.viewer_results())
    if (v.orphaned) ++orphaned;
  EXPECT_EQ(orphaned, cfg.hls_viewers);
}

// Every draw a viewer owns comes from its own stream: an unrelated
// viewer joining the same session on another edge cannot move the
// re-attachment delay the blackout charges viewer A.
TEST(ViewerStream, UnrelatedViewerLeavesReattachSampleUnchanged) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  auto reattach_of_a = [&](bool with_b) {
    sim::Simulator sim;
    core::SessionConfig cfg;
    cfg.broadcast_len = 60 * time::kSecond;
    cfg.rtmp_viewers = 0;
    cfg.hls_viewers = 1;  // A, on the broadcaster's edge
    cfg.global_viewers = false;
    cfg.seed = 3;
    fault::RegionalBlackoutSpec spec;
    spec.at = 20 * time::kSecond;
    spec.duration = 15 * time::kSecond;
    spec.center = cfg.broadcaster_location;
    spec.radius_km = 0.0;
    fault::FaultScenario scenario;
    scenario.add(spec);
    cfg.faults = scenario.expand(catalog, cfg.seed);

    core::BroadcastSession session(sim, catalog, cfg);
    session.start();
    if (with_b) session.add_viewer({48.86, 2.35}, cdn::DeliveryTier::kHls);
    sim.run();
    session.finalize();
    EXPECT_EQ(session.edge_failovers(), 1u);  // only A's edge went dark
    const auto samples = session.viewer_reattach_samples(0);
    EXPECT_EQ(samples.size(), 1u);
    return samples.empty() ? -1.0 : samples.front();
  };
  const double alone = reattach_of_a(false);
  EXPECT_GT(alone, 0.0);
  EXPECT_EQ(reattach_of_a(true), alone);
}

// --- 6. RTMP re-join after ingest restart ----------------------------

TEST(Failover, RtmpViewersRejoinRtmpAfterIngestRestart) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 90 * time::kSecond;
  cfg.rtmp_viewers = 3;
  cfg.hls_viewers = 1;
  cfg.seed = 17;
  cfg.rtmp_rejoin_after_restart = true;
  cfg.faults.add({20 * time::kSecond, fault::FaultKind::kIngestCrash,
                  10 * time::kSecond});
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  // Crash -> every RTMP viewer migrates to HLS; restart -> every one of
  // them re-attaches to RTMP (the second pipeline flush).
  EXPECT_EQ(session.rtmp_failovers(), cfg.rtmp_viewers);
  EXPECT_EQ(session.rtmp_rejoins(), cfg.rtmp_viewers);
  std::size_t back_on_rtmp = 0;
  for (const auto& v : session.viewer_results()) {
    if (v.tier == cdn::DeliveryTier::kRtmp) ++back_on_rtmp;
    EXPECT_GT(v.units_played, 0u);
  }
  EXPECT_EQ(back_on_rtmp, cfg.rtmp_viewers);
  // The rejoined viewers keep receiving frames over RTMP afterwards: the
  // live playback schedule (the post-rejoin phase) saw fresh media.
  const auto results = session.viewer_results();
  for (std::size_t i = 0; i < session.viewer_count(); ++i) {
    if (results[i].tier != cdn::DeliveryTier::kRtmp) continue;
    EXPECT_GT(session.viewer_playback(i).media_offered(), 0u);
  }
}

// Overlapping crashes act as their union: the ingest stays down until the
// latest window ends, and migrated viewers rejoin only after that.
TEST(Failover, OverlappingIngestCrashesKeepTheIngestDownUntilTheLastEnds) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  struct Outcome {
    bool down_at_25s = false;
    std::uint64_t rejoins_at_31s = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t frames_dropped = 0;
  };
  auto run = [&](std::vector<std::pair<TimeUs, DurationUs>> crashes) {
    sim::Simulator sim;
    core::SessionConfig cfg;
    cfg.broadcast_len = 60 * time::kSecond;
    cfg.rtmp_viewers = 3;
    cfg.hls_viewers = 2;
    cfg.seed = 17;
    cfg.rtmp_rejoin_after_restart = true;
    for (const auto& [at, duration] : crashes)
      cfg.faults.add({at, fault::FaultKind::kIngestCrash, duration});
    core::BroadcastSession session(sim, catalog, cfg);
    session.start();
    Outcome o;
    sim.schedule_at(25 * time::kSecond,
                    [&] { o.down_at_25s = session.ingest().down(); });
    sim.schedule_at(31 * time::kSecond,
                    [&] { o.rejoins_at_31s = session.rtmp_rejoins(); });
    sim.run();
    session.finalize();
    o.rejoins = session.rtmp_rejoins();
    o.frames_dropped = session.ingest().frames_dropped();
    return o;
  };
  const Outcome overlap = run({{10 * time::kSecond, 10 * time::kSecond},
                               {15 * time::kSecond, 15 * time::kSecond}});
  const Outcome merged = run({{10 * time::kSecond, 20 * time::kSecond}});
  EXPECT_TRUE(overlap.down_at_25s);
  EXPECT_EQ(overlap.rejoins_at_31s, 0u);  // restart at 30 s, rejoin at 32 s
  EXPECT_EQ(overlap.rejoins, 3u);
  EXPECT_EQ(overlap.frames_dropped, merged.frames_dropped);
  EXPECT_EQ(overlap.rejoins, merged.rejoins);
}

TEST(Failover, RejoinDefaultsOffSoMigratedViewersStayOnHls) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 90 * time::kSecond;
  cfg.rtmp_viewers = 2;
  cfg.hls_viewers = 0;
  cfg.seed = 17;
  ASSERT_FALSE(cfg.rtmp_rejoin_after_restart);
  cfg.faults.add({20 * time::kSecond, fault::FaultKind::kIngestCrash,
                  10 * time::kSecond});
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  EXPECT_EQ(session.rtmp_rejoins(), 0u);
  for (const auto& v : session.viewer_results())
    EXPECT_EQ(v.tier, cdn::DeliveryTier::kHls);
}

// --- 7. Regional experiment & service-level injection ----------------

// The projection the capacity-spill parity contract compares: exactly
// the fields both experiment types share, mixed identically on both
// sides.
util::Fingerprint fingerprint_common(const stats::Sampler& stall,
                                     const stats::Sampler& latency,
                                     const analysis::RegionalOutageCounters& c,
                                     std::size_t dark_edges) {
  return util::Fingerprint()
      .mix(fingerprint(stall))
      .mix(fingerprint(latency))
      .mix(c.viewers)
      .mix(c.affected)
      .mix(c.failovers)
      .mix(c.orphaned)
      .mix(static_cast<std::uint64_t>(dark_edges));
}

std::uint64_t fingerprint(const analysis::RegionalOutageStats& r) {
  return fingerprint_common(r.stall_ratio, r.failover_latency_s, r.counters,
                            r.dark_edges)
      .value();
}

TEST(RegionalDeterminism, ByteIdenticalAtThreads128) {
  const auto traces = small_trace_set(1);
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  analysis::RegionalOutageConfig cfg;
  cfg.radius_km = 3000.0;
  cfg.seed = 77;

  cfg.threads = 1;
  const auto r1 = analysis::regional_resilience_experiment(traces, catalog,
                                                           cfg);
  ASSERT_GT(r1.counters.affected, 0u);

  for (unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    const auto rn =
        analysis::regional_resilience_experiment(traces, catalog, cfg);
    EXPECT_EQ(fingerprint(r1), fingerprint(rn))
        << "regional run diverged at threads=" << threads;
  }
}

TEST(RegionalDeterminism, ZeroRadiusFailsOverEveryAffectedViewer) {
  const auto traces = small_trace_set(1);
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  analysis::RegionalOutageConfig cfg;  // radius_km defaults to 0
  cfg.seed = 3;
  const auto r = analysis::regional_resilience_experiment(traces, catalog,
                                                          cfg);
  EXPECT_EQ(r.dark_edges, 1u);
  ASSERT_GT(r.counters.affected, 0u);
  EXPECT_EQ(r.counters.failovers, r.counters.affected);
  EXPECT_EQ(r.counters.orphaned, 0u);
  EXPECT_EQ(r.failover_latency_s.size(), r.counters.failovers);
}

// Golden: one dark PoP, and a 1500 km blackout around Frankfurt.
TEST(RegionalDeterminism, BlackoutMatchesGolden) {
  const auto traces = small_trace_set(1);
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const struct {
    double radius_km;
    std::uint64_t golden;
  } cases[] = {{0.0, 0xb9ddb2350520e56aULL}, {1500.0, 0x9e10e356fd566bbaULL}};
  for (const auto& c : cases) {
    analysis::RegionalOutageConfig cfg;
    cfg.radius_km = c.radius_km;
    cfg.seed = 77;
    const auto r =
        analysis::regional_resilience_experiment(traces, catalog, cfg);
    EXPECT_GT(r.counters.failovers, 0u);
    EXPECT_EQ(fingerprint(r), c.golden) << c.radius_km << " km";
  }
}

TEST(NoFaultParity, EmptyScenarioInjectionIsBitIdenticalToCleanSession) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  auto run = [&](bool inject_empty) {
    sim::Simulator sim;
    core::SessionConfig cfg;
    cfg.broadcast_len = 30 * time::kSecond;
    cfg.rtmp_viewers = 2;
    cfg.hls_viewers = 2;
    cfg.seed = 23;
    core::BroadcastSession session(sim, catalog, cfg);
    session.start();
    if (inject_empty) {
      // An empty scenario expands to an empty schedule, which must be a
      // complete no-op: no injector, no RNG draws, no event traffic.
      fault::FaultScenario empty;
      session.inject_faults(empty.expand(catalog, cfg.seed));
    }
    sim.run();
    session.finalize();
    return test::session_fingerprint(session)
        .mix(session.faults_injected())
        .value();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ScenarioInjection, ServiceSharesOneOutageAcrossLiveBroadcasts) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::LivestreamService::Config cfg;
  cfg.rtmp_slot_cap = 0;  // every joiner lands on HLS
  cfg.session_defaults.broadcast_len = 60 * time::kSecond;
  cfg.seed = 31;
  core::LivestreamService service(sim, catalog, cfg);

  const geo::GeoPoint sf{37.77, -122.42};
  std::vector<BroadcastId> ids;
  for (int b = 0; b < 3; ++b) {
    ids.push_back(service.start_broadcast(sf, 60 * time::kSecond));
    for (int v = 0; v < 2; ++v) ASSERT_TRUE(service.join(ids.back(), sf));
  }

  fault::FaultScenario empty;
  EXPECT_EQ(service.inject_scenario(empty, cfg.seed), 0u);

  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 15 * time::kSecond;
  spec.center = sf;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  EXPECT_EQ(service.inject_scenario(scenario, cfg.seed), ids.size());

  sim.run();
  std::uint64_t failovers = 0, orphans = 0;
  for (BroadcastId id : ids) {
    core::BroadcastSession* s = service.session(id);
    ASSERT_NE(s, nullptr);
    s->finalize();
    EXPECT_GT(s->faults_injected(), 0u);
    failovers += s->edge_failovers();
    orphans += s->orphaned_viewers();
  }
  // One shared outage: every broadcast's two viewers re-anycast.
  EXPECT_EQ(failovers, 6u);
  EXPECT_EQ(orphans, 0u);
}

// --- 8. Per-edge capacity & the spill policy --------------------------

std::uint64_t fingerprint(const analysis::CapacitySpillStats& r) {
  util::Fingerprint h = fingerprint_common(
      r.stall_ratio, r.failover_latency_s, r.counters, r.dark_edges);
  h.mix(r.edge_spills)
      .mix(r.capacity_orphans)
      .mix(r.spill_overshoot_km.count())
      .mix_double(r.spill_overshoot_km.sum());
  for (const auto& [site, peak] : r.edge_peak_loads) h.mix(site).mix(peak);
  return h.value();
}

// The parity contract: edge_capacity == 0 must reproduce the
// single-pass regional experiment bit for bit — same samples in the
// same order, same counters — with the spill ledgers empty. 20000 km
// darkens the whole footprint, the one case where the re-anycast
// decision orphans every affected viewer.
TEST(CapacitySpill, InfiniteCapacityReproducesRegionalExperimentBitForBit) {
  const auto traces = small_trace_set(1);
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const std::size_t edges = catalog.edge_sites().size();
  for (double radius : {0.0, 3000.0, 20000.0}) {
    analysis::CapacitySpillConfig ccfg;  // edge_capacity defaults to 0
    ccfg.base.radius_km = radius;
    ccfg.base.seed = 77;
    const auto reg =
        analysis::regional_resilience_experiment(traces, catalog, ccfg.base);
    const auto cap =
        analysis::capacity_spill_experiment(traces, catalog, ccfg);
    EXPECT_EQ(fingerprint(reg),
              fingerprint_common(cap.stall_ratio, cap.failover_latency_s,
                                 cap.counters, cap.dark_edges)
                  .value())
        << "parity broke at radius " << radius;
    EXPECT_EQ(cap.edge_spills, 0u);
    EXPECT_EQ(cap.capacity_orphans, 0u);
    EXPECT_TRUE(cap.spill_overshoot_km.empty());
    // The load ledger still ran: anycast joins count even when nothing
    // spills.
    EXPECT_FALSE(cap.edge_peak_loads.empty());

    if (radius < 20000.0) continue;
    // Every edge dark: every viewer is affected and orphaned, nobody
    // fails over, and no failover latency is ever sampled.
    const auto expect_all_orphaned =
        [&](const analysis::RegionalOutageCounters& c, std::size_t dark,
            const stats::Sampler& latency) {
      EXPECT_EQ(dark, edges);
      EXPECT_EQ(c.viewers, traces.size() * ccfg.base.viewers_per_broadcast);
      EXPECT_EQ(c.affected, c.viewers);
      EXPECT_EQ(c.orphaned, c.viewers);
      EXPECT_EQ(c.failovers, 0u);
      EXPECT_TRUE(latency.empty());
    };
    expect_all_orphaned(reg.counters, reg.dark_edges, reg.failover_latency_s);
    expect_all_orphaned(cap.counters, cap.dark_edges, cap.failover_latency_s);
  }
}

// The acceptance contract: a finite-capacity zero-radius outage spills
// deterministically ring by ring — byte-identical at threads {1, 2, 8}.
TEST(CapacitySpill, FiniteCapacityByteIdenticalAtThreads128) {
  const auto traces = small_trace_set(1);
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  analysis::CapacitySpillConfig cfg;
  cfg.base.radius_km = 0.0;
  cfg.base.seed = 77;
  cfg.edge_capacity = 25;

  cfg.base.threads = 1;
  const auto r1 = analysis::capacity_spill_experiment(traces, catalog, cfg);
  ASSERT_GT(r1.counters.affected, 0u);
  ASSERT_GT(r1.edge_spills, 0u);  // the capacity actually bit

  for (unsigned threads : {2u, 8u}) {
    cfg.base.threads = threads;
    const auto rn = analysis::capacity_spill_experiment(traces, catalog, cfg);
    EXPECT_EQ(fingerprint(r1), fingerprint(rn))
        << "capacity-spill run diverged at threads=" << threads;
  }

  // Conservation: every affected viewer re-anycasts or orphans; every
  // spill recorded exactly one overshoot sample; capacity orphans are a
  // subset of orphans.
  EXPECT_EQ(r1.counters.failovers + r1.counters.orphaned,
            r1.counters.affected);
  EXPECT_EQ(r1.spill_overshoot_km.count(), r1.edge_spills);
  EXPECT_LE(r1.capacity_orphans, r1.counters.orphaned);
  EXPECT_GE(r1.spill_overshoot_km.min(), 0.0);
}

// Event-level spill: six co-located viewers, capacity two, their PoP
// dies. Two land on the nearest live edge; four must overflow outward,
// ring by ring, each paying a positive overshoot.
TEST(CapacitySpill, SessionSpillsRingByRingPastFullEdges) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 6;
  cfg.global_viewers = false;
  cfg.broadcaster_location = {37.77, -122.42};  // San Francisco
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
  const std::uint64_t dead_site = cfg.faults.events()[0].target;

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  EXPECT_EQ(session.edge_failovers(), cfg.hls_viewers);
  EXPECT_EQ(session.orphaned_viewers(), 0u);
  EXPECT_EQ(session.edge_spills(), 4u);
  ASSERT_EQ(session.spill_distance_km().count(), 4u);
  // No live edge is co-located with the dead SF PoP, so every spill
  // overshoots a real distance.
  EXPECT_GT(session.spill_distance_km().min(), 0.0);

  // Capacity held: at most two admissions per live edge, and the dead
  // site kept nobody.
  std::unordered_map<std::uint64_t, unsigned> admitted;
  for (const auto& v : session.viewer_results()) {
    EXPECT_NE(v.attachment.value, dead_site);
    admitted[v.attachment.value] += 1;
  }
  EXPECT_EQ(admitted.size(), 3u);  // three rings of two
  for (const auto& [site, n] : admitted) EXPECT_EQ(n, 2u);

  // The hotspot ledger: the dead SF site peaked at all six joins (joins
  // are load-blind), every other site at its two admissions.
  for (const auto& [site, peak] : session.edge_peak_loads())
    EXPECT_EQ(peak, site == dead_site ? 6u : 2u);
}

// With capacity 0 (unbounded) the spill ledgers must stay empty even
// through a real blackout — the pre-capacity behaviour, bit for bit.
TEST(CapacitySpill, UnboundedCapacityNeverSpills) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 6;
  cfg.global_viewers = false;
  cfg.broadcaster_location = {37.77, -122.42};
  ASSERT_EQ(cfg.edge_capacity, 0u);  // the default is unbounded
  cfg.seed = 5;
  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 15 * time::kSecond;
  spec.center = cfg.broadcaster_location;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  cfg.faults = scenario.expand(catalog, cfg.seed);

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  EXPECT_EQ(session.edge_failovers(), cfg.hls_viewers);
  EXPECT_EQ(session.edge_spills(), 0u);
  EXPECT_TRUE(session.spill_distance_km().empty());
  // Everyone piles onto the single nearest live edge.
  std::unordered_map<std::uint64_t, unsigned> admitted;
  for (const auto& v : session.viewer_results())
    admitted[v.attachment.value] += 1;
  EXPECT_EQ(admitted.size(), 1u);
}

// Regression (the mid-detection re-assignment bug): blackout A dies
// before the detect window ends, so at detection time the dead PoP's
// down-horizon has lapsed — the old nearest-live check would re-assign
// the viewers straight back to it, and the overlapping blackout B would
// kill them again. The event's dark set is now an explicit exclusion, so
// the viewers land elsewhere on the FIRST failover.
TEST(CapacitySpill, FlappingPoPIsExcludedFromItsOwnFailover) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 4;
  cfg.global_viewers = false;
  cfg.broadcaster_location = {37.77, -122.42};
  cfg.seed = 5;
  ASSERT_EQ(cdn::kFailoverDetectTimeout, 2 * time::kSecond);

  fault::FaultScenario scenario;
  fault::RegionalBlackoutSpec a;       // flap: down 1 s, back up BEFORE
  a.at = 20 * time::kSecond;           // the 2 s detect window elapses
  a.duration = 1 * time::kSecond;
  a.center = cfg.broadcaster_location;
  a.radius_km = 0.0;
  scenario.add(a);
  fault::RegionalBlackoutSpec b = a;   // the second, overlapping blackout
  b.at = 22500 * time::kMillisecond;   // re-kills the PoP right after
  b.duration = 10 * time::kSecond;     // detection fired at t=22 s
  scenario.add(b);
  cfg.faults = scenario.expand(catalog, cfg.seed);
  const std::uint64_t flapping_site = cfg.faults.events()[0].target;

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  // Exactly ONE failover per viewer: nobody bounced back to the flapping
  // PoP only to be re-killed by blackout B.
  EXPECT_EQ(session.edge_failovers(), cfg.hls_viewers);
  EXPECT_EQ(session.orphaned_viewers(), 0u);
  for (const auto& v : session.viewer_results()) {
    EXPECT_FALSE(v.orphaned);
    EXPECT_NE(v.attachment.value, flapping_site);
  }
}

// Service-level wiring: inject_scenario + session_defaults.edge_capacity
// produce per-broadcast pile-ups that the service ledgers aggregate.
TEST(CapacitySpill, ServiceAggregatesSpillLedgersAcrossBroadcasts) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::LivestreamService::Config cfg;
  cfg.rtmp_slot_cap = 0;  // every joiner lands on HLS
  cfg.session_defaults.broadcast_len = 60 * time::kSecond;
  cfg.session_defaults.edge_capacity = 1;
  cfg.seed = 31;
  core::LivestreamService service(sim, catalog, cfg);

  const geo::GeoPoint sf{37.77, -122.42};
  std::vector<BroadcastId> ids;
  for (int b = 0; b < 3; ++b) {
    ids.push_back(service.start_broadcast(sf, 60 * time::kSecond));
    for (int v = 0; v < 2; ++v) ASSERT_TRUE(service.join(ids.back(), sf));
  }
  ASSERT_EQ(service.edge_spills(), 0u);  // joins are load-blind

  fault::RegionalBlackoutSpec spec;
  spec.at = 20 * time::kSecond;
  spec.duration = 15 * time::kSecond;
  spec.center = sf;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  ASSERT_EQ(service.inject_scenario(scenario, cfg.seed), ids.size());

  sim.run();
  std::uint64_t failovers = 0;
  for (BroadcastId id : ids) {
    core::BroadcastSession* s = service.session(id);
    ASSERT_NE(s, nullptr);
    s->finalize();
    failovers += s->edge_failovers();
    // Capacity 1 per session: one viewer takes the nearest live edge,
    // the other spills past it.
    EXPECT_EQ(s->edge_spills(), 1u);
  }
  EXPECT_EQ(failovers, 6u);
  EXPECT_EQ(service.edge_spills(), 3u);
  EXPECT_EQ(service.spill_distance_km().count(), 3u);
  EXPECT_GT(service.spill_distance_km().min(), 0.0);
  // Aggregated hotspot ledger: the dead SF site summed its three
  // per-broadcast peaks of two joins each.
  const std::uint64_t dead_site =
      catalog.nearest(sf, geo::CdnRole::kEdge).id.value;
  bool found = false;
  for (const auto& [site, peak] : service.edge_peak_loads())
    if (site == dead_site) {
      found = true;
      EXPECT_EQ(peak, 6u);
    }
  EXPECT_TRUE(found);
}

// --- 9. Flash-crowd workload determinism ------------------------------

// The crowd generator feeds the poll-wheel flash-crowd scenarios; its
// records must merge identically at any thread count (record i depends
// only on substream_seed(seed, i) and lands in slot i).
TEST(CrowdDeterminism, FlashCrowdByteIdenticalAtThreads128) {
  const auto preset = workload::CrowdPreset::twitch_flash_crowd();
  const auto r1 = workload::generate_crowd(preset, 77, 1);
  ASSERT_EQ(r1.size(), preset.viewers);
  const std::uint64_t fp1 = workload::crowd_fingerprint(r1);
  for (unsigned threads : {2u, 8u}) {
    const auto rn = workload::generate_crowd(preset, 77, threads);
    EXPECT_EQ(fp1, workload::crowd_fingerprint(rn))
        << "crowd generation diverged at threads=" << threads;
  }
}

TEST(CrowdDeterminism, EveryPresetThreadInvariantAndSeedSensitive) {
  for (const auto& preset : {workload::CrowdPreset::twitch_flash_crowd(),
                             workload::CrowdPreset::twitch_steady_giants(),
                             workload::CrowdPreset::periscope_tail()}) {
    const auto a = workload::generate_crowd(preset, 9, 1);
    const auto b = workload::generate_crowd(preset, 9, 8);
    EXPECT_EQ(workload::crowd_fingerprint(a), workload::crowd_fingerprint(b))
        << preset.name;
    const auto c = workload::generate_crowd(preset, 10, 1);
    EXPECT_NE(workload::crowd_fingerprint(a), workload::crowd_fingerprint(c))
        << preset.name;
  }
}

TEST(Failover, CorruptionWindowCountsDiscardedDownloads) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 3;
  cfg.seed = 8;
  fault::FaultEvent corrupt;
  corrupt.at = 10 * time::kSecond;
  corrupt.kind = fault::FaultKind::kChunkCorruption;
  corrupt.duration = 40 * time::kSecond;
  corrupt.magnitude = 1.0;  // every download in the window corrupts
  cfg.faults.add(corrupt);
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  EXPECT_GT(session.corrupted_downloads(), 0u);
  // Corruption discards downloads but viewers still re-poll and play.
  for (const auto& v : session.viewer_results())
    EXPECT_GT(v.units_played, 0u);
}

}  // namespace
