// Control-plane battery: the Timeseries telemetry ring, the steering
// state machine (triggers, hysteresis, cooldown, revival), scrape ->
// publish timing on the engine, the control-off bit-parity contract,
// steering determinism across thread counts, the flapping-edge
// regression, and the attach/detach conservation + failure-streak
// satellites on the cdn servers.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "livesim/analysis/control_steering.h"
#include "livesim/analysis/resilience.h"
#include "livesim/cdn/servers.h"
#include "livesim/control/health_monitor.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/fault/scenario.h"
#include "livesim/geo/datacenters.h"
#include "livesim/stats/timeseries.h"

namespace livesim {
namespace {

using control::ControlPlane;
using control::ControlPlaneConfig;
using control::EdgeHealth;
using control::EdgeSample;
using control::SteeringPolicy;

// --- stats::Timeseries: the telemetry ring -----------------------------

TEST(Timeseries, RingOverwritesOldestKeepsLifetimeCount) {
  stats::Timeseries ts(4);
  for (int i = 0; i < 6; ++i)
    ts.push(i * time::kSecond, static_cast<double>(i));
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.capacity(), 4u);
  EXPECT_EQ(ts.pushes(), 6u);
  // Survivors are 2, 3, 4, 5 (oldest two overwritten).
  EXPECT_DOUBLE_EQ(ts.newest().value, 5.0);
  EXPECT_DOUBLE_EQ(ts.newest(3).value, 2.0);
  EXPECT_DOUBLE_EQ(ts.mean(), (2.0 + 3.0 + 4.0 + 5.0) / 4.0);
  EXPECT_DOUBLE_EQ(ts.max(), 5.0);
}

TEST(Timeseries, LeastSquaresSlopeAndProjection) {
  stats::Timeseries ts(8);
  // Perfectly linear: value = 2 * seconds.
  for (int i = 0; i < 4; ++i)
    ts.push(i * time::kSecond, 2.0 * i);
  EXPECT_NEAR(ts.slope_per_s(), 2.0, 1e-9);
  // Projection anchors at the newest value (6.0) + slope * horizon.
  EXPECT_NEAR(ts.project(2 * time::kSecond), 10.0, 1e-9);
}

TEST(Timeseries, DegenerateRingsAreFlat) {
  stats::Timeseries empty(4);
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.slope_per_s(), 0.0);
  EXPECT_DOUBLE_EQ(empty.project(time::kSecond), 0.0);

  stats::Timeseries one(4);
  one.push(time::kSecond, 7.0);
  EXPECT_DOUBLE_EQ(one.slope_per_s(), 0.0);
  EXPECT_DOUBLE_EQ(one.project(5 * time::kSecond), 7.0);

  // Zero capacity is clamped to 1, not UB.
  stats::Timeseries zero(0);
  zero.push(0, 1.0);
  zero.push(1, 2.0);
  EXPECT_EQ(zero.capacity(), 1u);
  EXPECT_DOUBLE_EQ(zero.last(), 2.0);
}

// --- SteeringPolicy: the three-state machine ---------------------------

EdgeSample sample(std::uint64_t site, std::uint64_t attached,
                  std::uint64_t capacity, std::uint32_t streak = 0,
                  bool down = false) {
  EdgeSample s;
  s.site = site;
  s.attached = attached;
  s.capacity = capacity;
  s.failure_streak = streak;
  s.down = down;
  return s;
}

TEST(SteeringPolicy, DownSampleKillsEdge) {
  SteeringPolicy p;
  auto t = p.observe(sample(7, 0, 0, 0, /*down=*/true), 0.0, time::kSecond);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->from, EdgeHealth::kHealthy);
  EXPECT_EQ(t->to, EdgeHealth::kDead);
  EXPECT_EQ(t->site, 7u);
  EXPECT_EQ(p.health(7), EdgeHealth::kDead);
  EXPECT_EQ(p.deaths(), 1u);
  EXPECT_EQ(p.override_sites(), std::vector<std::uint64_t>{7});
}

TEST(SteeringPolicy, DrainsAtLoadFraction) {
  SteeringPolicy p;  // kDrainLoadFraction = 0.9
  EXPECT_FALSE(p.observe(sample(1, 8, 10), 8.0, 0).has_value());
  auto t = p.observe(sample(1, 9, 10), 9.0, time::kSecond);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->to, EdgeHealth::kDraining);
  EXPECT_EQ(p.drains(), 1u);
}

TEST(SteeringPolicy, DrainsOnTrendProjection) {
  // Low load now, but the ledger's projection crosses capacity within
  // the horizon: drain before the edge actually fills.
  SteeringPolicy p;
  EXPECT_FALSE(p.observe(sample(1, 2, 10), 9.5, 0).has_value());
  auto t = p.observe(sample(1, 3, 10), 10.5, time::kSecond);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->to, EdgeHealth::kDraining);
}

TEST(SteeringPolicy, DrainsOnFailureStreakEvenUnbounded) {
  SteeringPolicy p;  // kDrainFailureStreak = 3
  EXPECT_FALSE(p.observe(sample(1, 0, 0, 2), 0.0, 0).has_value());
  auto t = p.observe(sample(1, 0, 0, 3), 0.0, time::kSecond);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->to, EdgeHealth::kDraining);
}

TEST(SteeringPolicy, UndrainNeedsHysteresisAndCooldown) {
  SteeringPolicy p;  // undrain at <= 0.7 * cap, cooldown 2 s
  ASSERT_TRUE(p.observe(sample(1, 9, 10), 9.0, 0).has_value());  // drain @ 0

  // Load above the undrain fraction: pinned draining.
  EXPECT_FALSE(p.observe(sample(1, 8, 10), 8.0, time::kSecond).has_value());
  // Load OK but the cooldown has not elapsed: still draining.
  EXPECT_FALSE(p.observe(sample(1, 5, 10), 5.0, time::kSecond).has_value());
  // Load OK, streak dirty: still draining even past the cooldown.
  EXPECT_FALSE(
      p.observe(sample(1, 5, 10, 1), 5.0, 3 * time::kSecond).has_value());
  // Load OK + clean streak + cooled: recovers.
  auto t = p.observe(sample(1, 5, 10), 5.0, 3 * time::kSecond);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->to, EdgeHealth::kHealthy);
  EXPECT_EQ(p.undrains(), 1u);
  EXPECT_TRUE(p.override_sites().empty());
}

TEST(SteeringPolicy, DeadRevivesThroughDrainingNotHealthy) {
  SteeringPolicy p;
  ASSERT_TRUE(p.observe(sample(1, 0, 0, 0, true), 0.0, 0).has_value());
  // The probe answers again: the box re-enters via draining — a revived
  // edge must EARN healthy through the same hysteresis as any drain.
  auto t = p.observe(sample(1, 0, 0), 0.0, time::kSecond);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->from, EdgeHealth::kDead);
  EXPECT_EQ(t->to, EdgeHealth::kDraining);
  EXPECT_EQ(p.revivals(), 1u);
  // Cooldown anchors at the revival: no instant recovery.
  EXPECT_FALSE(p.observe(sample(1, 0, 0), 0.0,
                         time::kSecond + time::kMillisecond).has_value());
  auto h = p.observe(sample(1, 0, 0), 0.0, 4 * time::kSecond);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->to, EdgeHealth::kHealthy);
}

TEST(SteeringPolicy, SaturationCountsUnhealthyAndFullEdges) {
  SteeringPolicy p;
  p.observe(sample(1, 1, 10), 1.0, 0);             // healthy, not full
  p.observe(sample(2, 0, 0, 0, true), 0.0, 0);     // dead
  EXPECT_DOUBLE_EQ(p.saturation(), 0.5);
  p.observe(sample(3, 10, 10), 10.0, 0);           // full (and drains)
  EXPECT_DOUBLE_EQ(p.saturation(), 2.0 / 3.0);
}

// --- HealthMonitor: ledgers + projection -------------------------------

TEST(HealthMonitor, LedgersTrackLoadAndProject) {
  control::HealthMonitor m;
  for (int i = 0; i < 4; ++i) {
    EdgeSample s = sample(5, static_cast<std::uint64_t>(3 * i), 100);
    s.cohort = 7;
    s.fetch_failures = static_cast<std::uint64_t>(i);
    m.ingest(s, i * time::kSecond);
  }
  EXPECT_EQ(m.edges(), 1u);
  EXPECT_EQ(m.samples(), 4u);
  const auto* led = m.ledger(5);
  ASSERT_NE(led, nullptr);
  EXPECT_EQ(led->load.size(), 4u);
  EXPECT_EQ(led->last_cohort, 7u);
  EXPECT_EQ(led->last_fetch_failures, 3u);
  // Load grows 3/s from 9: projection 5 s out = 24.
  EXPECT_NEAR(m.projected_load(5, 5 * time::kSecond), 24.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.projected_load(99, time::kSecond), 0.0);
}

// --- ControlPlane: scrape cadence + publication latency ----------------

TEST(ControlPlane, PublicationLagsDecisionBySteerLatency) {
  sim::Simulator sim;
  ControlPlaneConfig cfg;
  cfg.enabled = true;  // (the plane itself never checks; the session does)
  ControlPlane cp(sim, cfg, Rng(1));

  bool down = true;
  cp.start([&down] {
    std::vector<EdgeSample> out;
    out.push_back(sample(3, 0, 0, 0, down));
    return out;
  });

  // First scrape at 500 ms decides the death; the override becomes
  // routing-visible only at 600 ms (kSteerLatency later).
  bool avoided_before_publish = true;
  bool avoided_after_publish = false;
  EdgeHealth published_after = EdgeHealth::kHealthy;
  sim.schedule_in(550 * time::kMillisecond, [&] {
    avoided_before_publish = cp.avoid(3);
  });
  sim.schedule_in(650 * time::kMillisecond, [&] {
    avoided_after_publish = cp.avoid(3);
    published_after = cp.published_health(3);
  });
  sim.schedule_in(1'200 * time::kMillisecond, [&] { cp.stop(); });
  sim.run();

  EXPECT_FALSE(avoided_before_publish);
  EXPECT_TRUE(avoided_after_publish);
  EXPECT_EQ(published_after, EdgeHealth::kDead);
  EXPECT_EQ(cp.scrapes(), 2u);
  EXPECT_EQ(cp.publications(), 1u);
  EXPECT_EQ(cp.policy().deaths(), 1u);
}

TEST(ControlPlane, SteerCallbackFiresOnPublication) {
  sim::Simulator sim;
  ControlPlaneConfig cfg;
  ControlPlane cp(sim, cfg, Rng(1));

  std::vector<std::pair<TimeUs, EdgeHealth>> steered;
  cp.set_steer_fn([&](const SteeringPolicy::Transition& t) {
    steered.emplace_back(sim.now(), t.to);
  });
  cp.start([] {
    std::vector<EdgeSample> out;
    out.push_back(sample(4, 0, 0, 0, /*down=*/true));
    return out;
  });
  sim.schedule_in(time::kSecond, [&] { cp.stop(); });
  sim.run();

  ASSERT_EQ(steered.size(), 1u);
  EXPECT_EQ(steered[0].first,
            500 * time::kMillisecond + control::kSteerLatency);
  EXPECT_EQ(steered[0].second, EdgeHealth::kDead);
}

TEST(ControlPlane, OverlayAssistArmsOnceAndStaysArmed) {
  sim::Simulator sim;
  ControlPlaneConfig cfg;
  cfg.overlay_assist = true;
  ControlPlane cp(sim, cfg, Rng(1));

  // One of two edges dark at the first scrape, both fine afterwards:
  // the assist arms at the first tick and never disarms (re-warming a
  // P2P mesh per oscillation would be worse than the drain).
  int tick = 0;
  cp.start([&tick] {
    ++tick;
    std::vector<EdgeSample> out;
    out.push_back(sample(1, 0, 0));
    out.push_back(sample(2, 0, 0, 0, /*down=*/tick == 1));
    return out;
  });
  sim.schedule_in(3 * time::kSecond, [&] { cp.stop(); });
  sim.run();

  EXPECT_TRUE(cp.overlay_assist_active());
  EXPECT_EQ(cp.assist_armed_at(), 500 * time::kMillisecond);
  EXPECT_GE(cp.policy().revivals(), 1u);
}

// --- cdn satellites: conservation + failure streaks --------------------

TEST(EdgeServer, DetachUnderflowIsCountedNotMasked) {
  sim::Simulator sim;
  cdn::EdgeServer edge(
      sim, DatacenterId{1},
      [](std::function<void(cdn::EdgeServer::FetchResult)>) {});
  edge.attach();
  edge.detach();
  EXPECT_EQ(edge.attached(), 0u);
  EXPECT_EQ(edge.detach_underflows(), 0u);
  // The double-detach: load still clamps at zero (the ledger must never
  // wrap), but the bug is recorded instead of silently masked.
  edge.detach();
  EXPECT_EQ(edge.attached(), 0u);
  EXPECT_EQ(edge.detach_underflows(), 1u);
  edge.attach();
  EXPECT_EQ(edge.attached(), 1u);
  EXPECT_EQ(edge.peak_attached(), 1u);
}

TEST(EdgeServer, FetchFailureStreakResetsOnSuccess) {
  sim::Simulator sim;
  int calls = 0;
  cdn::EdgeServer edge(
      sim, DatacenterId{1},
      [&calls](std::function<void(cdn::EdgeServer::FetchResult)> done) {
        ++calls;
        if (calls <= 2) {
          done(std::nullopt);  // transient origin failures
          return;
        }
        media::Chunk c;
        c.seq = 0;
        c.size_bytes = 1000;
        done(std::vector<media::Chunk>{c});
      });

  bool served = false;
  edge.on_expire_notice(0);
  edge.on_poll(-1, [&served](TimeUs, std::uint32_t begin, std::uint32_t end) {
    served = begin != end;
  });
  sim.run();

  EXPECT_TRUE(served);
  EXPECT_EQ(edge.fetch_failures(), 2u);   // cumulative never resets
  EXPECT_EQ(edge.fetch_failure_streak(), 0u);  // streak cleared by success
}

TEST(EdgeServer, FetchFailureStreakPersistsWhileFailing) {
  sim::Simulator sim;
  cdn::EdgeServer edge(
      sim, DatacenterId{1},
      [](std::function<void(cdn::EdgeServer::FetchResult)> done) {
        done(std::nullopt);
      });

  edge.on_expire_notice(0);
  edge.on_poll(-1, [](TimeUs, std::uint32_t, std::uint32_t) {});
  sim.run();

  EXPECT_EQ(edge.fetch_failures(), cdn::EdgeServer::kFetchAttempts);
  EXPECT_EQ(edge.fetch_failure_streak(), cdn::EdgeServer::kFetchAttempts);
}

TEST(IngestServer, FrameDropStreakResetsOnIngest) {
  sim::Simulator sim;
  cdn::IngestServer ingest(sim, DatacenterId{0}, media::kChunkTarget);
  media::VideoFrame f;
  f.size_bytes = 2000;

  ingest.set_down(true);
  for (int i = 0; i < 3; ++i) ingest.on_frame(f);
  EXPECT_EQ(ingest.frame_drop_streak(), 3u);
  EXPECT_EQ(ingest.frames_dropped(), 3u);

  ingest.set_down(false);
  ingest.on_frame(f);
  EXPECT_EQ(ingest.frame_drop_streak(), 0u);  // the box answers again
  EXPECT_EQ(ingest.frames_dropped(), 3u);     // history is not rewritten
}

// --- session-level contracts -------------------------------------------

core::SessionConfig blackout_session(const geo::DatacenterCatalog& catalog,
                                     std::uint32_t viewers, TimeUs at,
                                     DurationUs duration) {
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = viewers;
  cfg.global_viewers = false;  // co-located: one herd on one edge
  cfg.seed = 7;
  fault::RegionalBlackoutSpec spec;
  spec.at = at;
  spec.duration = duration;
  spec.center = cfg.broadcaster_location;
  spec.radius_km = 0.0;
  fault::FaultScenario scenario;
  scenario.add(spec);
  cfg.faults = scenario.expand(catalog, cfg.seed);
  return cfg;
}

std::uint64_t dark_site(const geo::DatacenterCatalog& catalog,
                        const geo::GeoPoint& center) {
  fault::RegionalBlackoutSpec spec;
  spec.center = center;
  spec.radius_km = 0.0;
  return fault::FaultScenario::blackout_sites(catalog, spec).at(0).value;
}

TEST(SessionControl, DisabledBuildsNothingAndConservesAttachments) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  sim::Simulator sim;
  auto cfg = blackout_session(catalog, 4, 20 * time::kSecond,
                              10 * time::kSecond);
  ASSERT_FALSE(cfg.control.enabled);  // the default IS off
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  EXPECT_EQ(session.control_plane(), nullptr);
  EXPECT_EQ(session.proactive_migrations(), 0u);
  EXPECT_EQ(session.overlay_assists(), 0u);
  EXPECT_GT(session.edge_failovers(), 0u);  // the blackout did happen
  // Attach/detach conservation across join -> death -> failover: no
  // detach ever fired against an empty ledger.
  for (const auto& [site, edge] : session.edges())
    EXPECT_EQ(edge->detach_underflows(), 0u) << "site " << site;
}

TEST(SessionControl, ProactiveMigrationBeatsClientTimeout) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  sim::Simulator sim;
  auto cfg = blackout_session(catalog, 6, 20 * time::kSecond,
                              15 * time::kSecond);
  cfg.control.enabled = true;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  const auto* cp = session.control_plane();
  ASSERT_NE(cp, nullptr);
  EXPECT_GE(cp->scrapes(), 1u);
  EXPECT_EQ(cp->policy().deaths(), 1u);
  // Scrape (<= 500 ms) + steer latency (100 ms) beat the 2 s client
  // detect window: every viewer moved proactively, none was left for
  // the reactive sweep, none orphaned.
  EXPECT_EQ(session.proactive_migrations(), 6u);
  EXPECT_EQ(session.edge_failovers(), 6u);
  EXPECT_EQ(session.orphaned_viewers(), 0u);
  for (const auto& [site, edge] : session.edges())
    EXPECT_EQ(edge->detach_underflows(), 0u) << "site " << site;
}

TEST(SessionControl, FlappingEdgeDoesNotRecaptureWhileDraining) {
  // The edge dies at 20 s and is back at 23 s — well before the
  // broadcast ends. The policy revives it dead -> draining, so the
  // published override must keep steering joins away until the
  // cooldown-gated undrain, not the instant the probe answers.
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const std::uint64_t dead = dark_site(
      catalog, core::SessionConfig{}.broadcaster_location);

  sim::Simulator sim;
  auto cfg = blackout_session(catalog, 4, 20 * time::kSecond,
                              3 * time::kSecond);
  cfg.control.enabled = true;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();

  // A refugee rejoining mid-flap: at 24.5 s the box is up again but the
  // revival is still draining (published ~23.6 s; undrain publishes
  // ~25.6 s at the earliest: revival + 2 s cooldown + steer latency).
  std::size_t late = 0;
  sim.schedule_in(24'500 * time::kMillisecond, [&] {
    late = session.add_viewer(cfg.broadcaster_location,
                              cdn::DeliveryTier::kHls);
  });
  sim.run();
  session.finalize();

  const auto results = session.viewer_results();
  ASSERT_GT(results.size(), late);
  EXPECT_NE(results[late].attachment.value, dead)
      << "draining edge recaptured a refugee";
  EXPECT_FALSE(results[late].orphaned);

  const auto* cp = session.control_plane();
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->policy().deaths(), 1u);
  EXPECT_EQ(cp->policy().revivals(), 1u);
  // The flap fully settles: the revived edge earns healthy again after
  // the cooldown, and the override clears.
  EXPECT_GE(cp->policy().undrains(), 1u);
  EXPECT_FALSE(cp->avoid(dead));
}

TEST(SessionControl, OverlayAssistParksCapacityOrphans) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  sim::Simulator sim;
  auto cfg = blackout_session(catalog, 6, 20 * time::kSecond,
                              15 * time::kSecond);
  cfg.edge_capacity = 1;     // failover admits one viewer per edge
  cfg.failover_spill_k = 2;  // two candidate rings
  cfg.control.enabled = true;
  cfg.control.overlay_assist = true;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  // Six viewers flee the dead edge; two rings x capacity 1 admit two;
  // the armed mesh absorbs the other four — zero frozen players.
  EXPECT_EQ(session.edge_failovers(), 2u);
  EXPECT_EQ(session.overlay_assists(), 4u);
  EXPECT_EQ(session.orphaned_viewers(), 0u);
  ASSERT_NE(session.assist_mesh(), nullptr);
  EXPECT_EQ(session.assist_mesh()->peers(), 4u);
  EXPECT_GT(session.assist_mesh()->server_egress_chunks(), 0u);
  const auto* cp = session.control_plane();
  ASSERT_NE(cp, nullptr);
  EXPECT_TRUE(cp->overlay_assist_active());
}

// --- experiment-level contracts ----------------------------------------

std::vector<analysis::BroadcastTrace> small_traces() {
  analysis::TraceSetConfig cfg;
  cfg.broadcasts = 12;
  cfg.broadcast_len = time::kMinute;
  cfg.threads = 1;
  return analysis::generate_traces(cfg);
}

analysis::ControlSteeringConfig steering_config(bool enabled) {
  analysis::ControlSteeringConfig cfg;
  cfg.spill.base.seed = 42;
  cfg.spill.base.threads = 1;
  cfg.spill.base.radius_km = 1500.0;
  cfg.spill.edge_capacity = 25;
  cfg.control.enabled = enabled;
  return cfg;
}

void expect_same_samples(const stats::Sampler& a, const stats::Sampler& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto& av = a.samples();
  const auto& bv = b.samples();
  for (std::size_t i = 0; i < av.size(); ++i) EXPECT_EQ(av[i], bv[i]) << i;
}

TEST(ControlSteeringExperiment, DisabledIsCapacitySpillBitForBit) {
  const auto traces = small_traces();
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const auto cfg = steering_config(/*enabled=*/false);

  const auto spill =
      analysis::capacity_spill_experiment(traces, catalog, cfg.spill);
  const auto steer =
      analysis::control_steering_experiment(traces, catalog, cfg);

  expect_same_samples(spill.stall_ratio, steer.spill.stall_ratio);
  expect_same_samples(spill.failover_latency_s,
                      steer.spill.failover_latency_s);
  EXPECT_EQ(spill.counters.viewers, steer.spill.counters.viewers);
  EXPECT_EQ(spill.counters.affected, steer.spill.counters.affected);
  EXPECT_EQ(spill.counters.failovers, steer.spill.counters.failovers);
  EXPECT_EQ(spill.counters.orphaned, steer.spill.counters.orphaned);
  EXPECT_EQ(spill.edge_spills, steer.spill.edge_spills);
  EXPECT_EQ(spill.capacity_orphans, steer.spill.capacity_orphans);
  EXPECT_EQ(spill.edge_peak_loads, steer.spill.edge_peak_loads);

  // Disabled: both detection models collapse to the reactive one.
  EXPECT_FALSE(steer.proactive);
  EXPECT_EQ(steer.steer_published_at, TimeUs{0});
  EXPECT_EQ(steer.steered_early, 0u);
  expect_same_samples(steer.reactive_detect_s, steer.proactive_detect_s);
}

TEST(ControlSteeringExperiment, ProactiveDominatesPointwise) {
  const auto traces = small_traces();
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const auto r = analysis::control_steering_experiment(
      traces, catalog, steering_config(/*enabled=*/true));

  ASSERT_TRUE(r.proactive);
  ASSERT_GT(r.spill.counters.affected, 0u);
  const auto& re = r.reactive_detect_s.samples();
  const auto& pr = r.proactive_detect_s.samples();
  ASSERT_EQ(re.size(), pr.size());
  for (std::size_t i = 0; i < re.size(); ++i)
    EXPECT_LE(pr[i], re[i]) << "viewer " << i;
  // The default cadences (scrape 500 ms + steer 100 ms vs a 2 s detect
  // window) beat the client timeout for every affected viewer.
  EXPECT_EQ(r.steered_early, re.size());
}

TEST(ControlSteeringExperiment, SteeringDeterministicAcrossThreads) {
  const auto traces = small_traces();
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  auto cfg = steering_config(/*enabled=*/true);

  cfg.spill.base.threads = 1;
  const auto r1 = analysis::control_steering_experiment(traces, catalog, cfg);
  for (unsigned threads : {2u, 8u}) {
    cfg.spill.base.threads = threads;
    const auto r =
        analysis::control_steering_experiment(traces, catalog, cfg);
    expect_same_samples(r1.spill.stall_ratio, r.spill.stall_ratio);
    expect_same_samples(r1.spill.failover_latency_s,
                        r.spill.failover_latency_s);
    expect_same_samples(r1.reactive_detect_s, r.reactive_detect_s);
    expect_same_samples(r1.proactive_detect_s, r.proactive_detect_s);
    EXPECT_EQ(r1.steer_published_at, r.steer_published_at);
    EXPECT_EQ(r1.steered_early, r.steered_early);
    EXPECT_EQ(r1.spill.edge_peak_loads, r.spill.edge_peak_loads);
  }
}

}  // namespace
}  // namespace livesim
