// The delivery-backend battery (ctest binary: livesim_backends_tests).
//
// Four layers of contract are pinned here:
//  1. ResourceModel boundary conditions: degenerate cadences
//     (poll_interval/chunk_duration/part_duration <= 0) charge ingest +
//     baseline only -- the historical silent /1.0 fallback is gone --
//     and the closed-form cost curves keep the Figure-14 ordering
//     (HLS < LL-HLS < RTMP per-viewer work at the default cadence).
//  2. Config-boundary clamps: LlHlsParams::normalized pins every
//     degenerate part_duration/hold_cap to a sane positive value, and
//     the BatchTimeline quantization that LL-HLS cadences feed clamps
//     zero/negative durations instead of dividing by them.
//  3. Golden pins for two-tier RTMP/HLS configs run through
//     cdn::DeliveryBackend: session fingerprints across clean runs,
//     ingest crashes, edge blackouts and capacity spills, plus the
//     two-lane delay-breakdown experiment. A pin that moves means the
//     session's behaviour changed; re-pin only on purpose.
//  4. LL-HLS semantics: the three-way handoff boundary (`<` against
//     each cap), part flow ingest -> edge -> viewer, blocking-reload
//     hold/release/timeout ledgers, the delay ordering
//     RTMP < LL-HLS < HLS, failover of LL-HLS viewers, and run-to-run
//     determinism of mixed three-tier sessions.
#include <gtest/gtest.h>

#include <memory>

#include "livesim/analysis/backends.h"
#include "livesim/cdn/delivery_backend.h"
#include "livesim/cdn/resource_model.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/core/service.h"
#include "livesim/fault/scenario.h"
#include "livesim/geo/datacenters.h"
#include "livesim/sim/batch.h"
#include "livesim/sim/simulator.h"
#include "session_fingerprint.h"

namespace {
using namespace livesim;

// --- 1. ResourceModel boundary conditions -----------------------------

TEST(ResourceModelBoundary, HlsDegenerateCadenceChargesIngestOnly) {
  const cdn::ResourceModel m;
  const double floor = m.baseline_percent + 25.0 * m.frame_ingest_us / 1e4;
  // Zero or negative poll interval: the tier never polls; no serve work,
  // no phantom /1.0 chunk-serve charge.
  EXPECT_DOUBLE_EQ(m.hls_cpu_percent(500, 25.0, 0.0, 3.0), floor);
  EXPECT_DOUBLE_EQ(m.hls_cpu_percent(500, 25.0, -2.8, 3.0), floor);
  // Zero or negative chunk duration: nothing is ever sealed or served.
  EXPECT_DOUBLE_EQ(m.hls_cpu_percent(500, 25.0, 2.8, 0.0), floor);
  EXPECT_DOUBLE_EQ(m.hls_cpu_percent(500, 25.0, 2.8, -1.0), floor);
  // The degenerate result is viewer-independent.
  EXPECT_DOUBLE_EQ(m.hls_cpu_percent(0, 25.0, 0.0, 0.0),
                   m.hls_cpu_percent(100000, 25.0, 0.0, 0.0));
}

TEST(ResourceModelBoundary, HlsPositivePathUnchanged) {
  const cdn::ResourceModel m;
  // The guard must not perturb the healthy-cadence arithmetic: spell the
  // historical expression out and compare exactly.
  const double polls_per_s = 40.0 / 2.8;
  const double expected =
      m.baseline_percent +
      (25.0 * m.frame_ingest_us + (1.0 / 3.0) * m.chunk_build_us +
       polls_per_s * (m.poll_serve_us + m.chunk_serve_us * 3.0 / 2.8)) /
          1e4;
  EXPECT_DOUBLE_EQ(m.hls_cpu_percent(40, 25.0, 2.8, 3.0), expected);
}

TEST(ResourceModelBoundary, LlHlsDegenerateCadenceChargesIngestOnly) {
  const cdn::ResourceModel m;
  const double floor = m.baseline_percent + 25.0 * m.frame_ingest_us / 1e4;
  EXPECT_DOUBLE_EQ(m.llhls_cpu_percent(500, 25.0, 0.0, 3.0), floor);
  EXPECT_DOUBLE_EQ(m.llhls_cpu_percent(500, 25.0, -1.0, 3.0), floor);
  EXPECT_DOUBLE_EQ(m.llhls_cpu_percent(500, 25.0, 1.0, 0.0), floor);
  EXPECT_DOUBLE_EQ(m.llhls_cpu_percent(500, 25.0, 1.0, -3.0), floor);
}

TEST(ResourceModelBoundary, CostCurvesKeepFigure14Ordering) {
  const cdn::ResourceModel m;
  // Per-viewer marginal work at the default cadence: HLS < LL-HLS < RTMP.
  for (std::uint32_t v : {2u, 10u, 100u, 5000u}) {
    const double rtmp = m.rtmp_cpu_percent(v, 25.0);
    const double llhls = m.llhls_cpu_percent(v, 25.0, 1.0, 3.0);
    const double hls = m.hls_cpu_percent(v, 25.0, 2.8, 3.0);
    EXPECT_LT(hls, llhls) << v << " viewers";
    EXPECT_LT(llhls, rtmp) << v << " viewers";
  }
  // At zero viewers the part pipeline's fixed slicing cost is visible.
  EXPECT_GT(m.llhls_cpu_percent(0, 25.0, 1.0, 3.0),
            m.hls_cpu_percent(0, 25.0, 2.8, 3.0));
}

// --- 2. Config-boundary clamps ----------------------------------------

TEST(LlHlsParamsBoundary, NormalizedClampsDegenerateDurations) {
  cdn::LlHlsParams p;
  p.part_duration = 0;
  auto n = p.normalized();
  EXPECT_EQ(n.part_duration, 1);
  EXPECT_EQ(n.hold_cap, 3 * time::kSecond);  // healthy cap passes through

  p.part_duration = -5 * time::kSecond;
  n = p.normalized();
  EXPECT_EQ(n.part_duration, 1);

  p.part_duration = time::kSecond;
  p.hold_cap = 0;
  n = p.normalized();
  EXPECT_EQ(n.part_duration, time::kSecond);
  EXPECT_EQ(n.hold_cap, 3 * time::kSecond);

  p.hold_cap = -1;
  EXPECT_EQ(p.normalized().hold_cap, 3 * time::kSecond);

  // Healthy params pass through untouched.
  p.part_duration = 500 * time::kMillisecond;
  p.hold_cap = 2 * time::kSecond;
  n = p.normalized();
  EXPECT_EQ(n.part_duration, 500 * time::kMillisecond);
  EXPECT_EQ(n.hold_cap, 2 * time::kSecond);
  EXPECT_TRUE(n.preload_hints);
}

TEST(BatchTimelineBoundary, DegenerateWindowClampsToOneMicrosecond) {
  sim::Simulator sim;
  // A zero or negative admission window (reachable when a cadence knob
  // like part_duration_s feeds a window computation) must not divide by
  // zero or loop: it clamps to 1 us.
  sim::BatchTimeline zero(sim, 0);
  EXPECT_EQ(zero.window(), 1);
  sim::BatchTimeline negative(sim, -250);
  EXPECT_EQ(negative.window(), 1);
  // Negative instants clamp to the origin boundary.
  EXPECT_EQ(zero.quantize(-1000), 0);
  EXPECT_EQ(negative.quantize(-1), 0);
  // And the 1 us grid is the identity on non-negative instants.
  EXPECT_EQ(zero.quantize(0), 0);
  EXPECT_EQ(zero.quantize(17), 17);
}

TEST(BatchTimelineBoundary, QuantizeCeilsToWindowBoundary) {
  sim::Simulator sim;
  sim::BatchTimeline t(sim, 1000);
  EXPECT_EQ(t.quantize(-500), 0);  // negative clamps before rounding
  EXPECT_EQ(t.quantize(0), 0);
  EXPECT_EQ(t.quantize(1), 1000);
  EXPECT_EQ(t.quantize(1000), 1000);  // exact boundary pays zero latency
  EXPECT_EQ(t.quantize(1001), 2000);
}

// --- 3. The pluggable-backend interface -------------------------------

TEST(DeliveryBackendInterface, FactoryBuildsEachTier) {
  const cdn::ResourceModel m;
  const auto rtmp = cdn::make_backend(cdn::DeliveryTier::kRtmp, m);
  const auto llhls = cdn::make_backend(cdn::DeliveryTier::kLlHls, m);
  const auto hls = cdn::make_backend(cdn::DeliveryTier::kHls, m);

  EXPECT_EQ(rtmp->tier(), cdn::DeliveryTier::kRtmp);
  EXPECT_STREQ(rtmp->name(), "rtmp");
  EXPECT_TRUE(rtmp->push_based());
  EXPECT_FALSE(rtmp->uses_edge());
  EXPECT_FALSE(rtmp->blocking_reload());

  EXPECT_EQ(llhls->tier(), cdn::DeliveryTier::kLlHls);
  EXPECT_STREQ(llhls->name(), "llhls");
  EXPECT_FALSE(llhls->push_based());
  EXPECT_TRUE(llhls->uses_edge());
  EXPECT_TRUE(llhls->blocking_reload());

  EXPECT_EQ(hls->tier(), cdn::DeliveryTier::kHls);
  EXPECT_STREQ(hls->name(), "hls");
  EXPECT_FALSE(hls->push_based());
  EXPECT_TRUE(hls->uses_edge());
  EXPECT_FALSE(hls->blocking_reload());
}

TEST(DeliveryBackendInterface, CadenceDrivesDeliveryInterval) {
  const cdn::ResourceModel m;
  const cdn::DeliveryCadence c;  // fps 25, poll 2.8 s, chunk 3 s, part 1 s
  EXPECT_EQ(cdn::make_backend(cdn::DeliveryTier::kRtmp, m)
                ->delivery_interval(c),
            40 * time::kMillisecond);
  EXPECT_EQ(cdn::make_backend(cdn::DeliveryTier::kHls, m)
                ->delivery_interval(c),
            time::from_seconds(2.8));
  EXPECT_EQ(cdn::make_backend(cdn::DeliveryTier::kLlHls, m)
                ->delivery_interval(c),
            time::kSecond);
}

TEST(DeliveryBackendInterface, ServeCostDegenerateCadenceIsZero) {
  const cdn::ResourceModel m;
  cdn::DeliveryCadence c;
  c.poll_interval_s = 0.0;
  c.chunk_duration_s = 0.0;
  c.part_duration_s = 0.0;
  EXPECT_DOUBLE_EQ(
      cdn::make_backend(cdn::DeliveryTier::kHls, m)->serve_cost_us(c), 0.0);
  EXPECT_DOUBLE_EQ(
      cdn::make_backend(cdn::DeliveryTier::kLlHls, m)->serve_cost_us(c), 0.0);
}

// --- 4a. Golden pins: two-tier configs through the pluggable interface -

using test::run_session;

TEST(BackendParity, RtmpOnlyMatchesGolden) {
  const struct {
    std::uint64_t seed, golden;
  } cases[] = {{1, 0xe9a2319b1a533c09ULL},
               {9, 0xd8cfe5c02ef00813ULL},
               {23, 0x73ab9a0d942b54c3ULL}};
  for (const auto& c : cases) {
    core::SessionConfig cfg;
    cfg.broadcast_len = 40 * time::kSecond;
    cfg.rtmp_viewers = 4;
    cfg.hls_viewers = 0;
    cfg.seed = c.seed;
    EXPECT_EQ(run_session(cfg), c.golden) << "seed " << c.seed;
  }
}

TEST(BackendParity, HlsOnlyMatchesGolden) {
  const struct {
    std::uint64_t seed, golden;
  } cases[] = {{1, 0x96c073d9f360e302ULL},
               {9, 0x5836a00a18335209ULL},
               {23, 0x5fd0e3aa4d5f9856ULL}};
  for (const auto& c : cases) {
    core::SessionConfig cfg;
    cfg.broadcast_len = 40 * time::kSecond;
    cfg.rtmp_viewers = 0;
    cfg.hls_viewers = 5;
    cfg.seed = c.seed;
    EXPECT_EQ(run_session(cfg), c.golden) << "seed " << c.seed;
  }
}

TEST(BackendParity, MixedCleanMatchesGolden) {
  core::SessionConfig cfg;
  cfg.broadcast_len = 40 * time::kSecond;
  cfg.rtmp_viewers = 2;
  cfg.hls_viewers = 5;
  cfg.seed = 7;
  EXPECT_EQ(run_session(cfg), 0xcf5d323551279d51ULL);
}

TEST(BackendParity, IngestCrashMatchesGolden) {
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 3;
  cfg.hls_viewers = 2;
  cfg.seed = 4;
  cfg.faults.add({20 * time::kSecond, fault::FaultKind::kIngestCrash,
                  10 * time::kSecond});
  EXPECT_EQ(run_session(cfg), 0x1e57103174307879ULL);
}

TEST(BackendParity, BlackoutCapacitySpillMatchesGolden) {
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
  EXPECT_EQ(run_session(cfg), 0x6dc5c6885f82b95dULL);
}

TEST(BackendParity, LegacyBreakdownExperimentMatchesPin) {
  const auto r = analysis::delay_breakdown_experiment(4, 42);
  EXPECT_EQ(analysis::legacy_breakdown_fingerprint(r),
            analysis::kLegacyBreakdownFingerprint);
}

// --- 4b. The three-way handoff boundary -------------------------------

TEST(HandoffBoundary, RankAtEachCapLandsInNextTier) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::LivestreamService::Config cfg;
  cfg.rtmp_slot_cap = 2;
  cfg.llhls_slot_cap = 2;
  cfg.seed = 11;
  core::LivestreamService service(sim, catalog, cfg);
  const auto id = service.start_broadcast({34.42, -119.70}, time::kMinute);

  // Ranks 0,1 -> RTMP; the viewer at rank EXACTLY rtmp_slot_cap is the
  // first LL-HLS viewer (the `<` contract); rank rtmp+llhls the first
  // plain-HLS viewer.
  const cdn::DeliveryTier expect[] = {
      cdn::DeliveryTier::kRtmp, cdn::DeliveryTier::kRtmp,
      cdn::DeliveryTier::kLlHls, cdn::DeliveryTier::kLlHls,
      cdn::DeliveryTier::kHls};
  for (int i = 0; i < 5; ++i) {
    const auto h = service.join(id, {34.42, -119.70});
    ASSERT_TRUE(h.has_value()) << "rank " << i;
    EXPECT_EQ(h->tier, expect[i]) << "rank " << i;
    EXPECT_EQ(h->rtmp, expect[i] == cdn::DeliveryTier::kRtmp) << "rank " << i;
  }
  const auto info = service.info(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->rtmp_viewers, 2u);
  EXPECT_EQ(info->llhls_viewers, 2u);
  EXPECT_EQ(info->hls_viewers, 1u);
}

TEST(HandoffBoundary, ZeroLlHlsCapReproducesTwoWaySplit) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::LivestreamService::Config cfg;
  cfg.rtmp_slot_cap = 1;  // llhls_slot_cap defaults to 0
  cfg.seed = 11;
  core::LivestreamService service(sim, catalog, cfg);
  const auto id = service.start_broadcast({34.42, -119.70}, time::kMinute);
  const auto first = service.join(id, {34.42, -119.70});
  const auto second = service.join(id, {34.42, -119.70});
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->tier, cdn::DeliveryTier::kRtmp);
  // Rank 1 == rtmp_slot_cap: with no LL-HLS slots it must land on plain
  // HLS, exactly the historical two-way handoff.
  EXPECT_EQ(second->tier, cdn::DeliveryTier::kHls);
  EXPECT_EQ(service.info(id)->llhls_viewers, 0u);
}

// --- 4c. LL-HLS session semantics -------------------------------------

core::SessionConfig three_tier_config(std::uint64_t seed) {
  core::SessionConfig cfg;
  cfg.broadcast_len = 40 * time::kSecond;
  cfg.rtmp_viewers = 1;
  cfg.llhls_viewers = 2;
  cfg.hls_viewers = 1;
  cfg.crawler_pollers = true;
  cfg.seed = seed;
  return cfg;
}

TEST(LlHlsSession, PartsFlowIngestToEdgeToViewer) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::BroadcastSession s(sim, catalog, three_tier_config(42));
  s.start();
  sim.run();
  s.finalize();

  // ~1 s parts over a 40 s broadcast: the slicer ran end to end.
  EXPECT_GE(s.ingest().parts_built(), 35u);
  std::uint64_t received = 0, polls = 0, held = 0, released = 0;
  for (const auto& [site, e] : s.edges()) {
    received += e->parts_received();
    polls += e->part_polls();
    held += e->held_polls();
    released += e->held_releases();
  }
  // Every edge gets every part (CMAF push fan-out).
  EXPECT_EQ(received, s.ingest().parts_built() * s.edges().size());
  // Blocking reloads really blocked: most polls park until the next part.
  EXPECT_GT(polls, 0u);
  EXPECT_GT(held, 0u);
  EXPECT_GT(released, 0u);
  EXPECT_LE(released, held);

  // Both LL-HLS viewers played through without stalling out.
  int llhls_seen = 0;
  for (const auto& v : s.viewer_results()) {
    if (v.tier != cdn::DeliveryTier::kLlHls) continue;
    ++llhls_seen;
    EXPECT_FALSE(v.orphaned);
    EXPECT_GT(v.units_played, 30u);  // ~1 part per second
  }
  EXPECT_EQ(llhls_seen, 2);
}

TEST(LlHlsSession, DelayOrderingRtmpLlHlsHls) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::BroadcastSession s(sim, catalog, three_tier_config(42));
  s.start();
  sim.run();
  s.finalize();
  EXPECT_LT(s.rtmp_breakdown().total_s(), s.llhls_breakdown().total_s());
  EXPECT_LT(s.llhls_breakdown().total_s(), s.hls_breakdown().total_s());
}

std::uint64_t three_tier_fingerprint(const core::SessionConfig& cfg) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  util::Fingerprint h = test::session_fingerprint(session);
  // Fold the LL-HLS outcomes on top of the shared fields.
  for (const auto& v : session.viewer_results())
    h.mix(static_cast<std::uint64_t>(v.tier));
  return h.mix_double(session.llhls_breakdown().buffering_s.mean())
      .mix_double(session.llhls_breakdown().polling_s.mean())
      .value();
}

TEST(LlHlsSession, MixedThreeTierRunIsDeterministic) {
  for (std::uint64_t seed : {3, 42, 99}) {
    const auto cfg = three_tier_config(seed);
    EXPECT_EQ(three_tier_fingerprint(cfg), three_tier_fingerprint(cfg))
        << "seed " << seed;
  }
}

TEST(LlHlsSession, EdgeBlackoutFailsOverLlHlsViewers) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.llhls_viewers = 3;
  cfg.hls_viewers = 1;
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

  sim::Simulator sim;
  core::BroadcastSession s(sim, catalog, cfg);
  s.start();
  sim.run();
  s.finalize();

  // The nearest edge went dark: LL-HLS viewers re-anchored (held polls
  // on the dead edge are swept, the reload chain restarts on the new
  // edge) instead of orphaning.
  EXPECT_GT(s.edge_failovers(), 0u);
  for (const auto& v : s.viewer_results()) {
    if (v.tier != cdn::DeliveryTier::kLlHls) continue;
    EXPECT_FALSE(v.orphaned);
    EXPECT_GT(v.units_played, 0u);
  }
}

TEST(LlHlsSession, DegeneratePartDurationClampsAndStillPlays) {
  auto cfg = three_tier_config(7);
  cfg.llhls.part_duration = 0;  // clamped to 1 us by normalized()
  cfg.llhls.hold_cap = -1;
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::BroadcastSession s(sim, catalog, cfg);
  s.start();
  sim.run();
  s.finalize();
  // A 1 us part duration degenerates to per-frame parts (every frame
  // closes the open part) -- extreme but finite and live.
  EXPECT_GT(s.ingest().parts_built(), 0u);
  for (const auto& v : s.viewer_results()) {
    if (v.tier == cdn::DeliveryTier::kLlHls) {
      EXPECT_GT(v.units_played, 0u);
    }
  }
}

}  // namespace
