// Integration smoke test: one broadcast end to end, checking that the
// delay components land in the paper's ballpark (Figure 11 shape).
#include <gtest/gtest.h>

#include "livesim/core/broadcast_session.h"

namespace livesim {
namespace {

TEST(BroadcastSessionSmoke, Figure11Shape) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  core::SessionConfig cfg;
  cfg.broadcast_len = 120 * time::kSecond;
  cfg.rtmp_viewers = 5;
  cfg.hls_viewers = 10;
  cfg.crawler_pollers = true;  // the paper's own measurement methodology
  cfg.seed = 42;

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  const auto& rtmp = session.rtmp_breakdown();
  const auto& hls = session.hls_breakdown();

  // Frames got through.
  EXPECT_GT(session.ingest().frames_ingested(), 2500u);
  EXPECT_GT(rtmp.upload_s.count(), 2500u);

  // RTMP end-to-end ~1.4 s in the paper; accept a generous band.
  const double rtmp_total = rtmp.total_s();
  EXPECT_GT(rtmp_total, 0.3) << "RTMP e2e suspiciously low";
  EXPECT_LT(rtmp_total, 4.0) << "RTMP e2e suspiciously high";

  // HLS end-to-end ~11.7 s in the paper.
  const double hls_total = hls.total_s();
  EXPECT_GT(hls_total, 6.0) << "HLS e2e suspiciously low";
  EXPECT_LT(hls_total, 20.0) << "HLS e2e suspiciously high";

  // Ordering of contributors: buffering > chunking > polling > w2f.
  EXPECT_GT(hls.buffering_s.mean(), hls.chunking_s.mean());
  EXPECT_GT(hls.chunking_s.mean(), hls.w2f_s.mean());
  EXPECT_NEAR(hls.chunking_s.mean(), 3.0, 1.0);  // ~3 s chunks
  EXPECT_GT(hls.polling_s.mean(), 0.5);
  EXPECT_LT(hls.polling_s.mean(), 2.5);

  // HLS must be far slower than RTMP (the paper's headline contrast).
  EXPECT_GT(hls_total, 3.0 * rtmp_total);

  // Viewers actually played content.
  for (const auto& v : session.viewer_results()) {
    EXPECT_GT(v.units_played, 0u) << cdn::tier_name(v.tier);
    EXPECT_LT(v.stall_ratio, 0.5);
  }
}

TEST(BroadcastSessionSmoke, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Simulator sim;
    const auto catalog = geo::DatacenterCatalog::paper_footprint();
    core::SessionConfig cfg;
    cfg.broadcast_len = 30 * time::kSecond;
    cfg.seed = 7;
    core::BroadcastSession s(sim, catalog, cfg);
    s.start();
    sim.run();
    s.finalize();
    return std::pair{s.rtmp_breakdown().total_s(), s.hls_breakdown().total_s()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

class SessionChunkSweep : public ::testing::TestWithParam<int> {};

// The chunking component of the full end-to-end path must track the
// configured chunk duration (the §5.2 dial, wired through every layer).
TEST_P(SessionChunkSweep, ChunkingDelayTracksConfig) {
  const int chunk_s = GetParam();
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 90 * time::kSecond;
  cfg.rtmp_viewers = 0;
  cfg.hls_viewers = 4;
  cfg.crawler_pollers = true;
  cfg.chunk_target = chunk_s * time::kSecond;
  cfg.hls_prebuffer = 3 * chunk_s * time::kSecond;
  cfg.seed = 55 + static_cast<std::uint64_t>(chunk_s);
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  EXPECT_NEAR(session.hls_breakdown().chunking_s.mean(),
              static_cast<double>(chunk_s), 1.0);
  // Larger chunks -> larger end-to-end delay, monotone through the stack.
  EXPECT_GT(session.hls_breakdown().total_s(), 2.5 * chunk_s);
}

INSTANTIATE_TEST_SUITE_P(Chunks, SessionChunkSweep,
                         ::testing::Values(1, 2, 3, 5));

TEST(BroadcastSessionSmoke, ByteAccountingConsistent) {
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = 3;
  cfg.hls_viewers = 3;
  cfg.seed = 77;
  {
    sim::Simulator sim;
    core::BroadcastSession session(sim, catalog, cfg);
    session.start();
    sim.run();

    const auto& ingest = session.ingest();
    // 3 RTMP subscribers: egress = 3x ingress (frame fan-out).
    EXPECT_EQ(ingest.egress_bytes(), 3 * ingest.ingress_bytes());
    EXPECT_GT(ingest.ingress_bytes(), 1000000u);  // ~60 s of 400 kbps video

    std::uint64_t edge_egress = 0;
    for (const auto& [site, edge] : session.edges())
      edge_egress += edge->egress_bytes();
    // HLS viewers downloaded roughly the stream once each (+ playlists).
    EXPECT_GT(edge_egress, 2 * ingest.ingress_bytes());
    EXPECT_LT(edge_egress, 8 * ingest.ingress_bytes());
  }
  {
    // RTMP viewer 0 leaves at 20 s: the ingest pushes it nothing more, so
    // it is charged nothing more.
    sim::Simulator sim;
    core::BroadcastSession session(sim, catalog, cfg);
    session.start();
    sim.run_until(20 * time::kSecond);
    session.remove_viewer(0);
    const std::uint64_t ingress_at_leave = session.ingest().ingress_bytes();
    sim.run();

    const auto& ingest = session.ingest();
    EXPECT_EQ(ingest.egress_bytes(),
              3 * ingress_at_leave +
                  2 * (ingest.ingress_bytes() - ingress_at_leave));
  }
  {
    // An ingest crash from 15 to 20 s moves all three RTMP viewers to HLS
    // (detected at 17 s): the restarted ingest pushes to none of them.
    auto crash_cfg = cfg;
    crash_cfg.faults.add({15 * time::kSecond, fault::FaultKind::kIngestCrash,
                          5 * time::kSecond});
    sim::Simulator sim;
    core::BroadcastSession session(sim, catalog, crash_cfg);
    session.start();
    sim.run_until(19 * time::kSecond);
    const std::uint64_t ingress_at_crash = session.ingest().ingress_bytes();
    sim.run();

    const auto& ingest = session.ingest();
    EXPECT_EQ(session.rtmp_failovers(), 3u);
    EXPECT_GT(ingest.ingress_bytes(), ingress_at_crash);  // it restarted
    EXPECT_EQ(ingest.egress_bytes(), 3 * ingress_at_crash);
  }
}

}  // namespace
}  // namespace livesim
