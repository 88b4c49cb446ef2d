// Cross-module integration tests: the places where two subsystems must
// agree about bytes or timestamps.
#include <gtest/gtest.h>

#include "livesim/core/broadcast_session.h"
#include "livesim/stats/accumulator.h"
#include "livesim/protocol/hls.h"
#include "livesim/util/rng.h"

namespace livesim {
namespace {

TEST(Integration, SessionPlaylistSurvivesTextRoundTrip) {
  // Run a real session, then push every edge's view of the stream through
  // the m3u8 codec: the structured and textual representations must agree.
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 45 * time::kSecond;
  cfg.hls_viewers = 6;
  cfg.rtmp_viewers = 0;
  cfg.seed = 31;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();

  const auto& playlist = session.ingest().playlist();
  ASSERT_FALSE(playlist.chunks.empty());
  const std::string text = protocol::render_playlist(playlist, "seg_");
  const auto parsed = protocol::parse_playlist(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->chunks.size(), playlist.chunks.size());
  for (std::size_t i = 0; i < playlist.chunks.size(); ++i) {
    EXPECT_EQ(parsed->chunks[i].seq, playlist.chunks[i].seq);
    EXPECT_EQ(parsed->chunks[i].completed_ts, playlist.chunks[i].completed_ts);
    EXPECT_EQ(parsed->chunks[i].size_bytes, playlist.chunks[i].size_bytes);
  }
  EXPECT_EQ(parsed->version, playlist.version);
}

TEST(Integration, PlaylistParserSurvivesMutations) {
  media::ChunkList list;
  list.version = 3;
  list.target_duration = 3 * time::kSecond;
  media::Chunk c;
  c.seq = 5;
  c.duration = 3 * time::kSecond;
  c.frame_count = 75;
  c.size_bytes = 123456;
  list.chunks.push_back(c);
  const std::string text = protocol::render_playlist(list, "c_");

  // Single-character mutations must never crash and either parse to
  // something or fail cleanly.
  Rng rng(8);
  int parsed_ok = 0, rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = text;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    mutated[pos] = static_cast<char>('0' + rng.uniform_int(0, 9));
    const auto result = protocol::parse_playlist(mutated);
    (result.has_value() ? parsed_ok : rejected) += 1;
  }
  EXPECT_GT(parsed_ok + rejected, 0);  // i.e., no crash across all trials
}

TEST(Integration, ChunkCompletionTimesMatchEdgeAvailability) {
  // Whatever an edge reports available must exist in the ingest's chunk
  // ledger and never precede its completion there.
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.hls_viewers = 5;
  cfg.rtmp_viewers = 0;
  cfg.crawler_pollers = true;
  cfg.seed = 32;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();

  ASSERT_FALSE(session.edges().empty());
  int checked = 0;
  for (const auto& [site, edge] : session.edges()) {
    for (const auto& [seq, available_at] : edge->availability()) {
      const auto completed = session.chunk_completed_at().find(seq);
      ASSERT_NE(completed, session.chunk_completed_at().end());
      EXPECT_GT(available_at, completed->second);
      // W2F stays within a couple of seconds even across continents.
      EXPECT_LT(time::to_seconds(available_at - completed->second), 3.0);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(Integration, ViewerResultsExposeAttachmentGeography) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 30 * time::kSecond;
  cfg.rtmp_viewers = 2;
  cfg.hls_viewers = 4;
  cfg.seed = 33;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  for (const auto& v : session.viewer_results()) {
    const auto& dc = catalog.get(v.attachment);
    if (v.tier != cdn::DeliveryTier::kRtmp) {
      EXPECT_EQ(dc.role, geo::CdnRole::kEdge);
      // Anycast really picked the nearest edge.
      const auto& nearest = catalog.nearest(v.location, geo::CdnRole::kEdge);
      EXPECT_EQ(nearest.id, v.attachment);
    } else {
      EXPECT_EQ(v.attachment, session.ingest_site());
    }
  }
}

TEST(Integration, ComponentDecompositionSumsToGroundTruth) {
  // The Figure 10 decomposition is only meaningful if the components sum
  // to what viewers actually experience: compare against the playback
  // schedule's direct capture->play measurement.
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 2 * time::kMinute;
  cfg.broadcaster_location = {34.42, -119.70};
  cfg.global_viewers = false;
  cfg.rtmp_viewers = 2;
  cfg.hls_viewers = 2;
  cfg.crawler_pollers = true;
  cfg.seed = 91;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  stats::Accumulator rtmp_truth, hls_truth;
  const auto results = session.viewer_results();
  for (std::size_t i = 0; i < session.viewer_count(); ++i) {
    (results[i].tier == cdn::DeliveryTier::kRtmp ? rtmp_truth : hls_truth)
        .merge(session.viewer_playback(i).end_to_end_s());
  }
  const double rtmp_sum = session.rtmp_breakdown().total_s();
  const double hls_sum = session.hls_breakdown().total_s();
  ASSERT_GT(rtmp_truth.count(), 1000u);
  ASSERT_GT(hls_truth.count(), 20u);
  EXPECT_NEAR(rtmp_sum, rtmp_truth.mean(), 0.15 * rtmp_truth.mean());
  EXPECT_NEAR(hls_sum, hls_truth.mean(), 0.15 * hls_truth.mean());
}

}  // namespace
}  // namespace livesim
