#include <gtest/gtest.h>

#include <span>

#include "livesim/cdn/resource_model.h"
#include "livesim/cdn/servers.h"
#include "livesim/cdn/w2f.h"
#include "livesim/media/encoder.h"
#include "livesim/stats/accumulator.h"
#include "livesim/util/fingerprint.h"

namespace livesim::cdn {
namespace {

TEST(ResourceModel, RtmpCpuScalesWithViewers) {
  double prev = 0;
  for (std::uint32_t v : {100u, 200u, 300u, 400u, 500u}) {
    const double cpu = rtmp_cpu_percent(v, 25.0);
    EXPECT_GT(cpu, prev);
    prev = cpu;
  }
}

TEST(ResourceModel, RtmpFarCostlierThanHlsAndGapGrows) {
  double prev_gap = 0;
  for (std::uint32_t v : {100u, 200u, 300u, 400u, 500u}) {
    const double rtmp = rtmp_cpu_percent(v, 25.0);
    const double hls = hls_cpu_percent(v, 25.0, 2.8, 3.0);
    EXPECT_GT(rtmp, 2.0 * hls) << v << " viewers";
    EXPECT_GT(rtmp - hls, prev_gap);
    prev_gap = rtmp - hls;
  }
}

TEST(ResourceModel, Figure14Anchors) {
  // At 500 viewers the paper's lab Wowza showed RTMP near CPU saturation
  // while HLS stayed modest.
  EXPECT_GT(rtmp_cpu_percent(500, 25.0), 70.0);
  EXPECT_LT(hls_cpu_percent(500, 25.0, 2.8, 3.0), 30.0);
}

TEST(ResourceModel, SmallerChunksCostMore) {
  // Smaller chunks -> more chunk builds and (coupled) faster polling.
  const double small = hls_cpu_percent(300, 25.0, 1.0, 1.0);
  const double big = hls_cpu_percent(300, 25.0, 3.0, 3.0);
  EXPECT_GT(small, big);
}

// Golden: the closed-form curves at the paper's cadences and at 1 s
// chunks, bit for bit, so every per-operation cost is pinned.
TEST(ResourceModel, CostCurvesMatchGolden) {
  util::Fingerprint h;
  for (std::uint32_t v : {0u, 1u, 100u, 500u})
    h.mix_double(rtmp_cpu_percent(v, 25.0))
        .mix_double(hls_cpu_percent(v, 25.0, 2.8, 3.0))
        .mix_double(hls_cpu_percent(v, 25.0, 1.0, 1.0))
        .mix_double(llhls_cpu_percent(v, 25.0, 1.0, 3.0));
  EXPECT_EQ(h.value(), 0x426d7068c1b5bea8ULL);
}

TEST(CpuMeter, AccumulatesCharges) {
  CpuMeter meter;
  meter.charge_frame_push();
  meter.charge_chunk_build();
  EXPECT_DOUBLE_EQ(meter.busy_us(), kFramePushUs + kChunkBuildUs);
  const double pct = meter.percent_over(time::kSecond);
  EXPECT_NEAR(pct,
              kBaselinePercent + (kFramePushUs + kChunkBuildUs) / 1e6 * 100.0,
              1e-9);
  EXPECT_EQ(meter.percent_over(0), 0.0);
}

class W2FTest : public ::testing::Test {
 protected:
  W2FTest()
      : catalog_(geo::DatacenterCatalog::paper_footprint()),
        model_(catalog_) {}

  DatacenterId ingest(const std::string& city) const {
    for (const auto* dc : catalog_.ingest_sites())
      if (dc->city == city) return dc->id;
    throw std::logic_error("no such ingest");
  }
  DatacenterId edge(const std::string& city) const {
    for (const auto* dc : catalog_.edge_sites())
      if (dc->city == city) return dc->id;
    throw std::logic_error("no such edge");
  }

  geo::DatacenterCatalog catalog_;
  W2FModel model_;
};

TEST_F(W2FTest, GatewayIsColocatedEdge) {
  EXPECT_EQ(model_.gateway_for(ingest("Ashburn")).city, "Ashburn");
  EXPECT_EQ(model_.gateway_for(ingest("Tokyo")).city, "Tokyo");
}

TEST_F(W2FTest, SaoPauloFallsBackToNearestEdge) {
  // No South-American edge in the 2015 footprint: Miami is the nearest.
  EXPECT_EQ(model_.gateway_for(ingest("Sao Paulo")).city, "Miami");
}

TEST_F(W2FTest, ColocatedFasterThanDistantByGap) {
  Rng rng(3);
  stats::Accumulator co, near, far;
  for (int i = 0; i < 300; ++i) {
    co.add(time::to_seconds(
        model_.sample_transfer(ingest("Ashburn"), edge("Ashburn"), 200000, rng)));
    near.add(time::to_seconds(
        model_.sample_transfer(ingest("Ashburn"), edge("New York"), 200000, rng)));
    far.add(time::to_seconds(
        model_.sample_transfer(ingest("Ashburn"), edge("Tokyo"), 200000, rng)));
  }
  // The paper's signature result: a >0.25 s gap between co-located pairs
  // and even nearby cities, caused by the gateway coordination step.
  EXPECT_GT(near.mean() - co.mean(), 0.25);
  EXPECT_GT(far.mean(), near.mean());
}

TEST(IngestServer, FansOutToAllSubscribersAndChunks) {
  sim::Simulator sim;
  IngestServer server(sim, DatacenterId{0}, media::kChunkTarget);
  int viewer1 = 0, viewer2 = 0;
  server.add_rtmp_subscriber([&](const media::VideoFrame&, TimeUs) {
    ++viewer1;
    return true;
  });
  server.add_rtmp_subscriber([&](const media::VideoFrame&, TimeUs) {
    ++viewer2;
    return true;
  });
  std::vector<media::Chunk> chunks;
  server.set_chunk_listener([&](const media::Chunk& c) { chunks.push_back(c); });

  media::FrameSource src(Rng(4));
  for (int i = 0; i < 76; ++i) server.on_frame(src.next());
  EXPECT_EQ(viewer1, 76);
  EXPECT_EQ(viewer2, 76);
  EXPECT_EQ(server.frames_ingested(), 76u);
  ASSERT_EQ(chunks.size(), 1u);  // 75 frames = 3 s, sealed by frame 76
  EXPECT_EQ(chunks[0].frame_count, 75u);

  server.on_end_of_stream();
  ASSERT_EQ(chunks.size(), 2u);  // the partial chunk flushes
  EXPECT_EQ(chunks[1].frame_count, 1u);
  EXPECT_GT(server.cpu().busy_us(), 0.0);
}

// Golden: the ingest's meter after 200 frames pushed to three RTMP
// subscribers with LL-HLS parts on: frame ingest and push, chunk and part
// builds, and the idle baseline.
TEST(IngestServer, CpuChargesMatchGolden) {
  sim::Simulator sim;
  IngestServer server(sim, DatacenterId{0}, media::kChunkTarget);
  for (int v = 0; v < 3; ++v)
    server.add_rtmp_subscriber(
        [](const media::VideoFrame&, TimeUs) { return true; });
  server.enable_parts([](const media::Part&) {});
  media::FrameSource src(Rng(5));
  for (int i = 0; i < 200; ++i) server.on_frame(src.next());
  server.on_end_of_stream();
  const std::uint64_t fp =
      util::Fingerprint()
          .mix_double(server.cpu().busy_us())
          .mix_double(server.cpu().percent_over(8 * time::kSecond))
          .value();
  EXPECT_EQ(fp, 0x5aedcbc01d730facULL);
}

class EdgeFixture : public ::testing::Test {
 protected:
  EdgeFixture() {
    edge_ = std::make_unique<EdgeServer>(
        sim_, DatacenterId{1},
        [this](std::function<void(EdgeServer::FetchResult)> done) {
          ++fetches_started_;
          sim_.schedule_in(fetch_delay_, [this, done = std::move(done)] {
            if (fail_next_fetches_ > 0) {
              --fail_next_fetches_;
              done(std::nullopt);
            } else {
              done(origin_chunks_);
            }
          });
        });
  }

  void add_origin_chunk(std::uint64_t seq) {
    media::Chunk c;
    c.seq = seq;
    c.duration = 3 * time::kSecond;
    c.size_bytes = 100000;
    origin_chunks_.push_back(c);
  }

  /// The chunks a poll answered with [begin, end).
  std::span<const media::Chunk> served(std::uint32_t begin,
                                       std::uint32_t end) const {
    return edge_->log<media::Chunk>().subspan(begin, end - begin);
  }

  void push_part(std::uint64_t seq) {
    media::Part p;
    p.seq = seq;
    p.size_bytes = 10000;
    edge_->on_part(p);
  }

  sim::Simulator sim_;
  std::vector<media::Chunk> origin_chunks_;
  DurationUs fetch_delay_ = 200 * time::kMillisecond;
  int fetches_started_ = 0;
  int fail_next_fetches_ = 0;
  std::unique_ptr<EdgeServer> edge_;
};

TEST_F(EdgeFixture, FreshCacheServesImmediately) {
  add_origin_chunk(0);
  edge_->on_expire_notice(0);
  int served = 0;
  edge_->on_poll(-1, [&](TimeUs, std::uint32_t begin, std::uint32_t end) {
    served = static_cast<int>(end - begin);
  });
  sim_.run();
  EXPECT_EQ(served, 1);
  EXPECT_EQ(fetches_started_, 1);

  // Second poll: cache hit, no new fetch.
  int served2 = 0;
  edge_->on_poll(-1, [&](TimeUs, std::uint32_t begin, std::uint32_t end) {
    served2 = static_cast<int>(end - begin);
  });
  sim_.run();
  EXPECT_EQ(served2, 1);
  EXPECT_EQ(fetches_started_, 1);
}

TEST_F(EdgeFixture, PollCoalescingSingleFetch) {
  add_origin_chunk(0);
  edge_->on_expire_notice(0);
  int responses = 0;
  TimeUs first_response = 0;
  for (int i = 0; i < 10; ++i) {
    edge_->on_poll(-1, [&](TimeUs at, std::uint32_t, std::uint32_t) {
      ++responses;
      first_response = at;
    });
  }
  sim_.run();
  EXPECT_EQ(responses, 10);
  EXPECT_EQ(fetches_started_, 1);  // all ten coalesced into one origin pull
  EXPECT_EQ(first_response, fetch_delay_);
  EXPECT_EQ(edge_->origin_fetches(), 1u);
}

TEST_F(EdgeFixture, ClientCursorFiltersOldChunks) {
  add_origin_chunk(0);
  add_origin_chunk(1);
  add_origin_chunk(2);
  edge_->on_expire_notice(2);
  std::vector<std::uint64_t> got;
  edge_->on_poll(0, [&](TimeUs, std::uint32_t begin, std::uint32_t end) {
    for (const auto& c : served(begin, end)) got.push_back(c.seq);
  });
  sim_.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2}));
}

TEST_F(EdgeFixture, AvailabilityRecorded) {
  add_origin_chunk(0);
  edge_->on_expire_notice(0);
  edge_->on_poll(-1, [](TimeUs, std::uint32_t, std::uint32_t) {});
  sim_.run();
  ASSERT_EQ(edge_->availability().count(0), 1u);
  EXPECT_EQ(edge_->availability().at(0), fetch_delay_);
}

TEST_F(EdgeFixture, StaleWithoutNoticeServesCachedData) {
  add_origin_chunk(0);
  edge_->on_expire_notice(0);
  edge_->on_poll(-1, [](TimeUs, std::uint32_t, std::uint32_t) {});
  sim_.run();

  // A new chunk exists at the origin but no expiry notice arrived yet:
  // the edge serves its (stale) cache without fetching.
  add_origin_chunk(1);
  std::vector<std::uint64_t> got;
  edge_->on_poll(-1, [&](TimeUs, std::uint32_t begin, std::uint32_t end) {
    for (const auto& c : served(begin, end)) got.push_back(c.seq);
  });
  sim_.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(fetches_started_, 1);
}

TEST_F(EdgeFixture, FetchFailureRetriesThenServes) {
  add_origin_chunk(0);
  edge_->on_expire_notice(0);
  fail_next_fetches_ = 2;  // two transient failures, then success
  int served = 0;
  TimeUs served_at = 0;
  edge_->on_poll(-1, [&](TimeUs at, std::uint32_t begin, std::uint32_t end) {
    served = static_cast<int>(end - begin);
    served_at = at;
  });
  sim_.run();
  EXPECT_EQ(served, 1);
  EXPECT_EQ(edge_->fetch_failures(), 2u);
  EXPECT_EQ(fetches_started_, 3);
  // Two backoffs (250 + 500 ms) plus three fetch latencies.
  EXPECT_GE(served_at, 3 * fetch_delay_ + 750 * time::kMillisecond);
}

TEST_F(EdgeFixture, FetchGivesUpAfterMaxAttemptsAndServesStale) {
  add_origin_chunk(0);
  edge_->on_expire_notice(0);
  fail_next_fetches_ = 10;  // origin is down
  bool responded = false;
  std::size_t got = 99;
  edge_->on_poll(-1, [&](TimeUs, std::uint32_t begin, std::uint32_t end) {
    responded = true;
    got = end - begin;
  });
  sim_.run();
  EXPECT_TRUE(responded);       // the poller is not left hanging
  EXPECT_EQ(got, 0u);           // ...but gets the (empty) stale cache
  EXPECT_EQ(edge_->fetch_failures(), EdgeServer::kFetchAttempts);

  // Origin recovers: the next poll triggers a fresh fetch and succeeds.
  fail_next_fetches_ = 0;
  int served = 0;
  edge_->on_poll(-1, [&](TimeUs, std::uint32_t begin, std::uint32_t end) {
    served = static_cast<int>(end - begin);
  });
  sim_.run();
  EXPECT_EQ(served, 1);
}

TEST_F(EdgeFixture, ServedChunkViewSurvivesWindowAndFlush) {
  for (std::uint64_t seq = 0; seq < 3; ++seq) add_origin_chunk(seq);
  edge_->on_expire_notice(2);
  std::uint32_t begin = 0, end = 0;
  edge_->on_poll(0, [&](TimeUs, std::uint32_t b, std::uint32_t e) {
    begin = b;
    end = e;
  });
  sim_.run();
  ASSERT_EQ(end - begin, 2u);

  // The edge fetches past its 8-chunk window, then is flushed.
  for (std::uint64_t seq = 3; seq < 12; ++seq) add_origin_chunk(seq);
  edge_->on_expire_notice(11);
  std::vector<std::uint64_t> window;
  edge_->on_poll(-1, [&](TimeUs, std::uint32_t b, std::uint32_t e) {
    for (const auto& c : served(b, e)) window.push_back(c.seq);
  });
  sim_.run();
  EXPECT_EQ(window, (std::vector<std::uint64_t>{4, 5, 6, 7, 8, 9, 10, 11}));
  edge_->flush_cache();

  std::vector<std::uint64_t> got;
  for (const auto& c : served(begin, end)) got.push_back(c.seq);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2}));
}

TEST_F(EdgeFixture, ServedPartViewSurvivesWindowAndDeath) {
  for (std::uint64_t seq = 0; seq < 3; ++seq) push_part(seq);
  std::uint32_t begin = 0, end = 0;
  edge_->on_part_poll(0, [&](TimeUs, std::uint32_t b, std::uint32_t e) {
    begin = b;
    end = e;
  });
  ASSERT_EQ(end - begin, 2u);

  // Parts arrive past the 8-part window, then the edge dies.
  for (std::uint64_t seq = 3; seq < 12; ++seq) push_part(seq);
  std::vector<std::uint64_t> window;
  edge_->on_part_poll(-1, [&](TimeUs, std::uint32_t b, std::uint32_t e) {
    for (const auto& p : edge_->log<media::Part>().subspan(b, e - b))
      window.push_back(p.seq);
  });
  EXPECT_EQ(window, (std::vector<std::uint64_t>{4, 5, 6, 7, 8, 9, 10, 11}));
  edge_->set_down(true);

  std::vector<std::uint64_t> got;
  for (const auto& p : edge_->log<media::Part>().subspan(begin, end - begin))
    got.push_back(p.seq);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2}));
}

TEST_F(EdgeFixture, CacheGapIsServedAsCached) {
  for (std::uint64_t seq = 0; seq < 4; ++seq) add_origin_chunk(seq);
  edge_->on_expire_notice(3);
  edge_->on_poll(-1, [](TimeUs, std::uint32_t, std::uint32_t) {});
  sim_.run();

  // While the edge idles, the origin's playlist window moves on to 6..9:
  // the next fetch appends that window after a gap in the edge's cache.
  origin_chunks_.clear();
  for (std::uint64_t seq = 6; seq < 10; ++seq) add_origin_chunk(seq);
  edge_->on_expire_notice(9);
  std::vector<std::uint64_t> got;
  edge_->on_poll(-1, [&](TimeUs, std::uint32_t b, std::uint32_t e) {
    for (const auto& c : served(b, e)) got.push_back(c.seq);
  });
  sim_.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2, 3, 6, 7, 8, 9}));
  EXPECT_EQ(edge_->origin_fetches(), 2u);
}

}  // namespace
}  // namespace livesim::cdn
