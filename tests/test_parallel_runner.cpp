// Determinism regression for the parallel experiment runner: the same seed
// must produce identical results at every thread count, and the
// closed-form generate_traces must match the legacy engine-driven serial
// driver byte for byte.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "livesim/analysis/experiments.h"
#include "livesim/media/chunker.h"
#include "livesim/media/encoder.h"
#include "livesim/net/link.h"
#include "livesim/sim/parallel.h"
#include "livesim/sim/simulator.h"

namespace livesim {
namespace {

// --- shard partitioner -------------------------------------------------

TEST(ShardRanges, CoversIndexSpaceExactly) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (unsigned k : {1u, 2u, 3u, 8u, 100u}) {
      const auto ranges = sim::shard_ranges(n, k);
      if (n == 0) {
        EXPECT_TRUE(ranges.empty());
        continue;
      }
      ASSERT_EQ(ranges.size(), std::min<std::size_t>(k, n));
      std::size_t expect_begin = 0;
      for (const auto& r : ranges) {
        EXPECT_EQ(r.begin, expect_begin);
        EXPECT_GT(r.size(), 0u);
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

TEST(ShardRanges, NearEqualSizes) {
  const auto ranges = sim::shard_ranges(103, 8);
  std::size_t lo = 103, hi = 0;
  for (const auto& r : ranges) {
    lo = std::min(lo, r.size());
    hi = std::max(hi, r.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ShardRanges, ZeroShardsTreatedAsOne) {
  const auto ranges = sim::shard_ranges(5, 0);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 5u);
}

// --- substreams --------------------------------------------------------

TEST(SubstreamSeed, DeterministicAndDistinct) {
  EXPECT_EQ(sim::substream_seed(42, 7), sim::substream_seed(42, 7));
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed : {0ull, 1ull, 42ull}) {
    for (std::uint64_t stream = 0; stream < 1000; ++stream)
      seen.insert(sim::substream_seed(seed, stream));
  }
  EXPECT_EQ(seen.size(), 3000u);  // no collisions across nearby inputs
}

TEST(SubstreamSeed, StreamsAreStatisticallyIndependent) {
  // Consecutive substreams of the same master seed should not produce
  // correlated uniforms (they feed per-broadcast jitter models).
  stats::Correlation c;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    Rng a(sim::substream_seed(9, i));
    Rng b(sim::substream_seed(9, i + 1));
    c.add(a.uniform(), b.uniform());
  }
  EXPECT_NEAR(c.pearson(), 0.0, 0.08);
}

// --- thread pool -------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  sim::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdleRethrowsTaskException) {
  sim::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable after an error.
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelMap, SlotsMatchIndices) {
  for (unsigned threads : {1u, 2u, 8u}) {
    const auto out = sim::parallel_map<std::size_t>(
        257, threads, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ParallelForShards, PropagatesWorkerException) {
  EXPECT_THROW(
      sim::parallel_for_shards(100, 4,
                               [](std::size_t, std::size_t b, std::size_t) {
                                 if (b > 0) throw std::logic_error("shard");
                               }),
      std::logic_error);
}

}  // namespace
}  // namespace livesim

namespace livesim::analysis {
namespace {

TraceSetConfig det_config(unsigned threads) {
  TraceSetConfig cfg;
  cfg.broadcasts = 48;
  cfg.broadcast_len = time::kMinute;
  cfg.seed = 2024;
  cfg.threads = threads;
  return cfg;
}

// Verbatim copy of the pre-parallel serial generate_traces loop, which
// delivers every uplink arrival through a Simulator: the engine-driven
// oracle for the closed-form loop. It pins "generate_traces matches the
// engine-driven serial path at every thread count" as a byte-for-byte
// guarantee rather than a code comment.
std::vector<BroadcastTrace> legacy_generate_traces(const TraceSetConfig& config) {
  std::vector<BroadcastTrace> traces;
  traces.reserve(static_cast<std::size_t>(config.broadcasts));
  Rng rng(config.seed);

  for (int b = 0; b < config.broadcasts; ++b) {
    sim::Simulator sim;
    BroadcastTrace trace;

    net::FifoUplink::Params uplink_params;
    const double r = rng.uniform();
    if (r < config.bursty_fraction) {
      uplink_params = net::LastMileProfiles::bursty_uplink();
      trace.bursty = true;
    } else if (r < config.bursty_fraction + config.slow_start_fraction) {
      uplink_params = net::LastMileProfiles::stable_uplink();
      uplink_params.mean_initial_outage = 10 * time::kSecond;
      uplink_params.initial_bw_fraction = 0.012;
      uplink_params.ramp_duration = 20 * time::kSecond;
      trace.bursty = true;
    } else {
      uplink_params = net::LastMileProfiles::stable_uplink();
    }
    net::FifoUplink uplink(sim, uplink_params, rng.fork());

    media::FrameSource source(rng.fork());
    media::Chunker chunker(config.chunk_target);

    const auto frames = static_cast<std::uint64_t>(
        config.broadcast_len / media::kFrameInterval);
    trace.frame_interval = media::kFrameInterval;
    trace.frame_arrivals.resize(frames, 0);

    uplink.send(4096, [](TimeUs) {});
    for (std::uint64_t i = 0; i < frames; ++i) {
      media::VideoFrame f = source.next(0);
      sim.schedule_at(
          f.capture_ts + trace.frame_interval, [&, f]() mutable {
            uplink.send(f.size_bytes + 64, [&trace, &chunker, f](TimeUs at) {
              trace.frame_arrivals[f.seq] = at;
              if (auto sealed = chunker.push(f, at)) {
                trace.chunks.push_back({sealed->completed_ts,
                                        sealed->first_capture_ts,
                                        sealed->duration, sealed->size_bytes});
              }
            });
          });
    }
    sim.run();
    if (auto sealed = chunker.flush(sim.now())) {
      trace.chunks.push_back({sealed->completed_ts, sealed->first_capture_ts,
                              sealed->duration, sealed->size_bytes});
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

void expect_traces_identical(const std::vector<BroadcastTrace>& a,
                             const std::vector<BroadcastTrace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(a[i].frame_arrivals, b[i].frame_arrivals);  // exact int64s
    ASSERT_EQ(a[i].frame_interval, b[i].frame_interval);
    ASSERT_EQ(a[i].bursty, b[i].bursty);
    ASSERT_EQ(a[i].chunks.size(), b[i].chunks.size());
    for (std::size_t c = 0; c < a[i].chunks.size(); ++c) {
      ASSERT_EQ(a[i].chunks[c].completed_at_ingest,
                b[i].chunks[c].completed_at_ingest);
      ASSERT_EQ(a[i].chunks[c].media_start, b[i].chunks[c].media_start);
      ASSERT_EQ(a[i].chunks[c].duration, b[i].chunks[c].duration);
      ASSERT_EQ(a[i].chunks[c].bytes, b[i].chunks[c].bytes);
    }
  }
}

// Bitwise sampler equality: the raw per-broadcast sample sequence AND the
// merged summary moments (which Sampler::merge re-accumulates in index
// order precisely so this holds at any shard count).
void expect_samplers_identical(const stats::Sampler& a,
                               const stats::Sampler& b) {
  ASSERT_EQ(a.samples(), b.samples());
  EXPECT_EQ(a.summary().count(), b.summary().count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.stddev(), b.stddev());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(ParallelRunner, TraceGenerationMatchesLegacySerialPath) {
  // det_config already mixes all three uplink profiles (bursty,
  // slow-start, stable); the variants cover the frame-count edges, a
  // length off the frame grid, short and long chunks, and a mix with no
  // stable uplink.
  struct Case {
    const char* name;
    TraceSetConfig cfg;
  };
  std::vector<Case> cases(7, {"", det_config(1)});
  cases[0].name = "det_config";
  cases[1].name = "zero frames";
  cases[1].cfg.broadcast_len = 30 * time::kMillisecond;
  cases[2].name = "one frame";
  cases[2].cfg.broadcast_len = 40 * time::kMillisecond;
  cases[3].name = "length off the frame grid";
  cases[3].cfg.broadcast_len = time::kMinute + 17 * time::kMillisecond;
  cases[4].name = "0.5 s chunk target (one 1 s GOP per chunk)";
  cases[4].cfg.chunk_target = 500 * time::kMillisecond;
  cases[5].name = "10 s chunk target (ten GOPs per chunk)";
  cases[5].cfg.chunk_target = 10 * time::kSecond;
  cases[6].name = "half bursty, half slow-start";
  cases[6].cfg.bursty_fraction = 0.5;
  cases[6].cfg.slow_start_fraction = 0.5;

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto legacy = legacy_generate_traces(c.cfg);
    for (unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      TraceSetConfig cfg = c.cfg;
      cfg.threads = threads;
      expect_traces_identical(legacy, generate_traces(cfg));
    }
  }
}

TEST(ParallelRunner, PollingDeterministicAcrossThreadCounts) {
  const auto traces = generate_traces(det_config(0));
  const auto ref = polling_experiment(traces, 3 * time::kSecond,
                                      300 * time::kMillisecond, 99, 1);
  ASSERT_GT(ref.per_broadcast_mean_s.size(), 0u);
  for (unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    const auto got = polling_experiment(traces, 3 * time::kSecond,
                                        300 * time::kMillisecond, 99, threads);
    expect_samplers_identical(ref.per_broadcast_mean_s,
                              got.per_broadcast_mean_s);
    expect_samplers_identical(ref.per_broadcast_std_s,
                              got.per_broadcast_std_s);
  }
}

TEST(ParallelRunner, RtmpBufferingDeterministicAcrossThreadCounts) {
  const auto traces = generate_traces(det_config(0));
  const auto ref =
      rtmp_buffering_experiment(traces, 500 * time::kMillisecond, 5, 1);
  ASSERT_EQ(ref.stall_ratio.size(), traces.size());
  for (unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    const auto got =
        rtmp_buffering_experiment(traces, 500 * time::kMillisecond, 5, threads);
    expect_samplers_identical(ref.stall_ratio, got.stall_ratio);
    expect_samplers_identical(ref.mean_delay_s, got.mean_delay_s);
  }
}

TEST(ParallelRunner, HlsBufferingDeterministicAcrossThreadCounts) {
  const auto traces = generate_traces(det_config(0));
  const DurationUs poll = time::from_seconds(2.8);
  const auto ref =
      hls_buffering_experiment(traces, 6 * time::kSecond, poll, 5, 1);
  ASSERT_GT(ref.stall_ratio.size(), 0u);
  for (unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    const auto got =
        hls_buffering_experiment(traces, 6 * time::kSecond, poll, 5, threads);
    expect_samplers_identical(ref.stall_ratio, got.stall_ratio);
    expect_samplers_identical(ref.mean_delay_s, got.mean_delay_s);
  }
}

TEST(ParallelRunner, ThreadsZeroMeansHardwareAndStaysDeterministic) {
  // threads=0 resolves to the machine's core count, whatever it is; the
  // result must still be the canonical one.
  expect_traces_identical(generate_traces(det_config(1)),
                          generate_traces(det_config(0)));
}

}  // namespace
}  // namespace livesim::analysis
