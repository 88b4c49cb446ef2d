// Experiment drivers shared by the bench binaries.
//
// Each driver reproduces one of the paper's measurement methodologies:
//  * TraceSet       -- §4.3's passive crawl: per-broadcast frame/chunk
//                      arrival traces at the CDN (the input to §5-§6).
//  * polling_*      -- §5.2's trace-driven polling simulation (Figs 12-13).
//  * buffering_*    -- §6's trace-driven playback simulation (Figs 16-17).
//  * w2f_experiment -- §5.3's Wowza->Fastly transfer study (Fig 15).
//  * delay_breakdown_experiment -- §5.1's controlled sessions (Fig 11).
//
// Parallel execution & determinism: the trace-driven drivers shard their
// (independent) broadcasts across a worker pool (sim/parallel.h) and take
// a `threads` knob (1 = serial, 0 = all hardware threads). Results are
// guaranteed identical for the same seed at EVERY thread count:
//  * generate_traces pre-draws each broadcast's seeds from the master RNG
//    serially (the master stream advances a fixed 3 draws per broadcast),
//    then runs each broadcast as one loop in frame order with no engine:
//    net::UplinkModel computes every arrival in closed form when the frame
//    is sent. Its output is byte-identical to the historical engine-driven
//    serial loop (kept as the oracle in tests/test_parallel_runner.cpp).
//  * polling/buffering derive one RNG substream per broadcast via
//    sim::substream_seed(seed, index), and shards merge in index order.
#ifndef LIVESIM_ANALYSIS_EXPERIMENTS_H
#define LIVESIM_ANALYSIS_EXPERIMENTS_H

#include <cstdint>
#include <vector>

#include "livesim/core/broadcast_session.h"
#include "livesim/geo/datacenters.h"
#include "livesim/stats/sampler.h"
#include "livesim/util/time.h"

namespace livesim::analysis {

/// One crawled broadcast: arrival times at the CDN.
struct BroadcastTrace {
  /// Frame arrivals at the ingest server; index = frame seq; media time of
  /// frame i is i * frame_interval.
  std::vector<TimeUs> frame_arrivals;
  DurationUs frame_interval = 40 * time::kMillisecond;

  struct ChunkRec {
    TimeUs completed_at_ingest = 0;
    DurationUs media_start = 0;
    DurationUs duration = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<ChunkRec> chunks;
  bool bursty = false;
};

struct TraceSetConfig {
  int broadcasts = 2000;           // the paper crawled 16,013
  DurationUs broadcast_len = 2 * time::kMinute;
  double bursty_fraction = 0.10;   // uplinks with outage bursts
  double slow_start_fraction = 0.12;  // constrained ramp-up uplinks
  DurationUs chunk_target = 3 * time::kSecond;
  std::uint64_t seed = 1;
  unsigned threads = 1;            // worker threads; 0 = all hardware threads
};

/// Generates per-broadcast arrival traces from the broadcaster uplink +
/// chunker (the part of the paper's pipeline their crawler saw). Each
/// broadcast is one loop in frame order: handshake, then per frame the
/// uplink's closed-form arrival and a chunker push; no Simulator.
std::vector<BroadcastTrace> generate_traces(const TraceSetConfig& config);

// --- §5.2: polling delay (Figures 12 & 13) ---

struct PollingStats {
  stats::Sampler per_broadcast_mean_s;  // Fig 12
  stats::Sampler per_broadcast_std_s;   // Fig 13
};

/// Simulates one HLS viewer polling every `interval` against each trace's
/// chunk arrival sequence (chunks become pollable w2f_offset after they
/// complete at the ingest).
PollingStats polling_experiment(const std::vector<BroadcastTrace>& traces,
                                DurationUs interval,
                                DurationUs w2f_offset,
                                std::uint64_t seed,
                                unsigned threads = 1);

// --- §6: client buffering (Figures 16 & 17) ---

// The trace replays' client timings (the paper's §6 assumptions): an RTMP
// frame crosses a stable last mile in 80 ms, an HLS chunk downloads in
// 150 ms, and a chunk reaches the edge 300 ms (mean) after it seals at
// the ingest. The buffering and outage replays (resilience.h) share them.
inline constexpr DurationUs kRtmpLastMile = 80 * time::kMillisecond;
inline constexpr DurationUs kHlsDownload = 150 * time::kMillisecond;
inline constexpr DurationUs kW2fOffset = 300 * time::kMillisecond;

struct BufferingStats {
  stats::Sampler stall_ratio;        // per broadcast
  stats::Sampler mean_delay_s;       // per broadcast
};

/// RTMP viewer: frames stream server->client over a stable last mile.
BufferingStats rtmp_buffering_experiment(
    const std::vector<BroadcastTrace>& traces, DurationUs pre_buffer,
    std::uint64_t seed, unsigned threads = 1);

/// HLS viewer: chunks become available w2f after completion, fetched by a
/// 2.8 s poll loop (the app's measured polling interval).
BufferingStats hls_buffering_experiment(
    const std::vector<BroadcastTrace>& traces, DurationUs pre_buffer,
    DurationUs poll_interval, std::uint64_t seed, unsigned threads = 1);

// --- §5.3: Wowza -> Fastly transfers (Figure 15) ---

struct W2FBucket {
  const char* label;
  double min_km, max_km;
  stats::Sampler delay_s;
};

/// Samples transfers for every ingest x edge pair, including the expiry
/// notice and the 0.1 s crawler first-poll offset, grouped by pair
/// distance as in Figure 15.
std::vector<W2FBucket> w2f_experiment(const geo::DatacenterCatalog& catalog,
                                      int samples_per_pair,
                                      std::uint64_t seed);

// --- §5.1: end-to-end breakdown (Figure 11) ---

struct BreakdownResult {
  core::DelayBreakdown rtmp;
  core::DelayBreakdown hls;
};

/// Runs `repetitions` controlled broadcasts (the paper averaged 10) and
/// merges their component measurements.
BreakdownResult delay_breakdown_experiment(int repetitions,
                                           std::uint64_t seed);

}  // namespace livesim::analysis

#endif  // LIVESIM_ANALYSIS_EXPERIMENTS_H
