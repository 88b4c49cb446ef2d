// Flash-crowd experiment: the first run that exercises engine, poll
// wheels, capacity spill, control plane, and the crowd generator in one
// workload.
//
// A Twitch-calibrated crowd (workload::generate_crowd) is driven
// through LivestreamService end to end: every channel becomes a live
// broadcast, every CrowdRecord a real viewer join (batched through
// sim::BatchTimeline -- one engine event per admission window) and a
// real early leave (the poll-wheel detach path). Mid-storm, a regional
// blackout darkens part of the edge footprint, so the join storm and
// the failover herd collide: wheel re-attachment cost, spill pile-ups,
// and proactive-vs-reactive migration are all measured under storm
// pressure.
//
// Sharding/determinism -- TWO axes:
//
//  1. BY CHANNEL: channels are independent broadcasts, so each
//     shard owns a private Simulator + LivestreamService seeded from
//     substream_seed(service_seed, channel), replays exactly that
//     channel's records (in global record order), and expands the same
//     blackout scenario against the shared catalog. Results merge in
//     channel order, so stats and fingerprint are byte-identical at
//     every thread count.
//
//  2. WITHIN a channel (sub_shards > 1): the channel's record range is
//     split into contiguous viewer-index sub-ranges; each (channel,
//     sub-shard) unit runs the slice's join/leave BatchTimeline +
//     session drive on its own Simulator replica of the channel's
//     environment (same service seed, same broadcaster, same blackout).
//     CrowdDriveConfig::record_index_offset keeps every record on the
//     location and viewer streams it draws in the full run (a viewer's
//     stream is keyed by its global record index), so each record's
//     own outcome (admission, admitted-or-late, re-attachment delay) is
//     a pure function of its global index. Units merge in
//     (channel, sub-shard) order. A cost-weighted greedy plan
//     (crowd_shard_plan) assigns units to workers so one giant channel
//     no longer serializes the run.
//
// What is invariant across sub-shard counts: the per-viewer "crowd
// core" (crowd_fingerprint) -- admitted bits, admission latencies,
// re-attachment samples, join/leave/failover/orphan totals -- with
// edge_capacity == 0 and the control plane off (capacity and control
// verdicts couple viewers across a partition boundary by construction).
// The FULL fingerprint is invariant across THREAD counts at any fixed
// sub-shard count. sub_shards == 1 runs the same code as any other
// count: one unit per channel.
#ifndef LIVESIM_ANALYSIS_FLASH_CROWD_H
#define LIVESIM_ANALYSIS_FLASH_CROWD_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "livesim/core/broadcast_session.h"
#include "livesim/geo/datacenters.h"
#include "livesim/stats/accumulator.h"
#include "livesim/util/time.h"
#include "livesim/workload/crowd.h"

namespace livesim::analysis {

struct FlashCrowdConfig {
  /// The crowd shape. Bench/CI scale: >= 100k viewers over a shortened
  /// horizon; tests shrink viewers, never the structure.
  workload::CrowdPreset preset = workload::CrowdPreset::twitch_flash_crowd();
  std::uint64_t crowd_seed = 2016;
  /// Per-channel service/session substream root.
  std::uint64_t service_seed = 7;
  /// Join-storm admission window (CrowdDriveConfig::batch_window).
  DurationUs batch_window = 500 * time::kMillisecond;
  /// RTMP slots per channel. 0 (default): the whole storm rides the HLS
  /// poll wheels -- the fast path this experiment is about.
  std::uint32_t rtmp_slot_cap = 0;
  /// Session knobs applied to every channel (capacity, spill rings,
  /// control plane, wheel geometry). broadcast_len is overridden with
  /// the preset horizon.
  core::SessionConfig session{};

  /// Mid-storm regional blackout. blackout_at == 0 resolves to the
  /// middle of the spike ramp (spike_at + ramp/2): the worst instant.
  ///
  /// Sub-shard contract: when sub-shard invariance matters, pin
  /// blackout_at OFF the batch-window grid (e.g. 70.25 s on a 0.5 s
  /// window). A quantized leave landing at exactly blackout_at +
  /// failover_detect_timeout ties with the detection sweep, and
  /// same-instant ordering depends on how the slice's timeline chained
  /// its windows — off-grid instants make the tie impossible.
  bool blackout = true;
  geo::GeoPoint blackout_center{50.11, 8.68};  // Frankfurt
  double blackout_radius_km = 1200.0;
  TimeUs blackout_at = 0;
  DurationUs blackout_duration = 20 * time::kSecond;
  std::uint64_t scenario_seed = 99;

  unsigned threads = 1;
  /// Intra-channel sharding: split every channel's record range into
  /// this many contiguous viewer-index sub-shards, each driven on its
  /// own simulator replica. 1 (default) = one unit per channel.
  std::uint32_t sub_shards = 1;
};

/// One (channel, sub-shard) unit of work: records [begin, end) of the
/// channel's record range, plus the LPT weight the plan balanced.
struct CrowdShardUnit {
  std::uint32_t channel = 0;
  std::uint32_t sub_shard = 0;
  std::size_t begin = 0;  // index into the channel's record range
  std::size_t end = 0;
  std::size_t weight = 0;  // records + the constant replica cost
};

/// Cost-weighted greedy (LPT) assignment of units to workers. Units are
/// created in (channel, sub-shard) order — the canonical merge order —
/// and worker_units[w] lists unit indices in the order worker w runs
/// them. The plan depends only on (channel_sizes, sub_shards, workers),
/// never on scheduling, and the executed results are merged by unit
/// index, so the assignment affects wall clock only.
struct CrowdShardPlan {
  std::vector<CrowdShardUnit> units;              // (channel, sub-shard) order
  std::vector<std::vector<std::size_t>> worker_units;  // per worker
  std::size_t total_weight = 0;
  std::size_t max_worker_weight = 0;
  /// Ideal-scheduling speedup bound: total work over the critical
  /// worker's share. The structural contract the scaling bench pins
  /// (hardware-independent, unlike measured wall clock).
  double planned_speedup() const noexcept {
    return max_worker_weight == 0
               ? 1.0
               : static_cast<double>(total_weight) /
                     static_cast<double>(max_worker_weight);
  }
};

/// Builds the weighted plan: channel_sizes[c] records split into
/// min(sub_shards, max(1, size)) contiguous sub-ranges (an empty channel
/// still yields one empty unit — its replica runs the broadcast frame
/// pipeline, exactly like the by-channel experiment), each weighted
/// records + a constant replica cost, then LPT-assigned: heaviest unit
/// first onto the least-loaded worker (ties: lowest worker id).
CrowdShardPlan crowd_shard_plan(std::span<const std::size_t> channel_sizes,
                                std::uint32_t sub_shards, unsigned workers);

struct FlashCrowdStats {
  // Crowd consumption (summed CrowdDriveStats).
  std::uint64_t viewers = 0;  // records generated
  std::uint64_t joins = 0;
  std::uint64_t late_joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t batches = 0;
  stats::Accumulator admission_latency_s;  // max < batch_window: the pin
  std::uint64_t steered_joins = 0;

  // Storm-pressure resilience (summed session ledgers, channel order).
  std::uint64_t edge_failovers = 0;  // wheel re-attachments forced
  stats::Accumulator edge_failover_latency_s;
  /// Quantize-to-next-slot delay each refugee paid re-attaching to the
  /// new edge's poll wheel: the wheel's own component of the end-to-end
  /// failover number above, on its own ledger.
  stats::Accumulator reattach_latency_s;
  std::uint64_t proactive_migrations = 0;
  std::uint64_t orphaned_viewers = 0;
  std::uint64_t edge_spills = 0;
  stats::Accumulator spill_distance_km;
  std::uint64_t overlay_assists = 0;
  std::uint64_t control_drains = 0;

  /// Hottest edge site: max over sites of the summed per-unit peak
  /// attachments (the service-aggregation upper-bound semantics).
  std::uint64_t peak_edge_load = 0;
  /// Engine events across every shard: the batching win shows up here.
  std::uint64_t events_processed = 0;

  /// FNV-1a over every per-unit outcome in (channel, sub-shard) order:
  /// the threads {1,2,8} determinism pin BENCH_crowd.json tracks.
  std::uint64_t fingerprint = 0;
  /// FNV-1a over the per-viewer crowd core (admitted bits, admission
  /// latencies, re-attachment samples, global join/leave/failover
  /// totals) in channel-major global record order: invariant across
  /// sub-shard counts AND thread counts with edge_capacity == 0 and the
  /// control plane off.
  std::uint64_t crowd_fingerprint = 0;

  // Shard-plan introspection (wall-clock measurements are never part of
  // either fingerprint).
  std::uint32_t sub_shards = 1;
  std::uint64_t shard_units = 0;      // units the plan produced
  double planned_speedup = 1.0;       // CrowdShardPlan::planned_speedup()
  /// Max worker wall time over mean worker wall time (idle workers
  /// count): ~workers when one giant unit serializes the run, ~1 when
  /// the weighted plan balances. Measured, so it varies run to run.
  double shard_imbalance = 1.0;
};

/// Runs the crowd through per-(channel, sub-shard) services against
/// `catalog`. Deterministic in (config) at every config.threads.
FlashCrowdStats flash_crowd_experiment(const geo::DatacenterCatalog& catalog,
                                       const FlashCrowdConfig& config);

}  // namespace livesim::analysis

#endif  // LIVESIM_ANALYSIS_FLASH_CROWD_H
