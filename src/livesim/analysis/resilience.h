// Resilience experiment: what viewers experience when the system breaks.
//
// The paper's trace-driven simulations (§5.2, §6) measure the sunny-day
// path. This driver replays the same crawled traces through a viewer that
// must survive injected faults (fault/fault.h): the ingest crashing
// mid-broadcast (the client times out and fails over from RTMP to HLS
// through the W2F edge path), last-mile partitions (polls time out and
// retry with capped exponential backoff), edge-cache flushes (origin
// re-pull penalty), and corrupted chunk downloads (detected and
// re-fetched).
//
// Determinism contract (same as experiments.h): broadcast i's entire
// random behaviour — viewer jitter AND its fault script — depends only on
// (seed, i), via two independent RNG substreams, so results are
// byte-identical at every thread count. A zero fault rate degenerates to
// a clean RTMP playback walk with zero failovers.
#ifndef LIVESIM_ANALYSIS_RESILIENCE_H
#define LIVESIM_ANALYSIS_RESILIENCE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "livesim/analysis/experiments.h"
#include "livesim/fault/fault.h"
#include "livesim/fault/scenario.h"
#include "livesim/geo/datacenters.h"
#include "livesim/stats/accumulator.h"
#include "livesim/stats/sampler.h"
#include "livesim/util/time.h"

namespace livesim::analysis {

// The viewer's timings are fixed: a dead RTMP connection goes unnoticed
// for cdn::kFailoverDetectTimeout, a poll with no answer within 1 s
// counts as failed and retries under client::PollRetryState's backoff,
// HLS polls every cdn::kHlsPollInterval after failover, chunks reach the
// edge 300 ms (mean) after they seal, and a client::AdaptivePlayback
// buffer starting at 6 s scores rebuffers.
struct ResilienceConfig {
  /// Per-broadcast randomized fault script. horizon == 0 is replaced by
  /// each trace's media length. faults_per_minute == 0 disables faults.
  fault::RandomFaultParams faults{};
  std::uint64_t seed = 1;
  unsigned threads = 1;  // 0 = all hardware threads
};

/// Additive per-shard counters (merge order never matters).
struct ResilienceCounters {
  std::uint64_t viewers = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t ingest_crashes = 0;
  std::uint64_t failovers = 0;        // RTMP->HLS migrations completed
  std::uint64_t unrecoverable = 0;    // viewers whose retries exhausted
  std::uint64_t chunk_refetches = 0;  // corruption-triggered re-fetches

  void merge(const ResilienceCounters& o) noexcept {
    viewers += o.viewers;
    faults_injected += o.faults_injected;
    ingest_crashes += o.ingest_crashes;
    failovers += o.failovers;
    unrecoverable += o.unrecoverable;
    chunk_refetches += o.chunk_refetches;
  }
};

struct ResilienceStats {
  /// Per viewer: stalled + never-delivered media over the broadcast's
  /// total media (so an abandoned viewer scores the missing tail too).
  stats::Sampler stall_ratio;
  /// Per viewer: playback under-run (rebuffer) events.
  stats::Sampler rebuffer_count;
  /// Per failover: ingest crash -> first HLS chunk on screen, seconds.
  stats::Sampler failover_latency_s;
  ResilienceCounters counters;
};

/// Replays each trace through one fault-exposed viewer. Deterministic in
/// (config.seed) at every thread count.
ResilienceStats resilience_experiment(
    const std::vector<BroadcastTrace>& traces, const ResilienceConfig& config);

// ---------------------------------------------------------------------
// Regional-outage experiment: a correlated blackout hits every edge PoP
// within a radius, and the attached HLS viewers must detect the silent
// edge (failed poll + detect timeout), re-anycast to an edge still
// alive, and re-fill their pipeline through a cold cache — the second
// pipeline flush. Every refugee pays the same cold-cache pull wherever it
// lands, so failover latency does not depend on the distance travelled.
// Viewers with no live edge left are orphaned and score the entire
// missing tail as stall.
//
// The outage replays (this one, capacity spill below and
// control_steering_experiment) share one per-viewer draw — location, one
// W2F pull per chunk, poll phase, from the trace's substream — and one
// RNG-free poll walk that asks its caller for the re-anycast decision at
// the first poll lost to the dark PoP. This experiment walks each viewer
// once; it is the reference the capacity-spill driver is held to.

// The blackout starts 30 s in and lasts 30 s. Viewers poll every
// cdn::kHlsPollInterval, take cdn::kFailoverDetectTimeout from the first
// dead poll to the re-anycast decision, and pay the 300 ms mean W2F pull
// again as the cold cache's penalty at the new edge.
struct RegionalOutageConfig {
  /// Blackout geometry (fault::RegionalBlackoutSpec semantics: the
  /// nearest edge is always dark, radius 0 kills exactly one PoP).
  geo::GeoPoint center{50.11, 8.68};  // Frankfurt
  double radius_km = 0.0;

  /// HLS viewers sampled per broadcast (global user distribution).
  std::uint32_t viewers_per_broadcast = 4;
  std::uint64_t seed = 1;
  unsigned threads = 1;  // 0 = all hardware threads
};

/// Additive per-shard counters (merge order never matters).
struct RegionalOutageCounters {
  std::uint64_t viewers = 0;
  /// Viewers whose attached edge went dark under them mid-polling.
  std::uint64_t affected = 0;
  /// Affected viewers successfully re-anycast to a live edge.
  std::uint64_t failovers = 0;
  /// Affected viewers with no live edge left (footprint-wide blackout).
  std::uint64_t orphaned = 0;

  void merge(const RegionalOutageCounters& o) noexcept {
    viewers += o.viewers;
    affected += o.affected;
    failovers += o.failovers;
    orphaned += o.orphaned;
  }
};

struct RegionalOutageStats {
  /// Per viewer: stalled + never-delivered media over total media.
  stats::Sampler stall_ratio;
  /// Per failover: edge death -> first chunk on screen via the new edge
  /// (detection + re-anycast + cold fetch + download), seconds.
  stats::Sampler failover_latency_s;
  RegionalOutageCounters counters;
  /// Edge sites the blackout darkened (from the scenario, not merged).
  std::size_t dark_edges = 0;
};

/// Replays each trace through `viewers_per_broadcast` HLS viewers under
/// one shared regional blackout. Deterministic in (config.seed) at every
/// thread count: each trace draws from its own substream, and the dark
/// set is computed once from (catalog, center, radius).
RegionalOutageStats regional_resilience_experiment(
    const std::vector<BroadcastTrace>& traces,
    const geo::DatacenterCatalog& catalog, const RegionalOutageConfig& config);

// ---------------------------------------------------------------------
// Capacity-aware spill experiment: the same regional blackout, but each
// edge PoP has a finite concurrent-viewer capacity. Failed-over viewers
// re-anycast to the nearest live edge with a free slot among the
// `spill_k` nearest, overflowing ring by ring; a viewer is orphaned only
// when every candidate is dark or full. Capacity gates FAILOVER
// admissions only — the initial anycast join is load-blind (IP anycast
// does not know occupancy) but still counts toward an edge's load, so a
// popular edge can refuse spill traffic from day one.
//
// Determinism: a shared load ledger would make naive per-viewer
// parallelism racy, so one four-phase driver (shared with
// control_steering_experiment) runs it — (A) a parallel pass that draws
// each viewer and walks it to its first dark poll; (B) a SERIAL
// admission pass over affected viewers in (decision time, trace, viewer)
// order against the ledger; (C) a parallel re-walk of the affected
// viewers with their admission outcome; (D) a serial emission of samples
// in canonical (trace, viewer) order. Results are byte-identical at
// every thread count, and with edge_capacity == 0 they reproduce
// regional_resilience_experiment's samplers and counters bit for bit.

struct CapacitySpillConfig {
  /// Blackout geometry, viewer population, seed, threads — identical
  /// semantics to the regional-outage experiment.
  RegionalOutageConfig base{};
  /// Concurrent viewers one edge will ADMIT on failover. 0 = unbounded,
  /// which degenerates to regional_resilience_experiment bit for bit.
  std::uint64_t edge_capacity = 0;
  /// Failover candidates = the spill_k nearest live edges. 0 = the
  /// entire footprint.
  std::uint32_t spill_k = 0;
};

struct CapacitySpillStats {
  /// Per viewer, canonical (trace, viewer) order: stalled plus
  /// never-delivered media over total media.
  stats::Sampler stall_ratio;
  /// Per completed failover: edge death -> first chunk via the admitted
  /// edge, seconds.
  stats::Sampler failover_latency_s;
  RegionalOutageCounters counters;
  std::size_t dark_edges = 0;

  /// Failover admissions that overflowed past a live-but-full edge.
  std::uint64_t edge_spills = 0;
  /// Extra kilometres the spilled viewer travels past its nearest live
  /// edge (0 km when the tied co-located site absorbed it).
  stats::Accumulator spill_overshoot_km;
  /// Orphans that saw at least one live candidate — i.e. orphaned by
  /// capacity (or a too-small spill_k), not by a footprint-wide blackout.
  std::uint64_t capacity_orphans = 0;
  /// Per edge site id: peak concurrent load (anycast joins + admitted
  /// spill), sorted by site id. The hotspot pile-up ledger.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edge_peak_loads;
};

/// Replays each trace through `base.viewers_per_broadcast` HLS viewers
/// under one shared regional blackout with per-edge capacity.
/// Deterministic in (base.seed) at every thread count.
CapacitySpillStats capacity_spill_experiment(
    const std::vector<BroadcastTrace>& traces,
    const geo::DatacenterCatalog& catalog, const CapacitySpillConfig& config);

}  // namespace livesim::analysis

#endif  // LIVESIM_ANALYSIS_RESILIENCE_H
