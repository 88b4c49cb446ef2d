// Backend-crossover experiment: the three delivery tiers (RTMP push,
// LL-HLS blocking reload, classic HLS polling) measured side by side.
//
//  * backend_breakdown_experiment -- the §5.1 controlled-session
//    methodology extended to three lanes: one broadcaster in Santa
//    Barbara, one viewer per tier on local WiFi, the crawler keeping
//    the edge caches fresh. Produces a Figure-11-style component
//    breakdown per tier; the paper's ordering (RTMP < LL-HLS < HLS
//    end-to-end delay) is the headline pin.
//  * backend_cost_sweep -- the Figure-14 trade-off over the three tiers:
//    per-viewer-count server CPU from cdn/resource_model.h's cost curves,
//    exposing the crossover where per-connection push cost overtakes the
//    cache-amortised pull tiers.
//
// Sharding/determinism: repetitions are independent sessions, so the
// breakdown experiment shards BY REPETITION -- each rep owns a private
// Simulator seeded from substream_seed(seed, rep) and results merge in
// rep order, byte-identical at every thread count (sim/parallel.h).
//
// The fingerprint helpers here are shared by tests/test_backends.cpp
// and bench/bench_backend_crossover.cpp so both pin the SAME hash.
#ifndef LIVESIM_ANALYSIS_BACKENDS_H
#define LIVESIM_ANALYSIS_BACKENDS_H

#include <cstdint>
#include <vector>

#include "livesim/analysis/experiments.h"
#include "livesim/core/broadcast_session.h"

namespace livesim::analysis {

struct BackendBreakdownResult {
  core::DelayBreakdown rtmp;
  core::DelayBreakdown llhls;
  core::DelayBreakdown hls;
};

/// Runs `repetitions` controlled three-tier broadcasts and merges their
/// component measurements in repetition order.
BackendBreakdownResult backend_breakdown_experiment(int repetitions,
                                                    std::uint64_t seed,
                                                    unsigned threads = 1);

/// One point on the Figure-14 cost curve.
struct CrossoverPoint {
  std::uint32_t viewers = 0;
  double rtmp_cpu_percent = 0.0;
  double llhls_cpu_percent = 0.0;
  double hls_cpu_percent = 0.0;
};

/// Sweeps server CPU for each tier over `viewer_counts` (no simulation:
/// the closed-form cdn/resource_model.h curves at 25 fps, 3 s chunks,
/// cdn::kHlsPollInterval polls and cdn::kLlHlsPartDuration parts).
std::vector<CrossoverPoint> backend_cost_sweep(
    const std::vector<std::uint32_t>& viewer_counts);

// --- fingerprint pins (FNV-1a, shared by tests and bench) ---

/// Hashes the six component means of one breakdown.
std::uint64_t breakdown_fingerprint(const core::DelayBreakdown& b);

/// Hashes the legacy two-lane result (rtmp then hls lanes).
std::uint64_t legacy_breakdown_fingerprint(const BreakdownResult& r);

/// Hashes the three-lane result (rtmp, llhls, hls lanes).
std::uint64_t backend_breakdown_fingerprint(const BackendBreakdownResult& r);

/// legacy_breakdown_fingerprint(delay_breakdown_experiment(4, 42)): the
/// two-lane experiment's pin. If it moves, the two-tier session's
/// behaviour changed.
inline constexpr std::uint64_t kLegacyBreakdownFingerprint =
    0x9fe147949241f526ULL;

}  // namespace livesim::analysis

#endif  // LIVESIM_ANALYSIS_BACKENDS_H
