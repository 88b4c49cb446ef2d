// Server resource (CPU) model -- the scalability side of the paper's
// latency/scalability trade-off.
//
// Reproduces the mechanism behind Figure 14: RTMP pushes every ~40 ms
// frame to every viewer over its persistent connection, so server work
// scales with viewers x frame-rate; HLS serves a chunklist poll every few
// seconds per viewer plus amortized chunk assembly, so its per-viewer work
// is ~two orders of magnitude smaller. Costs are expressed as CPU-time per
// operation on a reference single-core server (the paper's laptop Wowza).
#ifndef LIVESIM_CDN_RESOURCE_MODEL_H
#define LIVESIM_CDN_RESOURCE_MODEL_H

#include <cstdint>

#include "livesim/util/time.h"

namespace livesim::cdn {

// Per-operation CPU costs (microseconds of CPU time).
// Push one frame to one RTMP viewer; receive one from the broadcaster.
inline constexpr double kFramePushUs = 70.0;
inline constexpr double kFrameIngestUs = 40.0;
// Serve one HLS chunklist poll (HTTP); serve one chunk download.
inline constexpr double kPollServeUs = 550.0;
inline constexpr double kChunkServeUs = 300.0;
// Assemble + register one chunk; slice + register one LL-HLS partial.
inline constexpr double kChunkBuildUs = 2500.0;
inline constexpr double kPartBuildUs = 600.0;
// Park + release one blocking reload.
inline constexpr double kHeldPollUs = 150.0;
// Idle daemon overhead, in percent of one core.
inline constexpr double kBaselinePercent = 2.0;

/// Steady-state CPU % serving `viewers` RTMP viewers of one broadcast.
inline double rtmp_cpu_percent(std::uint32_t viewers, double fps) noexcept {
  const double work_us_per_s =
      fps * kFrameIngestUs + static_cast<double>(viewers) * fps * kFramePushUs;
  return kBaselinePercent + work_us_per_s / 1e4;  // 1e6 us == 100%
}

/// Steady-state CPU % serving `viewers` HLS viewers of one broadcast.
///
/// Degenerate cadences (`poll_interval_s <= 0` or `chunk_duration_s <= 0`)
/// describe a tier that never serves polls and never seals chunks: the
/// serve and build terms are all zero, leaving only ingest + baseline.
/// (Historically the chunk-serve term silently divided by 1.0 when
/// `poll_interval_s <= 0`, charging phantom serve work per viewer.)
inline double hls_cpu_percent(std::uint32_t viewers, double fps,
                              double poll_interval_s,
                              double chunk_duration_s) noexcept {
  if (poll_interval_s <= 0 || chunk_duration_s <= 0)
    return kBaselinePercent + fps * kFrameIngestUs / 1e4;
  const double polls_per_s = static_cast<double>(viewers) / poll_interval_s;
  const double chunks_per_s = 1.0 / chunk_duration_s;
  const double work_us_per_s =
      fps * kFrameIngestUs + chunks_per_s * kChunkBuildUs +
      polls_per_s *
          (kPollServeUs + kChunkServeUs * chunk_duration_s / poll_interval_s);
  return kBaselinePercent + work_us_per_s / 1e4;
}

/// Steady-state CPU % serving `viewers` LL-HLS viewers of one broadcast.
///
/// Blocking playlist reload means each viewer issues exactly one reload
/// per partial segment (the server holds it until the part is ready), so
/// the per-viewer cadence is `part_duration_s`, not a free-running poll
/// interval. Per part the server slices the partial (kPartBuildUs,
/// amortized over the whole broadcast, not per viewer), parks + releases
/// one held reload per viewer (kHeldPollUs), serves the reload response
/// (kPollServeUs), and ships `part/chunk` of a chunk's bytes
/// (kChunkServeUs scaled). Chunks are still sealed underneath for the
/// HLS fallback window, so kChunkBuildUs stays. Degenerate cadences yield
/// ingest + baseline only, matching hls_cpu_percent's contract.
inline double llhls_cpu_percent(std::uint32_t viewers, double fps,
                                double part_duration_s,
                                double chunk_duration_s) noexcept {
  if (part_duration_s <= 0 || chunk_duration_s <= 0)
    return kBaselinePercent + fps * kFrameIngestUs / 1e4;
  const double parts_per_s = 1.0 / part_duration_s;
  const double chunks_per_s = 1.0 / chunk_duration_s;
  const double reloads_per_s = static_cast<double>(viewers) / part_duration_s;
  const double work_us_per_s =
      fps * kFrameIngestUs + parts_per_s * kPartBuildUs +
      chunks_per_s * kChunkBuildUs +
      reloads_per_s * (kPollServeUs + kHeldPollUs +
                       kChunkServeUs * part_duration_s / chunk_duration_s);
  return kBaselinePercent + work_us_per_s / 1e4;
}

/// Event-level CPU accounting attached to the ingest server: it charges
/// each operation and reads back utilization.
class CpuMeter {
 public:
  void charge_frame_push() noexcept { busy_us_ += kFramePushUs; }
  void charge_frame_ingest() noexcept { busy_us_ += kFrameIngestUs; }
  void charge_chunk_build() noexcept { busy_us_ += kChunkBuildUs; }
  void charge_part_build() noexcept { busy_us_ += kPartBuildUs; }

  /// Utilization over a wall window, in percent of one core.
  double percent_over(DurationUs window) const noexcept {
    if (window <= 0) return 0.0;
    return kBaselinePercent + busy_us_ / static_cast<double>(window) * 100.0;
  }

  double busy_us() const noexcept { return busy_us_; }

 private:
  double busy_us_ = 0.0;
};

}  // namespace livesim::cdn

#endif  // LIVESIM_CDN_RESOURCE_MODEL_H
