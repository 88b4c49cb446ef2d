#include "livesim/analysis/backends.h"

#include "livesim/cdn/delivery_backend.h"
#include "livesim/cdn/resource_model.h"
#include "livesim/geo/datacenters.h"
#include "livesim/media/chunker.h"
#include "livesim/media/encoder.h"
#include "livesim/sim/parallel.h"
#include "livesim/sim/simulator.h"
#include "livesim/util/fingerprint.h"

namespace livesim::analysis {

namespace {

/// One repetition: the §5.1 controlled session with one viewer on each
/// delivery tier. Mirrors delay_breakdown_experiment's setup so the
/// rtmp/hls lanes stay comparable with the legacy two-lane numbers.
BackendBreakdownResult run_rep(std::uint64_t rep_seed) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 2 * time::kMinute;
  cfg.broadcaster_location = {34.42, -119.70};  // Santa Barbara
  cfg.global_viewers = false;
  cfg.rtmp_viewers = 1;
  cfg.llhls_viewers = 1;
  cfg.hls_viewers = 1;
  cfg.crawler_pollers = true;
  cfg.seed = rep_seed;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  BackendBreakdownResult out;
  out.rtmp.merge(session.rtmp_breakdown());
  out.llhls.merge(session.llhls_breakdown());
  out.hls.merge(session.hls_breakdown());
  return out;
}

}  // namespace

BackendBreakdownResult backend_breakdown_experiment(int repetitions,
                                                    std::uint64_t seed,
                                                    unsigned threads) {
  if (repetitions < 0) repetitions = 0;
  const auto reps =
      sim::parallel_map<BackendBreakdownResult>(
          static_cast<std::size_t>(repetitions), threads, [&](std::size_t i) {
            return run_rep(sim::substream_seed(seed, i));
          });
  BackendBreakdownResult merged;
  for (const auto& r : reps) {  // rep order: thread-count invariant
    merged.rtmp.merge(r.rtmp);
    merged.llhls.merge(r.llhls);
    merged.hls.merge(r.hls);
  }
  return merged;
}

std::vector<CrossoverPoint> backend_cost_sweep(
    const std::vector<std::uint32_t>& viewer_counts) {
  constexpr double kFps = media::kFramesPerSecond;
  constexpr double kChunkS = time::to_seconds(media::kChunkTarget);
  constexpr double kPollS = time::to_seconds(cdn::kHlsPollInterval);
  constexpr double kPartS = time::to_seconds(cdn::kLlHlsPartDuration);
  std::vector<CrossoverPoint> out;
  out.reserve(viewer_counts.size());
  for (std::uint32_t v : viewer_counts) {
    out.push_back(
        {.viewers = v,
         .rtmp_cpu_percent = cdn::rtmp_cpu_percent(v, kFps),
         .llhls_cpu_percent = cdn::llhls_cpu_percent(v, kFps, kPartS, kChunkS),
         .hls_cpu_percent = cdn::hls_cpu_percent(v, kFps, kPollS, kChunkS)});
  }
  return out;
}

std::uint64_t breakdown_fingerprint(const core::DelayBreakdown& b) {
  return util::Fingerprint()
      .mix_double(b.upload_s.mean())
      .mix_double(b.chunking_s.mean())
      .mix_double(b.w2f_s.mean())
      .mix_double(b.polling_s.mean())
      .mix_double(b.last_mile_s.mean())
      .mix_double(b.buffering_s.mean())
      .value();
}

std::uint64_t legacy_breakdown_fingerprint(const BreakdownResult& r) {
  return util::Fingerprint()
      .mix(breakdown_fingerprint(r.rtmp))
      .mix(breakdown_fingerprint(r.hls))
      .value();
}

std::uint64_t backend_breakdown_fingerprint(const BackendBreakdownResult& r) {
  return util::Fingerprint()
      .mix(breakdown_fingerprint(r.rtmp))
      .mix(breakdown_fingerprint(r.llhls))
      .mix(breakdown_fingerprint(r.hls))
      .value();
}

}  // namespace livesim::analysis
