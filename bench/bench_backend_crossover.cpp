// Backend crossover: the three delivery tiers measured side by side.
//
// Part 1 runs analysis::backend_breakdown_experiment (the §5.1
// controlled-session methodology with one viewer per tier) at threads
// {1, 2, 8} and certifies:
//  * the thread-determinism contract (byte-identical fingerprints);
//  * the delay-ordering contract: RTMP < LL-HLS < HLS end-to-end, the
//    whole point of the third tier;
//  * the legacy-parity contract: the two-lane
//    delay_breakdown_experiment(4, 42) still hashes to its pin
//    (analysis::kLegacyBreakdownFingerprint).
//
// Part 2 sweeps the Figure-14 server-cost curves through the backend
// cost hooks and certifies that LL-HLS sits strictly between the two
// classic tiers once viewers amortise the part pipeline: per-viewer
// cost above HLS (blocking reloads are work), below RTMP (no per-frame
// push), with the fixed part-slicing overhead visible at zero viewers.
//
// Results land in BENCH_backends.json; scripts/check_backends.sh greps
// the contract lines.
//
// Usage: bench_backend_crossover [out.json] [repetitions]  (default 10)
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "livesim/analysis/backends.h"
#include "livesim/stats/report.h"

namespace {
using namespace livesim;

void write_breakdown(std::FILE* f, const char* name,
                     const core::DelayBreakdown& b, const char* tail) {
  std::fprintf(f,
               "  \"%s\": {\"upload_s\": %.6f, \"chunking_s\": %.6f, "
               "\"w2f_s\": %.6f, \"polling_s\": %.6f, \"last_mile_s\": %.6f, "
               "\"buffering_s\": %.6f, \"total_s\": %.6f}%s\n",
               name, b.upload_s.mean(), b.chunking_s.mean(), b.w2f_s.mean(),
               b.polling_s.mean(), b.last_mile_s.mean(), b.buffering_s.mean(),
               b.total_s(), tail);
}

void write_json(const char* path, int reps,
                const analysis::BackendBreakdownResult& r,
                const std::vector<std::pair<unsigned, std::uint64_t>>& fps,
                bool det_ok, bool parity_ok,
                const std::vector<analysis::CrossoverPoint>& sweep,
                std::uint32_t rtmp_vs_llhls, std::uint32_t rtmp_vs_hls,
                double wall_ms_per_rep) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"backend_crossover\",\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"repetitions\": %d,\n", reps);
  std::fprintf(f, "  \"determinism\": {\"threads\": [");
  for (std::size_t i = 0; i < fps.size(); ++i)
    std::fprintf(f, "%u%s", fps[i].first, i + 1 < fps.size() ? ", " : "");
  std::fprintf(f, "], \"fingerprints\": [");
  for (std::size_t i = 0; i < fps.size(); ++i)
    std::fprintf(f, "\"%016" PRIx64 "\"%s", fps[i].second,
                 i + 1 < fps.size() ? ", " : "");
  std::fprintf(f, "], \"identical\": %s},\n", det_ok ? "true" : "false");
  std::fprintf(f,
               "  \"legacy_parity\": {\"pin\": \"%016" PRIx64
               "\", \"match\": %s},\n",
               analysis::kLegacyBreakdownFingerprint,
               parity_ok ? "true" : "false");
  write_breakdown(f, "rtmp", r.rtmp, ",");
  write_breakdown(f, "llhls", r.llhls, ",");
  write_breakdown(f, "hls", r.hls, ",");
  std::fprintf(f, "  \"cost_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& p = sweep[i];
    std::fprintf(f,
                 "    {\"viewers\": %u, \"rtmp_cpu\": %.4f, \"llhls_cpu\": "
                 "%.4f, \"hls_cpu\": %.4f}%s\n",
                 p.viewers, p.rtmp_cpu_percent, p.llhls_cpu_percent,
                 p.hls_cpu_percent, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"crossover_viewers\": {\"rtmp_vs_llhls\": %u, "
               "\"rtmp_vs_hls\": %u},\n",
               rtmp_vs_llhls, rtmp_vs_hls);
  std::fprintf(f, "  \"wall_ms_per_rep\": %.1f\n", wall_ms_per_rep);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace livesim;
  const char* out = argc > 1 ? argv[1] : "BENCH_backends.json";
  long reps = argc > 2 ? std::atol(argv[2]) : 10;
  if (reps <= 0) reps = 10;

  // --- Part 1: three-lane breakdown, threads {1, 2, 8} ------------------
  stats::print_banner(
      "Backend delay breakdown: one viewer per tier, threads {1, 2, 8}");
  analysis::BackendBreakdownResult r;
  std::vector<std::pair<unsigned, std::uint64_t>> fps;
  std::uint64_t ref = 0;
  bool det_ok = true;
  double wall_ms_per_rep = 0.0;
  for (unsigned threads : {1u, 2u, 8u}) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = analysis::backend_breakdown_experiment(
        static_cast<int>(reps), 42, threads);
    const auto t1 = std::chrono::steady_clock::now();
    const auto fp = analysis::backend_breakdown_fingerprint(rep);
    if (threads == 1) {
      ref = fp;
      r = rep;
      wall_ms_per_rep =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0)
                  .count()) /
          static_cast<double>(reps);
    }
    const bool identical = fp == ref;
    det_ok = det_ok && identical;
    fps.emplace_back(threads, fp);
    std::printf("backend_crossover threads=%u fingerprint=%016" PRIx64
                " identical: %s\n",
                threads, fp, identical ? "yes" : "NO -- BUG");
  }
  if (!det_ok) return 1;

  std::printf("end-to-end: rtmp=%.3fs llhls=%.3fs hls=%.3fs\n",
              r.rtmp.total_s(), r.llhls.total_s(), r.hls.total_s());
  const bool delay_ok = r.rtmp.total_s() < r.llhls.total_s() &&
                        r.llhls.total_s() < r.hls.total_s();
  std::printf("backend_crossover delay ordering rtmp < llhls < hls: %s\n",
              delay_ok ? "yes" : "NO -- BUG");

  // Legacy parity: the two-lane experiment behind the pluggable
  // interface must still hash to its pin.
  const auto legacy = analysis::delay_breakdown_experiment(4, 42);
  const auto legacy_fp = analysis::legacy_breakdown_fingerprint(legacy);
  const bool parity_ok = legacy_fp == analysis::kLegacyBreakdownFingerprint;
  std::printf("backend_crossover legacy fingerprint=%016" PRIx64
              " pin=%016" PRIx64 " legacy parity: %s\n",
              legacy_fp, analysis::kLegacyBreakdownFingerprint,
              parity_ok ? "yes" : "NO -- BUG");

  // --- Part 2: the Figure-14 cost sweep through the backend hooks -------
  stats::print_banner("Server-cost crossover sweep (Figure 14)");
  const cdn::ResourceModel model;
  const cdn::DeliveryCadence cadence;
  const std::vector<std::uint32_t> counts = {0,  1,  2,   5,   10,  20,
                                             50, 100, 200, 500, 1000, 2000};
  const auto sweep = analysis::backend_cost_sweep(model, cadence, counts);
  std::uint32_t rtmp_vs_llhls = 0, rtmp_vs_hls = 0;
  bool between_ok = true;
  for (const auto& p : sweep) {
    std::printf("  viewers=%5u  rtmp=%8.2f%%  llhls=%7.2f%%  hls=%7.2f%%\n",
                p.viewers, p.rtmp_cpu_percent, p.llhls_cpu_percent,
                p.hls_cpu_percent);
    if (rtmp_vs_llhls == 0 && p.viewers > 0 &&
        p.rtmp_cpu_percent > p.llhls_cpu_percent)
      rtmp_vs_llhls = p.viewers;
    if (rtmp_vs_hls == 0 && p.viewers > 0 &&
        p.rtmp_cpu_percent > p.hls_cpu_percent)
      rtmp_vs_hls = p.viewers;
    // Once viewers amortise the part pipeline, LL-HLS must sit strictly
    // between the classic tiers.
    if (p.viewers >= 2 && !(p.hls_cpu_percent < p.llhls_cpu_percent &&
                            p.llhls_cpu_percent < p.rtmp_cpu_percent))
      between_ok = false;
  }
  std::printf("backend_crossover llhls between hls and rtmp (viewers >= 2): "
              "%s\n",
              between_ok ? "yes" : "NO -- BUG");
  // The zero-viewer point shows the part pipeline's fixed cost: slicing
  // partials is work even before the first blocking reload arrives.
  const bool fixed_ok = !sweep.empty() && sweep.front().viewers == 0 &&
                        sweep.front().llhls_cpu_percent >
                            sweep.front().hls_cpu_percent;
  std::printf("backend_crossover part-slicing fixed cost visible at zero "
              "viewers: %s\n",
              fixed_ok ? "yes" : "NO -- BUG");
  const bool cross_ok = rtmp_vs_llhls > 0 && rtmp_vs_hls > 0 &&
                        rtmp_vs_hls <= rtmp_vs_llhls;
  std::printf("backend_crossover crossover: rtmp overtakes hls at %u viewers, "
              "llhls at %u (hls first: %s)\n",
              rtmp_vs_hls, rtmp_vs_llhls, cross_ok ? "yes" : "NO -- BUG");

  write_json(out, static_cast<int>(reps), r, fps, det_ok, parity_ok, sweep,
             rtmp_vs_llhls, rtmp_vs_hls, wall_ms_per_rep);
  std::printf("wrote %s\n", out);

  if (!delay_ok || !parity_ok || !between_ok || !fixed_ok || !cross_ok)
    return 1;
  std::printf("\nall checks passed\n");
  return 0;
}
