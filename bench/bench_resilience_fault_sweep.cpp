// Resilience under injected faults: what the paper's viewers would see
// when the Wowza->Fastly pipeline breaks.
//
// Part 1 sweeps the randomized fault rate across the §4.3 crawled traces
// (analysis/resilience.h): stall ratio, rebuffer events, RTMP->HLS
// failover latency, and the unrecoverable-viewer fraction all grow with
// the fault rate, while the zero-rate row degenerates to the sunny-day
// baseline (no failovers, no retries — printed, and the bench exits 1
// if it does not hold).
//
// Part 2 certifies the determinism contract: the same seed produces a
// bit-identical ResilienceStats at threads {1, 2, 8}.
//
// Part 3 is an event-level demo: a scripted ingest crash mid-broadcast
// inside a full BroadcastSession. The RTMP viewers' dead connections are
// detected and every one of them is migrated onto the HLS path through
// the W2F edge machinery instead of being dropped.
//
// Usage: bench_resilience_fault_sweep [broadcasts]   (default 800)
#include <cstdio>
#include <cstdlib>

#include "livesim/analysis/resilience.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/stats/report.h"
#include "livesim/util/fingerprint.h"

namespace {
using namespace livesim;

// Position-sensitive FNV-style fingerprint of a full ResilienceStats:
// every sample (bit pattern, in insertion order) and every counter is
// mixed in, so any reordering or single-ULP drift across thread counts
// shows up.
std::uint64_t fingerprint(const analysis::ResilienceStats& r) {
  return util::Fingerprint()
      .mix_doubles(r.stall_ratio.samples())
      .mix_doubles(r.rebuffer_count.samples())
      .mix_doubles(r.failover_latency_s.samples())
      .mix(r.counters.viewers)
      .mix(r.counters.faults_injected)
      .mix(r.counters.ingest_crashes)
      .mix(r.counters.failovers)
      .mix(r.counters.unrecoverable)
      .mix(r.counters.chunk_refetches)
      .value();
}

analysis::ResilienceConfig config_for_rate(double faults_per_minute) {
  analysis::ResilienceConfig cfg;
  cfg.faults.faults_per_minute = faults_per_minute;
  cfg.seed = 42;
  cfg.threads = 0;  // all hardware threads; results identical regardless
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace livesim;
  int broadcasts = 800;
  if (argc > 1) broadcasts = std::atoi(argv[1]);
  if (broadcasts <= 0) broadcasts = 800;

  analysis::TraceSetConfig trace_cfg;
  trace_cfg.broadcasts = broadcasts;
  trace_cfg.broadcast_len = 2 * time::kMinute;
  trace_cfg.threads = 0;
  const auto traces = analysis::generate_traces(trace_cfg);

  // --- Part 1: fault-rate sweep ---------------------------------------
  stats::print_banner("Resilience vs fault rate (randomized fault scripts)");
  const double rates[] = {0.0, 0.5, 1.0, 2.0, 4.0};
  stats::Table sweep({"Faults/min", "Stall p50", "Stall p90", "Rebuf mean",
                      "Failover p50 (s)", "Unrecov %", "Refetches"});
  for (double rate : rates) {
    const auto r =
        analysis::resilience_experiment(traces, config_for_rate(rate));
    const double unrecov_pct =
        r.counters.viewers
            ? 100.0 * static_cast<double>(r.counters.unrecoverable) /
                  static_cast<double>(r.counters.viewers)
            : 0.0;
    sweep.add_row(
        {stats::Table::num(rate, 1), stats::Table::num(r.stall_ratio.median(), 4),
         stats::Table::num(r.stall_ratio.quantile(0.90), 4),
         stats::Table::num(r.rebuffer_count.mean(), 2),
         r.failover_latency_s.empty()
             ? "-"
             : stats::Table::num(r.failover_latency_s.median(), 2),
         stats::Table::num(unrecov_pct, 2),
         stats::Table::integer(
             static_cast<std::int64_t>(r.counters.chunk_refetches))});
    if (rate == 0.0) {
      // The no-fault contract: a zero fault rate must be
      // indistinguishable from no fault subsystem.
      std::printf("no-fault baseline: faults=%llu failovers=%llu "
                  "unrecoverable=%llu refetches=%llu rebuffer_mean=%.3f\n",
                  static_cast<unsigned long long>(r.counters.faults_injected),
                  static_cast<unsigned long long>(r.counters.failovers),
                  static_cast<unsigned long long>(r.counters.unrecoverable),
                  static_cast<unsigned long long>(r.counters.chunk_refetches),
                  r.rebuffer_count.mean());
      if (r.counters.faults_injected != 0 || r.counters.failovers != 0 ||
          r.counters.unrecoverable != 0 || r.counters.chunk_refetches != 0) {
        std::printf("no-fault baseline VIOLATED\n");
        return 1;
      }
    }
  }
  sweep.print();
  std::printf("\nShape: stall, rebuffers, and the unrecoverable fraction "
              "all rise with the fault rate; failover latency stays near "
              "detect-timeout + first-chunk availability.\n");

  // --- Part 2: thread-count determinism -------------------------------
  stats::print_banner("Determinism: same seed, threads {1, 2, 8}");
  auto det_cfg = config_for_rate(2.0);
  std::uint64_t ref = 0;
  bool all_identical = true;
  for (unsigned threads : {1u, 2u, 8u}) {
    det_cfg.threads = threads;
    const auto r = analysis::resilience_experiment(traces, det_cfg);
    const std::uint64_t fp = fingerprint(r);
    if (threads == 1) ref = fp;
    const bool identical = fp == ref;
    all_identical = all_identical && identical;
    std::printf("threads=%u fingerprint=%016llx identical: %s\n", threads,
                static_cast<unsigned long long>(fp),
                identical ? "yes" : "NO -- BUG");
  }
  if (!all_identical) return 1;

  // --- Part 3: ingest crash inside a full session ---------------------
  stats::print_banner(
      "Session demo: ingest crash at t=20s, RTMP viewers fail over via W2F");
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig scfg;
  scfg.broadcast_len = 60 * time::kSecond;
  scfg.rtmp_viewers = 4;
  scfg.hls_viewers = 2;
  scfg.seed = 7;
  scfg.faults.add({20 * time::kSecond, fault::FaultKind::kIngestCrash,
                   10 * time::kSecond});
  core::BroadcastSession session(sim, catalog, scfg);
  session.start();
  sim.run();
  session.finalize();

  std::printf("faults injected:   %llu\n",
              static_cast<unsigned long long>(session.faults_injected()));
  std::printf("rtmp failovers:    %llu of %u RTMP viewers\n",
              static_cast<unsigned long long>(session.rtmp_failovers()),
              scfg.rtmp_viewers);
  if (session.failover_latency_s().count() > 0)
    std::printf("failover latency:  %.2fs mean (crash -> first HLS chunk)\n",
                session.failover_latency_s().mean());
  std::size_t migrated_playing = 0;
  for (const auto& v : session.viewer_results())
    if (v.tier != cdn::DeliveryTier::kRtmp) ++migrated_playing;
  std::printf("viewers on HLS at the end: %zu (started with %u)\n",
              migrated_playing, scfg.hls_viewers);
  if (session.rtmp_failovers() != scfg.rtmp_viewers) {
    std::printf("FAILOVER INCOMPLETE -- expected every RTMP viewer to "
                "migrate\n");
    return 1;
  }
  std::printf("\nall checks passed\n");
  return 0;
}
