// Flash-crowd service integration: the crowd generator driven through
// LivestreamService end to end, at bench scale, with a mid-storm
// regional blackout.
//
// Part 1 runs analysis::flash_crowd_experiment at >= 100k viewers with
// the control plane ON at threads {1, 2, 8} and certifies:
//  * the thread-determinism contract (byte-identical fingerprints);
//  * the admission-latency contract (batched admission never slips a
//    viewer more than one batch window past its requested join);
//  * that the blackout really collided with the storm (edge failovers)
//    and that the control plane moved part of the herd proactively;
//  * the wheel re-attachment ledger (one sample per refugee).
//
// Part 2 re-runs the identical storm with the control plane OFF: the
// reactive baseline. The proactive run's mean edge-failover latency
// must not exceed the reactive one (scrape + steer latency, 0.6 s,
// beats the 2 s client detect window), and the reactive run must show
// zero proactive migrations and zero steered joins by construction.
//
// Part 3 is the SCALING bench: the adversarial giant-channel preset
// (one channel owns >= 90% of the crowd, the case that serializes
// shard-by-channel parallelism) runs across a (threads x sub_shards)
// grid and certifies the intra-channel sharding contracts:
//  * threads {1, 2, 8} at sub_shards = 8: byte-identical fingerprints;
//  * sub_shards {1, 2, 7, 8}: byte-identical crowd_fingerprint (the
//    partition-invariant per-viewer core);
//  * the weighted plan's structural speedup: >= 3x at 8 workers on the
//    giant preset (vs ~1x at sub_shards = 1) — hardware-independent;
//  * shard imbalance (max/mean worker wall) improves from ~workers at
//    sub_shards = 1 to ~1 at sub_shards = 8;
//  * measured threads {1 -> 8} wall speedup, gated on the host actually
//    having >= 8 hardware threads (printed either way).
// The viewers axis is {100k, 1M}; the 1M rung only runs when
// LIVESIM_BENCH_SCALE=1 is set, so default CI wall-clock holds.
//
// Results land in BENCH_crowd.json next to BENCH_engine.json and
// BENCH_control.json; scripts/check_crowd.sh greps the contract lines.
//
// Usage: bench_crowd_service [out.json] [viewers]  (default 100000)
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "livesim/analysis/flash_crowd.h"
#include "livesim/geo/datacenters.h"
#include "livesim/stats/report.h"
#include "livesim/workload/crowd.h"

namespace {
using namespace livesim;

analysis::FlashCrowdConfig bench_config(std::uint32_t viewers,
                                        unsigned threads, bool control) {
  analysis::FlashCrowdConfig cfg;
  cfg.preset = workload::CrowdPreset::twitch_flash_crowd();
  cfg.preset.name = "twitch_flash_crowd_bench";
  cfg.preset.channels = 24;
  cfg.preset.viewers = viewers;
  cfg.preset.horizon = 2 * time::kMinute;  // storm compressed, not thinned
  cfg.preset.mean_session_s = 30.0;
  cfg.preset.spike_at_frac = 0.5;
  cfg.preset.spike_amplitude = 8.0;
  cfg.preset.spike_ramp_s = 20.0;

  cfg.batch_window = 500 * time::kMillisecond;
  cfg.rtmp_slot_cap = 0;  // the whole storm rides the HLS poll wheels

  // Finite edges + spill rings so the blackout's herd can pile up, and
  // the overlay assist armed so capacity orphans ride the mesh. The
  // rings must be wide enough to escape a 1200 km dark region: a herd
  // stuck inside it would orphan instead of spilling.
  cfg.session.edge_capacity = 4000;
  cfg.session.failover_spill_k = 16;
  cfg.session.control.enabled = control;
  cfg.session.control.overlay_assist = control;

  // Blackout pinned mid-ramp explicitly (spike at 60 s, ramp 20 s).
  cfg.blackout = true;
  cfg.blackout_at = 70 * time::kSecond;
  cfg.blackout_duration = 20 * time::kSecond;

  cfg.threads = threads;
  return cfg;
}

// The adversarial scaling case: one channel owns >= 90% of the crowd.
// Capacity off and control off — the regime where the per-viewer crowd
// core is invariant across sub-shard counts — and the blackout pinned
// OFF the 0.5 s batch-window grid (70.25 s; detect sweep 72.25 s,
// revive 90.25 s) so no quantized join/leave ever ties with an
// injection instant (same-instant ordering is partition-dependent).
analysis::FlashCrowdConfig giant_config(std::uint32_t viewers,
                                        unsigned threads,
                                        std::uint32_t sub_shards) {
  analysis::FlashCrowdConfig cfg;
  cfg.preset = workload::CrowdPreset::twitch_giant_channel();
  cfg.preset.name = "twitch_giant_channel_bench";
  cfg.preset.viewers = viewers;
  cfg.preset.horizon = 2 * time::kMinute;
  cfg.preset.mean_session_s = 30.0;

  cfg.batch_window = 500 * time::kMillisecond;
  cfg.rtmp_slot_cap = 0;
  cfg.session.edge_capacity = 0;  // load-blind: no cross-viewer coupling
  cfg.session.control.enabled = false;

  cfg.blackout = true;
  cfg.blackout_at = 70 * time::kSecond + 250 * time::kMillisecond;
  cfg.blackout_duration = 20 * time::kSecond;

  cfg.threads = threads;
  cfg.sub_shards = sub_shards;
  return cfg;
}

long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // kilobytes on Linux
}

struct ScalingRun {
  std::uint64_t viewers = 0;
  unsigned threads = 0;
  std::uint32_t sub_shards = 0;
  std::uint64_t joins = 0;
  double wall_ns = 0.0;
  double wall_ns_per_join = 0.0;
  long rss_kb = 0;
  double planned_speedup = 0.0;
  double shard_imbalance = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint64_t crowd_fingerprint = 0;
};

ScalingRun run_scaling(const geo::DatacenterCatalog& catalog,
                       std::uint32_t viewers, unsigned threads,
                       std::uint32_t sub_shards) {
  const auto cfg = giant_config(viewers, threads, sub_shards);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = analysis::flash_crowd_experiment(catalog, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  ScalingRun out;
  out.viewers = r.viewers;
  out.threads = threads;
  out.sub_shards = sub_shards;
  out.joins = r.joins;
  out.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  out.wall_ns_per_join = out.wall_ns / static_cast<double>(r.joins ? r.joins : 1);
  out.rss_kb = peak_rss_kb();
  out.planned_speedup = r.planned_speedup;
  out.shard_imbalance = r.shard_imbalance;
  out.fingerprint = r.fingerprint;
  out.crowd_fingerprint = r.crowd_fingerprint;
  std::printf("crowd_scaling run viewers=%" PRIu64 " threads=%u sub_shards=%u"
              " joins=%" PRIu64 " wall_ns_per_join=%.0f rss_kb=%ld"
              " planned=%.2fx imbalance=%.2f\n",
              out.viewers, threads, sub_shards, out.joins,
              out.wall_ns_per_join, out.rss_kb, out.planned_speedup,
              out.shard_imbalance);
  return out;
}

void write_json(const char* path, const analysis::FlashCrowdConfig& cfg,
                const analysis::FlashCrowdStats& on,
                const analysis::FlashCrowdStats& off,
                const std::vector<std::pair<unsigned, std::uint64_t>>& fps,
                bool det_ok, double wall_ns_per_join,
                const std::vector<ScalingRun>& scaling) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"crowd_service\",\n");
  std::fprintf(f, "  \"schema_version\": 2,\n");
  std::fprintf(f, "  \"preset\": \"%s\",\n", cfg.preset.name.c_str());
  std::fprintf(f, "  \"viewers\": %" PRIu64 ",\n", on.viewers);
  std::fprintf(f, "  \"channels\": %u,\n", cfg.preset.channels);
  std::fprintf(f, "  \"horizon_s\": %.0f,\n",
               time::to_seconds(cfg.preset.horizon));
  std::fprintf(f, "  \"batch_window_us\": %lld,\n",
               static_cast<long long>(cfg.batch_window));
  std::fprintf(f,
               "  \"blackout\": {\"center\": [%.2f, %.2f], \"radius_km\": "
               "%.0f, \"at_s\": %.0f, \"duration_s\": %.0f},\n",
               cfg.blackout_center.lat_deg, cfg.blackout_center.lon_deg,
               cfg.blackout_radius_km, time::to_seconds(cfg.blackout_at),
               time::to_seconds(cfg.blackout_duration));
  std::fprintf(f, "  \"determinism\": {\"threads\": [");
  for (std::size_t i = 0; i < fps.size(); ++i)
    std::fprintf(f, "%u%s", fps[i].first, i + 1 < fps.size() ? ", " : "");
  std::fprintf(f, "], \"fingerprints\": [");
  for (std::size_t i = 0; i < fps.size(); ++i)
    std::fprintf(f, "\"%016" PRIx64 "\"%s", fps[i].second,
                 i + 1 < fps.size() ? ", " : "");
  std::fprintf(f, "], \"identical\": %s},\n", det_ok ? "true" : "false");
  std::fprintf(f,
               "  \"joins\": %" PRIu64 ", \"late_joins\": %" PRIu64
               ", \"leaves\": %" PRIu64 ", \"batches\": %" PRIu64 ",\n",
               on.joins, on.late_joins, on.leaves, on.batches);
  std::fprintf(f,
               "  \"admission_latency_us\": {\"mean\": %.1f, \"max\": %.1f},\n",
               on.admission_latency_s.mean() * 1e6,
               on.admission_latency_s.max() * 1e6);
  std::fprintf(f,
               "  \"steered_joins\": %" PRIu64 ", \"edge_failovers\": %" PRIu64
               ",\n",
               on.steered_joins, on.edge_failovers);
  std::fprintf(
      f, "  \"edge_failover_latency_s\": {\"mean\": %.3f, \"max\": %.3f},\n",
      on.edge_failover_latency_s.mean(), on.edge_failover_latency_s.max());
  std::fprintf(f,
               "  \"reattach_latency_s\": {\"count\": %" PRIu64
               ", \"mean\": %.3f, \"max\": %.3f},\n",
               on.reattach_latency_s.count(), on.reattach_latency_s.mean(),
               on.reattach_latency_s.max());
  std::fprintf(f,
               "  \"proactive_migrations\": %" PRIu64
               ", \"orphaned_viewers\": %" PRIu64 ", \"edge_spills\": %" PRIu64
               ", \"overlay_assists\": %" PRIu64 ", \"control_drains\": %" PRIu64
               ",\n",
               on.proactive_migrations, on.orphaned_viewers, on.edge_spills,
               on.overlay_assists, on.control_drains);
  std::fprintf(f,
               "  \"peak_edge_load\": %" PRIu64
               ", \"events_processed\": %" PRIu64 ",\n",
               on.peak_edge_load, on.events_processed);
  std::fprintf(f,
               "  \"reactive\": {\"edge_failovers\": %" PRIu64
               ", \"edge_failover_latency_mean_s\": %.3f, "
               "\"proactive_migrations\": %" PRIu64
               ", \"orphaned_viewers\": %" PRIu64 "},\n",
               off.edge_failovers, off.edge_failover_latency_s.mean(),
               off.proactive_migrations, off.orphaned_viewers);
  std::fprintf(f, "  \"wall_ns_per_join\": %.0f,\n", wall_ns_per_join);
  std::fprintf(f, "  \"scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalingRun& s = scaling[i];
    std::fprintf(f,
                 "    {\"viewers\": %" PRIu64 ", \"threads\": %u, "
                 "\"sub_shards\": %u, \"joins\": %" PRIu64
                 ", \"wall_ns_per_join\": %.0f, \"peak_rss_kb\": %ld, "
                 "\"planned_speedup\": %.3f, \"shard_imbalance\": %.3f, "
                 "\"fingerprint\": \"%016" PRIx64
                 "\", \"crowd_fingerprint\": \"%016" PRIx64 "\"}%s\n",
                 s.viewers, s.threads, s.sub_shards, s.joins,
                 s.wall_ns_per_join, s.rss_kb, s.planned_speedup,
                 s.shard_imbalance, s.fingerprint, s.crowd_fingerprint,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace livesim;
  const char* out = argc > 1 ? argv[1] : "BENCH_crowd.json";
  long viewers = argc > 2 ? std::atol(argv[2]) : 100000;
  if (viewers <= 0) viewers = 100000;

  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  // --- Part 1: the storm, control ON, threads {1, 2, 8} ----------------
  stats::print_banner(
      "Flash crowd through LivestreamService: control on, threads {1, 2, 8}");
  analysis::FlashCrowdStats on;
  std::vector<std::pair<unsigned, std::uint64_t>> fps;
  std::uint64_t ref = 0;
  bool det_ok = true;
  double wall_ns_per_join = 0.0;
  for (unsigned threads : {1u, 2u, 8u}) {
    const auto cfg =
        bench_config(static_cast<std::uint32_t>(viewers), threads, true);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = analysis::flash_crowd_experiment(catalog, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    if (threads == 1) {
      ref = r.fingerprint;
      on = r;
      wall_ns_per_join =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()) /
          static_cast<double>(r.joins ? r.joins : 1);
    }
    const bool identical = r.fingerprint == ref;
    det_ok = det_ok && identical;
    fps.emplace_back(threads, r.fingerprint);
    std::printf("crowd_service threads=%u fingerprint=%016" PRIx64
                " identical: %s\n",
                threads, r.fingerprint, identical ? "yes" : "NO -- BUG");
  }
  if (!det_ok) return 1;

  std::printf("crowd_service viewers=%" PRIu64 " (>=100000: %s)\n", on.viewers,
              on.viewers >= 100000 ? "yes" : "NO -- BUG");
  const bool scale_ok = on.viewers >= 100000;

  stats::print_banner("Storm outcome (control on, threads=1)");
  std::printf("joins: %" PRIu64 "  late: %" PRIu64 "  leaves: %" PRIu64
              "  batches: %" PRIu64 "  engine events: %" PRIu64 "\n",
              on.joins, on.late_joins, on.leaves, on.batches,
              on.events_processed);
  std::printf("steered joins: %" PRIu64 "  edge failovers: %" PRIu64
              "  proactive: %" PRIu64 "  spills: %" PRIu64
              "  overlay assists: %" PRIu64 "  orphans: %" PRIu64
              "  peak edge load: %" PRIu64 "\n",
              on.steered_joins, on.edge_failovers, on.proactive_migrations,
              on.edge_spills, on.overlay_assists, on.orphaned_viewers,
              on.peak_edge_load);
  std::printf("wall ns/join (threads=1): %.0f\n", wall_ns_per_join);

  // The admission-latency contract: batching never slips a viewer more
  // than one window past its requested join instant.
  const auto cfg1 = bench_config(static_cast<std::uint32_t>(viewers), 1, true);
  const double max_us = on.admission_latency_s.max() * 1e6;
  const double window_us = static_cast<double>(cfg1.batch_window);
  const bool adm_ok = on.joins > 0 && max_us < window_us &&
                      on.admission_latency_s.count() == on.joins;
  std::printf("crowd_service admission max_us=%.1f window_us=%.0f "
              "(max < window: %s)\n",
              max_us, window_us, adm_ok ? "yes" : "NO -- BUG");

  const bool storm_ok = on.edge_failovers > 0 && on.proactive_migrations > 0;
  std::printf("crowd_service proactive_migrations=%" PRIu64
              " edge_failovers=%" PRIu64 " (storm hit the blackout: %s)\n",
              on.proactive_migrations, on.edge_failovers,
              storm_ok ? "yes" : "NO -- BUG");

  // Published verdicts steered organic joins around the dark region for
  // as long as the overrides stayed on the map.
  const bool steer_ok = on.steered_joins > 0;
  std::printf("crowd_service steered_joins=%" PRIu64 " (>0: %s)\n",
              on.steered_joins, steer_ok ? "yes" : "NO -- BUG");

  // Wheel re-attachment ledger: one sample per admitted refugee (mesh
  // rescues and orphans never re-attach), each below one poll interval
  // plus a slot (the quantize-to-next-slot bound).
  const bool reattach_ok = on.reattach_latency_s.count() == on.edge_failovers &&
                           on.reattach_latency_s.max() < 3.0;
  std::printf("crowd_service reattach count=%" PRIu64 " mean_s=%.3f max_s=%.3f"
              " (count==edge_failovers, max < 3s: %s)\n",
              on.reattach_latency_s.count(), on.reattach_latency_s.mean(),
              on.reattach_latency_s.max(), reattach_ok ? "yes" : "NO -- BUG");

  // --- Part 2: the identical storm, control OFF: reactive baseline -----
  stats::print_banner("Reactive baseline: identical storm, control off");
  const auto off = analysis::flash_crowd_experiment(
      catalog, bench_config(static_cast<std::uint32_t>(viewers), 1, false));
  std::printf("reactive edge failovers: %" PRIu64
              "  mean failover latency: %.3f s  orphans: %" PRIu64 "\n",
              off.edge_failovers, off.edge_failover_latency_s.mean(),
              off.orphaned_viewers);
  const bool baseline_clean =
      off.proactive_migrations == 0 && off.steered_joins == 0 &&
      off.control_drains == 0 && off.overlay_assists == 0;
  const bool proactive_wins =
      off.edge_failover_latency_s.count() == 0 ||
      on.edge_failover_latency_s.mean() <= off.edge_failover_latency_s.mean();
  std::printf("crowd_service failover mean: proactive=%.3fs reactive=%.3fs "
              "(proactive <= reactive: %s)\n",
              on.edge_failover_latency_s.mean(),
              off.edge_failover_latency_s.mean(),
              proactive_wins ? "yes" : "NO -- BUG");
  std::printf("crowd_service control-off ledgers zero: %s\n",
              baseline_clean ? "yes" : "NO -- BUG");

  // --- Part 3: the giant-channel scaling bench --------------------------
  stats::print_banner(
      "Scaling: giant-channel preset, threads x sub_shards grid");

  // The preset really is adversarial: one channel owns >= 90%.
  const auto g0 = giant_config(static_cast<std::uint32_t>(viewers), 1, 8);
  const auto giant_records =
      workload::generate_crowd(g0.preset, g0.crowd_seed, 1);
  const auto shape = workload::crowd_shape(giant_records, g0.preset.horizon);
  const bool share_ok = shape.top_channel_share >= 0.90;
  std::printf("crowd_scaling viewers=%zu top_channel_share=%.3f "
              "(>=0.90: %s)\n",
              giant_records.size(), shape.top_channel_share,
              share_ok ? "yes" : "NO -- BUG");

  std::vector<ScalingRun> scaling;
  const std::uint32_t v100k = static_cast<std::uint32_t>(viewers);
  const ScalingRun a = run_scaling(catalog, v100k, 1, 8);   // baseline wall
  const ScalingRun b = run_scaling(catalog, v100k, 2, 8);
  const ScalingRun c = run_scaling(catalog, v100k, 8, 8);   // the contract run
  const ScalingRun d = run_scaling(catalog, v100k, 8, 1);   // serialized "before"
  const ScalingRun e = run_scaling(catalog, v100k, 8, 2);
  const ScalingRun g = run_scaling(catalog, v100k, 8, 7);
  scaling = {a, b, c, d, e, g};

  // Thread determinism at fixed sub_shards: the full fingerprint.
  const bool sfp_ok = a.fingerprint == b.fingerprint &&
                      a.fingerprint == c.fingerprint;
  std::printf("crowd_scaling threads={1,2,8} sub_shards=8 "
              "fingerprint=%016" PRIx64 " identical: %s\n",
              a.fingerprint, sfp_ok ? "yes" : "NO -- BUG");

  // Sub-shard invariance of the per-viewer crowd core.
  const bool cfp_ok = d.crowd_fingerprint == e.crowd_fingerprint &&
                      d.crowd_fingerprint == g.crowd_fingerprint &&
                      d.crowd_fingerprint == c.crowd_fingerprint;
  std::printf("crowd_scaling sub_shards={1,2,7,8} "
              "crowd_fingerprint=%016" PRIx64 " identical: %s\n",
              d.crowd_fingerprint, cfp_ok ? "yes" : "NO -- BUG");

  // The structural speedup contract (hardware-independent): the LPT
  // plan's bound at 8 workers, before and after intra-channel sharding.
  std::printf("crowd_scaling plan sub_shards=1 workers=8 "
              "planned_speedup=%.2fx\n",
              d.planned_speedup);
  const bool plan_ok = c.planned_speedup >= 3.0;
  std::printf("crowd_scaling plan sub_shards=8 workers=8 "
              "planned_speedup=%.2fx (>=3: %s)\n",
              c.planned_speedup, plan_ok ? "yes" : "NO -- BUG");

  // The serialization the sub-shard axis removes, as measured wall.
  const bool imb_ok = c.shard_imbalance < d.shard_imbalance;
  std::printf("crowd_scaling imbalance sub_shards=1 max/mean=%.2f -> "
              "sub_shards=8 max/mean=%.2f (improved: %s)\n",
              d.shard_imbalance, c.shard_imbalance,
              imb_ok ? "yes" : "NO -- BUG");

  // Measured wall speedup: only a contract where 8 hardware threads
  // exist; elsewhere (CI containers pinned to 1-2 cores) informational.
  const double measured =
      c.wall_ns > 0.0 ? a.wall_ns / c.wall_ns : 0.0;
  const bool have_cores = std::thread::hardware_concurrency() >= 8;
  const bool measured_ok = !have_cores || measured >= 3.0;
  std::printf("crowd_scaling measured threads=8 speedup=%.2fx "
              "(hw_threads=%u%s)\n",
              measured, std::thread::hardware_concurrency(),
              have_cores ? (measured_ok ? ", >=3: yes" : ", >=3: NO -- BUG")
                         : ", informational");

  // The 1M rung: opt-in, so default bench/CI wall-clock holds.
  const char* scale_env = std::getenv("LIVESIM_BENCH_SCALE");
  if (scale_env != nullptr && std::strcmp(scale_env, "1") == 0) {
    stats::print_banner("Scaling: 1M viewers (LIVESIM_BENCH_SCALE=1)");
    scaling.push_back(run_scaling(catalog, 1000000, 1, 8));
    scaling.push_back(run_scaling(catalog, 1000000, 8, 8));
  } else {
    std::printf("crowd_scaling 1M rung skipped (set LIVESIM_BENCH_SCALE=1)\n");
  }

  write_json(out, cfg1, on, off, fps, det_ok, wall_ns_per_join, scaling);
  std::printf("wrote %s\n", out);

  if (!scale_ok || !adm_ok || !storm_ok || !steer_ok || !reattach_ok ||
      !baseline_clean || !proactive_wins || !share_ok || !sfp_ok || !cfp_ok ||
      !plan_ok || !imb_ok || !measured_ok)
    return 1;
  std::printf("\nall checks passed\n");
  return 0;
}
