// Control plane: proactive drain detection vs reactive spill.
//
// control_steering_experiment and capacity_spill_experiment call one
// four-phase driver over one per-viewer draw and poll walk; steering
// only clamps each affected viewer's decision instant before the serial
// admission pass.
//
// Part 1 certifies the OFF-parity contract: with the control plane
// disabled there is no clamp, and the steering experiment must
// reproduce capacity_spill_experiment bit for bit (same samples, same
// order, same spill ledgers) — and at edge_capacity == 0 that
// experiment in turn reproduces the single-pass regional experiment.
// The bench exits 1 on any mismatch, as on every contract below.
//
// Part 2 sweeps the same capacity x outage-radius blackout grid as
// bench_resilience_capacity_spill with the scrape/steer model ON, and
// pins the dominance contract: the proactive detection-time
// distribution is pointwise <= the reactive one (the client timeout is
// the fallback, so steering can only ever help) and strictly better in
// aggregate whenever any viewer is affected.
//
// Part 3 certifies determinism: threads {1, 2, 8} fingerprint
// identically with steering enabled (the steer clamp is serial
// arithmetic ahead of the admission pass; no RNG is touched).
//
// Part 4 is an event-level session demo on the engine: the monitor
// scrapes a dying PoP, publishes the death after kSteerLatency, and the
// attached viewers are migrated proactively — before their own poll
// timeout + detect window would have noticed — then a second run with
// tight capacity shows the overlay assist parking capacity orphans on
// the P2P mesh.
//
// Results land in BENCH_control.json (grid + fingerprints), which CI
// diffs against the committed copy.
//
// Usage: bench_control_steering [out.json] [broadcasts]  (default 300)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "livesim/analysis/control_steering.h"
#include "livesim/analysis/resilience.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/fault/scenario.h"
#include "livesim/stats/report.h"
#include "livesim/util/fingerprint.h"

namespace {
using namespace livesim;

// Every sample (bit pattern, insertion order) plus the spill ledgers —
// identical mixing to bench_resilience_capacity_spill, so equal
// fingerprints <=> bit-parity of the underlying data.
std::uint64_t fingerprint_spill(const analysis::CapacitySpillStats& r) {
  util::Fingerprint m;
  m.mix_doubles(r.stall_ratio.samples());
  m.mix_doubles(r.failover_latency_s.samples());
  m.mix(r.counters.viewers);
  m.mix(r.counters.affected);
  m.mix(r.counters.failovers);
  m.mix(r.counters.orphaned);
  m.mix(static_cast<std::uint64_t>(r.dark_edges));
  m.mix(r.edge_spills);
  m.mix(r.capacity_orphans);
  m.mix(r.spill_overshoot_km.count());
  m.mix_double(r.spill_overshoot_km.sum());
  for (const auto& [site, peak] : r.edge_peak_loads) {
    m.mix(site);
    m.mix(peak);
  }
  return m.value();
}

// The steering experiment's full surface: the spill outcome plus both
// detection-time distributions and the steering ledger.
std::uint64_t fingerprint_steering(const analysis::ControlSteeringStats& r) {
  util::Fingerprint m;
  m.mix(fingerprint_spill(r.spill));
  m.mix_doubles(r.reactive_detect_s.samples());
  m.mix_doubles(r.proactive_detect_s.samples());
  m.mix(static_cast<std::uint64_t>(r.steer_published_at));
  m.mix(r.steered_early);
  m.mix(r.proactive ? 1 : 0);
  return m.value();
}

analysis::ControlSteeringConfig config_for(double radius_km,
                                           std::uint64_t capacity,
                                           bool enabled) {
  analysis::ControlSteeringConfig cfg;
  cfg.spill.base.radius_km = radius_km;
  cfg.spill.base.seed = 42;
  cfg.spill.base.threads = 0;
  cfg.spill.edge_capacity = capacity;
  cfg.control.enabled = enabled;
  return cfg;
}

struct GridCell {
  std::uint64_t capacity = 0;
  double radius_km = 0.0;
  std::size_t dark_edges = 0;
  std::uint64_t affected = 0;
  double reactive_p50 = 0.0, reactive_p95 = 0.0;
  double proactive_p50 = 0.0, proactive_p95 = 0.0;
  std::uint64_t steered_early = 0;
  bool dominates = false;
};

void write_json(const char* path, int broadcasts, std::uint64_t off_fp,
                bool off_ok, const std::vector<GridCell>& grid,
                const std::vector<std::pair<unsigned, std::uint64_t>>& fps,
                bool det_ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"control_steering\",\n");
  std::fprintf(f, "  \"broadcasts\": %d,\n", broadcasts);
  std::fprintf(f, "  \"scrape_interval_ms\": %lld,\n",
               static_cast<long long>(control::kScrapeInterval /
                                      time::kMillisecond));
  std::fprintf(f, "  \"steer_latency_ms\": %lld,\n",
               static_cast<long long>(control::kSteerLatency /
                                      time::kMillisecond));
  std::fprintf(f, "  \"off_parity\": {\"fingerprint\": \"%016" PRIx64
               "\", \"identical\": %s},\n",
               off_fp, off_ok ? "true" : "false");
  std::fprintf(f, "  \"grid\": [\n");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const GridCell& c = grid[i];
    std::fprintf(
        f,
        "    {\"capacity\": %" PRIu64 ", \"radius_km\": %.0f, "
        "\"dark_edges\": %zu, \"affected\": %" PRIu64
        ", \"reactive_p50_s\": %.3f, \"reactive_p95_s\": %.3f, "
        "\"proactive_p50_s\": %.3f, \"proactive_p95_s\": %.3f, "
        "\"steered_early\": %" PRIu64 ", \"dominates\": %s}%s\n",
        c.capacity, c.radius_km, c.dark_edges, c.affected, c.reactive_p50,
        c.reactive_p95, c.proactive_p50, c.proactive_p95, c.steered_early,
        c.dominates ? "true" : "false", i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"determinism\": {\"threads\": [");
  for (std::size_t i = 0; i < fps.size(); ++i)
    std::fprintf(f, "%u%s", fps[i].first, i + 1 < fps.size() ? ", " : "");
  std::fprintf(f, "], \"fingerprints\": [");
  for (std::size_t i = 0; i < fps.size(); ++i)
    std::fprintf(f, "\"%016" PRIx64 "\"%s", fps[i].second,
                 i + 1 < fps.size() ? ", " : "");
  std::fprintf(f, "], \"identical\": %s}\n", det_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace livesim;
  const char* out = argc > 1 ? argv[1] : "BENCH_control.json";
  int broadcasts = argc > 2 ? std::atoi(argv[2]) : 300;
  if (broadcasts <= 0) broadcasts = 300;

  analysis::TraceSetConfig trace_cfg;
  trace_cfg.broadcasts = broadcasts;
  trace_cfg.broadcast_len = 2 * time::kMinute;
  trace_cfg.threads = 0;
  const auto traces = analysis::generate_traces(trace_cfg);
  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  // --- Part 1: control-plane OFF == reactive spill, bit for bit -------
  stats::print_banner(
      "Parity: control-plane-off reproduces capacity_spill_experiment");
  std::uint64_t off_fp = 0;
  bool off_all_ok = true;
  for (double radius : {0.0, 3000.0}) {
    for (std::uint64_t capacity : {std::uint64_t{0}, std::uint64_t{25}}) {
      const auto cfg = config_for(radius, capacity, /*enabled=*/false);
      const auto spill =
          analysis::capacity_spill_experiment(traces, catalog, cfg.spill);
      const auto steer =
          analysis::control_steering_experiment(traces, catalog, cfg);
      const std::uint64_t fp_spill = fingerprint_spill(spill);
      const std::uint64_t fp_off = fingerprint_spill(steer.spill);
      // Disabled: both detection samplers must collapse to the same
      // (reactive) distribution and nothing may be steered.
      util::Fingerprint ra, pa;
      ra.mix_doubles(steer.reactive_detect_s.samples());
      pa.mix_doubles(steer.proactive_detect_s.samples());
      const bool ok = fp_spill == fp_off && ra.value() == pa.value() &&
                      steer.steered_early == 0 && !steer.proactive;
      off_all_ok = off_all_ok && ok;
      off_fp = fp_off;
      std::printf("control-plane-off parity: capacity=%" PRIu64
                  " radius=%.0f spill=%016" PRIx64 " control=%016" PRIx64
                  " identical: %s\n",
                  capacity, radius, fp_spill, fp_off, ok ? "yes" : "NO -- BUG");
    }
  }
  if (!off_all_ok) return 1;

  // --- Part 2: reactive vs proactive detection on the blackout grid ---
  stats::print_banner(
      "Blackout grid: reactive vs proactive detection time (seconds)");
  stats::Table table({"Capacity", "Radius km", "Affected", "React p50",
                      "React p95", "Proact p50", "Proact p95", "Early",
                      "Dominates"});
  std::vector<GridCell> grid;
  bool grid_dominates = true;
  for (std::uint64_t capacity : {std::uint64_t{0}, std::uint64_t{100},
                                 std::uint64_t{25}}) {
    for (double radius : {0.0, 1500.0, 3000.0}) {
      const auto cfg = config_for(radius, capacity, /*enabled=*/true);
      const auto r =
          analysis::control_steering_experiment(traces, catalog, cfg);

      GridCell cell;
      cell.capacity = capacity;
      cell.radius_km = radius;
      cell.dark_edges = r.spill.dark_edges;
      cell.affected = r.spill.counters.affected;
      cell.reactive_p50 = r.reactive_detect_s.quantile(0.5);
      cell.reactive_p95 = r.reactive_detect_s.quantile(0.95);
      cell.proactive_p50 = r.proactive_detect_s.quantile(0.5);
      cell.proactive_p95 = r.proactive_detect_s.quantile(0.95);
      cell.steered_early = r.steered_early;

      // Dominance: pointwise <= over the SAME viewers (both samplers are
      // emitted per affected viewer in canonical order), and strictly
      // better in aggregate whenever anyone was affected.
      const auto& re = r.reactive_detect_s.samples();
      const auto& pr = r.proactive_detect_s.samples();
      bool pointwise = re.size() == pr.size();
      if (pointwise)
        for (std::size_t i = 0; i < re.size(); ++i)
          if (pr[i] > re[i]) {
            pointwise = false;
            break;
          }
      cell.dominates =
          pointwise && (cell.affected == 0 || r.steered_early > 0);
      grid_dominates = grid_dominates && cell.dominates;
      grid.push_back(cell);

      table.add_row(
          {capacity
               ? stats::Table::integer(static_cast<std::int64_t>(capacity))
               : "inf",
           stats::Table::num(radius, 0),
           stats::Table::integer(static_cast<std::int64_t>(cell.affected)),
           stats::Table::num(cell.reactive_p50, 3),
           stats::Table::num(cell.reactive_p95, 3),
           stats::Table::num(cell.proactive_p50, 3),
           stats::Table::num(cell.proactive_p95, 3),
           stats::Table::integer(static_cast<std::int64_t>(cell.steered_early)),
           cell.dominates ? "yes" : "NO"});
    }
  }
  table.print();
  std::printf("control_steering dominance on blackout grid"
              " (proactive <= reactive, pointwise): %s\n",
              grid_dominates ? "yes" : "NO -- BUG");
  if (!grid_dominates) return 1;

  // --- Part 3: determinism with steering ON, threads {1, 2, 8} --------
  stats::print_banner(
      "Determinism with steering: same seed, threads {1, 2, 8}");
  auto det_cfg = config_for(0.0, 25, /*enabled=*/true);
  std::uint64_t ref = 0;
  bool det_ok = true;
  std::vector<std::pair<unsigned, std::uint64_t>> fps;
  for (unsigned threads : {1u, 2u, 8u}) {
    det_cfg.spill.base.threads = threads;
    const auto r =
        analysis::control_steering_experiment(traces, catalog, det_cfg);
    const std::uint64_t fp = fingerprint_steering(r);
    if (threads == 1) ref = fp;
    const bool identical = fp == ref;
    det_ok = det_ok && identical;
    fps.emplace_back(threads, fp);
    std::printf("control_steering threads=%u fingerprint=%016" PRIx64
                " identical: %s\n",
                threads, fp, identical ? "yes" : "NO -- BUG");
  }
  if (!det_ok) return 1;

  // --- Part 4: session demo on the engine -----------------------------
  stats::print_banner(
      "Session demo: scrape -> publish -> proactive migration");
  {
    sim::Simulator sim;
    core::SessionConfig scfg;
    scfg.broadcast_len = 60 * time::kSecond;
    scfg.rtmp_viewers = 0;
    scfg.hls_viewers = 6;
    scfg.global_viewers = false;  // all six sit on the broadcaster's edge
    scfg.seed = 7;
    scfg.control.enabled = true;
    fault::FaultScenario scenario;
    fault::RegionalBlackoutSpec spec;
    spec.at = 20 * time::kSecond;
    spec.duration = 15 * time::kSecond;
    spec.center = scfg.broadcaster_location;
    spec.radius_km = 0.0;
    scenario.add(spec);
    scfg.faults = scenario.expand(catalog, scfg.seed);

    core::BroadcastSession session(sim, catalog, scfg);
    session.start();
    sim.run();
    session.finalize();

    const auto* cp = session.control_plane();
    std::printf("scrapes: %" PRIu64 "  publications: %" PRIu64
                "  deaths: %" PRIu64 "  proactive migrations: %" PRIu64
                " of %u viewers\n",
                cp->scrapes(), cp->publications(), cp->policy().deaths(),
                session.proactive_migrations(), scfg.hls_viewers);
    // The monitor's detection window (one scrape + steer latency, 0.6 s)
    // beats the client's 2 s kFailoverDetectTimeout: every viewer must
    // be migrated proactively, none reactively, none orphaned.
    if (session.proactive_migrations() != 6 ||
        session.edge_failovers() != 6 || session.orphaned_viewers() != 0 ||
        cp->policy().deaths() == 0) {
      std::printf("SESSION STEERING CONTRACT VIOLATED -- expected 6 "
                  "proactive migrations, 0 orphans\n");
      return 1;
    }
    std::printf("session steering contract: proactive beats the client "
                "timeout: yes\n");
  }

  stats::print_banner(
      "Session demo: overlay assist parks capacity orphans on the mesh");
  {
    sim::Simulator sim;
    core::SessionConfig scfg;
    scfg.broadcast_len = 60 * time::kSecond;
    scfg.rtmp_viewers = 0;
    scfg.hls_viewers = 6;
    scfg.global_viewers = false;
    scfg.edge_capacity = 1;       // failover admits one viewer per edge
    scfg.failover_spill_k = 2;    // two candidate rings only
    scfg.seed = 7;
    scfg.control.enabled = true;
    scfg.control.overlay_assist = true;
    fault::FaultScenario scenario;
    fault::RegionalBlackoutSpec spec;
    spec.at = 20 * time::kSecond;
    spec.duration = 15 * time::kSecond;
    spec.center = scfg.broadcaster_location;
    spec.radius_km = 0.0;
    scenario.add(spec);
    scfg.faults = scenario.expand(catalog, scfg.seed);

    core::BroadcastSession session(sim, catalog, scfg);
    session.start();
    sim.run();
    session.finalize();

    std::printf("overlay assists: %" PRIu64 "  mesh peers: %" PRIu64
                "  server egress chunks: %" PRIu64 "  orphans: %" PRIu64
                "\n",
                session.overlay_assists(),
                session.assist_mesh() ? session.assist_mesh()->peers() : 0,
                session.assist_mesh()
                    ? session.assist_mesh()->server_egress_chunks()
                    : 0,
                session.orphaned_viewers());
    // Two rings x capacity 1 admit two viewers; the other four are
    // capacity orphans the armed mesh must absorb — zero frozen players.
    if (session.overlay_assists() != 4 || session.orphaned_viewers() != 0 ||
        session.assist_mesh() == nullptr ||
        session.assist_mesh()->peers() != 4 ||
        session.assist_mesh()->server_egress_chunks() == 0) {
      std::printf("OVERLAY ASSIST CONTRACT VIOLATED -- expected 4 mesh "
                  "rescues, 0 orphans\n");
      return 1;
    }
    std::printf("overlay assist contract: capacity orphans ride the mesh: "
                "yes\n");
  }

  write_json(out, broadcasts, off_fp, off_all_ok, grid, fps, det_ok);
  std::printf("wrote %s\n", out);
  std::printf("\nall checks passed\n");
  return 0;
}
