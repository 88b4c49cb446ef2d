// Load-aware re-anycast: per-edge capacity and the spill policy.
//
// Part 1 certifies the PARITY contract: with edge_capacity == 0 the
// capacity-spill experiment must reproduce PR 3's single-nearest-edge
// regional experiment bit for bit — same stall samples in the same
// order, same failover latencies, same counters — at several radii.
// scripts/check_resilience.sh greps the "identical: yes" lines.
//
// Part 2 sweeps capacity x outage radius: as capacity tightens, failed-
// over viewers overflow past full PoPs (spills), travel farther
// (overshoot km), and — once every live candidate is full — orphan for
// capacity reasons rather than blackout reasons.
//
// Part 3 certifies determinism with a FINITE capacity: the serial
// admission pass makes the ring-by-ring pile-up sequence independent of
// thread count, so threads {1, 2, 8} fingerprint identically.
//
// Part 4 is an event-level session demo: six co-located viewers, edge
// capacity two, their PoP dies — two land on the nearest live edge and
// four spill outward ring by ring, counted in the session's spill
// ledger.
//
// Usage: bench_resilience_capacity_spill [broadcasts]   (default 300)
#include <cstdio>
#include <cstdlib>

#include "livesim/analysis/resilience.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/fault/scenario.h"
#include "livesim/stats/report.h"
#include "livesim/util/fingerprint.h"

namespace {
using namespace livesim;

// The projection both experiments share: every sample (bit pattern,
// insertion order) plus the common counters. Identical mixing on both
// sides, so bit-parity of the underlying data <=> equal fingerprints.
std::uint64_t fingerprint_common(const stats::Sampler& stall,
                                 const stats::Sampler& latency,
                                 const analysis::RegionalOutageCounters& c,
                                 std::size_t dark_edges) {
  util::Fingerprint m;
  m.mix_doubles(stall.samples());
  m.mix_doubles(latency.samples());
  m.mix(c.viewers);
  m.mix(c.affected);
  m.mix(c.failovers);
  m.mix(c.orphaned);
  m.mix(static_cast<std::uint64_t>(dark_edges));
  return m.value();
}

// Everything the capacity experiment reports, spill ledgers included.
std::uint64_t fingerprint_full(const analysis::CapacitySpillStats& r) {
  util::Fingerprint m;
  m.mix(fingerprint_common(r.stall_ratio, r.failover_latency_s, r.counters,
                           r.dark_edges));
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

analysis::CapacitySpillConfig config_for(double radius_km,
                                         std::uint64_t capacity) {
  analysis::CapacitySpillConfig cfg;
  cfg.base.radius_km = radius_km;
  cfg.base.seed = 42;
  cfg.base.threads = 0;  // all hardware threads; results identical anyway
  cfg.edge_capacity = capacity;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace livesim;
  int broadcasts = 300;
  if (argc > 1) broadcasts = std::atoi(argv[1]);
  if (broadcasts <= 0) broadcasts = 300;

  analysis::TraceSetConfig trace_cfg;
  trace_cfg.broadcasts = broadcasts;
  trace_cfg.broadcast_len = 2 * time::kMinute;
  trace_cfg.threads = 0;
  const auto traces = analysis::generate_traces(trace_cfg);
  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  // --- Part 1: infinite capacity == PR 3 regional, bit for bit --------
  stats::print_banner(
      "Parity: edge_capacity=0 reproduces the single-nearest-edge "
      "regional experiment");
  for (double radius : {0.0, 3000.0}) {
    analysis::CapacitySpillConfig ccfg = config_for(radius, 0);
    const auto reg = analysis::regional_resilience_experiment(
        traces, catalog, ccfg.base);
    const auto cap =
        analysis::capacity_spill_experiment(traces, catalog, ccfg);
    const std::uint64_t fp_reg = fingerprint_common(
        reg.stall_ratio, reg.failover_latency_s, reg.counters, reg.dark_edges);
    const std::uint64_t fp_cap = fingerprint_common(
        cap.stall_ratio, cap.failover_latency_s, cap.counters, cap.dark_edges);
    const bool ok = fp_reg == fp_cap && cap.edge_spills == 0 &&
                    cap.capacity_orphans == 0;
    std::printf("infinite-capacity parity: radius=%.0f regional=%016llx "
                "capacity=%016llx identical: %s\n",
                radius, static_cast<unsigned long long>(fp_reg),
                static_cast<unsigned long long>(fp_cap),
                ok ? "yes" : "NO -- BUG");
    if (!ok) return 1;
  }

  // --- Part 2: capacity x radius sweep --------------------------------
  stats::print_banner(
      "Capacity x outage radius: spills, overshoot, capacity orphans");
  stats::Table sweep({"Capacity", "Radius km", "Dark", "Affected %",
                      "Stall p50", "Spills", "Overshoot km", "Cap-orphans",
                      "Peak load max"});
  for (std::uint64_t capacity : {std::uint64_t{0}, std::uint64_t{100},
                                 std::uint64_t{25}}) {
    for (double radius : {0.0, 1500.0, 3000.0}) {
      const auto r = analysis::capacity_spill_experiment(
          traces, catalog, config_for(radius, capacity));
      const double denom =
          r.counters.viewers ? static_cast<double>(r.counters.viewers) : 1.0;
      std::uint64_t peak_max = 0;
      for (const auto& [site, peak] : r.edge_peak_loads)
        if (peak > peak_max) peak_max = peak;
      sweep.add_row(
          {capacity ? stats::Table::integer(
                          static_cast<std::int64_t>(capacity))
                    : "inf",
           stats::Table::num(radius, 0),
           stats::Table::integer(static_cast<std::int64_t>(r.dark_edges)),
           stats::Table::num(
               100.0 * static_cast<double>(r.counters.affected) / denom, 2),
           stats::Table::num(r.stall_ratio.median(), 4),
           stats::Table::integer(static_cast<std::int64_t>(r.edge_spills)),
           r.spill_overshoot_km.empty()
               ? "-"
               : stats::Table::num(r.spill_overshoot_km.mean(), 0),
           stats::Table::integer(
               static_cast<std::int64_t>(r.capacity_orphans)),
           stats::Table::integer(static_cast<std::int64_t>(peak_max))});
    }
  }
  sweep.print();
  std::printf("\nShape: tighter capacity turns nearest-edge failovers into "
              "ring-by-ring spills (overshoot km grows), and once every "
              "live candidate is full, into capacity orphans.\n");

  // --- Part 3: finite-capacity determinism + conservation -------------
  stats::print_banner(
      "Determinism with finite capacity: same seed, threads {1, 2, 8}");
  analysis::CapacitySpillConfig det_cfg = config_for(0.0, 25);
  std::uint64_t ref = 0;
  bool all_identical = true;
  analysis::CapacitySpillStats det_r;
  for (unsigned threads : {1u, 2u, 8u}) {
    det_cfg.base.threads = threads;
    const auto r =
        analysis::capacity_spill_experiment(traces, catalog, det_cfg);
    const std::uint64_t fp = fingerprint_full(r);
    if (threads == 1) {
      ref = fp;
      det_r = r;
    }
    const bool identical = fp == ref;
    all_identical = all_identical && identical;
    std::printf("threads=%u fingerprint=%016llx identical: %s\n", threads,
                static_cast<unsigned long long>(fp),
                identical ? "yes" : "NO -- BUG");
  }
  if (!all_identical) return 1;

  // Conservation: every affected viewer either re-anycasts or orphans;
  // every spill recorded exactly one overshoot sample.
  std::printf("capacity-spill contract: capacity=%llu affected=%llu "
              "failovers=%llu orphaned=%llu spills=%llu "
              "capacity_orphans=%llu\n",
              static_cast<unsigned long long>(det_cfg.edge_capacity),
              static_cast<unsigned long long>(det_r.counters.affected),
              static_cast<unsigned long long>(det_r.counters.failovers),
              static_cast<unsigned long long>(det_r.counters.orphaned),
              static_cast<unsigned long long>(det_r.edge_spills),
              static_cast<unsigned long long>(det_r.capacity_orphans));
  if (det_r.counters.affected == 0 ||
      det_r.counters.failovers + det_r.counters.orphaned !=
          det_r.counters.affected ||
      det_r.spill_overshoot_km.count() != det_r.edge_spills) {
    std::printf("capacity-spill contract VIOLATED\n");
    return 1;
  }

  // --- Part 4: session demo — the pile-up, event by event -------------
  stats::print_banner(
      "Session demo: 6 co-located viewers, capacity 2, their PoP dies");
  {
    sim::Simulator sim;
    core::SessionConfig scfg;
    scfg.broadcast_len = 60 * time::kSecond;
    scfg.rtmp_viewers = 0;
    scfg.hls_viewers = 6;
    scfg.global_viewers = false;  // all six sit on the broadcaster's edge
    scfg.edge_capacity = 2;      // failover admissions only; joins are blind
    scfg.seed = 7;
    fault::FaultScenario scenario;
    fault::RegionalBlackoutSpec spec;
    spec.at = 20 * time::kSecond;
    spec.duration = 15 * time::kSecond;
    spec.center = scfg.broadcaster_location;
    spec.radius_km = 0.0;  // exactly the PoP the viewers are attached to
    scenario.add(spec);
    scfg.faults = scenario.expand(catalog, scfg.seed);

    core::BroadcastSession session(sim, catalog, scfg);
    session.start();
    sim.run();
    session.finalize();

    std::printf("edge failovers:  %llu of %u HLS viewers\n",
                static_cast<unsigned long long>(session.edge_failovers()),
                scfg.hls_viewers);
    std::printf("edge spills:     %llu (admissions past a full edge)\n",
                static_cast<unsigned long long>(session.edge_spills()));
    if (!session.spill_distance_km().empty())
      std::printf("spill overshoot: %.0f km mean past the nearest live "
                  "edge\n",
                  session.spill_distance_km().mean());
    std::printf("peak loads:     ");
    for (const auto& [site, peak] : session.edge_peak_loads())
      std::printf(" %s=%llu", catalog.get(DatacenterId{site}).city.c_str(),
                  static_cast<unsigned long long>(peak));
    std::printf("\n");

    // Capacity 2 admits two viewers to the nearest live edge; the other
    // four must overflow outward — four spills, zero orphans.
    if (session.edge_failovers() != 6 || session.orphaned_viewers() != 0 ||
        session.edge_spills() != 4 ||
        session.spill_distance_km().count() != 4) {
      std::printf("SESSION SPILL CONTRACT VIOLATED -- expected 6 failovers, "
                  "4 spills, 0 orphans\n");
      return 1;
    }
  }

  std::printf("\nall checks passed\n");
  return 0;
}
