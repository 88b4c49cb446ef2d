// Correlated regional failures & edge-to-edge failover.
//
// Part 1 sweeps the blackout radius of a regional outage over the §4.3
// crawled traces (analysis/resilience.h): as the radius grows, more edge
// PoPs go dark together and the affected-viewer fraction rises. Failover
// latency stays flat: the replay charges every refugee the same
// cold-cache W2F pull wherever it lands, so distance does not enter it.
// This single-pass replay is the reference the capacity-spill driver is
// held to (bench_resilience_capacity_spill, part 1).
// The zero-radius row is a contract the bench exits 1 on: a single-PoP
// death must re-anycast 100% of its viewers (failovers == affected) with
// zero orphans.
//
// Part 2 certifies the determinism contract: the same seed produces a
// bit-identical RegionalOutageStats at threads {1, 2, 8} (per-trace RNG
// substreams; the dark set is computed once).
//
// Part 3 is an event-level demo inside full sessions: a fault::
// FaultScenario blackout kills the edge all of a session's HLS viewers
// sit on, and every one re-anycasts to the next-nearest live edge
// (second pipeline flush counted in the edge-failover latency ledger);
// then LivestreamService::inject_scenario shares a single expanded
// outage across several concurrent broadcasts.
//
// Usage: bench_resilience_regional_outage [broadcasts]   (default 600)
#include <cstdio>
#include <cstdlib>

#include "livesim/analysis/resilience.h"
#include "livesim/core/service.h"
#include "livesim/fault/scenario.h"
#include "livesim/stats/report.h"
#include "livesim/util/fingerprint.h"

namespace {
using namespace livesim;

// Position-sensitive FNV-style fingerprint: every sample (bit pattern,
// insertion order) and every counter is mixed in, so any reordering or
// single-ULP drift across thread counts shows up.
std::uint64_t fingerprint(const analysis::RegionalOutageStats& r) {
  return util::Fingerprint()
      .mix_doubles(r.stall_ratio.samples())
      .mix_doubles(r.failover_latency_s.samples())
      .mix(r.counters.viewers)
      .mix(r.counters.affected)
      .mix(r.counters.failovers)
      .mix(r.counters.orphaned)
      .mix(static_cast<std::uint64_t>(r.dark_edges))
      .value();
}

analysis::RegionalOutageConfig config_for_radius(double radius_km) {
  analysis::RegionalOutageConfig cfg;
  cfg.radius_km = radius_km;
  cfg.seed = 42;
  cfg.threads = 0;  // all hardware threads; results identical regardless
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace livesim;
  int broadcasts = 600;
  if (argc > 1) broadcasts = std::atoi(argv[1]);
  if (broadcasts <= 0) broadcasts = 600;

  analysis::TraceSetConfig trace_cfg;
  trace_cfg.broadcasts = broadcasts;
  trace_cfg.broadcast_len = 2 * time::kMinute;
  trace_cfg.threads = 0;
  const auto traces = analysis::generate_traces(trace_cfg);
  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  // --- Part 1: outage-radius sweep ------------------------------------
  stats::print_banner(
      "Regional blackout: viewer experience vs outage radius (Frankfurt)");
  const double radii[] = {0.0, 1000.0, 3000.0, 6000.0, 10000.0};
  stats::Table sweep({"Radius km", "Dark edges", "Affected %", "Stall p50",
                      "Stall p90", "Failover p50 (s)", "Orphaned %"});
  for (double radius : radii) {
    const auto r = analysis::regional_resilience_experiment(
        traces, catalog, config_for_radius(radius));
    const double denom =
        r.counters.viewers ? static_cast<double>(r.counters.viewers) : 1.0;
    sweep.add_row(
        {stats::Table::num(radius, 0),
         stats::Table::integer(static_cast<std::int64_t>(r.dark_edges)),
         stats::Table::num(
             100.0 * static_cast<double>(r.counters.affected) / denom, 2),
         stats::Table::num(r.stall_ratio.median(), 4),
         stats::Table::num(r.stall_ratio.quantile(0.90), 4),
         r.failover_latency_s.empty()
             ? "-"
             : stats::Table::num(r.failover_latency_s.median(), 2),
         stats::Table::num(
             100.0 * static_cast<double>(r.counters.orphaned) / denom, 2)});
    if (radius == 0.0) {
      // The zero-radius contract: a single dead PoP re-anycasts every one
      // of its viewers -- no orphans, failovers == affected.
      std::printf("zero-radius contract: dark_edges=%zu affected=%llu "
                  "failovers=%llu orphaned=%llu\n",
                  r.dark_edges,
                  static_cast<unsigned long long>(r.counters.affected),
                  static_cast<unsigned long long>(r.counters.failovers),
                  static_cast<unsigned long long>(r.counters.orphaned));
      if (r.dark_edges != 1 ||
          r.counters.failovers != r.counters.affected ||
          r.counters.orphaned != 0 || r.counters.affected == 0) {
        std::printf("zero-radius contract VIOLATED\n");
        return 1;
      }
    }
  }
  sweep.print();
  std::printf("\nShape: a wider blackout darkens more PoPs and touches "
              "more viewers; failover latency stays flat because every "
              "refugee pays the same cold-cache pull wherever it lands; "
              "orphans appear only when the whole footprint is dark.\n");

  // --- Part 2: thread-count determinism -------------------------------
  stats::print_banner("Determinism: same seed, threads {1, 2, 8}");
  auto det_cfg = config_for_radius(3000.0);
  std::uint64_t ref = 0;
  bool all_identical = true;
  for (unsigned threads : {1u, 2u, 8u}) {
    det_cfg.threads = threads;
    const auto r =
        analysis::regional_resilience_experiment(traces, catalog, det_cfg);
    const std::uint64_t fp = fingerprint(r);
    if (threads == 1) ref = fp;
    const bool identical = fp == ref;
    all_identical = all_identical && identical;
    std::printf("threads=%u fingerprint=%016llx identical: %s\n", threads,
                static_cast<unsigned long long>(fp),
                identical ? "yes" : "NO -- BUG");
  }
  if (!all_identical) return 1;

  // --- Part 3a: edge death inside a full session ----------------------
  stats::print_banner(
      "Session demo: the only edge in use dies at t=20s; everyone "
      "re-anycasts");
  {
    sim::Simulator sim;
    core::SessionConfig scfg;
    scfg.broadcast_len = 60 * time::kSecond;
    scfg.rtmp_viewers = 0;
    scfg.hls_viewers = 6;
    scfg.global_viewers = false;  // all six sit on the broadcaster's edge
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

    std::printf("edge failovers:    %llu of %u HLS viewers\n",
                static_cast<unsigned long long>(session.edge_failovers()),
                scfg.hls_viewers);
    std::printf("orphaned viewers:  %llu\n",
                static_cast<unsigned long long>(session.orphaned_viewers()));
    if (session.edge_failover_latency_s().count() > 0)
      std::printf("edge failover latency: %.2fs mean (death -> first chunk "
                  "via the new edge, second flush included)\n",
                  session.edge_failover_latency_s().mean());
    if (session.edge_failovers() != scfg.hls_viewers ||
        session.orphaned_viewers() != 0) {
      std::printf("EDGE FAILOVER INCOMPLETE -- expected every HLS viewer "
                  "to re-anycast with zero orphans\n");
      return 1;
    }
  }

  // --- Part 3b: one scenario shared by concurrent broadcasts ----------
  stats::print_banner(
      "Service demo: one scripted outage injected into every live "
      "broadcast");
  {
    sim::Simulator sim;
    core::LivestreamService::Config cfg;
    cfg.rtmp_slot_cap = 0;  // everyone on HLS for this demo
    cfg.session_defaults.broadcast_len = 60 * time::kSecond;
    cfg.session_defaults.rtmp_viewers = 0;
    cfg.session_defaults.hls_viewers = 0;
    cfg.seed = 11;
    core::LivestreamService service(sim, catalog, cfg);

    const geo::GeoPoint sf{37.77, -122.42};
    std::vector<BroadcastId> ids;
    for (int b = 0; b < 3; ++b) {
      const BroadcastId id = service.start_broadcast(sf, 60 * time::kSecond);
      ids.push_back(id);
      for (int v = 0; v < 4; ++v) (void)service.join(id, sf);
    }

    fault::FaultScenario scenario;
    fault::RegionalBlackoutSpec spec;
    spec.at = 20 * time::kSecond;
    spec.duration = 15 * time::kSecond;
    spec.center = sf;
    spec.radius_km = 0.0;
    scenario.add(spec);
    const std::size_t hit = service.inject_scenario(scenario, cfg.seed);
    std::printf("scenario injected into %zu live broadcasts\n", hit);

    sim.run();
    std::uint64_t failovers = 0, orphans = 0, faults = 0;
    for (BroadcastId id : ids) {
      core::BroadcastSession* s = service.session(id);
      s->finalize();
      failovers += s->edge_failovers();
      orphans += s->orphaned_viewers();
      faults += s->faults_injected();
    }
    std::printf("shared outage: faults=%llu edge_failovers=%llu "
                "orphaned=%llu across %zu broadcasts\n",
                static_cast<unsigned long long>(faults),
                static_cast<unsigned long long>(failovers),
                static_cast<unsigned long long>(orphans), ids.size());
    if (hit != ids.size() || faults == 0 || failovers != 12 || orphans != 0) {
      std::printf("SERVICE SCENARIO INJECTION FAILED -- expected all 12 "
                  "viewers to re-anycast in every broadcast\n");
      return 1;
    }
  }

  std::printf("\nall checks passed\n");
  return 0;
}
