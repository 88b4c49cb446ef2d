// Ablation: pull-on-poll vs proactive chunk replication (§5.3's design).
//
// Periscope/Fastly pull: a chunk travels to an edge only when the first
// viewer poll after expiry triggers the fetch -- cheap for the long tail
// of tiny broadcasts, but the trigger wait and the gateway hop sit on the
// delay path. The alternative is pushing every chunk to every edge (or
// only to edges with active viewers) as soon as it is sealed. This bench
// measures the delay/egress trade-off over the real broadcast popularity
// distribution.
#include <cstdio>

#include "livesim/cdn/delivery_backend.h"
#include "livesim/cdn/w2f.h"
#include "livesim/stats/report.h"
#include "livesim/stats/sampler.h"
#include "livesim/workload/generator.h"

namespace {
using namespace livesim;

struct Strategy {
  const char* name;
  bool push = false;        // proactive vs poll-triggered
  bool only_active = false; // restrict to edges with >=1 viewer
};
}  // namespace

int main() {
  using namespace livesim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const cdn::W2FModel model(catalog);
  Rng rng(88);

  // Popularity distribution: how many edges actually have viewers.
  workload::Generator gen(workload::AppProfile::periscope(), 1.0 / 2000.0, 9);
  const auto ds = gen.generate();

  const auto edges = catalog.edge_sites();
  const auto ingests = catalog.ingest_sites();

  const Strategy strategies[] = {
      {"pull on poll (deployed)", false, false},
      {"push to active edges", true, true},
      {"push to all edges", true, false},
  };

  stats::print_banner(
      "Ablation: chunk distribution strategy (delay vs inter-DC egress)");
  stats::Table table({"Strategy", "W2F median(s)", "W2F p90(s)",
                      "Egress chunks/broadcast-chunk", "Note"});

  for (const auto& strat : strategies) {
    stats::Sampler w2f;
    double egress = 0;
    std::uint64_t samples = 0;
    for (const auto& b : ds.broadcasts) {
      if (samples > 4000) break;
      if (b.hls_viewers() == 0) continue;
      ++samples;
      const auto* ingest =
          ingests[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(ingests.size()) - 1))];
      // Edges with viewers: popularity decides the spread (anycast).
      const auto active_edges = std::min<std::uint64_t>(
          edges.size(), 1 + b.hls_viewers() / 40);
      const std::uint64_t replicated =
          strat.push && !strat.only_active ? edges.size() : active_edges;
      egress += static_cast<double>(replicated);

      // Delay for a viewer at a random active edge.
      const auto* edge = edges[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active_edges) - 1))];
      DurationUs d =
          model.sample_transfer(ingest->id, edge->id, 200000, rng);
      if (!strat.push) {
        // Poll-triggered: expiry notice + waiting for the first poll
        // (audience-size dependent: more viewers poll sooner).
        const double polls_per_s =
            static_cast<double>(std::max(1u, b.hls_viewers())) /
            time::to_seconds(cdn::kHlsPollInterval);
        const DurationUs wait = static_cast<DurationUs>(
            rng.exponential(1.0 / polls_per_s) *
            static_cast<double>(time::kSecond));
        d += geo::sample_delay(
                 catalog.distance_km(ingest->id, edge->id), rng) +
             std::min<DurationUs>(wait, 3 * time::kSecond);
      }
      w2f.add(time::to_seconds(d));
    }
    table.add_row(
        {strat.name, stats::Table::num(w2f.median(), 2),
         stats::Table::num(w2f.quantile(0.9), 2),
         stats::Table::num(egress / static_cast<double>(samples), 1),
         strat.push ? (strat.only_active ? "needs viewer tracking" : "23x "
                                           "egress for every broadcast")
                    : "first poller pays the trigger wait"});
  }
  table.print();
  std::printf(
      "\nWith 5.77%% of broadcasts having any HLS viewer and most having "
      "few, pull-on-poll wastes no egress on the long tail -- the paper's "
      "CDN choice; push-to-active buys back the trigger wait at ~the same "
      "egress once viewer tracking exists.\n");
  return 0;
}
