// Ablation: the RTMP slot cap (the "first ~100 viewers" policy, §1/§4.1).
//
// Periscope routes the first ~100 joiners to low-delay RTMP (they are the
// only ones who may comment) and everyone else to HLS. This sweep shows
// exactly what that dial buys: more interactive viewers cost server CPU
// linearly, while mean audience delay improves only for the slot holders
// -- the "fundamental tension between scalability and delay".
#include <cstdio>

#include "livesim/analysis/experiments.h"
#include "livesim/cdn/delivery_backend.h"
#include "livesim/cdn/resource_model.h"
#include "livesim/media/chunker.h"
#include "livesim/media/encoder.h"
#include "livesim/stats/report.h"

namespace {
using namespace livesim;

// The delivery cadence the cost curves take: frames/s, poll and chunk s.
constexpr double kFps = media::kFramesPerSecond;
constexpr double kPollS = time::to_seconds(cdn::kHlsPollInterval);
constexpr double kChunkS = time::to_seconds(media::kChunkTarget);
}  // namespace

int main() {
  using namespace livesim;
  // Measure the two path delays once (Fig 11 conditions).
  const auto breakdown = analysis::delay_breakdown_experiment(4, 5);
  const double rtmp_e2e = breakdown.rtmp.total_s();
  const double hls_e2e = breakdown.hls.total_s();

  const std::uint32_t audience = 2000;  // a popular broadcast

  stats::print_banner(
      "Ablation: RTMP slot cap for a 2000-viewer broadcast");
  stats::Table table({"RTMP slots", "Interactive viewers",
                      "Mean delay(s)", "p50 delay class", "Ingest CPU%",
                      "Note"});
  for (std::uint32_t slots : {0u, 50u, 100u, 200u, 500u, 1000u, 2000u}) {
    const std::uint32_t rtmp_v = std::min(slots, audience);
    const std::uint32_t hls_v = audience - rtmp_v;
    const double mean_delay =
        (rtmp_v * rtmp_e2e + hls_v * hls_e2e) / audience;
    const double cpu = cdn::rtmp_cpu_percent(rtmp_v, kFps) +
                       cdn::hls_cpu_percent(hls_v, kFps, kPollS, kChunkS) -
                       cdn::kBaselinePercent;
    table.add_row(
        {stats::Table::integer(slots), stats::Table::integer(rtmp_v),
         stats::Table::num(mean_delay, 1),
         rtmp_v * 2 > audience ? stats::Table::num(rtmp_e2e, 1) + "s"
                               : stats::Table::num(hls_e2e, 1) + "s",
         stats::Table::num(cpu, 1),
         slots == 100 ? "<- Periscope's policy" : ""});
  }
  table.print();
  std::printf("\nDelays: RTMP %.1fs vs HLS %.1fs. Every extra interactive "
              "slot costs ~%.2f CPU%% of one core per broadcast; at 100 "
              "slots a single server saturates near %d concurrent popular "
              "broadcasts.\n",
              rtmp_e2e, hls_e2e, cdn::kFramePushUs * kFps / 1e4,
              static_cast<int>(100.0 /
                               (cdn::rtmp_cpu_percent(100, kFps))));
  return 0;
}
