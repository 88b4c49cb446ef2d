// Capacity planning: "can personalized livestreams continue to scale?"
//
// Combines the workload model (growth in broadcasts and audiences, §3)
// with the server resource model (§5.2) to estimate the ingest fleet a
// Periscope-scale service needs week by week -- and what the RTMP
// commenter policy costs at the fleet level. This is the operator's view
// of the paper's scalability-vs-interactivity tension.
#include <cstdio>

#include "livesim/cdn/delivery_backend.h"
#include "livesim/cdn/resource_model.h"
#include "livesim/media/chunker.h"
#include "livesim/media/encoder.h"
#include "livesim/stats/report.h"
#include "livesim/workload/generator.h"

namespace {
using namespace livesim;

// The delivery cadence the cost curves take: frames/s, poll and chunk s.
constexpr double kFps = media::kFramesPerSecond;
constexpr double kPollS = time::to_seconds(cdn::kHlsPollInterval);
constexpr double kChunkS = time::to_seconds(media::kChunkTarget);
}  // namespace

int main() {
  using namespace livesim;
  const auto profile = workload::AppProfile::periscope();
  workload::Generator gen(profile, 1.0 / 200.0, 31337);
  const auto ds = gen.generate();

  // Aggregate per-week concurrent load: broadcasts alive at once and the
  // RTMP/HLS viewer split under the 100-slot policy.
  struct Week {
    double concurrent_broadcasts = 0;
    double rtmp_viewers = 0;
    double hls_viewers = 0;
  };
  std::vector<Week> weeks(profile.days / 7 + 1);
  for (const auto& b : ds.broadcasts) {
    if (!b.captured) continue;
    auto& w = weeks[b.day / 7];
    // A broadcast of length L contributes L/86400 of a concurrent slot.
    const double slot = time::to_seconds(b.length) / 86400.0;
    w.concurrent_broadcasts += slot * 200.0;  // undo the 1/200 scale
    const auto rtmp = std::min<std::uint32_t>(b.total_viewers(), 100);
    w.rtmp_viewers += slot * 200.0 * rtmp;
    w.hls_viewers += slot * 200.0 * b.hls_viewers(100);
  }

  stats::print_banner("Capacity plan: Periscope May-Aug 2015 (modeled)");
  stats::Table table({"Week", "Concurrent bcasts", "RTMP viewers",
                      "HLS viewers", "Ingest cores", "Edge cores"});
  for (std::size_t w = 0; w + 1 < weeks.size(); ++w) {
    const auto& wk = weeks[w];
    if (wk.concurrent_broadcasts == 0) continue;
    // Per concurrent broadcast: ingest does frame handling + RTMP fanout;
    // edges absorb HLS polling.
    const double avg_rtmp = wk.rtmp_viewers / wk.concurrent_broadcasts;
    const double avg_hls = wk.hls_viewers / wk.concurrent_broadcasts;
    const double ingest_cores =
        wk.concurrent_broadcasts *
        cdn::rtmp_cpu_percent(static_cast<std::uint32_t>(avg_rtmp), kFps) /
        100.0;
    const double edge_cores =
        wk.concurrent_broadcasts *
        (cdn::hls_cpu_percent(static_cast<std::uint32_t>(avg_hls), kFps,
                               kPollS, kChunkS) -
         cdn::kBaselinePercent) /
        100.0;
    table.add_row({stats::Table::integer(static_cast<std::int64_t>(w)),
                   stats::Table::integer(static_cast<std::int64_t>(
                       wk.concurrent_broadcasts)),
                   stats::Table::integer(static_cast<std::int64_t>(
                       wk.rtmp_viewers)),
                   stats::Table::integer(static_cast<std::int64_t>(
                       wk.hls_viewers)),
                   stats::Table::num(ingest_cores, 0),
                   stats::Table::num(edge_cores, 0)});
  }
  table.print();
  std::printf(
      "\nIngest (RTMP fan-out) cores dominate and track broadcast growth "
      "~linearly -- this is why Periscope caps interactive viewers at "
      "~100 and ships everyone else to chunked HLS.\n");
  return 0;
}
