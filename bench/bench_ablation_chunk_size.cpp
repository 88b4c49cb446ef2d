// Ablation: chunk size vs latency vs server load (§5.2's design dial).
//
// The paper: "Using smaller chunks obviously reduces the chunking delay
// but ... translates into higher server overhead for managing data and
// handling client polling. Thus to support a large number of users, HLS
// must configure its chunk size with care. ... today's livestreaming
// services all use ~3s chunks, while Apple's VoD HLS operates on 10s
// chunks", and the prediction: "more streams will require servers to
// increase chunk sizes, improving scalability at the cost of higher
// delays."
#include <cstdio>

#include "livesim/analysis/experiments.h"
#include "livesim/cdn/resource_model.h"
#include "livesim/media/encoder.h"
#include "livesim/stats/report.h"

int main() {
  using namespace livesim;

  stats::print_banner(
      "Ablation: chunk size vs delay vs server load (300 HLS viewers)");
  stats::Table table({"Chunk", "Chunking delay(s)", "Polling delay(s)",
                      "HLS e2e est.(s)", "Server CPU%", "Note"});

  for (int chunk_s : {1, 2, 3, 5, 10}) {
    analysis::TraceSetConfig cfg;
    cfg.broadcasts = 300;
    cfg.chunk_target = chunk_s * time::kSecond;
    cfg.seed = 7;
    const auto traces = analysis::generate_traces(cfg);

    // Clients poll roughly once per chunk duration.
    const DurationUs poll = static_cast<DurationUs>(chunk_s * 0.93 *
                                                    time::kSecond);
    const auto polling = analysis::polling_experiment(
        traces, poll, 300 * time::kMillisecond, 3);

    stats::Accumulator chunking;
    for (const auto& t : traces)
      for (const auto& c : t.chunks)
        chunking.add(time::to_seconds(c.duration));

    // Pre-buffer scales with chunk cadence (3 chunks, as Periscope's 9 s
    // for 3 s chunks); e2e = upload + chunking + w2f + polling + buffer.
    const double buffer_s = 2.0 * chunk_s;
    const double e2e = 0.3 + chunking.mean() + 0.3 +
                       polling.per_broadcast_mean_s.mean() + buffer_s;
    const double cpu = cdn::hls_cpu_percent(
        300, media::kFramesPerSecond, time::to_seconds(poll),
        chunking.mean());

    table.add_row({stats::Table::num(chunk_s, 0) + "s",
                   stats::Table::num(chunking.mean(), 2),
                   stats::Table::num(polling.per_broadcast_mean_s.mean(), 2),
                   stats::Table::num(e2e, 1),
                   stats::Table::num(cpu, 1),
                   chunk_s == 3    ? "<- Periscope/Facebook Live"
                   : chunk_s == 10 ? "<- Apple VoD HLS"
                                   : ""});
  }
  table.print();
  std::printf("\nSmaller chunks cut delay but multiply per-viewer server "
              "work; larger chunks do the reverse -- the latency/"
              "scalability dial of §5.2.\n");
  return 0;
}
