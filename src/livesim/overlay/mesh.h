// Data-driven P2P mesh delivery -- the §2.2 related-work baseline
// (CoolStreaming/DONet-style): viewers form a random peer mesh, the
// server seeds each chunk to a handful of peers, and chunks spread
// epidemically peer-to-peer. The trade the paper's related work explores:
// server egress collapses to the seed count, but per-chunk delivery rides
// O(log N) peer hops of residential uplink -- and no interactivity story.
#ifndef LIVESIM_OVERLAY_MESH_H
#define LIVESIM_OVERLAY_MESH_H

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "livesim/media/frame.h"
#include "livesim/net/link.h"
#include "livesim/sim/simulator.h"
#include "livesim/stats/accumulator.h"

namespace livesim::overlay {

class P2PMesh {
 public:
  /// (chunk, delivery time, hop count from the server).
  using PeerSink =
      std::function<void(const media::Chunk&, TimeUs, std::uint32_t)>;

  static constexpr std::uint32_t kNeighbors = 4;    // mesh degree per peer
  static constexpr std::uint32_t kServerSeeds = 3;  // peers seeded per chunk
  // Offer/pull handshake round trip, and its multiplicative jitter.
  static constexpr DurationUs kPeerRtt = 120 * time::kMillisecond;
  static constexpr double kRttJitter = 0.3;
  static constexpr double kPeerUplinkBps = 5e6;  // residential upload

  P2PMesh(sim::Simulator& sim, Rng rng) : sim_(sim), rng_(rng) {}

  /// Adds a peer; it wires itself to kNeighbors random existing peers
  /// (bidirectional). Returns the peer id.
  std::uint64_t join(PeerSink sink);

  /// Peer churn: the peer stops relaying and receiving.
  void leave(std::uint64_t peer);

  /// Server injects a chunk: seeds it to kServerSeeds random live peers.
  void push_chunk(const media::Chunk& chunk);

  std::uint64_t peers() const noexcept { return live_peers_; }
  /// Chunk copies the *server* sent (its egress) -- the P2P payoff.
  std::uint64_t server_egress_chunks() const noexcept { return seeded_; }
  /// Delivery delay (injection -> peer) across all deliveries, seconds.
  const stats::Accumulator& delivery_delay_s() const noexcept {
    return delay_;
  }
  const stats::Accumulator& delivery_hops() const noexcept { return hops_; }
  /// Fraction of live peers that received the last pushed chunk.
  double last_chunk_coverage() const noexcept;

 private:
  struct Peer {
    bool active = true;
    PeerSink sink;
    std::vector<std::uint64_t> neighbors;
    std::unordered_set<std::uint64_t> have;  // chunk seqs received
  };

  DurationUs hop_delay(std::uint64_t chunk_bytes);
  void deliver(std::uint64_t peer, const media::Chunk& chunk, TimeUs at,
               std::uint32_t hop, TimeUs injected_at);

  sim::Simulator& sim_;
  Rng rng_;
  std::unordered_map<std::uint64_t, Peer> peers_;
  std::vector<std::uint64_t> live_ids_;  // for random seeding (may lag)
  std::uint64_t next_id_ = 0;
  std::uint64_t live_peers_ = 0;
  std::uint64_t seeded_ = 0;
  std::uint64_t last_chunk_seq_ = 0;
  std::uint64_t last_chunk_receivers_ = 0;
  stats::Accumulator delay_;
  stats::Accumulator hops_;
};

}  // namespace livesim::overlay

#endif  // LIVESIM_OVERLAY_MESH_H
