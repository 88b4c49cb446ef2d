#include "livesim/overlay/mesh.h"

#include <algorithm>
#include <cmath>

namespace livesim::overlay {

std::uint64_t P2PMesh::join(PeerSink sink) {
  const std::uint64_t id = next_id_++;
  Peer peer;
  peer.sink = std::move(sink);

  // Wire to up to kNeighbors random live peers, bidirectionally.
  std::uint32_t wired = 0;
  for (int attempts = 0;
       wired < kNeighbors && attempts < 40 && !live_ids_.empty();
       ++attempts) {
    const std::uint64_t candidate = live_ids_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(live_ids_.size()) - 1))];
    auto it = peers_.find(candidate);
    if (it == peers_.end() || !it->second.active || candidate == id) continue;
    if (std::find(peer.neighbors.begin(), peer.neighbors.end(), candidate) !=
        peer.neighbors.end())
      continue;
    peer.neighbors.push_back(candidate);
    it->second.neighbors.push_back(id);
    ++wired;
  }
  peers_.emplace(id, std::move(peer));
  live_ids_.push_back(id);
  ++live_peers_;
  return id;
}

void P2PMesh::leave(std::uint64_t peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end() || !it->second.active) return;
  it->second.active = false;
  --live_peers_;
  // Neighbor lists keep the id; delivery checks `active` (lazy cleanup,
  // as real meshes do between gossip rounds).
}

DurationUs P2PMesh::hop_delay(std::uint64_t chunk_bytes) {
  // Offer -> request -> transfer: one peer RTT plus the serialization of
  // the chunk over the sender's residential uplink.
  const double jitter = 1.0 + kRttJitter * std::abs(rng_.normal(0.0, 1.0));
  const double transfer_s =
      static_cast<double>(chunk_bytes) * 8.0 / kPeerUplinkBps;
  return static_cast<DurationUs>(
      static_cast<double>(kPeerRtt) * jitter +
      transfer_s * static_cast<double>(time::kSecond));
}

void P2PMesh::deliver(std::uint64_t peer_id, const media::Chunk& chunk,
                      TimeUs at, std::uint32_t hop, TimeUs injected_at) {
  auto it = peers_.find(peer_id);
  if (it == peers_.end() || !it->second.active) return;
  Peer& peer = it->second;
  if (!peer.have.insert(chunk.seq).second) return;  // duplicate offer

  delay_.add(time::to_seconds(at - injected_at));
  hops_.add(hop);
  if (chunk.seq == last_chunk_seq_) ++last_chunk_receivers_;
  if (peer.sink) peer.sink(chunk, at, hop);

  // Relay to neighbors that (probably) don't have it yet.
  for (std::uint64_t n : peer.neighbors) {
    auto nit = peers_.find(n);
    if (nit == peers_.end() || !nit->second.active) continue;
    if (nit->second.have.count(chunk.seq)) continue;  // offer suppressed
    const DurationUs d = hop_delay(chunk.size_bytes);
    sim_.schedule_at(at + d, [this, n, chunk, arrive = at + d, hop,
                              injected_at] {
      deliver(n, chunk, arrive, hop + 1, injected_at);
    });
  }
}

void P2PMesh::push_chunk(const media::Chunk& chunk) {
  last_chunk_seq_ = chunk.seq;
  last_chunk_receivers_ = 0;
  std::uint32_t sent = 0;
  for (int attempts = 0;
       sent < kServerSeeds && attempts < 100 && !live_ids_.empty();
       ++attempts) {
    const std::uint64_t target = live_ids_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(live_ids_.size()) - 1))];
    auto it = peers_.find(target);
    if (it == peers_.end() || !it->second.active) continue;
    ++seeded_;
    ++sent;
    const DurationUs d = hop_delay(chunk.size_bytes);
    const TimeUs injected = sim_.now();
    sim_.schedule_at(injected + d, [this, target, chunk,
                                    arrive = injected + d, injected] {
      deliver(target, chunk, arrive, 1, injected);
    });
  }
}

double P2PMesh::last_chunk_coverage() const noexcept {
  if (live_peers_ == 0) return 0.0;
  return static_cast<double>(last_chunk_receivers_) /
         static_cast<double>(live_peers_);
}

}  // namespace livesim::overlay
