#include <gtest/gtest.h>

#include "livesim/overlay/mesh.h"
#include "livesim/util/fingerprint.h"

namespace livesim::overlay {
namespace {

media::Chunk chunk(std::uint64_t seq) {
  media::Chunk c;
  c.seq = seq;
  c.duration = 3 * time::kSecond;
  c.size_bytes = 150000;
  return c;
}

// Golden: every delivery's arrival and hop count folds in the mesh
// degree, the server seeds, the peer RTT and its jitter, and the peer
// uplink.
TEST(Mesh, DeliveryMatchesGolden) {
  sim::Simulator sim;
  P2PMesh mesh(sim, Rng(9));
  util::Fingerprint h;
  for (int i = 0; i < 40; ++i)
    mesh.join([&h](const media::Chunk& c, TimeUs at, std::uint32_t hop) {
      h.mix(c.seq).mix(static_cast<std::uint64_t>(at)).mix(hop);
    });
  for (std::uint64_t s = 0; s < 3; ++s) mesh.push_chunk(chunk(s));
  sim.run();
  h.mix(mesh.server_egress_chunks());
  EXPECT_EQ(h.value(), 0x7110832965774abeULL);
}

TEST(Mesh, AllPeersEventuallyReceive) {
  sim::Simulator sim;
  P2PMesh mesh(sim, Rng(1));
  int deliveries = 0;
  const int kPeers = 200;
  for (int i = 0; i < kPeers; ++i)
    mesh.join([&](const media::Chunk&, TimeUs, std::uint32_t) {
      ++deliveries;
    });
  mesh.push_chunk(chunk(0));
  sim.run();
  EXPECT_EQ(deliveries, kPeers);
  EXPECT_DOUBLE_EQ(mesh.last_chunk_coverage(), 1.0);
}

TEST(Mesh, ServerEgressIndependentOfAudience) {
  for (int peers : {50, 500, 2000}) {
    sim::Simulator sim;
    P2PMesh mesh(sim, Rng(2));
    for (int i = 0; i < peers; ++i)
      mesh.join([](const media::Chunk&, TimeUs, std::uint32_t) {});
    for (std::uint64_t s = 0; s < 5; ++s) mesh.push_chunk(chunk(s));
    sim.run();
    EXPECT_EQ(mesh.server_egress_chunks(), 5u * 3u) << peers << " peers";
  }
}

TEST(Mesh, DeliveryHopsGrowLogarithmically) {
  auto mean_hops = [](int peers) {
    sim::Simulator sim;
    P2PMesh mesh(sim, Rng(3));
    for (int i = 0; i < peers; ++i)
      mesh.join([](const media::Chunk&, TimeUs, std::uint32_t) {});
    mesh.push_chunk(chunk(0));
    sim.run();
    return mesh.delivery_hops().mean();
  };
  const double h100 = mean_hops(100);
  const double h2000 = mean_hops(2000);
  EXPECT_GT(h2000, h100);          // grows with audience...
  EXPECT_LT(h2000, 3.0 * h100);    // ...but sub-linearly (epidemic spread)
  EXPECT_LT(h2000, 15.0);
}

TEST(Mesh, DelaySlowerThanCdnPush) {
  sim::Simulator sim;
  P2PMesh mesh(sim, Rng(4));
  for (int i = 0; i < 1000; ++i)
    mesh.join([](const media::Chunk&, TimeUs, std::uint32_t) {});
  mesh.push_chunk(chunk(0));
  sim.run();
  // Multiple residential hops: mean delivery takes over half a second
  // (vs a single CDN hop), the P2P latency tax.
  EXPECT_GT(mesh.delivery_delay_s().mean(), 0.5);
  EXPECT_LT(mesh.delivery_delay_s().mean(), 10.0);
}

TEST(Mesh, SurvivesChurn) {
  sim::Simulator sim;
  P2PMesh mesh(sim, Rng(5));
  std::vector<std::uint64_t> ids;
  int deliveries = 0;
  for (int i = 0; i < 300; ++i)
    ids.push_back(mesh.join(
        [&](const media::Chunk&, TimeUs, std::uint32_t) { ++deliveries; }));
  // A third of the mesh leaves.
  Rng rng(6);
  for (int i = 0; i < 100; ++i)
    mesh.leave(ids[static_cast<std::size_t>(rng.uniform_int(0, 299))]);
  const auto live = mesh.peers();
  mesh.push_chunk(chunk(1));
  sim.run();
  // Random 4-regular-ish graphs stay overwhelmingly connected at 1/3
  // churn; nearly everyone alive still gets the chunk.
  EXPECT_GT(mesh.last_chunk_coverage(), 0.9);
  EXPECT_LE(mesh.last_chunk_coverage(), 1.0);
  EXPECT_LT(mesh.peers(), 300u);
  EXPECT_EQ(mesh.peers(), live);
}

TEST(Mesh, DuplicateOffersSuppressed) {
  sim::Simulator sim;
  P2PMesh mesh(sim, Rng(7));
  int deliveries = 0;
  for (int i = 0; i < 100; ++i)
    mesh.join([&](const media::Chunk&, TimeUs, std::uint32_t) {
      ++deliveries;
    });
  mesh.push_chunk(chunk(0));
  mesh.push_chunk(chunk(0));  // same seq again: peers already have it
  sim.run();
  EXPECT_EQ(deliveries, 100);
}

TEST(Mesh, LeaveIsIdempotent) {
  sim::Simulator sim;
  P2PMesh mesh(sim, Rng(8));
  const auto id = mesh.join([](const media::Chunk&, TimeUs, std::uint32_t) {});
  mesh.leave(id);
  mesh.leave(id);
  mesh.leave(9999);
  EXPECT_EQ(mesh.peers(), 0u);
}

}  // namespace
}  // namespace livesim::overlay
