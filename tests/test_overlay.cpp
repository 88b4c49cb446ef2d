#include <gtest/gtest.h>

#include "livesim/media/encoder.h"
#include "livesim/overlay/multicast.h"
#include "livesim/stats/accumulator.h"
#include "livesim/util/fingerprint.h"

namespace livesim::overlay {
namespace {

class OverlayFixture : public ::testing::Test {
 protected:
  OverlayFixture()
      : catalog_(geo::DatacenterCatalog::paper_footprint()),
        root_(catalog_.nearest({37.77, -122.42}, geo::CdnRole::kIngest).id),
        hierarchy_(catalog_, root_) {}

  MulticastTree make_tree() {
    return MulticastTree(sim_, catalog_, hierarchy_, Rng(3));
  }

  sim::Simulator sim_;
  geo::DatacenterCatalog catalog_;
  DatacenterId root_;
  ForwardingHierarchy hierarchy_;
};

TEST_F(OverlayFixture, HierarchyIsAcyclicAndRooted) {
  for (const auto* edge : catalog_.edge_sites()) {
    const auto path = hierarchy_.path_to_root(edge->id);
    EXPECT_LE(path.size(), 10u);
    EXPECT_EQ(path.empty() ? edge->id : path.front(), edge->id);
    // Every step moves strictly closer to the root.
    const auto& root_dc = catalog_.get(root_);
    double prev_km = geo::haversine_km(catalog_.get(edge->id).location,
                                       root_dc.location);
    for (std::size_t i = 1; i < path.size(); ++i) {
      const double km =
          geo::haversine_km(catalog_.get(path[i]).location, root_dc.location);
      EXPECT_LT(km, prev_km);
      prev_km = km;
    }
    EXPECT_EQ(hierarchy_.depth(edge->id), path.size());
  }
  EXPECT_EQ(hierarchy_.depth(root_), 0u);
}

// Golden: each delivery's arrival folds in the grafts, every inter-DC
// hop (propagation, serialization, forwarding) and the viewer's last
// mile, so the tree's link and graft timings are pinned.
TEST_F(OverlayFixture, DeliveryRunMatchesGolden) {
  auto tree = make_tree();
  util::Fingerprint h;
  Rng where(12);
  geo::UserGeoSampler sampler;
  for (int i = 0; i < 24; ++i)
    tree.join(sampler.sample(where),
              [&h](const media::VideoFrame& f, TimeUs at) {
                h.mix(f.seq).mix(static_cast<std::uint64_t>(at));
              });
  sim_.run();  // grafts complete

  media::FrameSource src(Rng(13));
  for (int i = 0; i < 50; ++i) tree.push_frame(src.next());
  sim_.run();
  h.mix_double(tree.mean_join_latency_s())
      .mix(tree.forward_operations())
      .mix(tree.on_tree_nodes());
  EXPECT_EQ(h.value(), 0xa9d35518dc89dff9ULL);
}

TEST_F(OverlayFixture, SingleViewerReceivesAllFrames) {
  auto tree = make_tree();
  int received = 0;
  tree.join({52.52, 13.40},  // Berlin
            [&](const media::VideoFrame&, TimeUs) { ++received; });
  sim_.run();  // graft completes

  media::FrameSource src(Rng(4));
  for (int i = 0; i < 100; ++i) tree.push_frame(src.next());
  sim_.run();
  EXPECT_EQ(received, 100);
}

TEST_F(OverlayFixture, FramesBeforeGraftAreMissed) {
  auto tree = make_tree();
  int received = 0;
  tree.join({52.52, 13.40},
            [&](const media::VideoFrame&, TimeUs) { ++received; });
  // Push immediately, before the graft completes.
  media::FrameSource src(Rng(5));
  tree.push_frame(src.next());
  sim_.run();
  EXPECT_EQ(received, 0);
}

TEST_F(OverlayFixture, ForwardingStateScalesWithSitesNotViewers) {
  auto tree = make_tree();
  Rng rng(6);
  geo::UserGeoSampler sampler;
  for (int i = 0; i < 2000; ++i)
    tree.join(sampler.sample(rng), [](const media::VideoFrame&, TimeUs) {});
  sim_.run();
  EXPECT_EQ(tree.viewers(), 2000u);
  // On-tree nodes bounded by the 23 edges + root, regardless of audience.
  EXPECT_LE(tree.on_tree_nodes(), 24u);
  EXPECT_GE(tree.on_tree_nodes(), 5u);
}

TEST_F(OverlayFixture, TreeForwardOpsBeatPerViewerPush) {
  auto tree = make_tree();
  Rng rng(7);
  geo::UserGeoSampler sampler;
  const int kViewers = 500;
  for (int i = 0; i < kViewers; ++i)
    tree.join(sampler.sample(rng), [](const media::VideoFrame&, TimeUs) {});
  sim_.run();

  media::FrameSource src(Rng(8));
  const int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) tree.push_frame(src.next());
  sim_.run();

  // Per frame: kViewers viewer-deliveries at the leaves are unavoidable,
  // but inter-DC forwards are bounded by the number of on-tree sites.
  const auto ops = tree.forward_operations();
  EXPECT_LT(ops, static_cast<std::uint64_t>(kFrames) * (kViewers + 30));
  // Unlike unicast RTMP, the *root* only sends one copy per child site:
  // verified indirectly by ops being close to the floor.
  EXPECT_GE(ops, static_cast<std::uint64_t>(kFrames) * kViewers);
}

TEST_F(OverlayFixture, LeavePrunesBranch) {
  auto tree = make_tree();
  const auto id =
      tree.join({-33.87, 151.21},  // Sydney: a lonely branch
                [](const media::VideoFrame&, TimeUs) {});
  sim_.run();
  const auto nodes_with = tree.on_tree_nodes();
  tree.leave(id);
  EXPECT_LT(tree.on_tree_nodes(), nodes_with);
  EXPECT_EQ(tree.viewers(), 0u);

  // Frames after leave reach nobody (and don't crash).
  media::FrameSource src(Rng(9));
  tree.push_frame(src.next());
  sim_.run();
}

TEST_F(OverlayFixture, LeaveKeepsSharedPath) {
  auto tree = make_tree();
  int received = 0;
  const auto a = tree.join({48.86, 2.35},  // Paris
                           [](const media::VideoFrame&, TimeUs) {});
  tree.join({48.86, 2.35},  // second Paris viewer shares the branch
            [&](const media::VideoFrame&, TimeUs) { ++received; });
  sim_.run();
  tree.leave(a);

  media::FrameSource src(Rng(10));
  for (int i = 0; i < 10; ++i) tree.push_frame(src.next());
  sim_.run();
  EXPECT_EQ(received, 10);  // survivor still served
}

TEST_F(OverlayFixture, DoubleLeaveIsIdempotent) {
  auto tree = make_tree();
  const auto id = tree.join({51.51, -0.13},
                            [](const media::VideoFrame&, TimeUs) {});
  sim_.run();
  tree.leave(id);
  tree.leave(id);
  tree.leave(9999);  // unknown id: no-op
  EXPECT_EQ(tree.viewers(), 0u);
}

TEST_F(OverlayFixture, JoinLatencyGrowsWithDistanceFromTree) {
  // First, an empty tree: a far viewer pays the full path graft.
  auto tree = make_tree();
  tree.join({-33.87, 151.21}, [](const media::VideoFrame&, TimeUs) {});
  sim_.run();
  const double first = tree.mean_join_latency_s();
  EXPECT_GT(first, 0.02);  // several wide-area RTTs

  // A second viewer in the same city grafts instantly at the leaf.
  auto tree2 = make_tree();
  tree2.join({-33.87, 151.21}, [](const media::VideoFrame&, TimeUs) {});
  sim_.run();
  tree2.join({-33.85, 151.20}, [](const media::VideoFrame&, TimeUs) {});
  sim_.run();
  // Mean over {full graft, leaf-only join} < full graft alone.
  EXPECT_LT(tree2.mean_join_latency_s(), first * 1.05);
}

TEST_F(OverlayFixture, EndToEndDelayComparableToRtmp) {
  auto tree = make_tree();
  stats::Accumulator delay;
  tree.join({40.71, -74.01},  // NYC
            [&](const media::VideoFrame& f, TimeUs at) {
              delay.add(time::to_seconds(at - f.capture_ts));
            });
  sim_.run();

  media::FrameSource src(Rng(11));
  for (int i = 0; i < 250; ++i) {
    const auto f = src.next();
    sim_.schedule_at(f.capture_ts, [&tree, f] { tree.push_frame(f); });
  }
  sim_.run();
  ASSERT_GT(delay.count(), 200u);
  // Tree forwarding adds hop delays but no chunking/polling: sub-second.
  EXPECT_LT(delay.mean(), 1.0);
  EXPECT_GT(delay.mean(), 0.02);
}

TEST_F(OverlayFixture, FailedLeafRepairsAndViewersResume) {
  auto tree = make_tree();
  int received = 0;
  tree.join({48.86, 2.35},  // Paris viewer -> Paris leaf
            [&](const media::VideoFrame&, TimeUs) { ++received; });
  sim_.run();

  media::FrameSource src(Rng(20));
  for (int i = 0; i < 10; ++i) tree.push_frame(src.next());
  sim_.run();
  ASSERT_EQ(received, 10);

  // The Paris edge crashes; detection takes 2 s.
  const auto& paris = catalog_.nearest({48.86, 2.35}, geo::CdnRole::kEdge);
  tree.fail_site(paris.id, 2 * time::kSecond);

  // Frames during the outage are lost to this viewer.
  for (int i = 0; i < 5; ++i) tree.push_frame(src.next());
  sim_.run_until(sim_.now() + time::kSecond);
  EXPECT_EQ(received, 10);

  // After detection + repair, frames flow again via the live ancestor.
  sim_.run();
  for (int i = 0; i < 10; ++i) tree.push_frame(src.next());
  sim_.run();
  EXPECT_EQ(received, 20);
  EXPECT_EQ(tree.repairs_performed(), 1u);
}

TEST_F(OverlayFixture, FailedTransitNodeReroutesSubtree) {
  auto tree = make_tree();
  int received = 0;
  // A viewer whose path to the San Jose root transits other edges.
  tree.join({52.52, 13.40},  // Berlin
            [&](const media::VideoFrame&, TimeUs) { ++received; });
  sim_.run();

  const auto& berlin_leaf =
      catalog_.nearest({52.52, 13.40}, geo::CdnRole::kEdge);
  const auto path = hierarchy_.path_to_root(berlin_leaf.id);
  ASSERT_GE(path.size(), 2u) << "need a transit hop for this test";
  const DatacenterId transit = path[1];

  tree.fail_site(transit, time::kSecond);
  sim_.run();  // detection + repair drain

  media::FrameSource src(Rng(21));
  for (int i = 0; i < 10; ++i) tree.push_frame(src.next());
  sim_.run();
  EXPECT_EQ(received, 10);  // subtree re-grafted around the dead transit
}

TEST_F(OverlayFixture, JoinAvoidsFailedLeaf) {
  auto tree = make_tree();
  const auto& paris = catalog_.nearest({48.86, 2.35}, geo::CdnRole::kEdge);
  // Pre-fail the Paris edge (it must be on the tree to be failable).
  tree.join({48.86, 2.35}, [](const media::VideoFrame&, TimeUs) {});
  sim_.run();
  tree.fail_site(paris.id, 0);
  sim_.run();

  int received = 0;
  tree.join({48.86, 2.35},
            [&](const media::VideoFrame&, TimeUs) { ++received; });
  sim_.run();
  media::FrameSource src(Rng(22));
  for (int i = 0; i < 5; ++i) tree.push_frame(src.next());
  sim_.run();
  EXPECT_EQ(received, 5);  // served from a live ancestor instead
}

TEST_F(OverlayFixture, FailUnknownOrRootIsNoop) {
  auto tree = make_tree();
  tree.fail_site(root_, 0);                      // root never "fails" here
  tree.fail_site(DatacenterId{999999}, 0);       // unknown id
  const auto& edge = *catalog_.edge_sites()[0];
  tree.fail_site(edge.id, 0);                    // not on the tree yet
  sim_.run();
  EXPECT_EQ(tree.repairs_performed(), 0u);
}

}  // namespace
}  // namespace livesim::overlay
