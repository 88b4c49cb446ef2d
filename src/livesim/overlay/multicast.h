// Receiver-driven overlay multicast — the paper's §8 proposal.
//
// "To avoid the costs of managing persistent connections to each viewer,
// we can leverage a hierarchy of geographically clustered forwarding
// servers. To access a broadcast, a viewer would forward a request
// through their local leaf server and up the hierarchy, setting up a
// reverse forwarding path in the process. Once built, the forwarding
// path can efficiently forward video frames without per-viewer state or
// periodic polling." (cf. Scribe, Akamai's streaming CDN)
//
// We implement exactly that: forwarding servers at every edge datacenter
// arranged in a geographic hierarchy rooted at the broadcast's ingest
// site. Viewer joins propagate up only until they hit a node already on
// the tree; frames are then pushed down the tree once per *edge*, not
// once per viewer, and fan out to local viewers at the leaves.
#ifndef LIVESIM_OVERLAY_MULTICAST_H
#define LIVESIM_OVERLAY_MULTICAST_H

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "livesim/geo/datacenters.h"
#include "livesim/media/frame.h"
#include "livesim/net/link.h"
#include "livesim/sim/simulator.h"

namespace livesim::overlay {

/// The static forwarding hierarchy over a datacenter catalog: each edge
/// site picks the nearest site that is strictly closer to the root as its
/// parent (a greedy geographic tree rooted at the ingest site).
class ForwardingHierarchy {
 public:
  ForwardingHierarchy(const geo::DatacenterCatalog& catalog,
                      DatacenterId root_ingest);

  DatacenterId root() const noexcept { return root_; }

  /// Parent of an edge site on the path toward the root; the root ingest
  /// itself is the parent of top-level edges.
  DatacenterId parent(DatacenterId site) const;

  /// Path from a site up to (and excluding) the root, nearest-first.
  std::vector<DatacenterId> path_to_root(DatacenterId site) const;

  /// Tree depth of a site (root = 0).
  std::uint32_t depth(DatacenterId site) const;

 private:
  DatacenterId root_;
  std::unordered_map<std::uint64_t, DatacenterId> parent_;
  std::unordered_map<std::uint64_t, std::uint32_t> depth_;
};

/// One broadcast's multicast tree: forwarding state per datacenter node
/// plus per-leaf viewer fan-out. Join = graft the path; leave = prune.
/// Viewers hang off their leaf over net::LastMileProfiles::wifi().
class MulticastTree {
 public:
  /// Serialization rate of a tree hop between forwarding servers.
  static constexpr double kLinkBandwidthBps = 1e9;
  /// Per-hop forwarding (and graft) processing at a tree node.
  static constexpr DurationUs kGraftProcessing = 5 * time::kMillisecond;

  /// (frame, arrival time at the viewer's leaf) delivered to one viewer.
  using ViewerSink = std::function<void(const media::VideoFrame&, TimeUs)>;

  MulticastTree(sim::Simulator& sim, const geo::DatacenterCatalog& catalog,
                const ForwardingHierarchy& hierarchy, Rng rng);

  /// Viewer joins via its nearest edge site. Join latency (request up the
  /// tree to the first on-tree node) is simulated; frames flow after the
  /// graft completes. Returns the viewer's id within the tree.
  std::uint64_t join(const geo::GeoPoint& viewer_location, ViewerSink sink);

  /// Removes a viewer; prunes now-childless forwarding state.
  void leave(std::uint64_t viewer_id);

  /// Injects a frame at the root (called by the ingest server).
  void push_frame(const media::VideoFrame& frame);

  /// Failure injection: the forwarding server at `site` crashes. Frames
  /// stop flowing through it immediately; after `detection_delay`, every
  /// orphaned child (and the site's own viewers, via re-join) re-grafts
  /// around it through the hierarchy -- Scribe-style tree repair.
  void fail_site(DatacenterId site, DurationUs detection_delay);

  std::uint64_t repairs_performed() const noexcept { return repairs_; }

  /// Forwarding state size: number of on-tree datacenter nodes. This is
  /// the paper's point -- it scales with *regions covered*, not viewers.
  std::size_t on_tree_nodes() const noexcept { return nodes_.size(); }
  std::uint64_t viewers() const noexcept { return viewer_count_; }

  /// Total frame-forwarding operations performed (tree hops + viewer
  /// deliveries), for the CPU comparison.
  std::uint64_t forward_operations() const noexcept { return forward_ops_; }

  /// Mean join latency over all joins so far (seconds).
  double mean_join_latency_s() const noexcept {
    return joins_ ? join_latency_sum_s_ / static_cast<double>(joins_) : 0.0;
  }

 private:
  struct Node {
    DatacenterId site;
    bool grafted = false;           // receiving frames from the parent
    bool failed = false;            // crashed: forwards nothing
    std::vector<std::uint64_t> local_viewers;
    std::unordered_set<std::uint64_t> child_sites;
  };
  struct Viewer {
    DatacenterId leaf;
    ViewerSink sink;
    std::unique_ptr<net::Link> last_mile;
    bool active = true;
  };

  Node& node_for(DatacenterId site);
  DurationUs hop_delay(DatacenterId from, DatacenterId to, std::size_t bytes);
  void deliver_down(DatacenterId site, const media::VideoFrame& frame,
                    TimeUs at);
  /// Grafts `site` onto the live tree, skipping failed ancestors. Returns
  /// the join-control latency incurred.
  DurationUs graft_path(DatacenterId site);

  sim::Simulator& sim_;
  const geo::DatacenterCatalog& catalog_;
  const ForwardingHierarchy& hierarchy_;
  Rng rng_;

  std::unordered_map<std::uint64_t, Node> nodes_;  // by site id
  std::unordered_map<std::uint64_t, Viewer> viewers_;
  std::uint64_t next_viewer_id_ = 0;
  std::uint64_t viewer_count_ = 0;
  std::uint64_t forward_ops_ = 0;
  std::uint64_t joins_ = 0;
  std::uint64_t repairs_ = 0;
  double join_latency_sum_s_ = 0.0;
};

/// Architecture comparison record for the §8 bench.
struct ArchitectureCost {
  double mean_viewer_delay_s = 0.0;
  double server_cpu_percent = 0.0;   // at the busiest server
  double per_viewer_state = 0.0;     // persistent-connection state entries
};

}  // namespace livesim::overlay

#endif  // LIVESIM_OVERLAY_MULTICAST_H
