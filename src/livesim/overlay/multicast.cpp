#include "livesim/overlay/multicast.h"

#include <stdexcept>

namespace livesim::overlay {

ForwardingHierarchy::ForwardingHierarchy(const geo::DatacenterCatalog& catalog,
                                         DatacenterId root_ingest)
    : root_(root_ingest) {
  const auto& root_dc = catalog.get(root_ingest);
  // Geographic tree with guaranteed progress: a parent must cut the
  // remaining distance to the root by at least 25%, which bounds depth
  // logarithmically in the root distance (nearby sites attach directly).
  constexpr double kProgress = 0.75;
  for (const auto* edge : catalog.edge_sites()) {
    const double my_root_km =
        geo::haversine_km(edge->location, root_dc.location);
    const geo::Datacenter* best = nullptr;
    double best_km = my_root_km;  // also no farther than going direct
    for (const auto* other : catalog.edge_sites()) {
      if (other->id == edge->id) continue;
      const double other_root_km =
          geo::haversine_km(other->location, root_dc.location);
      if (other_root_km > my_root_km * kProgress) continue;
      const double km = geo::haversine_km(edge->location, other->location);
      if (km < best_km) {
        best_km = km;
        best = other;
      }
    }
    parent_[edge->id.value] = best != nullptr ? best->id : root_ingest;
  }
  // Depths by walking up.
  for (const auto* edge : catalog.edge_sites()) {
    std::uint32_t d = 0;
    DatacenterId cur = edge->id;
    while (cur != root_) {
      cur = parent_.at(cur.value);
      ++d;
      if (d > 64) throw std::logic_error("hierarchy cycle");
    }
    depth_[edge->id.value] = d;
  }
  depth_[root_.value] = 0;
}

DatacenterId ForwardingHierarchy::parent(DatacenterId site) const {
  if (site == root_) return root_;
  return parent_.at(site.value);
}

std::vector<DatacenterId> ForwardingHierarchy::path_to_root(
    DatacenterId site) const {
  std::vector<DatacenterId> path;
  DatacenterId cur = site;
  while (cur != root_) {
    path.push_back(cur);
    cur = parent(cur);
  }
  return path;
}

std::uint32_t ForwardingHierarchy::depth(DatacenterId site) const {
  return depth_.at(site.value);
}

MulticastTree::MulticastTree(sim::Simulator& sim,
                             const geo::DatacenterCatalog& catalog,
                             const ForwardingHierarchy& hierarchy, Rng rng)
    : sim_(sim), catalog_(catalog), hierarchy_(hierarchy), rng_(rng) {}

MulticastTree::Node& MulticastTree::node_for(DatacenterId site) {
  auto it = nodes_.find(site.value);
  if (it == nodes_.end()) {
    Node node;
    node.site = site;
    it = nodes_.emplace(site.value, std::move(node)).first;
  }
  return it->second;
}

DurationUs MulticastTree::hop_delay(DatacenterId from, DatacenterId to,
                                    std::size_t bytes) {
  const double km = catalog_.distance_km(from, to);
  const DurationUs prop = geo::sample_delay(km, rng_);
  const double ser_s = static_cast<double>(bytes) * 8.0 / kLinkBandwidthBps;
  return prop + time::from_seconds(ser_s) + kGraftProcessing;
}

DurationUs MulticastTree::graft_path(DatacenterId site) {
  // Walk up from `site` until an already-grafted live node (or the root),
  // linking each new hop; failed ancestors are routed around. Each new
  // hop costs one control RTT; the graft completes after that latency.
  DurationUs latency = 0;
  DatacenterId cur = site;
  std::vector<DatacenterId> to_graft;
  while (true) {
    Node& node = node_for(cur);
    if (node.failed) {  // never graft onto a crashed server
      cur = hierarchy_.parent(cur);
      continue;
    }
    if (node.grafted) break;
    to_graft.push_back(cur);
    if (cur == hierarchy_.root()) break;
    DatacenterId up = hierarchy_.parent(cur);
    while (up != hierarchy_.root() && node_for(up).failed)
      up = hierarchy_.parent(up);
    latency += 2 * hop_delay(cur, up, 200);
    node_for(up).child_sites.insert(cur.value);
    cur = up;
  }
  sim_.schedule_in(latency, [this, to_graft] {
    for (DatacenterId s : to_graft) {
      Node& node = node_for(s);
      if (!node.failed) node.grafted = true;
    }
  });
  return latency;
}

std::uint64_t MulticastTree::join(const geo::GeoPoint& viewer_location,
                                  ViewerSink sink) {
  const std::uint64_t id = next_viewer_id_++;
  const auto& nearest = catalog_.nearest(viewer_location, geo::CdnRole::kEdge);
  // If the nearest edge is down, clients are redirected up the hierarchy.
  DatacenterId leaf_site = nearest.id;
  while (leaf_site != hierarchy_.root() && node_for(leaf_site).failed)
    leaf_site = hierarchy_.parent(leaf_site);

  Viewer v;
  v.leaf = leaf_site;
  v.sink = std::move(sink);
  auto lm = net::LastMileProfiles::wifi();
  lm.base_delay += geo::mean_delay(geo::haversine_km(
      viewer_location, catalog_.get(leaf_site).location));
  v.last_mile = std::make_unique<net::Link>(sim_, lm, rng_.fork());
  viewers_.emplace(id, std::move(v));
  ++viewer_count_;
  ++joins_;

  DurationUs join_latency = viewers_.at(id).last_mile->sample_delay(200);
  join_latency += graft_path(leaf_site);
  join_latency_sum_s_ += time::to_seconds(join_latency);

  sim_.schedule_in(join_latency, [this, id, leaf_site] {
    if (auto it = viewers_.find(id); it != viewers_.end() && it->second.active)
      node_for(leaf_site).local_viewers.push_back(id);
  });
  return id;
}

void MulticastTree::fail_site(DatacenterId site, DurationUs detection_delay) {
  if (site == hierarchy_.root()) return;  // ingest failure is out of scope
  auto it = nodes_.find(site.value);
  if (it == nodes_.end()) return;  // not on the tree: nothing to repair
  it->second.failed = true;
  it->second.grafted = false;
  const auto orphan_children = it->second.child_sites;
  const auto orphan_viewers = it->second.local_viewers;
  it->second.child_sites.clear();
  it->second.local_viewers.clear();
  // The parent stops forwarding to the dead node immediately.
  for (auto& [sid, node] : nodes_) node.child_sites.erase(site.value);

  sim_.schedule_in(detection_delay, [this, orphan_children, orphan_viewers,
                                     site] {
    ++repairs_;
    // Orphaned child sites re-graft around the failure.
    for (auto child : orphan_children) {
      auto cit = nodes_.find(child);
      if (cit == nodes_.end() || cit->second.failed) continue;
      cit->second.grafted = false;
      graft_path(DatacenterId{child});
    }
    // Stranded viewers reconnect to the first live ancestor.
    DatacenterId target = hierarchy_.parent(site);
    while (target != hierarchy_.root() && node_for(target).failed)
      target = hierarchy_.parent(target);
    const DurationUs d = graft_path(target);
    for (auto vid : orphan_viewers) {
      auto vit = viewers_.find(vid);
      if (vit == viewers_.end() || !vit->second.active) continue;
      vit->second.leaf = target;
      sim_.schedule_in(d, [this, vid, target] {
        auto v = viewers_.find(vid);
        if (v != viewers_.end() && v->second.active)
          node_for(target).local_viewers.push_back(vid);
      });
    }
  });
}

void MulticastTree::leave(std::uint64_t viewer_id) {
  auto it = viewers_.find(viewer_id);
  if (it == viewers_.end() || !it->second.active) return;
  it->second.active = false;
  --viewer_count_;

  Node& leaf = node_for(it->second.leaf);
  std::erase(leaf.local_viewers, viewer_id);
  // Prune childless, viewerless branches up the tree.
  DatacenterId cur = it->second.leaf;
  while (cur != hierarchy_.root()) {
    Node& node = node_for(cur);
    if (!node.local_viewers.empty() || !node.child_sites.empty()) break;
    const DatacenterId up = hierarchy_.parent(cur);
    nodes_.erase(cur.value);
    node_for(up).child_sites.erase(cur.value);
    cur = up;
  }
}

void MulticastTree::deliver_down(DatacenterId site,
                                 const media::VideoFrame& frame, TimeUs at) {
  auto it = nodes_.find(site.value);
  if (it == nodes_.end()) return;
  Node& node = it->second;
  if (node.failed) return;  // a crashed server forwards nothing
  if (!node.grafted && site != hierarchy_.root()) return;

  // Local viewer fan-out.
  for (std::uint64_t vid : node.local_viewers) {
    auto vit = viewers_.find(vid);
    if (vit == viewers_.end() || !vit->second.active) continue;
    ++forward_ops_;
    const DurationUs d =
        vit->second.last_mile->sample_delay(frame.size_bytes + 64);
    sim_.schedule_at(at + d, [this, vid, frame, arrive = at + d] {
      auto v = viewers_.find(vid);
      if (v != viewers_.end() && v->second.active) v->second.sink(frame, arrive);
    });
  }
  // One forward per child *site* -- this is the whole point.
  for (std::uint64_t child : node.child_sites) {
    ++forward_ops_;
    const DurationUs d =
        hop_delay(site, DatacenterId{child}, frame.size_bytes + 64);
    sim_.schedule_at(at + d, [this, child, frame, arrive = at + d] {
      deliver_down(DatacenterId{child}, frame, arrive);
    });
  }
}

void MulticastTree::push_frame(const media::VideoFrame& frame) {
  node_for(hierarchy_.root());  // ensure root exists
  nodes_.at(hierarchy_.root().value).grafted = true;
  deliver_down(hierarchy_.root(), frame, sim_.now());
}

}  // namespace livesim::overlay
