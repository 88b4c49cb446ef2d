#include "livesim/core/service.h"

#include <algorithm>

#include "livesim/sim/parallel.h"

namespace livesim::core {

namespace {
// The lag ledger a viewer's feedback is filed under: its tier now, not at
// join. An ingest crash moves RTMP joiners onto HLS, and their lag is a
// pull lag from then on; LL-HLS files under the pull ledger too.
const char* feedback_path(const BroadcastSession& session,
                          std::size_t viewer_index) {
  return session.viewer_tier(viewer_index) == cdn::DeliveryTier::kRtmp
             ? "rtmp"
             : "hls";
}
}  // namespace

LivestreamService::LivestreamService(sim::Simulator& sim,
                                     const geo::DatacenterCatalog& catalog,
                                     Config config)
    : sim_(sim), catalog_(catalog), config_(std::move(config)),
      rng_(config_.seed) {}

LivestreamService::~LivestreamService() = default;

BroadcastId LivestreamService::start_broadcast(const geo::GeoPoint& location,
                                               DurationUs length) {
  return start_broadcast_impl(location, length, /*is_private=*/false, {});
}

BroadcastId LivestreamService::start_private_broadcast(
    const geo::GeoPoint& location, DurationUs length,
    std::vector<UserId> invitees) {
  return start_broadcast_impl(location, length, /*is_private=*/true,
                              std::move(invitees));
}

BroadcastId LivestreamService::start_broadcast_impl(
    const geo::GeoPoint& location, DurationUs length, bool is_private,
    std::vector<UserId> invitees) {
  const BroadcastId id{next_id_++};
  auto b = std::make_unique<Broadcast>();
  b->info.id = id;
  b->info.broadcaster_location = location;
  b->info.started_at = sim_.now();
  b->info.length = length;
  b->info.live = true;
  b->info.is_private = is_private;
  b->info.encrypted_transport = is_private;  // RTMPS for private streams
  for (UserId u : invitees) b->invitees.insert(u.value);
  b->commenters = msg::CommenterPolicy(config_.commenter_cap);

  SessionConfig cfg = config_.session_defaults;
  cfg.broadcast_len = length;
  cfg.broadcaster_location = location;
  cfg.rtmp_viewers = 0;  // viewers join dynamically
  cfg.llhls_viewers = 0;
  cfg.hls_viewers = 0;
  cfg.seed = rng_.next_u64();
  b->session = std::make_unique<BroadcastSession>(sim_, catalog_, cfg);
  b->session->start();

  b->channel = std::make_unique<msg::Channel>(sim_);
  // Broadcaster subscribes to their own channel for hearts/comments.
  b->broadcaster_msg_link = std::make_unique<net::Link>(
      sim_, net::LastMileProfiles::wifi(), rng_.fork());
  auto* braw = b.get();
  b->channel->subscribe(
      b->broadcaster_msg_link.get(),
      [this, braw](const msg::Message& m, TimeUs delivered_at) {
        // Feedback lag: the broadcaster is live at `delivered_at`; the
        // reaction refers to `reacts_to_media_ts` on the stream clock.
        const double lag =
            time::to_seconds(delivered_at - m.reacts_to_media_ts);
        (m.text == "rtmp" ? rtmp_lag_ : hls_lag_).add(lag);
        if (m.type == msg::MessageType::kHeart) ++braw->info.hearts;
      });

  if (!is_private) list_.broadcast_started(id);  // private: never listed
  sim_.schedule_in(length, [this, id] {
    list_.broadcast_ended(id);
    if (auto it = broadcasts_.find(id.value); it != broadcasts_.end())
      it->second->info.live = false;
  });

  broadcasts_.emplace(id.value, std::move(b));
  return id;
}

LivestreamService::Broadcast* LivestreamService::live_broadcast(
    BroadcastId id) {
  auto it = broadcasts_.find(id.value);
  if (it == broadcasts_.end() || !it->second->info.live) return nullptr;
  return it->second.get();
}

std::optional<LivestreamService::ViewerHandle> LivestreamService::join(
    BroadcastId id, const geo::GeoPoint& location) {
  return join_as(id, UserId{}, location);
}

std::optional<LivestreamService::ViewerHandle> LivestreamService::join_as(
    BroadcastId id, UserId viewer, const geo::GeoPoint& location) {
  // Organic joins consult the service-wide verdict union: a site ANY
  // live session's control plane published as draining/dead is steered
  // around, not just this broadcast's own overrides (the cross-session
  // gap the per-session map left open).
  return join_steered(id, viewer, location, published_avoid());
}

std::optional<LivestreamService::ViewerHandle> LivestreamService::join_steered(
    BroadcastId id, UserId viewer, const geo::GeoPoint& location,
    std::span<const std::uint64_t> avoid, std::optional<std::uint64_t> key) {
  Broadcast* b = live_broadcast(id);
  if (b == nullptr) return std::nullopt;
  if (b->info.is_private &&
      (!viewer.valid() || b->invitees.count(viewer.value) == 0))
    return std::nullopt;  // not on the invite list

  ViewerHandle handle;
  handle.broadcast = id;
  // First-come slot policy, generalized to the three-way ladder: early
  // joiners get the low-delay RTMP path, the next llhls_slot_cap get
  // LL-HLS, everyone after lands on plain HLS. Every comparison is `<`
  // against the tier's ledger (the pinned boundary contract: the viewer
  // whose rank EQUALS a cap is the first member of the next tier). With
  // llhls_slot_cap == 0 the middle branch is dead: the two-way split.
  if (b->info.rtmp_viewers < config_.rtmp_slot_cap)
    handle.tier = cdn::DeliveryTier::kRtmp;
  else if (b->info.llhls_viewers < config_.llhls_slot_cap)
    handle.tier = cdn::DeliveryTier::kLlHls;
  else
    handle.tier = cdn::DeliveryTier::kHls;
  handle.rtmp = handle.tier == cdn::DeliveryTier::kRtmp;
  handle.can_comment = handle.rtmp && b->commenters.admit_commenter();
  handle.viewer_index =
      b->session->add_viewer(location, handle.tier, avoid, key);
  switch (handle.tier) {
    case cdn::DeliveryTier::kRtmp:
      b->info.rtmp_viewers += 1;
      break;
    case cdn::DeliveryTier::kLlHls:
      b->info.llhls_viewers += 1;
      break;
    case cdn::DeliveryTier::kHls:
      b->info.hls_viewers += 1;
      break;
  }
  return handle;
}

std::vector<std::uint64_t> LivestreamService::published_avoid() const {
  std::vector<std::uint64_t> avoid;
  for (const auto& [id, b] : broadcasts_) {
    if (!b->info.live) continue;
    if (const auto* cp = b->session->control_plane())
      for (std::uint64_t site : cp->published_overrides())
        avoid.push_back(site);
  }
  // Sort + dedup: the union is canonical whatever the hash-map
  // iteration order, and sorted is what add_viewer's binary search
  // needs.
  std::sort(avoid.begin(), avoid.end());
  avoid.erase(std::unique(avoid.begin(), avoid.end()), avoid.end());
  return avoid;
}

std::size_t LivestreamService::drive_crowd(
    std::span<const BroadcastId> channels,
    std::span<const workload::CrowdRecord> records,
    const CrowdDriveConfig& config) {
  auto d = std::make_unique<CrowdDrive>();
  d->config = config;
  d->channels.assign(channels.begin(), channels.end());
  d->records.assign(records.begin(), records.end());
  d->locations.resize(d->records.size());
  d->handles.resize(d->records.size());
  d->origin = sim_.now();
  d->stats.records = d->records.size();
  d->timeline =
      std::make_unique<sim::BatchTimeline>(sim_, config.batch_window);

  // Locations are pre-drawn in record order from per-record substreams:
  // the draw sequence never depends on batch composition, so reshaping
  // the window (or the thread count that generated the records) cannot
  // perturb any other RNG stream in the service.
  geo::UserGeoSampler sampler;
  const DurationUs window = d->timeline->window();
  for (std::size_t i = 0; i < d->records.size(); ++i) {
    Rng rng(sim::substream_seed(config.seed, config.record_index_offset + i));
    d->locations[i] = sampler.sample(rng);
    const workload::CrowdRecord& r = d->records[i];
    const TimeUs join_at = d->origin + r.join;
    // Op encoding: record index << 1, low bit = leave. The leave is
    // pushed to at least one window past the join so every admitted
    // viewer attaches to its edge's poll wheel for >= one full window
    // (churn exercises the wheel detach path, not a same-instant
    // join+leave).
    d->timeline->add(join_at, (static_cast<std::uint64_t>(i) << 1));
    const TimeUs leave_at =
        std::max(d->timeline->quantize(join_at) + window,
                 d->timeline->quantize(join_at + r.stay));
    d->timeline->add(leave_at, (static_cast<std::uint64_t>(i) << 1) | 1u);
  }

  auto* draw = d.get();
  d->timeline->seal(
      [this, draw](TimeUs at, std::span<const std::uint64_t> ops) {
        fire_crowd_batch(*draw, at, ops);
      });
  drives_.push_back(std::move(d));
  return drives_.size() - 1;
}

void LivestreamService::fire_crowd_batch(CrowdDrive& drive, TimeUs at,
                                         std::span<const std::uint64_t> ops) {
  ++drive.stats.batches;
  // One verdict-union snapshot per batch: published overrides only move
  // on engine events, and no time passes inside a batch, so per-join
  // lookups would all see this exact set anyway.
  const std::vector<std::uint64_t> avoid = published_avoid();
  for (std::uint64_t op : ops) {
    const std::size_t i = static_cast<std::size_t>(op >> 1);
    if (op & 1u) {
      // Early leave: flows through leave() -> remove_viewer() -> the
      // poll-wheel detach path, exactly like an organic departure.
      // Handles stay valid after the broadcast ends (leave is
      // idempotent there), so late leaves are applied, not dropped.
      if (drive.handles[i].valid()) {
        leave(drive.handles[i]);
        ++drive.stats.leaves;
      }
      continue;
    }
    const workload::CrowdRecord& r = drive.records[i];
    const BroadcastId channel = r.channel < drive.channels.size()
                                    ? drive.channels[r.channel]
                                    : BroadcastId{};
    // The viewer's stream is keyed by the record's GLOBAL index, so a
    // sub-shard slice hands every viewer the stream the full run would.
    auto handle = join_steered(channel, UserId{}, drive.locations[i], avoid,
                               drive.config.record_index_offset + i);
    if (!handle.has_value()) {
      // The channel ended before this record's (quantized) join landed,
      // or the record maps past the channel span.
      ++drive.stats.late_joins;
      continue;
    }
    drive.handles[i] = *handle;
    ++drive.stats.joins;
    drive.stats.admission_latency_s.add(
        time::to_seconds(at - (drive.origin + r.join)));
  }
}

void LivestreamService::leave(const ViewerHandle& viewer) {
  auto it = broadcasts_.find(viewer.broadcast.value);
  if (it == broadcasts_.end()) return;
  it->second->session->remove_viewer(viewer.viewer_index);
}

void LivestreamService::deliver_feedback(Broadcast& b, const msg::Message& m) {
  b.channel->publish(m);
}

void LivestreamService::send_heart(const ViewerHandle& viewer) {
  Broadcast* b = live_broadcast(viewer.broadcast);
  if (b == nullptr) return;
  const auto& playback = b->session->viewer_playback(viewer.viewer_index);
  const auto position = playback.media_position(sim_.now());
  if (!position) return;  // still pre-buffering: nothing on screen yet

  msg::Message m;
  m.type = msg::MessageType::kHeart;
  m.sent_at = sim_.now();
  // Capture timestamps are absolute simulation time already.
  m.reacts_to_media_ts = *position;
  m.text = feedback_path(*b->session, viewer.viewer_index);
  deliver_feedback(*b, m);
}

bool LivestreamService::send_comment(const ViewerHandle& viewer,
                                     const std::string& text) {
  Broadcast* b = live_broadcast(viewer.broadcast);
  if (b == nullptr) return false;
  if (!viewer.can_comment) {
    ++comments_rejected_;  // "Broadcast is too full" (the paper's §1 hacks)
    return false;
  }
  const auto& playback = b->session->viewer_playback(viewer.viewer_index);
  const auto position = playback.media_position(sim_.now());
  if (!position) return false;

  msg::Message m;
  m.type = msg::MessageType::kComment;
  m.sent_at = sim_.now();
  m.reacts_to_media_ts = *position;
  m.text = feedback_path(*b->session, viewer.viewer_index);
  (void)text;  // content is not modeled, only metadata (as in the crawl)
  ++b->info.comments;
  deliver_feedback(*b, m);
  return true;
}

std::size_t LivestreamService::inject_scenario(
    const fault::FaultScenario& scenario, std::uint64_t seed) {
  if (scenario.empty()) return 0;  // inert: no expansion, no RNG draws
  // Expand ONCE against the shared catalog: every session replays the
  // same outage script, so concurrent broadcasts experience one regional
  // event together rather than independent copies of it.
  const fault::FaultSchedule schedule = scenario.expand(catalog_, seed);
  if (schedule.empty()) return 0;

  // Sorted by broadcast id: injector arming order (and therefore
  // event-queue tie-breaking) is independent of hash-map iteration order.
  std::vector<std::uint64_t> ids;
  ids.reserve(broadcasts_.size());
  for (const auto& [id, b] : broadcasts_)
    if (b->info.live) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  for (std::uint64_t id : ids)
    broadcasts_.at(id)->session->inject_faults(schedule);
  return ids.size();
}

std::uint64_t LivestreamService::edge_spills() const {
  std::uint64_t total = 0;
  for (const auto& [id, b] : broadcasts_) total += b->session->edge_spills();
  return total;
}

stats::Accumulator LivestreamService::spill_distance_km() const {
  // Merge in broadcast-id order so the merged accumulator (and any
  // sampler it may grow) is independent of hash-map iteration order.
  std::vector<std::uint64_t> ids;
  ids.reserve(broadcasts_.size());
  for (const auto& [id, b] : broadcasts_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  stats::Accumulator out;
  for (std::uint64_t id : ids)
    out.merge(broadcasts_.at(id)->session->spill_distance_km());
  return out;
}

std::uint64_t LivestreamService::control_drains() const {
  std::uint64_t total = 0;
  for (const auto& [id, b] : broadcasts_)
    if (const auto* cp = b->session->control_plane())
      total += cp->policy().drains();
  return total;
}

std::uint64_t LivestreamService::steered_joins() const {
  std::uint64_t total = 0;
  for (const auto& [id, b] : broadcasts_)
    total += b->session->steered_joins();
  return total;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
LivestreamService::edge_peak_loads() const {
  std::unordered_map<std::uint64_t, std::uint64_t> by_site;
  for (const auto& [id, b] : broadcasts_)
    for (const auto& [site, peak] : b->session->edge_peak_loads())
      by_site[site] += peak;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out(by_site.begin(),
                                                           by_site.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<LivestreamService::BroadcastInfo> LivestreamService::info(
    BroadcastId id) const {
  auto it = broadcasts_.find(id.value);
  if (it == broadcasts_.end()) return std::nullopt;
  return it->second->info;
}

BroadcastSession* LivestreamService::session(BroadcastId id) {
  auto it = broadcasts_.find(id.value);
  return it == broadcasts_.end() ? nullptr : it->second->session.get();
}

}  // namespace livesim::core
