// LivestreamService: the whole application, dynamically.
//
// Manages many concurrent broadcasts the way Periscope does: a global
// public list of live broadcasts, an ingest assignment per broadcaster,
// the "first N viewers get RTMP + comment rights" admission policy with
// HLS overflow, and a PubNub-style message channel per broadcast carrying
// hearts and comments whose *feedback lag* (how stale the moment a viewer
// reacted to is by the time the broadcaster sees the reaction) is tracked
// -- the quantity the paper's introduction argues makes or breaks
// interactivity.
#ifndef LIVESIM_CORE_SERVICE_H
#define LIVESIM_CORE_SERVICE_H

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "livesim/core/broadcast_session.h"
#include "livesim/crawler/crawler.h"
#include "livesim/fault/scenario.h"
#include "livesim/msg/pubsub.h"
#include "livesim/sim/batch.h"
#include "livesim/stats/accumulator.h"
#include "livesim/workload/crowd.h"

namespace livesim::core {

class LivestreamService {
 public:
  struct Config {
    std::uint32_t rtmp_slot_cap = 100;    // the paper's first-100 policy
    /// LL-HLS slots after the RTMP cap (the three-way handoff ladder:
    /// RTMP -> LL-HLS -> HLS by join rank). 0 (the default) disables the
    /// middle tier: the handoff is the paper's two-way split.
    ///
    /// Boundary contract (pinned by HandoffBoundary tests): a viewer's
    /// 0-based join rank within the pull ladder is compared with `<`
    /// against each cap, so rank rtmp_slot_cap is the FIRST viewer of the
    /// next tier down, and rank rtmp_slot_cap + llhls_slot_cap is the
    /// first plain-HLS viewer. Slots are never recycled (the paper: only
    /// "the first 100 to join" ever get the low-delay path).
    std::uint32_t llhls_slot_cap = 0;
    std::uint32_t commenter_cap = 100;
    SessionConfig session_defaults{};     // viewer counts ignored; dynamic
    std::uint64_t seed = 1;
  };

  struct ViewerHandle {
    BroadcastId broadcast{};
    std::size_t viewer_index = 0;
    bool rtmp = false;         // low-latency path?
    bool can_comment = false;  // within the commenter cap?
    /// Which rung of the delivery ladder the handoff assigned.
    cdn::DeliveryTier tier = cdn::DeliveryTier::kHls;
    bool valid() const noexcept { return broadcast.valid(); }
  };

  struct BroadcastInfo {
    BroadcastId id{};
    geo::GeoPoint broadcaster_location{};
    TimeUs started_at = 0;
    DurationUs length = 0;
    bool live = false;
    // Private broadcasts (§2.1): invite-only, and -- per §7.2 -- the one
    // place Periscope pays for RTMPS, so they are tamper-proof.
    bool is_private = false;
    bool encrypted_transport = false;
    std::uint32_t rtmp_viewers = 0;
    std::uint32_t llhls_viewers = 0;
    std::uint32_t hls_viewers = 0;
    std::uint64_t hearts = 0;
    std::uint64_t comments = 0;
  };

  LivestreamService(sim::Simulator& sim, const geo::DatacenterCatalog& catalog,
                    Config config);
  ~LivestreamService();

  LivestreamService(const LivestreamService&) = delete;
  LivestreamService& operator=(const LivestreamService&) = delete;

  /// Starts a broadcast now; it appears on the global list until it ends.
  BroadcastId start_broadcast(const geo::GeoPoint& location,
                              DurationUs length);

  /// Starts a private broadcast: only `invitees` may join, it never
  /// appears on the global list, and video rides RTMPS (§7.2 -- "for
  /// scalability, Periscope uses RTMP/HLS for all public broadcasts and
  /// only uses RTMPS for private broadcasts").
  BroadcastId start_private_broadcast(const geo::GeoPoint& location,
                                      DurationUs length,
                                      std::vector<UserId> invitees);

  /// A viewer joins a live broadcast: the first `rtmp_slot_cap` joiners
  /// get the RTMP path (and, within `commenter_cap`, comment rights);
  /// everyone after lands on HLS. Returns nullopt if the broadcast is not
  /// live.
  std::optional<ViewerHandle> join(BroadcastId id,
                                   const geo::GeoPoint& location);

  /// Identity-carrying join: required for private broadcasts (the viewer
  /// must be on the invite list); equivalent to join() for public ones.
  std::optional<ViewerHandle> join_as(BroadcastId id, UserId viewer,
                                      const geo::GeoPoint& location);

  /// Viewer leaves the broadcast (their RTMP slot is not recycled -- the
  /// paper: only "the first 100 to join" ever get the low-delay path).
  void leave(const ViewerHandle& viewer);

  /// Viewer taps a heart: reacts to the media moment on their screen; the
  /// broadcaster receives it over the message channel and the service
  /// records the feedback lag (broadcaster's live position minus the
  /// reacted-to moment at receipt).
  void send_heart(const ViewerHandle& viewer);

  /// Viewer posts a comment (ignored unless the handle has comment
  /// rights -- the cap the paper criticizes).
  bool send_comment(const ViewerHandle& viewer, const std::string& text);

  /// Injects one correlated fault scenario into EVERY live broadcast: the
  /// scenario is expanded against the shared catalog exactly once (so all
  /// sessions see the same outage — one regional blackout, not one per
  /// broadcast), then handed to each live session via
  /// BroadcastSession::inject_faults with event times relative to now.
  /// An empty scenario expands to an empty schedule and injects nothing
  /// (bit-for-bit inert). Returns the number of sessions that received
  /// the schedule.
  std::size_t inject_scenario(const fault::FaultScenario& scenario,
                              std::uint64_t seed);

  // --- crowd consumption (workload/crowd.h -> service lifecycles) ------

  struct CrowdDriveConfig {
    /// Join/leave instants are quantized UP to multiples of this window
    /// and batched: one engine event per non-empty window drives the
    /// whole storm (sim/batch.h), so a 100k-viewer join storm costs
    /// O(windows) engine events, not O(viewers). The window is also the
    /// hard admission-latency bound the crowd bench pins.
    DurationUs batch_window = 500 * time::kMillisecond;
    /// Viewer-location substream: record i's location is drawn from
    /// substream_seed(seed, record_index_offset + i) at schedule time,
    /// in record order, so the drive is byte-identical at every thread
    /// count.
    std::uint64_t seed = 1;
    /// Global index of records[0]. Record i joins with viewer key
    /// record_index_offset + i (BroadcastSession::add_viewer), so a
    /// sub-sharded crowd (a slice of a channel's record range driven on
    /// its own simulator) passes the slice's begin and every record keeps
    /// the location and viewer streams it would draw in the full run —
    /// the partition invariance the intra-channel sharding axis rests
    /// on. 0 = the records span the whole drive.
    std::uint64_t record_index_offset = 0;
  };

  struct CrowdDriveStats {
    std::uint64_t records = 0;
    std::uint64_t joins = 0;       // admitted into a live broadcast
    std::uint64_t late_joins = 0;  // channel already ended (or unmapped)
    std::uint64_t leaves = 0;      // early-leave ops applied to a handle
    std::uint64_t batches = 0;     // engine callbacks fired so far
    /// Batch boundary minus the record's requested join instant,
    /// seconds: what batching cost each admitted viewer. max <
    /// batch_window by construction (the quantize contract).
    stats::Accumulator admission_latency_s;
  };

  /// Wires a generated crowd into broadcast/viewer lifecycles:
  /// `records[i].channel` indexes `channels`; each record joins that
  /// broadcast at its (quantized) join instant and leaves again at
  /// join + stay, churn flowing through the same leave()/poll-wheel
  /// detach path organic viewers use. A leave is pushed to at least
  /// one window past its join, so every admitted viewer lives on its
  /// edge's wheel for >= one full window. Joins consult the published
  /// verdict union (steered placement) once per batch. Record times
  /// are relative to now. Returns a drive id for crowd_stats(); stats
  /// are final once the simulator drains.
  std::size_t drive_crowd(std::span<const BroadcastId> channels,
                          std::span<const workload::CrowdRecord> records,
                          const CrowdDriveConfig& config);
  std::size_t drive_crowd(std::span<const BroadcastId> channels,
                          std::span<const workload::CrowdRecord> records) {
    return drive_crowd(channels, records, CrowdDriveConfig{});
  }
  const CrowdDriveStats& crowd_stats(std::size_t drive) const {
    return drives_.at(drive)->stats;
  }
  /// Record-order viewer handles of a drive (handles[i] belongs to
  /// records[i]; invalid when the join was late). The sub-sharded crowd
  /// merge walks these to rebuild per-record outcomes in global order.
  std::span<const ViewerHandle> crowd_handles(std::size_t drive) const {
    return drives_.at(drive)->handles;
  }

  /// Union of the published anycast-map overrides (draining/dead sites)
  /// across every live session's control plane, sorted and deduped: the
  /// service-wide verdict map organic joins are steered by. Empty when
  /// no session runs a control plane.
  std::vector<std::uint64_t> published_avoid() const;

  // --- introspection ---
  const crawler::GlobalList& global_list() const noexcept { return list_; }
  std::optional<BroadcastInfo> info(BroadcastId id) const;
  BroadcastSession* session(BroadcastId id);

  /// Feedback lag (seconds) across all hearts delivered so far, split by
  /// the sender's delivery path.
  const stats::Accumulator& rtmp_feedback_lag_s() const noexcept {
    return rtmp_lag_;
  }
  const stats::Accumulator& hls_feedback_lag_s() const noexcept {
    return hls_lag_;
  }
  std::uint64_t comments_rejected() const noexcept {
    return comments_rejected_;
  }

  // --- capacity / spill introspection (load-aware re-anycast) ---
  // Aggregated over every broadcast the service has started (live or
  // ended). Capacity knobs flow in via
  // Config::session_defaults.edge_capacity / .failover_spill_k, so a
  // scenario injected through inject_scenario() produces the hotspot
  // pile-ups these ledgers expose.

  /// Failover admissions that overflowed past a live-but-full edge.
  std::uint64_t edge_spills() const;
  /// Extra kilometres past the nearest live edge, per spill, merged
  /// across broadcasts in id order (deterministic).
  stats::Accumulator spill_distance_km() const;
  /// Per edge site: summed per-broadcast peak concurrent attachments,
  /// sorted by site id. An upper bound on the true simultaneous peak
  /// (per-broadcast peaks need not coincide), and exactly the hotspot
  /// ranking a blackout pile-up produces.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edge_peak_loads()
      const;

  // --- control-plane introspection (session_defaults.control.enabled) --
  // Aggregated over every broadcast, like the spill ledgers above. All
  // zero when the control plane is disabled.

  /// Drain decisions (healthy -> draining) across all sessions.
  std::uint64_t control_drains() const;
  /// Viewers proactively migrated off a published-dead edge before their
  /// own client timeout noticed.
  std::uint64_t proactive_migrations() const;
  /// Capacity orphans parked on the overlay-assist mesh.
  std::uint64_t overlay_assists() const;
  /// Organic joins routed around a published drain/dead verdict (their
  /// nearest live edge was under an override, own-session or another
  /// session's, so they landed farther out).
  std::uint64_t steered_joins() const;

 private:
  struct Broadcast {
    BroadcastInfo info;
    std::unique_ptr<BroadcastSession> session;
    std::unique_ptr<msg::Channel> channel;
    std::unique_ptr<net::Link> broadcaster_msg_link;
    msg::CommenterPolicy commenters{100};
    std::unordered_set<std::uint64_t> invitees;  // private broadcasts only
  };

  /// One drive_crowd() invocation: the batched timeline, the per-record
  /// pre-drawn locations, and the handles the leave ops consume.
  struct CrowdDrive {
    CrowdDriveConfig config;
    std::vector<BroadcastId> channels;
    std::vector<workload::CrowdRecord> records;
    std::vector<geo::GeoPoint> locations;
    std::vector<ViewerHandle> handles;
    std::unique_ptr<sim::BatchTimeline> timeline;
    TimeUs origin = 0;  // sim time the drive was scheduled
    CrowdDriveStats stats;
  };

  BroadcastId start_broadcast_impl(const geo::GeoPoint& location,
                                   DurationUs length, bool is_private,
                                   std::vector<UserId> invitees);

  Broadcast* live_broadcast(BroadcastId id);
  void deliver_feedback(Broadcast& b, const msg::Message& m, bool via_rtmp);
  std::optional<ViewerHandle> join_steered(
      BroadcastId id, UserId viewer, const geo::GeoPoint& location,
      std::span<const std::uint64_t> avoid,
      std::optional<std::uint64_t> key = std::nullopt);
  void fire_crowd_batch(CrowdDrive& drive, TimeUs at,
                        std::span<const std::uint64_t> ops);

  sim::Simulator& sim_;
  const geo::DatacenterCatalog& catalog_;
  Config config_;
  Rng rng_;
  crawler::GlobalList list_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Broadcast>> broadcasts_;
  std::uint64_t next_id_ = 0;
  stats::Accumulator rtmp_lag_;
  stats::Accumulator hls_lag_;
  std::uint64_t comments_rejected_ = 0;
  std::vector<std::unique_ptr<CrowdDrive>> drives_;
};

}  // namespace livesim::core

#endif  // LIVESIM_CORE_SERVICE_H
