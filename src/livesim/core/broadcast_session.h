// BroadcastSession: one live broadcast simulated end to end.
//
// Wires together the whole measured pipeline of §4:
//
//   broadcaster --(FIFO uplink, RTMP)--> IngestServer (nearest Wowza site)
//     |-- push each frame --> RTMP viewers (persistent connections)
//     |-- Chunker --> sealed chunks --> expiry notices --> EdgeServers
//     |-- part slicer --> sealed parts --> pushed to EdgeServers
//                         EdgeServer <--(pull)-- HLS and LL-HLS viewers
//
// Both pull tiers run one transaction (pull_tick): a request leg, the
// edge call (an HLS chunk poll, or an LL-HLS blocking reload parked until
// the next part or the hold cap), and a response leg. Every delay
// component of Figure 10 is recorded as it happens, and every viewer runs
// the §6 playback schedule, so one session yields both the Figure 11
// breakdown and the Figure 16/17 buffering metrics.
#ifndef LIVESIM_CORE_BROADCAST_SESSION_H
#define LIVESIM_CORE_BROADCAST_SESSION_H

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "livesim/cdn/delivery_backend.h"
#include "livesim/cdn/servers.h"
#include "livesim/client/playback.h"
#include "livesim/control/health_monitor.h"
#include "livesim/core/delay_breakdown.h"
#include "livesim/fault/fault.h"
#include "livesim/fault/injector.h"
#include "livesim/geo/datacenters.h"
#include "livesim/media/encoder.h"
#include "livesim/net/link.h"
#include "livesim/overlay/mesh.h"
#include "livesim/sim/simulator.h"
#include "livesim/stats/accumulator.h"

namespace livesim::test {
struct SessionOracle;  // tests/session_fingerprint.h
}  // namespace livesim::test

namespace livesim::core {

/// Buckets per rotation of an edge's poll wheel (sim/poll_wheel.h). The
/// slot width cdn::kHlsPollInterval / kPollWheelSlots is the grid every
/// HLS poll phase is quantized onto (43.75 ms, which divides exactly).
inline constexpr std::uint32_t kPollWheelSlots = 64;

/// What varies between sessions. The models a session builds have no
/// settings: the encoder (media/encoder.h), the broadcaster's uplink
/// (net::LastMileProfiles::stable_uplink), the servers' CPU costs
/// (cdn/resource_model.h), the W2F transfer model (cdn/w2f.h), the
/// wide-area latency model (geo/geo.h) and the viewers' WiFi last mile.
/// RTMP and LL-HLS viewers anchor playback at fixed 1 s and 3 s
/// pre-buffers.
struct SessionConfig {
  DurationUs broadcast_len = 60 * time::kSecond;
  /// HLS chunk target; a chunk without a keyframe seals at twice it.
  DurationUs chunk_target = media::kChunkTarget;

  geo::GeoPoint broadcaster_location{37.77, -122.42};  // San Francisco

  /// Device-side capture->encode->packetize pipeline latency, part of the
  /// paper's "upload" component (timestamp 1 is stamped at capture).
  DurationUs device_pipeline = 180 * time::kMillisecond;

  std::uint32_t rtmp_viewers = 3;
  std::uint32_t hls_viewers = 3;
  /// LL-HLS/CMAF viewers (the middle tier of the delivery ladder). 0 (the
  /// default) never arms the partial-segment pipeline: a two-tier session
  /// schedules no part events.
  std::uint32_t llhls_viewers = 0;
  /// When set, viewer locations are sampled from the global user
  /// distribution; otherwise everyone sits near the broadcaster.
  bool global_viewers = true;

  /// HLS viewers poll their edge once per cdn::kHlsPollInterval, at a
  /// random phase on the kPollWheelSlots grid. They tick through the
  /// edge's poll wheel: one engine event per edge per tick fans out to
  /// every viewer due then, so scheduling cost scales with edges, not
  /// viewers. This is the pre-buffer they anchor with.
  DurationUs hls_prebuffer = 9 * time::kSecond;

  /// Adds a 0.1 s poller at every edge (the paper's measurement crawler):
  /// keeps caches fresh and records chunk availability for Fig 15.
  bool crawler_pollers = false;

  /// Records a per-chunk event ledger (the Figure 10 timestamps) for the
  /// first HLS viewer. Small per-chunk overhead; off by default.
  bool record_journeys = false;

  /// Fault script injected into this session (fault/fault.h). Empty (the
  /// default) means no injector is created: nothing is drawn and no fault
  /// event is scheduled. Times are relative to start().
  /// Correlated scripts (regional blackouts, cascades, rolling waves) are
  /// authored as a fault::FaultScenario and expanded into this same event
  /// form — or injected live via inject_faults() /
  /// LivestreamService::inject_scenario().
  /// A dead connection (RTMP ingest or HLS edge) goes unnoticed for
  /// cdn::kFailoverDetectTimeout before the client fails over.
  fault::FaultSchedule faults{};
  /// When true, viewers that failed over from RTMP to HLS re-attach to
  /// RTMP 2 s after the ingest restarts (kRtmpRejoinDelay); the client
  /// flushes its pipeline a second time, and that flush is accounted in
  /// the RTMP delay breakdown. Off by default: the measured app never
  /// returned migrated viewers to the low-delay path.
  bool rtmp_rejoin_after_restart = false;

  /// Concurrent-viewer capacity applied to every EdgeServer this session
  /// creates. 0 (default) = unbounded — failover re-anycasts to the
  /// nearest live edge. Finite values gate *failover admissions only*:
  /// organic anycast joins are load-blind (they still count toward
  /// load), so a popular edge can already be over capacity when a
  /// blackout's herd arrives and refuse all of it.
  std::uint64_t edge_capacity = 0;
  /// How many candidate edges (by the (distance, id) ranking) a failover
  /// may consider before orphaning: the spill rings. 0 = the entire
  /// footprint.
  std::uint32_t failover_spill_k = 0;

  /// Proactive control plane (control/health_monitor.h). Disabled (the
  /// default): nothing is constructed and no RNG substream is forked.
  /// Enabled: a HealthMonitor scrapes every instantiated edge every
  /// control::kScrapeInterval, the SteeringPolicy publishes anycast-map
  /// overrides control::kSteerLatency later, and new joins + failover
  /// re-anycast route around draining/dead edges before client timeouts
  /// fire. A published death proactively migrates the attached viewers.
  /// With control.overlay_assist, footprint saturation activates the
  /// overlay P2P mesh as edge offload: failovers that would orphan purely
  /// for capacity are parked on the mesh instead.
  control::ControlPlaneConfig control{};

  std::uint64_t seed = 1;
};

class BroadcastSession {
 public:
  struct ViewerResult {
    cdn::DeliveryTier tier = cdn::DeliveryTier::kRtmp;
    bool orphaned = false;    // failover found no live edge to land on
    geo::GeoPoint location;
    DatacenterId attachment;  // ingest (RTMP) or edge (HLS) site
    double stall_ratio = 0.0;
    double mean_buffering_s = 0.0;
    std::uint64_t units_played = 0;
    std::uint64_t units_discarded = 0;
  };

  BroadcastSession(sim::Simulator& sim, const geo::DatacenterCatalog& catalog,
                   SessionConfig config);
  ~BroadcastSession();

  BroadcastSession(const BroadcastSession&) = delete;
  BroadcastSession& operator=(const BroadcastSession&) = delete;

  /// Schedules the whole broadcast; results are valid once the simulator
  /// has drained (sim.run()) and finalize() has been called.
  void start();

  /// Folds per-viewer playback stats (client-buffering delay) into the
  /// breakdowns. Call once after the simulator drains; idempotent.
  void finalize();

  /// Adds a viewer on delivery tier `tier`, possibly mid-broadcast. RTMP
  /// viewers attach to the broadcaster's ingest site; pull viewers (HLS,
  /// LL-HLS) to their nearest edge via load-blind anycast. HLS viewers
  /// poll on their edge's wheel; LL-HLS viewers chain blocking reloads.
  /// `steer_avoid` is a SORTED span of edge site ids published as
  /// draining/dead by some control plane (the service-wide union
  /// LivestreamService assembles): joins route around them exactly like
  /// this session's own published overrides.
  ///
  /// Every draw the viewer owns -- poll phase, last-mile link jitter,
  /// corruption -- comes from its own stream, seeded from (config.seed,
  /// key). `key` defaults to the viewer's index; a crowd drive passes
  /// the record's global index, so a viewer's randomness does not
  /// depend on which sub-shard admitted it. Two viewers given one key
  /// draw the same sequence. Returns the viewer's index.
  std::size_t add_viewer(const geo::GeoPoint& location,
                         cdn::DeliveryTier tier,
                         std::span<const std::uint64_t> steer_avoid = {},
                         std::optional<std::uint64_t> key = std::nullopt);

  /// Detaches a viewer: polling stops, and nothing in flight (an RTMP
  /// push, an HLS poll response, a parked LL-HLS reload) is delivered
  /// after the leave. Playback stats remain queryable. Idempotent.
  void remove_viewer(std::size_t index);

  std::size_t viewer_count() const noexcept { return viewers_.size(); }

  /// Live playback state of a viewer (for feedback/interaction models).
  const client::PlaybackSchedule& viewer_playback(std::size_t index) const {
    return viewers_.at(index)->playback;
  }
  /// The tier a viewer is on now: failover and rejoin change it.
  cdn::DeliveryTier viewer_tier(std::size_t index) const {
    return viewers_.at(index)->tier;
  }

  // --- results ---
  const DelayBreakdown& rtmp_breakdown() const noexcept { return rtmp_; }
  const DelayBreakdown& hls_breakdown() const noexcept { return hls_; }
  const DelayBreakdown& llhls_breakdown() const noexcept { return llhls_; }
  std::vector<ViewerResult> viewer_results() const;

  const cdn::IngestServer& ingest() const noexcept { return *ingest_; }
  cdn::IngestServer& ingest() noexcept { return *ingest_; }
  DatacenterId ingest_site() const noexcept { return ingest_site_; }

  // --- resilience ---
  /// Injects an additional fault script into the RUNNING session (event
  /// times relative to now). This is how LivestreamService shares one
  /// expanded scenario across many concurrent broadcasts. An empty
  /// schedule is a no-op (no injector, no RNG draws).
  void inject_faults(const fault::FaultSchedule& schedule);

  /// RTMP viewers migrated to the HLS path after an ingest crash.
  std::uint64_t rtmp_failovers() const noexcept { return rtmp_failovers_; }
  /// Crash -> first HLS chunk on the migrated viewer's screen, seconds.
  const stats::Accumulator& failover_latency_s() const noexcept {
    return failover_latency_s_;
  }
  /// HLS viewers re-anycast to another edge after their PoP died.
  std::uint64_t edge_failovers() const noexcept { return edge_failovers_; }
  /// Edge death -> first chunk on screen via the new edge, seconds
  /// (detection + re-anycast + re-anchored first chunk: the second
  /// pipeline flush is inside this number).
  const stats::Accumulator& edge_failover_latency_s() const noexcept {
    return edge_failover_latency_s_;
  }
  /// Wheel re-attachment cost per refugee: migration decision -> the
  /// refugee's first (quantized) poll tick on the new edge's wheel,
  /// seconds. The quantize-to-next-slot component of the end-to-end
  /// failover number above, scored separately.
  const stats::Accumulator& reattach_latency_s() const noexcept {
    return reattach_latency_s_;
  }
  /// One viewer's re-attachment samples in event order (empty unless it
  /// migrated). The record-order rebuild source the sub-sharded crowd
  /// merge uses so merged samplers are bit-identical at any partition.
  std::span<const double> viewer_reattach_samples(std::size_t index) const {
    return viewers_.at(index)->reattach_samples;
  }
  /// Viewers whose failover found no live edge at all (global blackout).
  std::uint64_t orphaned_viewers() const noexcept { return orphaned_viewers_; }
  /// Migrated RTMP viewers that re-attached to RTMP after the ingest
  /// restarted (rtmp_rejoin_after_restart).
  std::uint64_t rtmp_rejoins() const noexcept { return rtmp_rejoins_; }
  /// Failover admissions that overflowed past at least one live-but-full
  /// edge (edge_capacity): the viewer spilled outward to a farther ring.
  std::uint64_t edge_spills() const noexcept { return edge_spills_; }
  /// Per spill: extra kilometres past the nearest *live* edge the viewer
  /// was pushed to (the load-aware re-anycast overshoot).
  const stats::Accumulator& spill_distance_km() const noexcept {
    return spill_distance_km_;
  }
  /// Peak concurrent attachments per edge site this session touched,
  /// sorted by site id (deterministic) — where the blackout's herd piled
  /// up.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edge_peak_loads()
      const;
  /// HLS downloads discarded as corrupt (client re-fetches on next poll).
  std::uint64_t corrupted_downloads() const noexcept {
    return corrupted_downloads_;
  }
  /// Faults dispatched so far (0 when every schedule is empty).
  std::uint64_t faults_injected() const noexcept {
    std::uint64_t n = 0;
    for (const auto& inj : injectors_) n += inj->injected();
    return n;
  }

  // --- control plane ---
  /// The session's control plane (nullptr unless config.control.enabled).
  const control::ControlPlane* control_plane() const noexcept {
    return control_.get();
  }
  /// Viewers migrated off a published-dead edge by the control plane
  /// BEFORE their own poll timeout would have noticed (subset of
  /// edge_failovers()).
  std::uint64_t proactive_migrations() const noexcept {
    return proactive_migrations_;
  }
  /// Capacity orphans parked on the overlay mesh instead of freezing.
  std::uint64_t overlay_assists() const noexcept { return overlay_assists_; }
  /// Organic joins that landed somewhere OTHER than their nearest live
  /// edge because a published drain/dead verdict (this session's own or
  /// the service-wide union passed into add_viewer) steered them away.
  std::uint64_t steered_joins() const noexcept { return steered_joins_; }
  /// The assist mesh (nullptr until the first rescue armed it).
  const overlay::P2PMesh* assist_mesh() const noexcept {
    return assist_mesh_.get();
  }

  /// Edge servers created by this session (keyed by datacenter id).
  const std::unordered_map<std::uint64_t, std::unique_ptr<cdn::EdgeServer>>&
  edges() const noexcept {
    return edges_;
  }

  /// Chunk completion times at the ingest, by chunk seq (Fig 15 numerator).
  const std::unordered_map<std::uint64_t, TimeUs>& chunk_completed_at()
      const noexcept {
    return chunk_completed_;
  }

  /// One chunk's trip through the Figure 10 timestamps (HLS path), as
  /// observed by the first HLS viewer. Populated when
  /// SessionConfig::record_journeys is set.
  struct ChunkJourney {
    std::uint64_t seq = 0;
    TimeUs captured = 0;        // (5) first frame leaves the camera
    TimeUs completed = 0;       // (7) chunk sealed at the ingest
    TimeUs available = 0;       // (11) cached at the viewer's edge
    TimeUs polled = 0;          // (14) the poll that found it hits the edge
    TimeUs received = 0;        // (15) response lands on the viewer
  };
  const std::vector<ChunkJourney>& journeys() const noexcept {
    return journeys_;
  }

 private:
  struct Viewer {
    Viewer(Rng stream, DurationUs prebuffer)
        : rng(stream), playback(prebuffer) {}

    /// Which delivery backend serves this viewer right now: kRtmp is the
    /// push path, both pull tiers poll an edge. The one tier state every
    /// failover sweep and ledger keys on. The flags sit next to it so
    /// they pack into one word.
    cdn::DeliveryTier tier = cdn::DeliveryTier::kRtmp;
    bool active = true;
    bool was_rtmp = false;  // joined on the RTMP path (rejoin candidate)
    bool orphaned = false;  // failover found no live edge; playback froze
    /// A migration armed a wheel re-attachment measurement; cleared when
    /// the sample is scored (or the refugee lands on LL-HLS, no wheel).
    bool pending_reattach = false;
    /// One pull request in flight, on either pull tier: the wheel skips
    /// an HLS viewer's ticks until the response lands, and an LL-HLS
    /// viewer re-requests only from the response leg.
    bool poll_outstanding = false;
    /// Which ledger the in-flight failover belongs to (RTMP->HLS vs
    /// edge-to-edge).
    bool failover_from_edge = false;
    /// Overlay-assist parking: the viewer lives on the P2P mesh instead
    /// of an edge (capacity orphan rescued by the control plane).
    bool on_mesh = false;
    geo::GeoPoint location;
    DatacenterId attachment{};
    /// The viewer's own stream (see add_viewer): phase, link and
    /// corruption draws.
    Rng rng;
    /// Held inline, so a poll touches one object per viewer. The link is
    /// emplaced by connect_last_mile (a Link cannot be reassigned).
    std::optional<net::Link> link;
    client::PlaybackSchedule playback;
    /// Schedules retired at each pipeline flush (RTMP->HLS failover,
    /// edge-to-edge re-anycast, RTMP rejoin): `playback` is replaced and
    /// the old phase is kept for result accounting, tagged with the path
    /// it covered.
    struct RetiredPhase {
      client::PlaybackSchedule playback;
      cdn::DeliveryTier tier = cdn::DeliveryTier::kRtmp;
    };
    std::vector<RetiredPhase> retired;
    /// Index into viewers_ (the wheel's opaque member tag).
    std::size_t index = 0;
    /// HLS tick source: cohort names this viewer's slot on cohort_wheel,
    /// the poll wheel of its attached edge (null while not polling).
    sim::PollWheel* cohort_wheel = nullptr;
    sim::CohortSlot cohort{};
    /// Re-attachment samples in event order (reattach_latency_s source).
    std::vector<double> reattach_samples;
    /// Pull cursor: the highest unit the client holds, in its tier's
    /// unit (chunks on HLS and on the mesh, parts on LL-HLS); -1 for
    /// none. The next request asks the edge for anything newer.
    std::int64_t last_seq = -1;
    /// Attachment epoch: bumped at every migration so responses in flight
    /// from a previous attachment are dropped (the client closed that
    /// connection), never delivered into the new pipeline.
    std::uint64_t generation = 0;
    /// Set while a failover is in flight: the death time, cleared (and
    /// the latency recorded) when the first post-migration chunk lands.
    TimeUs failover_crash_at = -1;
    std::uint64_t mesh_peer = 0;
  };
  // Per-viewer memory budget: a 100k-viewer crowd holds 100k of these.
  // The bound is a 200-byte viewer whose link and playback schedule are
  // counted inline instead of as two pointers.
  static_assert(sizeof(Viewer) <= 200 - 2 * sizeof(void*) +
                                      sizeof(std::optional<net::Link>) +
                                      sizeof(client::PlaybackSchedule));

  /// One failover/anycast admission decision by the spill policy.
  struct EdgeSelection {
    const geo::Datacenter* dc = nullptr;  // nullptr: every candidate
                                          // was dark, excluded, or full
    bool spilled = false;      // skipped >= 1 live-but-full nearer edge
    bool saw_full = false;     // >= 1 live-but-full candidate existed
                               // (set even when nothing was chosen: the
                               // capacity-orphan signal the overlay
                               // assist rescues)
    double distance_km = 0.0;  // viewer -> admitted edge
    double overshoot_km = 0.0; // admitted minus nearest-live distance
    bool steered = false;      // skipped >= 1 candidate on a published
                               // drain/dead verdict (own control plane
                               // or the caller's steer_avoid union)
  };

  cdn::EdgeServer& edge_for(DatacenterId site);
  /// The poll wheel an HLS viewer ticks on: its attached edge's, created
  /// on first use with the fan-out wired to pull_tick (under the test
  /// oracle, a fresh wheel of the viewer's own).
  sim::PollWheel& wheel_for(const Viewer& v);
  /// (Re)builds the viewer's last mile toward its current attachment.
  void connect_last_mile(Viewer& v);
  void attach_rtmp_viewer(Viewer& v);
  void start_hls_polling(Viewer& v);
  /// Tier dispatch for (re)starting a pull viewer's delivery loop: kHls
  /// -> start_hls_polling, kLlHls -> start_blocking_reload.
  void start_pull_delivery(Viewer& v);
  /// Arms the LL-HLS reload chain: its first pull_tick lands at a random
  /// phase in [now, now + kLlHlsPartDuration).
  void start_blocking_reload(Viewer& v);
  /// Installs the ingest part slicer + edge fan-out once (first LL-HLS
  /// viewer). Never called on two-tier configs, which schedule zero
  /// part events.
  void ensure_part_pipeline();
  /// The pre-buffer a pull viewer anchors with at its join and after a
  /// pipeline flush.
  DurationUs pull_prebuffer(cdn::DeliveryTier tier) const noexcept;
  /// The Fig 11 breakdown ledger a tier's samples land in.
  DelayBreakdown& breakdown_for(cdn::DeliveryTier tier) noexcept;
  /// One pull transaction, both pull tiers: horizon check, outstanding
  /// gate, then the request leg -> edge call -> response leg. The edge
  /// call is the tier's: an HLS chunk poll, or an LL-HLS blocking reload
  /// the edge parks until the next part or the hold cap. Returns false
  /// once the broadcast horizon has passed: the wheel fan-out then
  /// detaches an HLS viewer, and an LL-HLS chain simply ends.
  bool pull_tick(Viewer& v, TimeUs tick_time);
  /// The edge callback of a request that reached `edge` now: it samples
  /// the response delay and schedules the response leg with the served
  /// [begin, end) view into the edge's Unit log.
  template <class Unit>
  cdn::EdgeServer::PollCallback served_leg(Viewer& v, cdn::EdgeServer& edge,
                                           std::uint64_t gen);
  /// The response leg: corruption check, cursor advance and recording of
  /// edge.log<Unit>()[begin, end), then the outstanding bit clears. An
  /// LL-HLS viewer re-requests at once (preload hints: the edge's hold
  /// paces the loop).
  template <class Unit>
  void land_pull_response(Viewer& v, const cdn::EdgeServer& edge,
                          std::uint32_t begin, std::uint32_t end,
                          TimeUs poll_at_edge, TimeUs recv_time,
                          DurationUs download_delay);
  /// Records one fresh chunk (HLS) or part (LL-HLS) served by `edge` into
  /// the tier's breakdown and plays it.
  template <class Unit>
  void record_arrival(Viewer& v, const cdn::EdgeServer& edge, const Unit& u,
                      TimeUs poll_at_edge, TimeUs recv_time,
                      DurationUs download_delay);
  /// Leaves the wheel (HLS) and clears the outstanding flag. Callers
  /// bump the generation first so in-flight responses and parked
  /// reloads evaporate.
  void teardown_polling(Viewer& v);
  void arm_faults();
  void register_fault_handlers(fault::FaultInjector& injector);
  void on_ingest_crash(const fault::FaultEvent& e);
  void on_edge_down(const fault::FaultEvent& e);
  void migrate_rtmp_viewer(Viewer& v, TimeUs crashed_at);
  void migrate_hls_viewer(Viewer& v, TimeUs died_at,
                          std::span<const std::uint64_t> exclude);
  void rejoin_rtmp_viewer(Viewer& v);
  void admit_to_edge(Viewer& v, const EdgeSelection& sel);
  void detach_from_edge(Viewer& v);
  /// The spill policy. Candidates of role kEdge ranked by (distance, id)
  /// — the explicit catalog tie-break — truncated to
  /// config_.failover_spill_k (0 = all). A candidate is passed over when
  /// its id is in `exclude` (the PoP that just failed this viewer, plus
  /// the triggering event's dark set — it must never be re-picked even
  /// if its down window lapsed mid-detection), when its site is inside a
  /// down window at `now`, or — if `respect_capacity` — when its
  /// EdgeServer is full. The first survivor wins; `spilled` is set when
  /// a nearer live candidate was skipped only for being full. With no
  /// outages, no exclusions, and unlimited capacity this is exactly
  /// catalog_.nearest(p, kEdge) (same tie-break). `steer_avoid` (sorted
  /// site ids) marks candidates a published verdict steers around —
  /// skipped like control_->avoid, but attributed via
  /// EdgeSelection::steered.
  EdgeSelection nearest_live_edge(
      const geo::GeoPoint& p, TimeUs now,
      std::span<const std::uint64_t> exclude = {},
      bool respect_capacity = true,
      std::span<const std::uint64_t> steer_avoid = {}) const;
  bool edge_site_down(std::uint64_t site, TimeUs now) const noexcept;
  // Control plane (config_.control.enabled only).
  void start_control_plane();
  /// The scrape source: one EdgeSample per instantiated edge, sorted by
  /// site id — the monitor's determinism contract.
  std::vector<control::EdgeSample> scrape_edges() const;
  /// Published steer decision landed (kSteerLatency after it was made).
  void on_steer(const control::SteeringPolicy::Transition& t);
  /// Overlay assist: park a capacity orphan on the P2P mesh. Returns
  /// false when the assist is not armed (the caller orphans as before).
  bool rescue_on_mesh(Viewer& v);

  // The per-viewer-timer oracle (tests/session_fingerprint.h): when set
  // before start(), each HLS viewer polls on a wheel of its own, which
  // fires one engine event per tick exactly like a per-viewer timer. The
  // differential tests compare shared edge wheels against it.
  friend struct test::SessionOracle;
  bool per_viewer_wheels_ = false;
  std::vector<std::unique_ptr<sim::PollWheel>> viewer_wheels_;

  sim::Simulator& sim_;
  const geo::DatacenterCatalog& catalog_;
  SessionConfig config_;
  Rng rng_;
  TimeUs start_time_ = 0;  // set by start(); media clock origin

  DatacenterId ingest_site_{};
  std::unique_ptr<cdn::IngestServer> ingest_;
  std::unique_ptr<net::FifoUplink> uplink_;
  std::unique_ptr<media::FrameSource> source_;
  std::unique_ptr<sim::PeriodicProcess> frame_process_;

  std::unordered_map<std::uint64_t, std::unique_ptr<cdn::EdgeServer>> edges_;
  std::vector<std::unique_ptr<sim::PeriodicProcess>> crawler_processes_;
  std::vector<std::unique_ptr<Viewer>> viewers_;
  Viewer* first_hls_viewer_ = nullptr;  // journey-ledger subject

  // Fault state (all inert when config_.faults is empty and nothing was
  // injected live). Several injectors can coexist: one from the config
  // schedule plus one per inject_faults() call.
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors_;
  /// Per-site outage horizon: site -> sim time its current down window
  /// ends. Covers catalog sites with no EdgeServer object yet, so
  /// re-anycast avoids dark PoPs the session never touched.
  std::unordered_map<std::uint64_t, TimeUs> edge_down_until_;
  /// The ingest's outage horizon: overlapping crashes revive it only when
  /// the latest window ends.
  TimeUs ingest_down_until_ = 0;
  TimeUs corruption_until_ = 0;   // HLS downloads may corrupt before this
  double corruption_prob_ = 0.0;
  std::uint64_t corrupted_downloads_ = 0;
  std::uint64_t rtmp_failovers_ = 0;
  std::uint64_t edge_failovers_ = 0;
  std::uint64_t orphaned_viewers_ = 0;
  std::uint64_t rtmp_rejoins_ = 0;
  std::uint64_t edge_spills_ = 0;
  std::uint64_t steered_joins_ = 0;
  stats::Accumulator failover_latency_s_;
  stats::Accumulator edge_failover_latency_s_;
  stats::Accumulator reattach_latency_s_;
  stats::Accumulator spill_distance_km_;

  // Control plane (null unless config_.control.enabled).
  std::unique_ptr<control::ControlPlane> control_;
  // Overlay-assist mesh, created lazily at the first rescue.
  std::unique_ptr<overlay::P2PMesh> assist_mesh_;
  std::uint64_t overlay_assists_ = 0;
  std::uint64_t proactive_migrations_ = 0;

  // LL-HLS state (inert on two-tier configs).
  bool parts_armed_ = false;

  // Measurement state.
  bool finalized_ = false;
  DelayBreakdown rtmp_;
  DelayBreakdown hls_;
  DelayBreakdown llhls_;
  std::unordered_map<std::uint64_t, TimeUs> keyframe_arrival_;  // frame seq
  std::unordered_map<std::uint64_t, TimeUs> chunk_completed_;   // chunk seq
  std::vector<ChunkJourney> journeys_;
};

}  // namespace livesim::core

#endif  // LIVESIM_CORE_BROADCAST_SESSION_H
