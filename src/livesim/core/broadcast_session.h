// BroadcastSession: one live broadcast simulated end to end.
//
// Wires together the whole measured pipeline of §4:
//
//   broadcaster --(FIFO uplink, RTMP)--> IngestServer (nearest Wowza site)
//     |-- push each frame --> RTMP viewers (persistent connections)
//     |-- Chunker --> sealed chunks --> expiry notices --> EdgeServers
//                         EdgeServer <--(poll, HLS)-- HLS viewers
//
// Every delay component of Figure 10 is recorded as it happens, and every
// viewer runs the §6 playback schedule, so one session yields both the
// Figure 11 breakdown and the Figure 16/17 buffering metrics.
#ifndef LIVESIM_CORE_BROADCAST_SESSION_H
#define LIVESIM_CORE_BROADCAST_SESSION_H

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "livesim/cdn/delivery_backend.h"
#include "livesim/cdn/resource_model.h"
#include "livesim/cdn/servers.h"
#include "livesim/cdn/w2f.h"
#include "livesim/client/blocking_reload.h"
#include "livesim/client/playback.h"
#include "livesim/client/retry.h"
#include "livesim/control/health_monitor.h"
#include "livesim/core/delay_breakdown.h"
#include "livesim/fault/fault.h"
#include "livesim/fault/injector.h"
#include "livesim/geo/datacenters.h"
#include "livesim/media/encoder.h"
#include "livesim/net/link.h"
#include "livesim/sim/simulator.h"
#include "livesim/stats/accumulator.h"

namespace livesim::core {

struct SessionConfig {
  DurationUs broadcast_len = 60 * time::kSecond;
  media::FrameSource::Params encoder{};
  net::FifoUplink::Params uplink = net::LastMileProfiles::stable_uplink();
  media::Chunker::Params chunker{};
  cdn::ResourceModel resources{};
  cdn::W2FModel::Params w2f{};
  geo::LatencyModel latency{};  // wide-area propagation model

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
  net::Link::Params viewer_last_mile = net::LastMileProfiles::wifi();

  DurationUs hls_poll_interval = time::from_seconds(2.8);
  DurationUs rtmp_prebuffer = 1 * time::kSecond;
  DurationUs hls_prebuffer = 9 * time::kSecond;
  DurationUs llhls_prebuffer = 3 * time::kSecond;

  /// LL-HLS tier knobs (part cadence, blocking-reload hold cap, preload
  /// hints). Normalized once at construction: degenerate durations are
  /// clamped at this config boundary (LlHlsParams::normalized()), so the
  /// part slicer, hold timers, and reload loop never see a zero or
  /// negative duration.
  cdn::LlHlsParams llhls{};

  /// Poll aggregation (the flash-crowd fast path). When true, HLS viewers
  /// are driven by their edge's bucketed sim::PollWheel — one engine
  /// event per edge per tick fans out to the whole attached cohort — so
  /// scheduling cost scales with edges, not viewers. When false, every
  /// viewer owns a PeriodicProcess (the reference path). Both paths
  /// quantize poll phases onto the same poll_wheel_slots grid and share
  /// one poll transaction, so results are byte-identical either way.
  bool poll_wheel = true;
  /// Wheel buckets per rotation; slot width = hls_poll_interval / slots.
  /// The effective poll interval is slot_width * slots (exact for the
  /// 2.8 s / 64 default).
  std::uint32_t poll_wheel_slots = 64;

  /// Opt-in client poll retry (the solo-timer demotion lane). Off (the
  /// default): an unanswered poll wedges the outstanding flag and the
  /// viewer stops polling until failover migrates it. On: a poll
  /// unanswered after poll_retry_timeout demotes the viewer from the
  /// wheel (or stops its timer) to a solo one-shot timer paced by
  /// client::PollRetryState's capped exponential backoff; the first
  /// answered poll re-promotes it to the steady-state tick source with a
  /// fresh phase. A viewer whose streak exhausts max_attempts goes inert
  /// until failover rescues it.
  bool hls_poll_retry = false;
  client::PollRetryState::Params poll_retry{};
  DurationUs poll_retry_timeout = 1 * time::kSecond;

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
  fault::FaultSchedule faults{};
  /// How long a dead connection (RTMP ingest or HLS edge) goes unnoticed
  /// before the client fails over (socket timeout + app reaction).
  DurationUs failover_detect_timeout = 2 * time::kSecond;
  /// When true, viewers that failed over from RTMP to HLS re-attach to
  /// RTMP once the ingest restarts (after rtmp_rejoin_delay); the client
  /// flushes its pipeline a second time, and that flush is accounted in
  /// the RTMP delay breakdown. Off by default: the measured app never
  /// returned migrated viewers to the low-delay path.
  bool rtmp_rejoin_after_restart = false;
  /// Restart -> the app learns the ingest is back and re-attaches.
  DurationUs rtmp_rejoin_delay = 2 * time::kSecond;

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
  /// Enabled: a HealthMonitor scrapes every instantiated edge on
  /// scrape_interval, the SteeringPolicy publishes anycast-map overrides
  /// steer_latency later, and new joins + failover re-anycast route
  /// around draining/dead edges before client timeouts fire. A published
  /// death proactively migrates the attached viewers. With
  /// control.overlay_assist, footprint saturation activates the overlay
  /// P2P mesh as edge offload: failovers that would orphan purely for
  /// capacity are parked on the mesh instead.
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
  /// LL-HLS) to their nearest edge via load-blind anycast, and kLlHls
  /// runs the blocking-playlist-reload loop instead of free polling.
  /// `steer_avoid` is a SORTED span of edge site ids published as
  /// draining/dead by some control plane (the service-wide union
  /// LivestreamService assembles): joins route around them exactly like
  /// this session's own published overrides.
  ///
  /// Every draw the viewer owns -- poll phase, last-mile link jitter,
  /// corruption, retry backoff -- comes from its own stream, seeded from
  /// (config.seed, key). `key` defaults to the viewer's index; a crowd
  /// drive passes the record's global index, so a viewer's randomness
  /// does not depend on which sub-shard admitted it. Two viewers given
  /// one key draw the same sequence. Returns the viewer's index.
  std::size_t add_viewer(const geo::GeoPoint& location,
                         cdn::DeliveryTier tier,
                         std::span<const std::uint64_t> steer_avoid = {},
                         std::optional<std::uint64_t> key = std::nullopt);

  /// Detaches a viewer: HLS polling stops, RTMP pushes are no longer
  /// delivered. Playback stats remain queryable. Idempotent.
  void remove_viewer(std::size_t index);

  std::size_t viewer_count() const noexcept { return viewers_.size(); }

  /// Live playback state of a viewer (for feedback/interaction models).
  const client::PlaybackSchedule& viewer_playback(std::size_t index) const {
    return *viewers_.at(index)->playback;
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
  /// failover number above, scored separately (ROADMAP / PR 6 + 8
  /// follow-up). Identical in the wheel and per-viewer-timer lanes
  /// (both tick on the same quantized phase grid).
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
    explicit Viewer(Rng stream) : rng(stream) {}

    /// Which delivery backend serves this viewer right now: kRtmp is the
    /// push path, both pull tiers poll an edge. The one tier state every
    /// failover sweep, ledger and tick lane keys on. The flags sit next
    /// to it so they pack into one word.
    cdn::DeliveryTier tier = cdn::DeliveryTier::kRtmp;
    bool active = true;
    bool was_rtmp = false;  // joined on the RTMP path (rejoin candidate)
    bool orphaned = false;  // failover found no live edge; playback froze
    /// A migration armed a wheel re-attachment measurement; cleared when
    /// the sample is scored (or the refugee lands on a no-wheel lane).
    bool pending_reattach = false;
    /// One request in flight. While wheel-attached the authoritative bit
    /// lives in the wheel's SoA cohort ledger; this bool covers the timer
    /// and solo lanes (and viewers whose slot was just torn down).
    bool poll_outstanding = false;
    /// Which ledger the in-flight failover belongs to (RTMP->HLS vs
    /// edge-to-edge).
    bool failover_from_edge = false;
    /// Overlay-assist parking: the viewer lives on the P2P mesh instead
    /// of an edge (capacity orphan rescued by the control plane).
    bool on_mesh = false;
    geo::GeoPoint location;
    DatacenterId attachment{};
    /// The viewer's own stream (see add_viewer): phase, link, corruption
    /// and retry draws.
    Rng rng;
    std::unique_ptr<net::Link> link;
    std::unique_ptr<client::PlaybackSchedule> playback;
    /// Schedules retired at each pipeline flush (RTMP->HLS failover,
    /// edge-to-edge re-anycast, RTMP rejoin): `playback` is replaced and
    /// the old phase is kept for result accounting, tagged with the path
    /// it covered.
    struct RetiredPhase {
      std::unique_ptr<client::PlaybackSchedule> playback;
      cdn::DeliveryTier tier = cdn::DeliveryTier::kRtmp;
    };
    std::vector<RetiredPhase> retired;
    /// LL-HLS blocking-reload lane state (client/blocking_reload.h);
    /// inert for RTMP/HLS viewers.
    client::BlockingReloadLane reload;
    /// Index into viewers_ (the wheel's opaque member tag).
    std::size_t index = 0;
    /// Tick source, one of three mutually exclusive lanes:
    ///  * wheel lane (config.poll_wheel): cohort names this viewer's slot
    ///    on cohort_wheel, the wheel owned by its attached edge;
    ///  * timer lane (!config.poll_wheel): poll_process, one periodic
    ///    timer on the same quantized grid;
    ///  * solo retry lane (config.hls_poll_retry, after a timeout):
    ///    retry_event, one-shot attempts paced by PollRetryState.
    std::unique_ptr<sim::PeriodicProcess> poll_process;  // HLS only
    sim::PollWheel* cohort_wheel = nullptr;
    sim::CohortSlot cohort{};
    sim::EventHandle retry_event{};
    std::unique_ptr<client::PollRetryState> retry;  // lazily, first failure
    /// Re-attachment samples in event order (reattach_latency_s source).
    std::vector<double> reattach_samples;
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
  static_assert(sizeof(Viewer) <= 272);

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
  sim::PollWheel& wheel_for(cdn::EdgeServer& edge);
  /// (Re)builds the viewer's last mile toward its current attachment.
  void connect_last_mile(Viewer& v);
  void attach_rtmp_viewer(Viewer& v);
  void start_hls_polling(Viewer& v);
  /// Tier dispatch for (re)starting a pull viewer's delivery loop: kHls
  /// -> start_hls_polling (unchanged), kLlHls -> start_blocking_reload.
  void start_pull_delivery(Viewer& v);
  /// Arms the LL-HLS reload chain with a random initial phase in
  /// [now, now + part_duration).
  void start_blocking_reload(Viewer& v);
  /// One blocking playlist reload: request leg -> edge on_part_poll
  /// (parks server-side until the next part or the hold cap) -> response
  /// leg -> re-request (immediately under preload hints, else one part
  /// cadence later). Returns false past the broadcast horizon; the chain
  /// simply ends.
  bool reload_tick(Viewer& v);
  void record_llhls_part(Viewer& v, const media::Part& p, TimeUs poll_at_edge,
                         TimeUs recv_time, DurationUs download_delay);
  /// Installs the ingest part slicer + edge fan-out once (first LL-HLS
  /// viewer). Never called on two-tier configs, which schedule zero
  /// part events.
  void ensure_part_pipeline();
  /// The pre-buffer a pull viewer re-anchors with after a pipeline flush.
  DurationUs pull_prebuffer(const Viewer& v) const noexcept;
  /// The Fig 11 breakdown ledger a tier's samples land in.
  DelayBreakdown& breakdown_for(cdn::DeliveryTier tier) noexcept;
  /// The shared poll transaction: horizon check, outstanding gate, then
  /// the request leg -> edge poll -> response leg, identical RNG draws
  /// and event structure whichever lane ticked it. Returns false when
  /// polling for this viewer must end (broadcast horizon passed); the
  /// caller tears down its tick source.
  bool poll_tick(Viewer& v, TimeUs tick_time);
  bool poll_outstanding(const Viewer& v) const;
  void set_poll_outstanding(Viewer& v, bool value);
  /// Stops every tick source (wheel slot, timer, solo retry event) and
  /// clears the outstanding flag. Callers owning a migration bump the
  /// generation first so in-flight responses evaporate.
  void teardown_polling(Viewer& v);
  /// Grid geometry shared by the wheel and the per-viewer timers.
  DurationUs poll_slot_width() const noexcept;
  DurationUs effective_poll_interval() const noexcept;
  TimeUs quantized_poll_phase(Rng& rng);
  // Solo retry lane (config.hls_poll_retry only).
  void arm_poll_timeout(Viewer& v, std::uint64_t gen);
  void poll_failed(Viewer& v, std::uint64_t gen);
  void poll_succeeded(Viewer& v);
  void record_hls_chunk(Viewer& v, const media::Chunk& c, TimeUs poll_at_edge,
                        TimeUs recv_time, DurationUs download_delay);
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
  /// catalog_.nearest(p, kEdge) (same tie-break), so fault-free runs are
  /// bit-identical. `steer_avoid` (sorted site ids) marks candidates a
  /// published verdict steers around — skipped like control_->avoid,
  /// but attributed via EdgeSelection::steered.
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
  /// Published steer decision landed (steer_latency after it was made).
  void on_steer(const control::SteeringPolicy::Transition& t);
  /// Overlay assist: park a capacity orphan on the P2P mesh. Returns
  /// false when the assist is not armed (the caller orphans as before).
  bool rescue_on_mesh(Viewer& v);

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

  // LL-HLS state (all inert on two-tier configs).
  cdn::LlHlsParams llhls_params_;  // normalized at construction
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
