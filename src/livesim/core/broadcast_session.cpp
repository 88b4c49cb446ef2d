#include "livesim/core/broadcast_session.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "livesim/cdn/w2f.h"
#include "livesim/sim/parallel.h"

namespace livesim::core {

namespace {
// Wire overhead per RTMP frame message (type + lengths + metadata).
constexpr std::size_t kFrameHeaderBytes = 64;
// Connect handshake: HTTPS token fetch + RTMP connect, sent ahead of the
// first frame on the same FIFO uplink, so session setup delays frame 1.
constexpr std::size_t kConnectBytes = 4096;
// HLS poll request and playlist response sizes.
constexpr std::size_t kPollRequestBytes = 400;
constexpr std::size_t kPlaylistBytes = 1200;
// Pre-buffers an RTMP and an LL-HLS viewer anchor playback with, at join
// and after a pipeline flush (HLS: SessionConfig::hls_prebuffer).
constexpr DurationUs kRtmpPrebuffer = 1 * time::kSecond;
constexpr DurationUs kLlHlsPrebuffer = 3 * time::kSecond;
// Ingest restart -> the app learns the ingest is back and re-attaches
// migrated viewers (SessionConfig::rtmp_rejoin_after_restart).
constexpr DurationUs kRtmpRejoinDelay = 2 * time::kSecond;
}  // namespace

BroadcastSession::BroadcastSession(sim::Simulator& sim,
                                   const geo::DatacenterCatalog& catalog,
                                   SessionConfig config)
    : sim_(sim), catalog_(catalog), config_(std::move(config)),
      rng_(config_.seed) {
  ingest_site_ =
      catalog_.nearest(config_.broadcaster_location, geo::CdnRole::kIngest).id;
  ingest_ = std::make_unique<cdn::IngestServer>(sim_, ingest_site_,
                                                config_.chunk_target);

  // Broadcaster uplink: last-mile profile + wide-area leg to the ingest.
  auto uplink_params = net::LastMileProfiles::stable_uplink();
  const double km = geo::haversine_km(
      config_.broadcaster_location, catalog_.get(ingest_site_).location);
  uplink_params.link.base_delay +=
      geo::mean_delay(km) + config_.device_pipeline;
  uplink_ = std::make_unique<net::FifoUplink>(sim_, uplink_params, rng_.fork());

  source_ = std::make_unique<media::FrameSource>(rng_.fork());
}

BroadcastSession::~BroadcastSession() = default;

cdn::EdgeServer& BroadcastSession::edge_for(DatacenterId site) {
  auto it = edges_.find(site.value);
  if (it != edges_.end()) return *it->second;

  const cdn::W2FModel w2f(catalog_);
  auto fetch = [this, site, w2f](
                   std::function<void(cdn::EdgeServer::FetchResult)> done) {
    if (ingest_->down()) {
      // Dead origin: the pull times out and the edge retries with backoff.
      sim_.schedule_in(500 * time::kMillisecond,
                       [done = std::move(done)] { done(std::nullopt); });
      return;
    }
    // Sample the origin-pull latency, then deliver a snapshot of the
    // ingest playlist as it stands when the transfer completes.
    const auto& playlist = ingest_->playlist();
    const std::uint64_t bytes =
        playlist.chunks.empty() ? 200000 : playlist.chunks.back().size_bytes;
    Rng local = rng_.fork();
    const DurationUs d =
        w2f.sample_transfer(ingest_site_, site, bytes, local);
    sim_.schedule_in(d, [this, done = std::move(done)] {
      done(ingest_->playlist().chunks);
    });
  };

  auto edge = std::make_unique<cdn::EdgeServer>(sim_, site, std::move(fetch));
  edge->set_capacity(config_.edge_capacity);
  auto* ptr = edge.get();
  edges_.emplace(site.value, std::move(edge));

  if (config_.crawler_pollers) {
    // The paper's measurement crawler: poll every 0.1 s with its own
    // cursor so chunk availability timestamps are tight (§4.3).
    auto cursor = std::make_shared<std::int64_t>(-1);
    crawler_processes_.push_back(std::make_unique<sim::PeriodicProcess>(
        sim_, sim_.now(), time::from_millis(100),
        [this, ptr, cursor](sim::PeriodicProcess& proc) {
          if (sim_.now() >
              start_time_ + config_.broadcast_len + 20 * time::kSecond) {
            proc.stop();
            return;
          }
          ptr->on_poll(*cursor, [ptr, cursor](TimeUs, std::uint32_t begin,
                                              std::uint32_t end) {
            for (const auto& c :
                 ptr->log<media::Chunk>().subspan(begin, end - begin))
              if (static_cast<std::int64_t>(c.seq) > *cursor)
                *cursor = static_cast<std::int64_t>(c.seq);
          });
        }));
  }
  return *ptr;
}

void BroadcastSession::start() {
  start_time_ = sim_.now();
  // --- broadcaster ---
  // Connect handshake occupies the uplink before the first frame; this is
  // why frame 1 arrives later than steady-state frames and why small
  // pre-buffers already absorb most jitter (§6).
  uplink_->send(kConnectBytes, [](TimeUs) {});

  const DurationUs frame_interval = media::kFrameInterval;
  const auto total_frames = static_cast<std::uint64_t>(
      config_.broadcast_len / frame_interval);

  frame_process_ = std::make_unique<sim::PeriodicProcess>(
      sim_, start_time_ + frame_interval, frame_interval,
      [this, total_frames](sim::PeriodicProcess& proc) {
        if (proc.ticks() > total_frames) {
          proc.stop();
          uplink_->send(128, [this](TimeUs) { ingest_->on_end_of_stream(); });
          return;
        }
        const media::VideoFrame f = source_->next(start_time_);
        const std::size_t bytes = f.size_bytes + kFrameHeaderBytes;
        // The frame's scalar fields ride the uplink, and the frame is
        // rebuilt on arrival: a session's frames carry no payload or
        // signature, and the whole 80-byte frame would not fit inline.
        auto arrive = [this, seq = f.seq, capture_ts = f.capture_ts,
                       duration = f.duration, size = f.size_bytes,
                       keyframe = f.keyframe](TimeUs arrival) {
          if (keyframe) keyframe_arrival_.emplace(seq, arrival);
          rtmp_.upload_s.add(time::to_seconds(arrival - capture_ts));
          media::VideoFrame frame;
          frame.seq = seq;
          frame.capture_ts = capture_ts;
          frame.duration = duration;
          frame.size_bytes = size;
          frame.keyframe = keyframe;
          ingest_->on_frame(frame);
        };
        static_assert(
            net::FifoUplink::ArrivalFn::fits_inline<decltype(arrive)>());
        uplink_->send(bytes, std::move(arrive));
      });

  // Chunk bookkeeping + edge expiry fan-out.
  ingest_->set_chunk_listener([this](const media::Chunk& c) {
    chunk_completed_.emplace(c.seq, c.completed_ts);
    // Per-chunk upload & chunking components (Figure 10: 6->7 via 5).
    if (auto it = keyframe_arrival_.find(c.first_frame_seq);
        it != keyframe_arrival_.end()) {
      hls_.upload_s.add(time::to_seconds(it->second - c.first_capture_ts));
      hls_.chunking_s.add(time::to_seconds(c.completed_ts - it->second));
    }
    for (auto& [site, edge] : edges_) {
      const double km = catalog_.distance_km(ingest_site_, DatacenterId{site});
      const DurationUs notice = geo::sample_delay(km, rng_);
      auto* eptr = edge.get();
      sim_.schedule_in(notice,
                       [eptr, seq = c.seq] { eptr->on_expire_notice(seq); });
    }
    // Overlay assist armed: the origin also seeds the P2P mesh, so
    // parked capacity orphans keep receiving the stream edge-free.
    // (assist_mesh_ stays null without the control plane — no branch
    // taken, no RNG drawn.)
    if (assist_mesh_) assist_mesh_->push_chunk(c);
  });

  // --- viewers ---
  // Tier order mirrors the handoff ladder: RTMP ranks first, then LL-HLS,
  // then HLS.
  geo::UserGeoSampler geo_sampler;
  const std::uint32_t total =
      config_.rtmp_viewers + config_.llhls_viewers + config_.hls_viewers;
  for (std::uint32_t i = 0; i < total; ++i) {
    const cdn::DeliveryTier tier =
        i < config_.rtmp_viewers ? cdn::DeliveryTier::kRtmp
        : i < config_.rtmp_viewers + config_.llhls_viewers
            ? cdn::DeliveryTier::kLlHls
            : cdn::DeliveryTier::kHls;
    add_viewer(config_.global_viewers ? geo_sampler.sample(rng_)
                                      : config_.broadcaster_location,
               tier);
  }

  arm_faults();
  start_control_plane();
}

void BroadcastSession::start_control_plane() {
  // Disabled: nothing is constructed and no substream is forked off
  // rng_.
  if (!config_.control.enabled) return;
  control_ = std::make_unique<control::ControlPlane>(sim_, config_.control,
                                                     rng_.fork());
  control_->set_steer_fn(
      [this](const control::SteeringPolicy::Transition& t) { on_steer(t); });
  control_->start([this] { return scrape_edges(); });
  // Same grace window the crawler pollers use: scraping past the
  // broadcast horizon would keep the engine's queue alive forever.
  sim_.schedule_in(config_.broadcast_len + 20 * time::kSecond,
                   [this] { control_->stop(); });
}

std::vector<control::EdgeSample> BroadcastSession::scrape_edges() const {
  // Sorted-site-id order: the monitor's ledgers, the policy's decision
  // stream, and every publication's engine-FIFO position all inherit
  // their determinism from this sort.
  std::vector<std::uint64_t> sites;
  sites.reserve(edges_.size());
  for (const auto& [site, edge] : edges_) sites.push_back(site);
  std::sort(sites.begin(), sites.end());

  const TimeUs now = sim_.now();
  std::vector<control::EdgeSample> out;
  out.reserve(sites.size());
  for (std::uint64_t site : sites) {
    const cdn::EdgeServer& edge = *edges_.at(site);
    control::EdgeSample s;
    s.site = site;
    s.attached = edge.attached();
    s.capacity = edge.capacity();
    s.fetch_failures = edge.fetch_failures();
    s.failure_streak = edge.fetch_failure_streak();
    s.cohort = edge.poll_wheel() != nullptr ? edge.poll_wheel()->size() : 0;
    // The scrape probe: a dead box answers nothing. The down-window map
    // covers sites whose EdgeServer flag was never flipped.
    s.down = edge.down() || edge_site_down(site, now);
    out.push_back(s);
  }
  return out;
}

void BroadcastSession::on_steer(
    const control::SteeringPolicy::Transition& t) {
  // Draining/dead sites are already routing-invisible via the published
  // override set (nearest_live_edge consults control_->avoid). The one
  // transition that demands action is a published death: migrate the
  // attached viewers NOW instead of letting each burn its own poll
  // timeout + detect window. The dead site rides in `exclude` so the
  // migration can never land back on it, and the later reactive
  // on_edge_down sweep skips these viewers (their attachment changed).
  if (t.to != control::EdgeHealth::kDead) return;
  const DatacenterId dark[] = {DatacenterId{t.site}};
  for (auto& vp : viewers_) {
    Viewer& v = *vp;
    if (!v.active || v.tier == cdn::DeliveryTier::kRtmp || v.orphaned ||
        v.on_mesh)
      continue;
    if (v.attachment.value != t.site) continue;
    ++proactive_migrations_;
    migrate_hls_viewer(v, t.decided_at, dark);
  }
}

bool BroadcastSession::rescue_on_mesh(Viewer& v) {
  if (!control_ || !control_->overlay_assist_active()) return false;
  if (!assist_mesh_) {
    assist_mesh_ =
        std::make_unique<overlay::P2PMesh>(sim_, control_->fork_rng());
  }
  ++overlay_assists_;
  v.on_mesh = true;
  v.attachment = DatacenterId{};  // no edge holds this viewer
  // The mesh carries chunks. An LL-HLS cursor counts parts, so it
  // restarts: the viewer holds no chunk yet.
  if (v.tier == cdn::DeliveryTier::kLlHls) v.last_seq = -1;
  v.flush_playback(v.tier, config_.hls_prebuffer);
  auto* viewer = &v;
  const std::uint64_t gen = v.generation;
  v.cold->mesh_peer = assist_mesh_->join(
      [this, viewer, gen](const media::Chunk& c, TimeUs at, std::uint32_t) {
        if (viewer->generation != gen || !viewer->active) return;
        if (static_cast<std::int64_t>(c.seq) <= viewer->last_seq) return;
        viewer->last_seq = static_cast<std::int64_t>(c.seq);
        viewer->playback.on_arrival(at, c.first_capture_ts, c.duration);
      });
  return true;
}

void BroadcastSession::leave_mesh(Viewer& v) {
  assist_mesh_->leave(v.cold->mesh_peer);
  v.on_mesh = false;
}

void BroadcastSession::arm_faults() {
  // Empty schedule: no injector, no RNG draws, no event-queue traffic.
  if (config_.faults.empty()) return;
  auto injector = std::make_unique<fault::FaultInjector>(sim_, config_.faults);
  register_fault_handlers(*injector);
  injector->arm();
  injectors_.push_back(std::move(injector));
}

void BroadcastSession::inject_faults(const fault::FaultSchedule& schedule) {
  if (schedule.empty()) return;
  auto injector = std::make_unique<fault::FaultInjector>(sim_, schedule);
  register_fault_handlers(*injector);
  injector->arm();  // event times land at now + e.at
  injectors_.push_back(std::move(injector));
}

void BroadcastSession::register_fault_handlers(
    fault::FaultInjector& injector) {
  injector.on(fault::FaultKind::kIngestCrash,
              [this](const fault::FaultEvent& e) { on_ingest_crash(e); });
  injector.on(fault::FaultKind::kEdgeCacheFlush,
              [this](const fault::FaultEvent& e) {
                for (auto& [site, edge] : edges_)
                  if (e.target == 0 || e.target == site) edge->flush_cache();
              });
  injector.on(fault::FaultKind::kLinkDegrade,
              [this](const fault::FaultEvent& e) {
                // Partition on the broadcaster's last mile: frames queue
                // and flood out at recovery (the Fig 16b mechanism).
                uplink_->inject_outage(e.duration);
              });
  injector.on(fault::FaultKind::kChunkCorruption,
              [this](const fault::FaultEvent& e) {
                const TimeUs until = sim_.now() + e.duration;
                if (until > corruption_until_) corruption_until_ = until;
                corruption_prob_ = e.magnitude > 0.0
                                       ? e.magnitude
                                       : fault::kCorruptionProbability;
              });
  injector.on(fault::FaultKind::kEdgeDown,
              [this](const fault::FaultEvent& e) { on_edge_down(e); });
}

void BroadcastSession::on_ingest_crash(const fault::FaultEvent& e) {
  // Scenario-expanded events target concrete sites; a crash somewhere
  // else in the footprint is not this broadcast's ingest dying.
  if (e.target != 0 && e.target != ingest_site_.value) return;
  ingest_->set_down(true);
  const TimeUs crashed_at = sim_.now();
  ingest_down_until_ = std::max(ingest_down_until_, crashed_at + e.duration);
  if (e.duration > 0) {
    sim_.schedule_in(e.duration, [this] {
      // Revive unless a later crash extended the outage.
      if (sim_.now() < ingest_down_until_) return;
      ingest_->set_down(false);
      if (!config_.rtmp_rejoin_after_restart) return;
      // The app announces the restarted ingest; migrated viewers tear
      // down HLS and re-attach to the low-delay path (second flush).
      sim_.schedule_in(kRtmpRejoinDelay, [this] {
        for (auto& vp : viewers_) {
          Viewer& v = *vp;
          if (!v.active || v.orphaned || !v.was_rtmp ||
              v.tier == cdn::DeliveryTier::kRtmp)
            continue;
          rejoin_rtmp_viewer(v);
        }
      });
    });
  }

  // RTMP clients notice the dead connection after the socket timeout and
  // fail over to HLS: re-attach to the nearest edge, which pulls from the
  // (restarted) origin over the same W2F path every HLS viewer uses.
  sim_.schedule_in(cdn::kFailoverDetectTimeout, [this, crashed_at] {
    for (auto& vp : viewers_) {
      Viewer& v = *vp;
      if (!v.active || v.tier != cdn::DeliveryTier::kRtmp) continue;
      migrate_rtmp_viewer(v, crashed_at);
    }
  });
}

void BroadcastSession::on_edge_down(const fault::FaultEvent& e) {
  const TimeUs now = sim_.now();
  const TimeUs until = now + e.duration;

  // Membership is decided at the event: target 0 = every edge this
  // session instantiated (a blanket outage), otherwise one catalog site
  // -- which may have no EdgeServer object yet and still must be dark to
  // re-anycast decisions.
  std::vector<DatacenterId> dark;
  if (e.target == 0) {
    dark.reserve(edges_.size());
    for (auto& [site, edge] : edges_) dark.emplace_back(site);
  } else {
    dark.emplace_back(e.target);
  }

  for (const DatacenterId dc : dark) {
    const std::uint64_t site = dc.value;
    auto& horizon = edge_down_until_[site];
    if (until > horizon) horizon = until;
    if (auto it = edges_.find(site); it != edges_.end())
      it->second->set_down(true);
    if (e.duration > 0) {
      sim_.schedule_in(e.duration, [this, site] {
        // Revive unless a later event extended this site's outage.
        if (edge_site_down(site, sim_.now())) return;
        if (auto it = edges_.find(site); it != edges_.end())
          it->second->set_down(false);
      });
    }
  }

  // Attached viewers time out after the detect window, then re-anycast
  // to the nearest edge still alive at detection time.
  sim_.schedule_in(cdn::kFailoverDetectTimeout,
                   [this, now, dark = std::move(dark)] {
    for (auto& vp : viewers_) {
      Viewer& v = *vp;
      // on_mesh viewers have no edge attachment to lose; viewers the
      // control plane already steered away no longer match the dark set.
      if (!v.active || v.tier == cdn::DeliveryTier::kRtmp || v.orphaned ||
          v.on_mesh)
        continue;
      const bool hit =
          std::find(dark.begin(), dark.end(), v.attachment) != dark.end();
      if (hit) migrate_hls_viewer(v, now, dark);
    }
  });
}

void BroadcastSession::migrate_rtmp_viewer(Viewer& v, TimeUs crashed_at) {
  // Kill the old pipeline first so in-flight deliveries are dropped.
  ++v.generation;
  teardown_polling(v);
  // The measured app's failover target was plain HLS (the 2016 ladder had
  // no middle rung); migrated RTMP viewers land on kHls, never kLlHls.
  v.tier = cdn::DeliveryTier::kHls;

  // Anycast only lands on a live PoP: a regional event that took the
  // ingest AND its co-located edge dark must not migrate viewers onto
  // another dead box. Failover admission respects edge capacity (spill
  // policy), so a herd of migrating RTMP viewers overflows ring by ring.
  const EdgeSelection sel = nearest_live_edge(v.location, sim_.now());
  if (sel.dc == nullptr) {
    v.orphaned = true;
    ++orphaned_viewers_;
    return;  // playback freezes; result scoring charges the missing tail
  }

  ++rtmp_failovers_;
  v.failover_crash_at = crashed_at;
  v.failover_from_edge = false;
  v.pending_reattach = true;  // arm the wheel re-attachment measurement
  admit_to_edge(v, sel);
  connect_last_mile(v);  // toward the edge: a different distance

  // The client tears down its RTMP pipeline and re-buffers on HLS: the
  // playback schedule re-anchors at the HLS pre-buffer, otherwise every
  // post-crash chunk would miss its (pre-crash) slot and be discarded.
  v.flush_playback(cdn::DeliveryTier::kRtmp, config_.hls_prebuffer);

  // Resume from the live edge of the stream: replaying chunks the viewer
  // already watched over RTMP would only register as stalls.
  std::int64_t last = -1;
  for (const auto& [seq, at] : chunk_completed_)
    if (at <= crashed_at && static_cast<std::int64_t>(seq) > last)
      last = static_cast<std::int64_t>(seq);
  v.last_seq = last;
  start_hls_polling(v);
}

void BroadcastSession::migrate_hls_viewer(
    Viewer& v, TimeUs died_at, std::span<const DatacenterId> exclude) {
  // Edge-to-edge failover: the viewer's PoP died; anycast re-routes them
  // to the nearest live edge with admission headroom, overflowing ring
  // by ring when nearer PoPs are full. The client flushes its pipeline a
  // second time (new pre-buffer), and the cold path to the new edge
  // shows up as the re-anchored first-chunk latency.
  // Drop responses in flight from the dead attachment; the generation
  // bump before the teardown is what keeps a stale in-flight poll from
  // double-counting or leaking its outstanding flag into the new edge's
  // cohort — the flag restarts clear, and every closure of the old
  // transaction fails its generation check.
  ++v.generation;
  teardown_polling(v);
  detach_from_edge(v);  // the dead PoP sheds its audience

  // `exclude` carries the triggering event's dark set (which contains
  // this viewer's attachment): even if a site's down window lapsed
  // during the detect window — or a second overlapping blackout
  // re-killed it — the viewer never re-anycasts onto the PoP that just
  // failed it.
  const EdgeSelection sel = nearest_live_edge(v.location, sim_.now(), exclude);
  if (sel.dc == nullptr) {
    // A capacity orphan (some live edge existed but was full) is the
    // overlay assist's case: when the control plane has armed the mesh,
    // park the viewer there instead of freezing their playback.
    if (sel.saw_full && rescue_on_mesh(v)) return;
    v.orphaned = true;
    ++orphaned_viewers_;
    return;
  }

  ++edge_failovers_;
  v.failover_crash_at = died_at;
  v.failover_from_edge = true;
  v.pending_reattach = true;  // arm the wheel re-attachment measurement
  admit_to_edge(v, sel);
  connect_last_mile(v);

  v.flush_playback(v.tier, pull_prebuffer(v.tier));
  // last_seq survives: the client still knows what it played; it asks the
  // new edge only for fresher chunks (LL-HLS: fresher parts).
  start_pull_delivery(v);
}

void BroadcastSession::start_pull_delivery(Viewer& v) {
  if (v.tier == cdn::DeliveryTier::kLlHls)
    start_blocking_reload(v);
  else
    start_hls_polling(v);
}

void BroadcastSession::rejoin_rtmp_viewer(Viewer& v) {
  // The ROADMAP gap: migrated RTMP viewers used to stay on HLS forever.
  // Re-attachment is the third pipeline state: tear down HLS polling,
  // flush the pipeline again (the retired HLS phase keeps its stats), and
  // resume on the persistent RTMP subscription, which delivers again as
  // soon as the tier is back to kRtmp.
  ++v.generation;
  teardown_polling(v);
  // A refugee parked on the mesh holds a peer slot, not an edge slot.
  if (v.on_mesh)
    leave_mesh(v);
  else
    detach_from_edge(v);  // the HLS attachment is torn down
  const cdn::DeliveryTier retired_tier = v.tier;  // the pull phase's ledger
  v.tier = cdn::DeliveryTier::kRtmp;
  v.failover_crash_at = -1;  // any unfinished failover measurement is moot
  v.pending_reattach = false;
  v.attachment = ingest_site_;
  connect_last_mile(v);

  v.flush_playback(retired_tier, kRtmpPrebuffer);
  ++rtmp_rejoins_;
}

bool BroadcastSession::edge_site_down(std::uint64_t site,
                                      TimeUs now) const noexcept {
  auto it = edge_down_until_.find(site);
  return it != edge_down_until_.end() && now < it->second;
}

BroadcastSession::EdgeSelection BroadcastSession::nearest_live_edge(
    const geo::GeoPoint& p, TimeUs now, std::span<const DatacenterId> exclude,
    bool respect_capacity, std::span<const std::uint64_t> steer_avoid) const {
  EdgeSelection sel;
  double nearest_live_km = -1.0;  // first live candidate (full or not)
  bool skipped_full = false;
  bool skipped_steer = false;
  for (const geo::RankedSite& candidate : catalog_.k_nearest(
           p, geo::CdnRole::kEdge, config_.failover_spill_k, exclude)) {
    const geo::Datacenter* dc = candidate.dc;
    if (edge_site_down(dc->id.value, now)) continue;
    // Service-wide verdict union (sorted): a site some session's control
    // plane published as draining/dead is skipped here exactly like this
    // session's own override below — same outcome, but attributed, so
    // the steered-joins ledger can count cross-session steering. Checked
    // first so own-override skips are attributed too (the skip happens
    // either way; the event stream is unchanged).
    if (!steer_avoid.empty() &&
        std::binary_search(steer_avoid.begin(), steer_avoid.end(),
                           dc->id.value)) {
      skipped_steer = true;
      continue;
    }
    // Published anycast-map override: the control plane decided this
    // site is draining or dead, so routing steers around it — new joins
    // and failover re-anycast alike — before client timeouts would.
    if (control_ && control_->avoid(dc->id.value)) continue;
    const double km = candidate.km;
    if (nearest_live_km < 0.0) nearest_live_km = km;
    if (respect_capacity) {
      // Only instantiated edges carry load; an untouched catalog site
      // has zero attachments and can never be full.
      auto it = edges_.find(dc->id.value);
      if (it != edges_.end() && it->second->full()) {
        skipped_full = true;  // spill outward, ring by ring
        continue;
      }
    }
    sel.dc = dc;
    sel.distance_km = km;
    sel.overshoot_km = km - nearest_live_km;
    sel.spilled = skipped_full;
    sel.saw_full = skipped_full;
    sel.steered = skipped_steer;
    return sel;
  }
  sel.saw_full = skipped_full;
  sel.steered = skipped_steer;
  return sel;  // every candidate dark, excluded, or full
}

void BroadcastSession::admit_to_edge(Viewer& v, const EdgeSelection& sel) {
  v.attachment = sel.dc->id;
  edge_for(v.attachment).attach();
  if (sel.spilled) {
    ++edge_spills_;
    spill_distance_km_.add(sel.overshoot_km);
  }
}

void BroadcastSession::detach_from_edge(Viewer& v) {
  // Only HLS viewers hold an edge attachment; the ledger lives on the
  // instantiated EdgeServer (attachment always instantiated one).
  if (auto it = edges_.find(v.attachment.value); it != edges_.end())
    it->second->detach();
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
BroadcastSession::edge_peak_loads() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(edges_.size());
  for (const auto& [site, edge] : edges_)
    out.emplace_back(site, edge->peak_attached());
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t BroadcastSession::add_viewer(
    const geo::GeoPoint& location, cdn::DeliveryTier tier,
    std::span<const std::uint64_t> steer_avoid,
    std::optional<std::uint64_t> key) {
  // The one place a viewer's stream is derived: a pure function of
  // (session seed, key), so no other viewer's draws can shift it.
  const std::size_t index = viewers_.size();
  auto v = std::make_unique<Viewer>(
      Rng(sim::substream_seed(config_.seed, key.value_or(index))),
      tier == cdn::DeliveryTier::kRtmp ? kRtmpPrebuffer : pull_prebuffer(tier));
  v->tier = tier;
  v->was_rtmp = tier == cdn::DeliveryTier::kRtmp;
  v->location = location;

  if (tier != cdn::DeliveryTier::kRtmp) {
    // Anycast skips dark PoPs (a viewer joining mid-outage) and sites
    // under a published drain/dead verdict (this session's own control
    // plane plus the caller's service-wide union) but is load-blind —
    // IP anycast does not know edge occupancy, so joins can push an
    // edge past capacity; only failover admissions spill. With no
    // outage and no verdicts this is exactly catalog_.nearest (same
    // tie-break).
    const EdgeSelection sel = nearest_live_edge(
        v->location, sim_.now(), {}, /*respect_capacity=*/false, steer_avoid);
    if (sel.dc != nullptr && sel.steered) ++steered_joins_;
    v->attachment = sel.dc != nullptr
                        ? sel.dc->id
                        : catalog_.nearest(v->location, geo::CdnRole::kEdge).id;
    edge_for(v->attachment).attach();
  } else {
    // RTMP viewers always connect to the broadcaster's ingest site.
    v->attachment = ingest_site_;
  }
  connect_last_mile(*v);

  if (tier == cdn::DeliveryTier::kLlHls) {
    ensure_part_pipeline();
    start_blocking_reload(*v);
  } else if (tier == cdn::DeliveryTier::kHls) {
    if (first_hls_viewer_ == nullptr) first_hls_viewer_ = v.get();
    start_hls_polling(*v);
  } else {
    attach_rtmp_viewer(*v);
  }
  viewers_.push_back(std::move(v));
  return index;
}

void BroadcastSession::connect_last_mile(Viewer& v) {
  auto params = net::LastMileProfiles::wifi();
  params.base_delay += geo::mean_delay(
      geo::haversine_km(v.location, catalog_.get(v.attachment).location));
  v.link.emplace(sim_, params, v.rng.fork());
}

DurationUs BroadcastSession::pull_prebuffer(
    cdn::DeliveryTier tier) const noexcept {
  return tier == cdn::DeliveryTier::kLlHls ? kLlHlsPrebuffer
                                           : config_.hls_prebuffer;
}

DelayBreakdown& BroadcastSession::breakdown_for(
    cdn::DeliveryTier tier) noexcept {
  switch (tier) {
    case cdn::DeliveryTier::kRtmp:
      return rtmp_;
    case cdn::DeliveryTier::kLlHls:
      return llhls_;
    case cdn::DeliveryTier::kHls:
      break;
  }
  return hls_;
}

void BroadcastSession::attach_rtmp_viewer(Viewer& v) {
  auto* viewer = &v;
  ingest_->add_rtmp_subscriber(
      [this, viewer](const media::VideoFrame& f, TimeUs at_ingest) {
        // Skip if the viewer left (connection torn down) or failed over to
        // HLS after an ingest crash (the old subscription is dead).
        if (!viewer->active || viewer->tier != cdn::DeliveryTier::kRtmp)
          return false;
        const DurationUs d =
            viewer->link->sample_delay(f.size_bytes + kFrameHeaderBytes);
        auto push = [this, viewer, capture_ts = f.capture_ts,
                     duration = f.duration, at_ingest, d] {
          if (!viewer->active || viewer->tier != cdn::DeliveryTier::kRtmp)
            return;
          rtmp_.last_mile_s.add(time::to_seconds(d));
          viewer->playback.on_arrival(at_ingest + d, capture_ts, duration);
        };
        static_assert(sim::EventFn::fits_inline<decltype(push)>());
        sim_.schedule_in(d, std::move(push));
        return true;
      });
}

void BroadcastSession::remove_viewer(std::size_t index) {
  auto& v = *viewers_.at(index);
  if (!v.active) return;
  v.active = false;
  // The client closed its connections: like a migration, the bump makes
  // every poll response in flight and every reload parked at the edge
  // evaporate instead of reaching playback and the delay ledgers.
  ++v.generation;
  teardown_polling(v);
  if (v.on_mesh) {
    // Mesh-parked viewers hold a peer slot, not an edge slot.
    leave_mesh(v);
    return;
  }
  // Orphans already shed their (dead) attachment during the failed
  // migration; detaching again would steal a slot from someone else.
  if (v.tier != cdn::DeliveryTier::kRtmp && !v.orphaned) detach_from_edge(v);
}

void BroadcastSession::ensure_part_pipeline() {
  // Armed once, by the first LL-HLS viewer. Two-tier configs never reach
  // this: their ingest slices no parts.
  if (parts_armed_) return;
  parts_armed_ = true;
  ingest_->enable_parts([this](const media::Part& p) {
    // The upload/parting analog of the chunk listener's Fig 10 split:
    // first-frame arrival bounds the upload leg; the seal closes the
    // (much shorter) parting leg.
    llhls_.upload_s.add(
        time::to_seconds(p.first_arrival_ts - p.first_capture_ts));
    llhls_.chunking_s.add(
        time::to_seconds(p.completed_ts - p.first_arrival_ts));
    // CMAF chunked transfer: the ingest streams each sealed part to every
    // edge as a push -- no per-part origin poll. Propagation is
    // deterministic (mean wide-area delay + inter-DC bandwidth), so the
    // part pipeline draws no RNG at all.
    for (auto& [site, edge] : edges_) {
      const double km = catalog_.distance_km(ingest_site_, DatacenterId{site});
      const DurationUs d =
          geo::mean_delay(km) +
          time::from_seconds(static_cast<double>(p.size_bytes) * 8.0 /
                             cdn::kInterDcBandwidthBps);
      auto* eptr = edge.get();
      sim_.schedule_in(d, [eptr, p] { eptr->on_part(p); });
    }
  });
}

void BroadcastSession::start_blocking_reload(Viewer& v) {
  // Random initial phase within one part cadence (the LL-HLS analog of
  // the HLS poll phase -- no wheel grid: reloads are server-paced, so
  // there is nothing to bucket). A refugee landing here has no wheel to
  // re-attach to, so any armed re-attachment measurement is dropped.
  v.pending_reattach = false;
  const TimeUs first =
      sim_.now() + static_cast<TimeUs>(
                       v.rng.uniform() *
                       static_cast<double>(cdn::kLlHlsPartDuration));
  auto* viewer = &v;
  const std::uint64_t gen = v.generation;
  sim_.schedule_at(first < sim_.now() + 1 ? sim_.now() + 1 : first,
                   [this, viewer, gen] {
                     if (viewer->generation != gen) return;
                     pull_tick(*viewer, sim_.now());
                   });
}

sim::PollWheel& BroadcastSession::wheel_for(const Viewer& v) {
  sim::PollWheel* wheel = nullptr;
  if (per_viewer_wheels_) {
    // The oracle: a one-member wheel is a per-viewer timer.
    wheel = viewer_wheels_
                .emplace_back(std::make_unique<sim::PollWheel>(
                    sim_, cdn::kHlsPollInterval, kPollWheelSlots))
                .get();
  } else {
    cdn::EdgeServer& edge = edge_for(v.attachment);
    if (sim::PollWheel* existing = edge.poll_wheel()) return *existing;
    wheel = &edge.poll_wheel(cdn::kHlsPollInterval, kPollWheelSlots);
  }
  wheel->set_fanout([this](TimeUs tick, void* member, sim::CohortSlot) {
    Viewer& v = *static_cast<Viewer*>(member);
    // Broadcast horizon passed: leave the cohort so the wheel stops
    // scheduling once its last member is gone and the run drains.
    if (!pull_tick(v, tick)) teardown_polling(v);
  });
  return *wheel;
}

void BroadcastSession::teardown_polling(Viewer& v) {
  if (v.cohort_wheel != nullptr) {
    v.cohort_wheel->detach(v.cohort);
    v.cohort_wheel = nullptr;
    v.cohort = sim::CohortSlot{};
  }
  // In-flight legs (and reloads parked at the edge) evaporate on the
  // caller's generation bump; the flag resets so a restarted loop begins
  // clean.
  v.poll_outstanding = false;
}

void BroadcastSession::start_hls_polling(Viewer& v) {
  // Random poll phase: viewers are not synchronized with chunk arrivals,
  // which is exactly what makes the polling delay a uniform-ish draw over
  // the interval (§5.2). The wheel quantizes it onto its grid: the
  // smallest slot boundary at or past the raw phase, strictly after now.
  sim::PollWheel& wheel = wheel_for(v);
  const TimeUs phase = wheel.quantize(
      sim_.now() + static_cast<TimeUs>(
                       v.rng.uniform() *
                       static_cast<double>(cdn::kHlsPollInterval)));

  // A refugee re-attaching after a migration: the quantize-to-next-slot
  // gap before its first poll tick on the new edge is the wheel
  // re-attachment cost, scored on its own ledger (the end-to-end
  // failover number still includes it). Armed only by the migrate paths.
  if (v.pending_reattach) {
    v.pending_reattach = false;
    const double delay_s = time::to_seconds(phase - sim_.now());
    reattach_latency_s_.add(delay_s);
    v.cold_state().reattach_samples.push_back(delay_s);
  }

  // The viewer joins the wheel's cohort; one engine event per tick fans
  // out to everyone due in that bucket, handed back as this address.
  v.cohort_wheel = &wheel;
  v.cohort = wheel.attach(phase, &v);
}

bool BroadcastSession::pull_tick(Viewer& v, TimeUs tick_time) {
  if (tick_time > start_time_ + config_.broadcast_len + 20 * time::kSecond)
    return false;
  if (v.poll_outstanding) return true;  // one request in flight
  v.poll_outstanding = true;

  auto* viewer = &v;
  auto* eptr = &edge_for(v.attachment);
  // Attachment epoch this request belongs to. Every closure below checks
  // it: after a migration or a leave the client closed this connection,
  // so a response still in flight (or a reload still parked at the old
  // edge) must evaporate instead of landing in the new pipeline.
  const std::uint64_t gen = v.generation;

  const DurationUs req_d = viewer->link->sample_delay(kPollRequestBytes);
  auto request_leg = [this, viewer, eptr, gen] {
    if (viewer->generation != gen) return;
    // The tier's edge call: an HLS poll is served from the chunk cache
    // (behind a coalesced origin fetch when stale); an LL-HLS blocking
    // reload parks until the next part or the hold cap.
    if (viewer->tier == cdn::DeliveryTier::kLlHls)
      eptr->on_part_poll(viewer->last_seq,
                         served_leg<media::Part>(*viewer, *eptr, gen));
    else
      eptr->on_poll(viewer->last_seq,
                    served_leg<media::Chunk>(*viewer, *eptr, gen));
  };
  static_assert(sim::EventFn::fits_inline<decltype(request_leg)>());
  sim_.schedule_in(req_d, std::move(request_leg));
  return true;
}

template <class Unit>
cdn::EdgeServer::PollCallback BroadcastSession::served_leg(
    Viewer& v, cdn::EdgeServer& edge, std::uint64_t gen) {
  auto on_served = [this, viewer = &v, eptr = &edge, gen,
                    poll_at_edge = sim_.now()](TimeUs served_at,
                                               std::uint32_t begin,
                                               std::uint32_t end) {
    if (viewer->generation != gen) return;
    std::uint64_t bytes = kPlaylistBytes;
    for (const Unit& u : eptr->log<Unit>().subspan(begin, end - begin))
      bytes += u.size_bytes;
    const DurationUs resp_d = viewer->link->sample_delay(bytes);
    // The response carries the served view, not the units: the edge's log
    // still holds them when the leg lands.
    auto response_leg = [this, viewer, eptr, gen, begin, end, poll_at_edge,
                         served_at, resp_d] {
      if (viewer->generation != gen) return;
      land_pull_response<Unit>(*viewer, *eptr, begin, end, poll_at_edge,
                               served_at + resp_d, resp_d);
    };
    static_assert(sim::EventFn::fits_inline<decltype(response_leg)>());
    sim_.schedule_in(resp_d, std::move(response_leg));
  };
  static_assert(
      cdn::EdgeServer::PollCallback::fits_inline<decltype(on_served)>());
  return on_served;
}

template <class Unit>
void BroadcastSession::land_pull_response(Viewer& v,
                                          const cdn::EdgeServer& edge,
                                          std::uint32_t begin,
                                          std::uint32_t end,
                                          TimeUs poll_at_edge,
                                          TimeUs recv_time,
                                          DurationUs download_delay) {
  // Injected corruption window: the download fails its integrity check
  // and is discarded whole; the next request re-fetches (the cursor did
  // not advance).
  if (recv_time < corruption_until_ && begin != end &&
      v.rng.bernoulli(corruption_prob_)) {
    ++corrupted_downloads_;
  } else {
    for (const Unit& u : edge.log<Unit>().subspan(begin, end - begin)) {
      if (static_cast<std::int64_t>(u.seq) <= v.last_seq) continue;
      v.last_seq = static_cast<std::int64_t>(u.seq);
      record_arrival(v, edge, u, poll_at_edge, recv_time, download_delay);
    }
  }
  v.poll_outstanding = false;
  // HLS polls again at its next wheel tick. LL-HLS re-requests at once
  // (preload hints): the edge's hold paces the loop.
  if (v.tier != cdn::DeliveryTier::kLlHls) return;
  auto* viewer = &v;
  const std::uint64_t gen = v.generation;
  sim_.schedule_in(0, [this, viewer, gen] {
    if (viewer->generation != gen) return;
    pull_tick(*viewer, sim_.now());
  });
}

template <class Unit>
void BroadcastSession::record_arrival(Viewer& v, const cdn::EdgeServer& edge,
                                      const Unit& u, TimeUs poll_at_edge,
                                      TimeUs recv_time,
                                      DurationUs download_delay) {
  DelayBreakdown& breakdown = breakdown_for(v.tier);
  const auto& availability = v.tier == cdn::DeliveryTier::kLlHls
                                 ? edge.part_availability()
                                 : edge.availability();
  std::optional<TimeUs> available;
  if (auto it = availability.find(u.seq); it != availability.end()) {
    available = it->second;
    breakdown.w2f_s.add(time::to_seconds(it->second - u.completed_ts));
    // A reload that parked BEFORE its part arrived has zero polling gap:
    // the blocking reload is exactly the mechanism that deletes the
    // Fig 10 polling component.
    const DurationUs polling =
        poll_at_edge > it->second ? poll_at_edge - it->second : 0;
    breakdown.polling_s.add(time::to_seconds(polling));
  }
  breakdown.last_mile_s.add(time::to_seconds(download_delay));
  if (v.failover_crash_at >= 0) {
    // First post-failover unit on screen: the migration is complete.
    // Edge-to-edge re-anycasts and RTMP->HLS migrations keep separate
    // ledgers (different detection paths, different pre-buffer flushes).
    auto& ledger =
        v.failover_from_edge ? edge_failover_latency_s_ : failover_latency_s_;
    ledger.add(time::to_seconds(recv_time - v.failover_crash_at));
    v.failover_crash_at = -1;
  }
  if (config_.record_journeys && &v == first_hls_viewer_) {
    ChunkJourney j;
    j.seq = u.seq;
    j.captured = u.first_capture_ts;
    j.completed = u.completed_ts;
    j.available = available.value_or(0);
    j.polled = poll_at_edge;
    j.received = recv_time;
    journeys_.push_back(j);
  }
  v.playback.on_arrival(recv_time, u.first_capture_ts, u.duration);
}

void BroadcastSession::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (const auto& v : viewers_) {
    breakdown_for(v->tier).buffering_s.merge(v->playback.buffering_delay_s());
    // Each retired phase (a pipeline flush: RTMP->HLS, edge-to-edge,
    // HLS->RTMP rejoin) folds into the breakdown of the path it covered.
    if (!v->cold) continue;
    for (const auto& phase : v->cold->retired)
      breakdown_for(phase.tier)
          .buffering_s.merge(phase.playback.buffering_delay_s());
  }
}

std::vector<BroadcastSession::ViewerResult>
BroadcastSession::viewer_results() const {
  std::vector<ViewerResult> out;
  out.reserve(viewers_.size());
  for (const auto& v : viewers_) {
    ViewerResult r;
    r.tier = v->tier;
    r.orphaned = v->orphaned;
    r.location = v->location;
    r.attachment = v->attachment;
    r.stall_ratio = v->playback.stall_ratio();
    r.mean_buffering_s = v->playback.buffering_delay_s().mean();
    r.units_played = v->playback.units_played();
    r.units_discarded = v->playback.units_discarded();
    if (v->cold && !v->cold->retired.empty()) {
      // Fold every retired phase back in: stall weighted by each phase's
      // offered media, buffering via accumulator merge. (Unmigrated
      // viewers have one phase, read directly above.)
      double weighted = v->playback.stall_ratio() *
                        static_cast<double>(v->playback.media_offered());
      double offered = static_cast<double>(v->playback.media_offered());
      stats::Accumulator merged = v->playback.buffering_delay_s();
      for (const auto& phase : v->cold->retired) {
        const auto& p = phase.playback;
        weighted += p.stall_ratio() * static_cast<double>(p.media_offered());
        offered += static_cast<double>(p.media_offered());
        merged.merge(p.buffering_delay_s());
        r.units_played += p.units_played();
        r.units_discarded += p.units_discarded();
      }
      if (offered > 0.0) r.stall_ratio = weighted / offered;
      r.mean_buffering_s = merged.mean();
    }
    out.push_back(r);
  }
  return out;
}

}  // namespace livesim::core
