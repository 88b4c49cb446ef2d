// Ingest (Wowza-like) and edge (Fastly-like) server state machines.
//
// IngestServer: terminates the broadcaster's RTMP connection, pushes each
// frame to its (capped) RTMP subscribers, and runs the chunker whose
// sealed chunks expire downstream edge caches.
//
// EdgeServer: serves HLS polls from cache; the first poll that arrives
// after an expiry notification triggers a single origin fetch, and every
// poll that arrives while the fetch is in flight waits for it (request
// coalescing) -- precisely the mechanism behind the paper's Wowza2Fastly
// delay component. Both caches (chunks, LL-HLS parts) are append-only
// logs: a response is an index range [begin, end) into one, not a copy,
// so serving a poll allocates nothing.
#ifndef LIVESIM_CDN_SERVERS_H
#define LIVESIM_CDN_SERVERS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "livesim/cdn/delivery_backend.h"
#include "livesim/cdn/resource_model.h"
#include "livesim/media/chunker.h"
#include "livesim/media/frame.h"
#include "livesim/sim/inplace_function.h"
#include "livesim/sim/poll_wheel.h"
#include "livesim/sim/simulator.h"
#include "livesim/util/ids.h"

namespace livesim::cdn {

class IngestServer {
 public:
  /// (frame, arrival time at ingest) -> push to one RTMP viewer. Returns
  /// whether the push went out: false while the viewer is gone or off
  /// RTMP. The subscription stays, so a rejoin delivers through it again.
  using FrameSink = std::function<bool(const media::VideoFrame&, TimeUs)>;
  /// Sealed chunk ready at the ingest -> notify edges / recorders.
  using ChunkSink = std::function<void(const media::Chunk&)>;
  /// Sealed LL-HLS partial segment -> notify edges.
  using PartSink = std::function<void(const media::Part&)>;

  /// `chunk_target`: the chunker's target duration (media::Chunker).
  IngestServer(sim::Simulator& sim, DatacenterId site, DurationUs chunk_target)
      : sim_(sim), site_(site), chunker_(chunk_target) {}

  /// Frame arrived over the broadcaster's uplink.
  void on_frame(const media::VideoFrame& frame);

  /// End of broadcast: seals any partial chunk.
  void on_end_of_stream();

  /// Adds an RTMP subscriber. The RTMP slot cap (the "first ~100 viewers"
  /// policy) is enforced by the service layer, not here.
  void add_rtmp_subscriber(FrameSink sink) {
    rtmp_subscribers_.push_back(std::move(sink));
  }

  void set_chunk_listener(ChunkSink sink) { chunk_listener_ = std::move(sink); }

  // --- LL-HLS partial segments ---
  // Off by default: with no part listener installed the per-frame path
  // takes no extra branch and charges no extra CPU. Parts close at
  // kLlHlsPartDuration of media, or earlier at a chunk boundary.
  void enable_parts(PartSink sink) { part_listener_ = std::move(sink); }
  std::uint64_t parts_built() const noexcept { return parts_built_; }

  /// Fault injection: while down, the server is a dead socket — frames
  /// are dropped (counted), no chunks seal, no RTMP pushes happen. The
  /// chunker state survives the crash (Wowza restarts on the same box).
  void set_down(bool down) noexcept { down_ = down; }
  bool down() const noexcept { return down_; }
  std::uint64_t frames_dropped() const noexcept { return frames_dropped_; }
  /// Consecutive frames dropped since the last successful ingest — the
  /// health monitor's "is this box wedged right now" signal, where
  /// frames_dropped() only says "has it ever dropped".
  std::uint32_t frame_drop_streak() const noexcept {
    return frame_drop_streak_;
  }

  DatacenterId site() const noexcept { return site_; }
  const media::ChunkList& playlist() const noexcept {
    return chunker_.playlist();
  }
  CpuMeter& cpu() noexcept { return cpu_; }
  std::uint64_t frames_ingested() const noexcept { return frames_ingested_; }
  /// Bytes pushed to RTMP subscribers (egress; only pushes that went out)
  /// and received (ingress).
  std::uint64_t egress_bytes() const noexcept { return egress_bytes_; }
  std::uint64_t ingress_bytes() const noexcept { return ingress_bytes_; }

 private:
  void emit_chunk(const media::Chunk& c);
  void accumulate_part(const media::VideoFrame& frame, TimeUs now);
  void flush_part(TimeUs now);

  sim::Simulator& sim_;
  DatacenterId site_;
  media::Chunker chunker_;
  CpuMeter cpu_;
  std::vector<FrameSink> rtmp_subscribers_;
  ChunkSink chunk_listener_;
  PartSink part_listener_;
  bool down_ = false;
  std::uint64_t frames_dropped_ = 0;
  std::uint32_t frame_drop_streak_ = 0;
  std::uint64_t frames_ingested_ = 0;
  std::uint64_t egress_bytes_ = 0;
  std::uint64_t ingress_bytes_ = 0;
  // LL-HLS part accumulator (active only with a part listener installed).
  media::Part part_;
  bool part_open_ = false;
  std::uint64_t next_part_seq_ = 0;
  std::uint64_t chunks_sealed_ = 0;
  std::uint64_t parts_built_ = 0;
};

class EdgeServer {
 public:
  /// Async origin fetch: the service wires this to the W2F model. The
  /// callback must eventually fire -- with the chunks now present at the
  /// origin playlist, or nullopt on a failed transfer (timeout, transient
  /// origin error), which the edge retries with backoff.
  using FetchResult = std::optional<std::vector<media::Chunk>>;
  using OriginFetchFn = std::function<void(std::function<void(FetchResult)>)>;

  /// (serve time at edge, begin, end): the units newer than the client's
  /// cursor are log<Unit>()[begin, end) -- chunks for on_poll, parts for
  /// on_part_poll. An empty part range means the hold cap expired with
  /// nothing new: the client re-requests at once (preload-hint
  /// semantics). The 40-byte buffer holds the session's capture (this,
  /// viewer, edge, generation, poll instant), so a poll parks inline.
  using PollCallback =
      sim::InplaceFunction<void(TimeUs, std::uint32_t, std::uint32_t), 40>;

  /// Failed origin fetches retry with linear backoff (attempt k waits
  /// k * kFetchRetryBackoff); after kFetchAttempts failures the waiters
  /// get whatever is cached.
  static constexpr DurationUs kFetchRetryBackoff = 250 * time::kMillisecond;
  static constexpr std::uint32_t kFetchAttempts = 4;

  EdgeServer(sim::Simulator& sim, DatacenterId site, OriginFetchFn fetch)
      : sim_(sim), site_(site), fetch_(std::move(fetch)) {}

  /// Expiry notification from the ingest: a chunk with this sequence now
  /// exists upstream, so the cached chunklist is stale.
  void on_expire_notice(std::uint64_t latest_seq);

  /// An HLS poll arrived at this edge. `client_last_seq` is the highest
  /// chunk sequence the client already has (-1 for none).
  void on_poll(std::int64_t client_last_seq, PollCallback cb);

  /// The append-only logs a served [begin, end) indexes: media::Chunk
  /// for on_poll, media::Part for on_part_poll. The cache window, a flush
  /// and a death move a low index instead of erasing, so an entry's index
  /// and value never change and a range names the same units for the
  /// edge's whole life. Each log grows by one entry per fetched chunk or
  /// pushed part; a fetch after a gap appends the new window after it.
  template <class Unit>
  std::span<const Unit> log() const noexcept {
    if constexpr (std::is_same_v<Unit, media::Part>)
      return part_log_;
    else
      return chunk_log_;
  }

  /// When each chunk became servable at this edge (Fig 15's timestamp 11).
  const std::unordered_map<std::uint64_t, TimeUs>& availability()
      const noexcept {
    return chunk_available_;
  }

  // --- LL-HLS partial segments + blocking playlist reload ---
  // Parts are pushed edge-ward by the session as they seal at ingest (no
  // origin fetch on this path -- the push is the CMAF chunked-transfer
  // analog). A blocking reload whose requested part is not yet here parks
  // server-side and is released by the next on_part() or by its
  // kLlHlsHoldCap timer (released empty: the client re-requests at once).

  /// A partial segment propagated from the ingest reached this edge.
  void on_part(const media::Part& part);

  /// A blocking playlist reload. `client_last_part` is the highest part
  /// sequence the client already has (-1 for none).
  void on_part_poll(std::int64_t client_last_part, PollCallback cb);

  /// When each part became servable at this edge.
  const std::unordered_map<std::uint64_t, TimeUs>& part_availability()
      const noexcept {
    return part_available_;
  }
  std::uint64_t parts_received() const noexcept { return parts_received_; }
  std::uint64_t part_polls() const noexcept { return part_polls_; }
  /// Reloads that parked server-side (blocked on a future part).
  std::uint64_t held_polls() const noexcept { return held_polls_; }
  /// Held reloads released by a part arriving before the hold cap.
  std::uint64_t held_releases() const noexcept { return held_releases_; }
  /// Held reloads that hit the hold cap and were released empty.
  std::uint64_t held_timeouts() const noexcept { return held_timeouts_; }

  DatacenterId site() const noexcept { return site_; }
  std::uint64_t polls_served() const noexcept { return polls_; }
  std::uint64_t origin_fetches() const noexcept { return fetches_; }
  std::uint64_t fetch_failures() const noexcept { return fetch_failures_; }
  /// Consecutive origin-fetch failures since the last successful fetch.
  /// fetch_failures() is cumulative and never resets; the streak is the
  /// control plane's drain trigger ("the origin path is broken *now*").
  std::uint32_t fetch_failure_streak() const noexcept {
    return fetch_failure_streak_;
  }
  /// Bytes served to HLS clients (chunks + playlists).
  std::uint64_t egress_bytes() const noexcept { return egress_bytes_; }

  /// Fault injection: drops every cached chunk (a cache node restart).
  /// First-availability timestamps survive (they are measurements, not
  /// state), but the next poll must re-pull from the origin.
  void flush_cache() noexcept {
    chunk_low_ = static_cast<std::uint32_t>(chunk_log_.size());
    cached_seq_ = -1;
    ++cache_flushes_;
  }
  std::uint64_t cache_flushes() const noexcept { return cache_flushes_; }

  // --- capacity / attachment ledger ---
  // Concurrent-viewer capacity (the "Fastly absorbs the flash crowd"
  // knob). The ledger only counts; ADMISSION is enforced by the session
  // layer's spill policy, and only for failed-over viewers — organic
  // anycast joins are load-blind, exactly how IP anycast behaves, so an
  // edge can sit above capacity from joins alone and then refuse spill
  // traffic.

  /// 0 (the default) = unbounded.
  void set_capacity(std::uint64_t cap) noexcept { capacity_ = cap; }
  std::uint64_t capacity() const noexcept { return capacity_; }
  /// True when a finite capacity is met or exceeded: the spill policy
  /// must overflow past this edge.
  bool full() const noexcept {
    return capacity_ != 0 && attached_ >= capacity_;
  }
  /// A viewer attached (join or failover admission).
  void attach() noexcept {
    ++attached_;
    if (attached_ > peak_attached_) peak_attached_ = attached_;
  }
  /// A viewer detached (leave, migration away, or their PoP died). A
  /// detach with nothing attached is a caller bug (double-detach); the
  /// count still clamps at zero so the load ledger never wraps, but the
  /// underflow is recorded instead of silently masked — tests pin
  /// detach_underflows() == 0 to prove attach/detach conservation.
  void detach() noexcept {
    if (attached_ > 0)
      --attached_;
    else
      ++detach_underflows_;
  }
  std::uint64_t attached() const noexcept { return attached_; }
  /// detach() calls that found nothing attached (should stay 0).
  std::uint64_t detach_underflows() const noexcept {
    return detach_underflows_;
  }
  /// High-water mark of concurrent attachments — the hotspot ledger a
  /// blackout pile-up shows up in.
  std::uint64_t peak_attached() const noexcept { return peak_attached_; }

  // --- poll-aggregation cohort (flash-crowd fast path) ---
  // This edge's bucketed poll wheel: one engine event per tick fans out
  // to every attached HLS viewer, so scheduling cost scales with edges,
  // not viewers. Created lazily on first use with the session's poll
  // geometry (the wheel keeps the geometry it was created with); the
  // session wires the fan-out callback. Edges whose cohort is never
  // wheel-driven pay nothing.

  /// Returns the wheel, creating it with (period, buckets) if absent.
  sim::PollWheel& poll_wheel(DurationUs period, std::uint32_t buckets);
  /// The wheel if one exists (nullptr before first poll_wheel() call).
  sim::PollWheel* poll_wheel() noexcept { return wheel_.get(); }
  const sim::PollWheel* poll_wheel() const noexcept { return wheel_.get(); }

  /// Fault injection: the PoP dies (power event, regional blackout).
  /// While down the server is a dead socket — polls are dropped without a
  /// response (counted) and pending waiters are abandoned; clients detect
  /// the silence and re-anycast elsewhere. Going down wipes the cache
  /// (the node lost its RAM), so a revived edge re-pulls from the origin.
  void set_down(bool down) noexcept {
    if (down && !down_) {
      flush_cache();
      --cache_flushes_;  // a death is not a flush event in the ledger
      polls_dropped_ += waiters_.size();
      waiters_.clear();
      // Held reloads die with the box: their hold-cap timers stay armed
      // but find their waiter gone (generation-checked by id), and the
      // clients time out exactly like dropped chunk polls.
      polls_dropped_ += held_waiters_.size();
      held_waiters_.clear();
      part_low_ = static_cast<std::uint32_t>(part_log_.size());
      latest_part_seq_ = -1;
    }
    down_ = down;
  }
  bool down() const noexcept { return down_; }
  /// Polls that hit a dead PoP and got no response at all.
  std::uint64_t polls_dropped() const noexcept { return polls_dropped_; }

 private:
  struct Waiter {
    std::int64_t last_seq;
    PollCallback cb;
  };
  struct HeldWaiter {
    std::uint64_t id;  // identity for the hold-cap timer's release check
    std::int64_t last_part;
    PollCallback cb;
  };

  /// Serves every cached unit (chunk or part) newer than the client's
  /// cursor -- log[low, end) is the cache -- as one [begin, end) range:
  /// the one serve loop of both pull tiers.
  template <class Unit>
  void respond(const std::vector<Unit>& log, std::uint32_t low,
               std::int64_t client_last, const PollCallback& cb);
  /// Answers every parked chunk poll from the cache. The batch swaps
  /// with spare_waiters_, so both lists keep their capacity.
  void serve_waiters();
  void start_fetch(std::uint32_t attempt = 1);

  sim::Simulator& sim_;
  DatacenterId site_;
  OriginFetchFn fetch_;

  std::vector<media::Chunk> chunk_log_;  // ordered by seq within a window
  std::uint32_t chunk_low_ = 0;          // the cache is chunk_log_[low, end)
  std::unordered_map<std::uint64_t, TimeUs> chunk_available_;
  std::int64_t cached_seq_ = -1;
  std::int64_t known_latest_seq_ = -1;
  bool fetching_ = false;
  bool down_ = false;
  std::vector<Waiter> waiters_;
  std::vector<Waiter> spare_waiters_;  // serve_waiters' batch buffer
  std::uint64_t polls_ = 0;
  std::uint64_t polls_dropped_ = 0;
  std::uint64_t fetches_ = 0;
  std::uint64_t fetch_failures_ = 0;
  std::uint32_t fetch_failure_streak_ = 0;
  std::uint64_t cache_flushes_ = 0;
  std::uint64_t egress_bytes_ = 0;
  std::uint64_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t attached_ = 0;
  std::uint64_t peak_attached_ = 0;
  std::uint64_t detach_underflows_ = 0;
  std::unique_ptr<sim::PollWheel> wheel_;
  // LL-HLS part state (untouched by legacy chunk polling).
  std::vector<media::Part> part_log_;  // ordered by seq within a window
  std::uint32_t part_low_ = 0;        // the part cache is part_log_[low, end)
  std::unordered_map<std::uint64_t, TimeUs> part_available_;
  std::int64_t latest_part_seq_ = -1;
  std::vector<HeldWaiter> held_waiters_;
  std::vector<HeldWaiter> spare_held_;  // on_part's release batch buffer
  std::uint64_t next_held_id_ = 0;
  std::uint64_t parts_received_ = 0;
  std::uint64_t part_polls_ = 0;
  std::uint64_t held_polls_ = 0;
  std::uint64_t held_releases_ = 0;
  std::uint64_t held_timeouts_ = 0;
};

}  // namespace livesim::cdn

#endif  // LIVESIM_CDN_SERVERS_H
