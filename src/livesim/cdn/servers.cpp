#include "livesim/cdn/servers.h"

#include <algorithm>

namespace livesim::cdn {

void IngestServer::on_frame(const media::VideoFrame& frame) {
  if (down_) {
    // Crashed server: the frame hit a dead socket and is gone.
    ++frames_dropped_;
    ++frame_drop_streak_;
    return;
  }
  frame_drop_streak_ = 0;
  ++frames_ingested_;
  cpu_.charge_frame_ingest();
  ingress_bytes_ += frame.size_bytes;
  const TimeUs now = sim_.now();
  for (const auto& sink : rtmp_subscribers_) {
    if (!sink(frame, now)) continue;
    cpu_.charge_frame_push();
    egress_bytes_ += frame.size_bytes;
  }
  auto sealed = chunker_.push(frame, now);
  if (part_listener_) {
    // A sealed chunk means `frame` opened the NEXT chunk: close out the
    // sealed chunk's tail part first so parts never span chunk boundaries.
    if (sealed) flush_part(now);
    accumulate_part(frame, now);
  }
  if (sealed) emit_chunk(*sealed);
}

void IngestServer::on_end_of_stream() {
  if (down_) return;
  const TimeUs now = sim_.now();
  if (part_listener_) flush_part(now);
  if (auto sealed = chunker_.flush(now)) emit_chunk(*sealed);
}

void IngestServer::emit_chunk(const media::Chunk& c) {
  cpu_.charge_chunk_build();
  ++chunks_sealed_;
  if (chunk_listener_) chunk_listener_(c);
}

void IngestServer::accumulate_part(const media::VideoFrame& frame,
                                   TimeUs now) {
  if (!part_open_) {
    part_open_ = true;
    part_.seq = next_part_seq_;
    part_.chunk_seq = chunks_sealed_;  // the chunk currently being filled
    part_.first_capture_ts = frame.capture_ts;
    part_.first_arrival_ts = now;
    part_.duration = 0;
    part_.size_bytes = 0;
  }
  part_.duration += frame.duration;
  part_.size_bytes += frame.size_bytes;
  if (part_.duration >= kLlHlsPartDuration) flush_part(now);
}

void IngestServer::flush_part(TimeUs now) {
  if (!part_open_) return;
  part_open_ = false;
  part_.completed_ts = now;
  cpu_.charge_part_build();
  ++next_part_seq_;
  ++parts_built_;
  part_listener_(part_);
}

sim::PollWheel& EdgeServer::poll_wheel(DurationUs period,
                                       std::uint32_t buckets) {
  if (!wheel_) wheel_ = std::make_unique<sim::PollWheel>(sim_, period, buckets);
  return *wheel_;
}

void EdgeServer::on_expire_notice(std::uint64_t latest_seq) {
  if (static_cast<std::int64_t>(latest_seq) > known_latest_seq_)
    known_latest_seq_ = static_cast<std::int64_t>(latest_seq);
}

template <class Unit>
void EdgeServer::respond(const std::vector<Unit>& log, std::uint32_t low,
                         std::int64_t client_last, const PollCallback& cb) {
  // Within the cache window seqs ascend, so the fresh units are a suffix.
  const auto end = static_cast<std::uint32_t>(log.size());
  std::uint32_t begin = low;
  while (begin < end &&
         static_cast<std::int64_t>(log[begin].seq) <= client_last)
    ++begin;
  egress_bytes_ += 1200;  // the playlist (or playlist-delta) response
  for (std::uint32_t i = begin; i < end; ++i)
    egress_bytes_ += log[i].size_bytes;  // one download, chunk or part
  cb(sim_.now(), begin, end);
}

void EdgeServer::serve_waiters() {
  // A callback that polls again appends to waiters_, not to the batch.
  std::vector<Waiter> batch = std::move(spare_waiters_);
  batch.swap(waiters_);
  for (const auto& w : batch) respond(chunk_log_, chunk_low_, w.last_seq, w.cb);
  batch.clear();
  spare_waiters_ = std::move(batch);
}

void EdgeServer::on_poll(std::int64_t client_last_seq, PollCallback cb) {
  if (down_) {
    // Dead PoP: the request vanishes. No response ever fires; the client
    // times out, which is what drives edge-to-edge failover detection.
    ++polls_dropped_;
    return;
  }
  ++polls_;
  if (cached_seq_ >= known_latest_seq_) {
    respond(chunk_log_, chunk_low_, client_last_seq, cb);
    return;
  }
  // Stale: this poll (or an earlier one) triggers the origin fetch; the
  // poller waits for the fresh content rather than getting stale data.
  waiters_.push_back(Waiter{client_last_seq, std::move(cb)});
  if (!fetching_) start_fetch();
}

void EdgeServer::on_part(const media::Part& part) {
  if (down_) return;  // the push lands on a dead box
  if (static_cast<std::int64_t>(part.seq) <= latest_part_seq_) return;
  ++parts_received_;
  part_log_.push_back(part);
  part_available_.emplace(part.seq, sim_.now());
  latest_part_seq_ = static_cast<std::int64_t>(part.seq);
  constexpr std::uint32_t kPartWindow = 8;
  const auto size = static_cast<std::uint32_t>(part_log_.size());
  if (size - part_low_ > kPartWindow) part_low_ = size - kPartWindow;
  if (held_waiters_.empty()) return;
  // Release every reload blocked on a part at or below the new one, in
  // park order (FIFO fairness mirrors the chunk-waiter path). The batch
  // swaps with spare_held_, so both lists keep their capacity.
  std::vector<HeldWaiter> parked = std::move(spare_held_);
  parked.swap(held_waiters_);
  for (auto& w : parked) {
    if (w.last_part < latest_part_seq_) {
      ++held_releases_;
      respond(part_log_, part_low_, w.last_part, w.cb);
    } else {
      held_waiters_.push_back(std::move(w));
    }
  }
  parked.clear();
  spare_held_ = std::move(parked);
}

void EdgeServer::on_part_poll(std::int64_t client_last_part, PollCallback cb) {
  if (down_) {
    // Dead PoP: the reload vanishes; the client's timeout drives
    // failover, exactly like a dropped chunk poll.
    ++polls_dropped_;
    return;
  }
  ++part_polls_;
  if (latest_part_seq_ > client_last_part) {
    respond(part_log_, part_low_, client_last_part, cb);
    return;
  }
  // Blocking reload: park server-side until the next part arrives or the
  // hold cap expires (released empty -- the client re-requests at once).
  const std::uint64_t id = next_held_id_++;
  ++held_polls_;
  held_waiters_.push_back(HeldWaiter{id, client_last_part, std::move(cb)});
  sim_.schedule_in(kLlHlsHoldCap, [this, id] {
    const auto it =
        std::find_if(held_waiters_.begin(), held_waiters_.end(),
                     [id](const HeldWaiter& w) { return w.id == id; });
    if (it == held_waiters_.end()) return;  // already released (or died)
    auto waiter = std::move(*it);
    held_waiters_.erase(it);
    ++held_timeouts_;
    // Released empty: nothing newer arrived within the cap.
    respond(part_log_, part_low_, waiter.last_part, waiter.cb);
  });
}

void EdgeServer::start_fetch(std::uint32_t attempt) {
  fetching_ = true;
  ++fetches_;
  fetch_([this, attempt](FetchResult result) {
    if (down_) {
      // The PoP died while the pull was in flight; the response lands on
      // a dead box. Waiters were already abandoned by set_down().
      fetching_ = false;
      return;
    }
    if (!result) {
      ++fetch_failures_;
      ++fetch_failure_streak_;
      if (attempt < kFetchAttempts) {
        // Retry with linear backoff; waiters keep waiting.
        sim_.schedule_in(kFetchRetryBackoff * attempt,
                         [this, attempt] { start_fetch(attempt + 1); });
      } else {
        // Give up: serve waiters whatever is cached (possibly stale).
        fetching_ = false;
        serve_waiters();
      }
      return;
    }
    auto& fresh = *result;
    fetch_failure_streak_ = 0;  // the origin path works again
    const TimeUs now = sim_.now();
    for (auto& c : fresh) {
      if (static_cast<std::int64_t>(c.seq) > cached_seq_) {
        chunk_log_.push_back(c);
        chunk_available_.emplace(c.seq, now);
        cached_seq_ = static_cast<std::int64_t>(c.seq);
      }
    }
    // Keep the cache a sliding window: edges don't hold the whole stream.
    constexpr std::uint32_t kWindow = 8;
    const auto size = static_cast<std::uint32_t>(chunk_log_.size());
    if (size - chunk_low_ > kWindow) chunk_low_ = size - kWindow;
    if (cached_seq_ > known_latest_seq_) known_latest_seq_ = cached_seq_;
    fetching_ = false;

    serve_waiters();

    // New chunks may have been announced while the fetch was in flight.
    if (!waiters_.empty() && cached_seq_ < known_latest_seq_) start_fetch();
  });
}

}  // namespace livesim::cdn
