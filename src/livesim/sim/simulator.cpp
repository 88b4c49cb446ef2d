#include "livesim/sim/simulator.h"

#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

namespace livesim::sim {

// ---------------------------------------------------------------------------
// Slot slab. Chunked so slot addresses are stable: a callback is invoked in
// place and may grow the slab (scheduling new events) without moving itself.

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = pos_[idx];  // next-free link while the slot was free
    return idx;
  }
  if ((slot_count_ & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    key_.resize(key_.size() + kChunkSize);
    pos_.resize(pos_.size() + kChunkSize);
    prev_.resize(prev_.size() + kChunkSize);
  }
  return slot_count_++;
}

void Simulator::release_slot(std::uint32_t idx) {
  slot(idx).state = SlotState::kFree;
  pos_[idx] = free_head_;
  free_head_ = idx;
}

// ---------------------------------------------------------------------------
// Calendar queue. An event's region is a pure function of its window and
// base_window_: the current window (window_), the ring of the next
// kBuckets - 1 windows, or beyond it (far_). Every queued event's window is
// at or after base_window_, because base_window_ never passes now_'s.

void Simulator::enqueue(TimeUs t, std::uint32_t idx) {
  key_[idx] = Key{t, next_seq_++};
  file(idx);
}

void Simulator::file(std::uint32_t idx) {
  const Key k = key_[idx];
  const std::uint64_t w = window_of(k.time);
  const std::uint64_t ahead = w - base_window_;
  if (ahead == 0) {
    heap_push(window_, HeapEntry{k.time, k.seq, idx});
  } else if (ahead < kBuckets) {
    ring_link(idx, static_cast<std::uint32_t>(w & kBucketMask));
  } else {
    heap_push(far_, HeapEntry{k.time, k.seq, idx});
  }
}

void Simulator::unfile(std::uint32_t idx) {
  const std::uint64_t ahead = window_of(key_[idx].time) - base_window_;
  if (ahead == 0) {
    heap_erase(window_, pos_[idx]);
  } else if (ahead < kBuckets) {
    ring_unlink(idx);
  } else {
    heap_erase(far_, pos_[idx]);
  }
}

// A bucket's list is unordered: the window heap sorts it when the window
// reaches it. New members go in at the head.
void Simulator::ring_link(std::uint32_t idx, std::uint32_t bucket) {
  const std::uint32_t head = bucket_head_[bucket];
  pos_[idx] = head;
  prev_[idx] = kNil;
  if (head != kNil) {
    prev_[head] = idx;
  } else {
    ring_bits_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
    ring_words_ |= std::uint64_t{1} << (bucket >> 6);
  }
  bucket_head_[bucket] = idx;
  ++ring_size_;
}

void Simulator::mark_empty(std::uint32_t bucket) {
  std::uint64_t& bits = ring_bits_[bucket >> 6];
  bits &= ~(std::uint64_t{1} << (bucket & 63));
  if (bits == 0) ring_words_ &= ~(std::uint64_t{1} << (bucket >> 6));
}

void Simulator::ring_unlink(std::uint32_t idx) {
  const auto bucket =
      static_cast<std::uint32_t>(window_of(key_[idx].time) & kBucketMask);
  const std::uint32_t p = prev_[idx];
  const std::uint32_t n = pos_[idx];
  if (n != kNil) prev_[n] = p;
  if (p != kNil) {
    pos_[p] = n;
  } else {
    bucket_head_[bucket] = n;
    if (n == kNil) mark_empty(bucket);
  }
  --ring_size_;
}

// The first non-empty bucket at or after `from` in rotation order. The
// ring must hold at least one event.
std::uint32_t Simulator::next_bucket(std::uint32_t from) const noexcept {
  const auto first_set = [](std::uint64_t bits) {
    return static_cast<std::uint32_t>(std::countr_zero(bits));
  };
  const std::uint32_t word = from >> 6;
  const std::uint64_t here =
      ring_bits_[word] & (~std::uint64_t{0} << (from & 63));
  if (here != 0) return (word << 6) | first_set(here);
  // Later words first, then wrap around to the lowest non-empty one (which
  // may be `word` itself, below `from`).
  const std::uint64_t later =
      word == 63 ? 0 : ring_words_ & (~std::uint64_t{0} << (word + 1));
  const std::uint32_t w = first_set(later != 0 ? later : ring_words_);
  return (w << 6) | first_set(ring_bits_[w]);
}

// Makes window_ hold the earliest pending event, unless the window that
// event is in starts after `limit`: then nothing moves and this returns
// false, as it does on an empty queue. The base only ever moves to a
// window that holds an event and starts at or before `limit`, so it never
// runs ahead of the clock.
bool Simulator::fill_window(TimeUs limit) {
  if (!window_.empty()) return true;
  std::uint64_t w;
  if (ring_size_ > 0) {
    // The current window's own bucket is empty, so the search from it
    // finds the nearest non-empty future window.
    const auto from = static_cast<std::uint32_t>(base_window_ & kBucketMask);
    w = base_window_ + ((next_bucket(from) - from) & kBucketMask);
  } else if (!far_.empty()) {
    w = window_of(far_[0].time);
  } else {
    return false;
  }
  if (static_cast<TimeUs>(w << kWindowShift) > limit) return false;
  advance_to(w);
  return true;
}

// Moves the base to window `w`; every window between the old base and `w`
// must be empty. `w`'s bucket becomes the window heap, and far events the
// ring's horizon now covers move into the ring (or the window).
void Simulator::advance_to(std::uint64_t w) {
  base_window_ = w;
  const auto bucket = static_cast<std::uint32_t>(w & kBucketMask);
  if (bucket_head_[bucket] != kNil) {
    for (std::uint32_t idx = bucket_head_[bucket]; idx != kNil;) {
      const std::uint32_t next = pos_[idx];  // heap_push overwrites pos_
      heap_push(window_, HeapEntry{key_[idx].time, key_[idx].seq, idx});
      --ring_size_;
      idx = next;
    }
    bucket_head_[bucket] = kNil;
    mark_empty(bucket);
  }
  while (!far_.empty() && window_of(far_[0].time) - w < kBuckets) {
    const std::uint32_t moved = far_[0].slot;
    heap_pop_root(far_);
    file(moved);
  }
}

// ---------------------------------------------------------------------------
// Indexed 4-ary min-heaps (the window heap and the far heap). Entries carry
// their (time, seq) key inline so sift comparisons stay within the heap
// array; position write-backs go to the dense pos_ array, not the slab. The
// four children of a node are adjacent, so one sift level usually costs a
// single cache line.

void Simulator::heap_sift_up(std::vector<HeapEntry>& h, std::uint32_t pos) {
  const HeapEntry e = h[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!earlier(e, h[parent])) break;
    h[pos] = h[parent];
    pos_[h[pos].slot] = pos;
    pos = parent;
  }
  h[pos] = e;
  pos_[e.slot] = pos;
}

void Simulator::heap_sift_down(std::vector<HeapEntry>& h, std::uint32_t pos) {
  const HeapEntry e = h[pos];
  const std::uint32_t n = static_cast<std::uint32_t>(h.size());
  for (;;) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= n) break;
    std::uint32_t best = first;
    const std::uint32_t last = (first + 4 < n) ? first + 4 : n;
    for (std::uint32_t c = first + 1; c < last; ++c) {
      if (earlier(h[c], h[best])) best = c;
    }
    if (!earlier(h[best], e)) break;
    h[pos] = h[best];
    pos_[h[pos].slot] = pos;
    pos = best;
  }
  h[pos] = e;
  pos_[e.slot] = pos;
}

void Simulator::heap_push(std::vector<HeapEntry>& h, HeapEntry e) {
  h.push_back(e);
  heap_sift_up(h, static_cast<std::uint32_t>(h.size() - 1));
}

void Simulator::heap_pop_root(std::vector<HeapEntry>& h) {
  const HeapEntry last = h.back();
  h.pop_back();
  if (!h.empty()) {
    h[0] = last;
    pos_[last.slot] = 0;
    heap_sift_down(h, 0);
  }
}

void Simulator::heap_erase(std::vector<HeapEntry>& h, std::uint32_t pos) {
  const HeapEntry last = h.back();
  h.pop_back();
  if (pos < h.size()) {
    h[pos] = last;
    pos_[last.slot] = pos;
    if (pos > 0 && earlier(h[pos], h[(pos - 1) / 4])) {
      heap_sift_up(h, pos);
    } else {
      heap_sift_down(h, pos);
    }
  }
}

// ---------------------------------------------------------------------------
// Public API

bool Simulator::cancel(EventHandle h) {
  if (!h.valid() || h.index >= slot_count_) return false;
  Slot& s = slot(h.index);
  // A live handle implies a queued slot: the generation is bumped whenever
  // the event fires or is cancelled, so a stale handle never matches.
  if (s.state != SlotState::kQueued || s.generation != h.generation)
    return false;
  unfile(h.index);
  ++s.generation;
  if (s.executing) {
    // A running callback cancelled its own re-arm. Its closure is still on
    // the stack, so it must not be destroyed here; flip the slot back to
    // kRunning and let fire_top's epilogue reclaim it after the return.
    s.state = SlotState::kRunning;
  } else {
    s.fn = nullptr;  // destroy the capture now, not when the slot is reused
    release_slot(h.index);
  }
  return true;
}

EventHandle Simulator::reschedule_current(TimeUs t) {
  if (running_slot_ == kNil)
    throw std::logic_error("Simulator::reschedule_current: no running event");
  Slot& s = slot(running_slot_);
  if (s.state != SlotState::kRunning)
    throw std::logic_error(
        "Simulator::reschedule_current: event already re-armed");
  if (t < now_) t = now_;
  s.state = SlotState::kQueued;
  // A fresh seq, exactly as a schedule_at-based re-arm would consume one,
  // so same-instant events keep their FIFO order.
  enqueue(t, running_slot_);
  return EventHandle{running_slot_, s.generation};
}

void Simulator::fire_top() {
  const HeapEntry top = window_[0];
  const std::uint32_t idx = top.slot;
  Slot& s = slot(idx);  // chunked slab: `s` stays put while fn runs
#if defined(__GNUC__) || defined(__clang__)
  // Pull the slot's cache lines in while the sift-down below works the
  // heap: the slab access pattern is effectively random, and this miss is
  // otherwise serialized behind the heap restructuring.
  __builtin_prefetch(&s, 1);
  __builtin_prefetch(reinterpret_cast<const char*>(&s) + 64, 1);
#endif
  heap_pop_root(window_);
  now_ = top.time;
  ++processed_;
  s.state = SlotState::kRunning;
  ++s.generation;  // cancel-after-fire must report failure
  s.executing = true;
  const std::uint32_t prev_running = running_slot_;
  running_slot_ = idx;
  s.fn();  // may schedule (growing the slab), cancel, or re-arm this slot
  running_slot_ = prev_running;
  s.executing = false;
  if (s.state == SlotState::kRunning) {
    // Not re-armed: the closure is dead, reclaim the slot.
    s.fn = nullptr;
    release_slot(idx);
  }
}

bool Simulator::pop_one() {
  if (!fill_window(std::numeric_limits<TimeUs>::max())) return false;
  fire_top();
  return true;
}

void Simulator::run() {
  while (pop_one()) {
  }
}

void Simulator::run_until(TimeUs t) {
  // fill_window(t) stops short of a window that starts after t, so the
  // base stays at or before t's window when the clock is set to t below.
  while (fill_window(t) && window_[0].time <= t) fire_top();
  if (now_ < t) now_ = t;
}

std::size_t Simulator::step(std::size_t n) {
  std::size_t ran = 0;
  while (ran < n && pop_one()) ++ran;
  return ran;
}

// ---------------------------------------------------------------------------

PeriodicProcess::PeriodicProcess(Simulator& sim, TimeUs start,
                                 DurationUs interval, TickFn fn)
    : sim_(sim), interval_(interval), fn_(std::move(fn)) {
  pending_ = sim_.schedule_at(start, [this] { tick(); });
}

void PeriodicProcess::tick() {
  if (!running_) return;
  ++ticks_;
  fn_(*this);
  // Re-arm in place: the slot and the [this] closure scheduled above are
  // reused verbatim, so steady-state ticking never re-enters schedule_at.
  if (running_) pending_ = sim_.reschedule_current(sim_.now() + interval_);
}

void PeriodicProcess::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
}

}  // namespace livesim::sim
