#include "livesim/sim/simulator.h"

#include <stdexcept>
#include <utility>

namespace livesim::sim {

// ---------------------------------------------------------------------------
// Slot slab. Chunked so slot addresses are stable: a callback is invoked in
// place and may grow the slab (scheduling new events) without moving itself.

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != EventHandle::kInvalidIndex) {
    const std::uint32_t idx = free_head_;
    free_head_ = heap_pos_[idx];  // next-free link while the slot was free
    return idx;
  }
  if ((slot_count_ & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    heap_pos_.resize(heap_pos_.size() + kChunkSize);
  }
  return slot_count_++;
}

void Simulator::release_slot(std::uint32_t idx) {
  slot(idx).state = SlotState::kFree;
  heap_pos_[idx] = free_head_;
  free_head_ = idx;
}

// ---------------------------------------------------------------------------
// Indexed 4-ary min-heap. Entries carry their (time, seq) key inline so
// sift comparisons stay within the heap array; position write-backs go to
// the dense heap_pos_ array, not the slab. The four children of a node are
// adjacent, so one sift level usually costs a single cache line.

void Simulator::heap_sift_up(std::uint32_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos].slot] = pos;
    pos = parent;
  }
  heap_[pos] = e;
  heap_pos_[e.slot] = pos;
}

void Simulator::heap_sift_down(std::uint32_t pos) {
  const HeapEntry e = heap_[pos];
  const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= n) break;
    std::uint32_t best = first;
    const std::uint32_t last = (first + 4 < n) ? first + 4 : n;
    for (std::uint32_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[pos] = heap_[best];
    heap_pos_[heap_[pos].slot] = pos;
    pos = best;
  }
  heap_[pos] = e;
  heap_pos_[e.slot] = pos;
}

void Simulator::heap_push(HeapEntry e) {
  heap_.push_back(e);
  heap_sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
}

void Simulator::heap_pop_root() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[last.slot] = 0;
    heap_sift_down(0);
  }
}

void Simulator::heap_erase(std::uint32_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    heap_[pos] = last;
    heap_pos_[last.slot] = pos;
    if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) / 4])) {
      heap_sift_up(pos);
    } else {
      heap_sift_down(pos);
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
  heap_erase(heap_pos_[h.index]);
  ++s.generation;
  if (s.executing) {
    // A running callback cancelled its own re-arm. Its closure is still on
    // the stack, so it must not be destroyed here; flip the slot back to
    // kRunning and let pop_one's epilogue reclaim it after the return.
    s.state = SlotState::kRunning;
  } else {
    s.fn = nullptr;  // destroy the capture now, not when the slot is reused
    release_slot(h.index);
  }
  return true;
}

EventHandle Simulator::reschedule_current(TimeUs t) {
  if (running_slot_ == EventHandle::kInvalidIndex)
    throw std::logic_error("Simulator::reschedule_current: no running event");
  Slot& s = slot(running_slot_);
  if (s.state != SlotState::kRunning)
    throw std::logic_error(
        "Simulator::reschedule_current: event already re-armed");
  if (t < now_) t = now_;
  s.state = SlotState::kQueued;
  // A fresh seq, exactly as a schedule_at-based re-arm would consume one,
  // so same-instant events keep their FIFO order.
  heap_push(HeapEntry{t, next_seq_++, running_slot_});
  return EventHandle{running_slot_, s.generation};
}

bool Simulator::pop_one() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  const std::uint32_t idx = top.slot;
  Slot& s = slot(idx);  // chunked slab: `s` stays put while fn runs
#if defined(__GNUC__) || defined(__clang__)
  // Pull the slot's cache lines in while the sift-down below works the
  // heap: the slab access pattern is effectively random, and this miss is
  // otherwise serialized behind the heap restructuring.
  __builtin_prefetch(&s, 1);
  __builtin_prefetch(reinterpret_cast<const char*>(&s) + 64, 1);
#endif
  heap_pop_root();
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
  return true;
}

void Simulator::run() {
  while (pop_one()) {
  }
}

void Simulator::run_until(TimeUs t) {
  while (!heap_.empty() && heap_[0].time <= t) pop_one();
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
