// Discrete-event simulation engine.
//
// A Simulator owns a time-ordered queue of callbacks. Events scheduled for
// the same instant fire in scheduling order (stable), which keeps protocol
// handshakes deterministic. Everything in livesim that "takes time" is
// expressed as events against one of these.
//
// Internals (see DESIGN.md "Engine internals & performance model"):
// events live in a recycling slab of slots addressed by {index, generation}
// handles. Slots are allocated in fixed-size chunks so their addresses are
// stable for the slab's lifetime -- callbacks are invoked in place, never
// moved, and a PeriodicProcess re-arms its slot and closure verbatim every
// tick. An exact calendar queue orders the events by (time, seq): the
// current 1024 us window is a small indexed 4-ary heap, the next 4095
// windows (~4.2 s) are intrusive lists in a ring of buckets, and anything
// later waits in a second indexed heap until the ring's horizon reaches
// it. A bucket joins the window heap only when the window reaches it, so
// scheduling into a future window is O(1). cancel() unlinks or splices an
// entry out immediately, so there are no tombstones and no hash sets
// anywhere. Callbacks are stored in a 64-byte small-buffer-optimized
// EventFn, so the common schedule performs zero heap allocations.
#ifndef LIVESIM_SIM_SIMULATOR_H
#define LIVESIM_SIM_SIMULATOR_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "livesim/sim/inplace_function.h"
#include "livesim/util/time.h"

namespace livesim::sim {

using EventFn = InplaceFunction<void()>;

/// Names one scheduled (pending) event: the arena slot it occupies plus
/// the slot's generation at scheduling time. Slots are recycled; the
/// generation is bumped whenever an event fires or is cancelled, so a
/// stale handle can never cancel the slot's next tenant.
struct EventHandle {
  static constexpr std::uint32_t kInvalidIndex = 0xFFFFFFFFu;

  std::uint32_t index = kInvalidIndex;
  std::uint32_t generation = 0;

  constexpr bool valid() const noexcept { return index != kInvalidIndex; }
  friend constexpr bool operator==(EventHandle, EventHandle) = default;
};

class Simulator {
 public:
  Simulator() = default;

  // Non-copyable: events capture `this` of live components.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  TimeUs now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now, else clamped to now).
  /// The callable is constructed directly in its arena slot: for captures
  /// within the EventFn inline budget no temporary wrapper and no heap
  /// allocation are involved.
  template <typename F>
  EventHandle schedule_at(TimeUs t, F&& fn) {
    if (t < now_) t = now_;
    const std::uint32_t idx = acquire_slot();
    Slot& s = slot(idx);
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      s.fn = std::forward<F>(fn);
    } else {
      s.fn.emplace(std::forward<F>(fn));
    }
    s.state = SlotState::kQueued;
    enqueue(t, idx);
    return EventHandle{idx, s.generation};
  }

  /// Schedules `fn` after `delay` (negative delays clamp to "immediately").
  template <typename F>
  EventHandle schedule_in(DurationUs delay, F&& fn) {
    if (delay < 0) delay = 0;
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns false if it already ran, was already
  /// cancelled, or never existed. The queue entry is unlinked or spliced
  /// out on the spot: cancelled events occupy no memory and are never
  /// re-examined.
  bool cancel(EventHandle h);

  /// Re-arms the event currently being fired at absolute time `t`
  /// (clamped to now), reusing its slot and its callback in place --
  /// the PeriodicProcess fast path. Must be called from inside the
  /// running callback, at most once per firing; consumes a fresh FIFO
  /// sequence number exactly like schedule_at, so the firing order is
  /// byte-identical to a schedule_at-based re-arm. Returns the handle
  /// naming the re-armed event.
  EventHandle reschedule_current(TimeUs t);

  /// Runs until the queue is empty.
  void run();

  /// Runs events with time <= `t`, then sets the clock to `t`.
  void run_until(TimeUs t);

  /// Runs at most `n` further events; returns how many actually ran.
  std::size_t step(std::size_t n = 1);

  std::size_t pending() const noexcept {
    return window_.size() + ring_size_ + far_.size();
  }
  std::size_t events_processed() const noexcept { return processed_; }

 private:
  // 256 slots per chunk: a chunk is ~20 KB, and slot addresses never move,
  // so a callback can be invoked in place while the slab grows under it.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  enum class SlotState : std::uint8_t { kFree, kQueued, kRunning };

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;
    SlotState state = SlotState::kFree;
    bool executing = false;  // operator() frames on the stack right now
  };

  // Calendar geometry. Window w covers [w << kWindowShift, (w + 1) <<
  // kWindowShift). The current window's events sit in window_; those of
  // the next kBuckets - 1 windows in ring bucket (w & kBucketMask); later
  // ones in far_. The current window's own bucket is therefore always
  // empty.
  static constexpr unsigned kWindowShift = 10;  // 1024 us windows
  static constexpr unsigned kBucketShift = 12;  // 4096 buckets: ~4.2 s
  static constexpr std::uint32_t kBuckets = 1u << kBucketShift;
  static constexpr std::uint32_t kBucketMask = kBuckets - 1;
  static constexpr std::uint32_t kNil = EventHandle::kInvalidIndex;

  // The ordering key lives inline in the heap entry so sift compares never
  // chase a pointer into the slab.
  struct HeapEntry {
    TimeUs time;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
  };

  struct Key {
    TimeUs time;
    std::uint64_t seq;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  static std::uint64_t window_of(TimeUs t) noexcept {
    return static_cast<std::uint64_t>(t) >> kWindowShift;
  }

  Slot& slot(std::uint32_t idx) noexcept {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);

  void enqueue(TimeUs t, std::uint32_t idx);  // fresh seq, then file()
  void file(std::uint32_t idx);    // into the region key_[idx] falls in
  void unfile(std::uint32_t idx);  // out of it again (cancel)
  void ring_link(std::uint32_t idx, std::uint32_t bucket);
  void ring_unlink(std::uint32_t idx);
  void mark_empty(std::uint32_t bucket);  // clears the bucket's mask bit
  std::uint32_t next_bucket(std::uint32_t from) const noexcept;
  bool fill_window(TimeUs limit);
  void advance_to(std::uint64_t window);

  void heap_push(std::vector<HeapEntry>& h, HeapEntry e);
  void heap_pop_root(std::vector<HeapEntry>& h);
  void heap_erase(std::vector<HeapEntry>& h, std::uint32_t pos);
  void heap_sift_up(std::vector<HeapEntry>& h, std::uint32_t pos);
  void heap_sift_down(std::vector<HeapEntry>& h, std::uint32_t pos);

  bool pop_one();    // runs the earliest event, if any
  void fire_top();   // runs window_'s root

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<HeapEntry> window_;  // 4-ary min-heap: the current window
  std::vector<HeapEntry> far_;     // 4-ary min-heap: beyond the ring
  // Per-slot queue bookkeeping, kept out of the slot so the queue never
  // touches a closure's cache lines: the (time, seq) key of a queued
  // event, its position in window_ or far_ (or its next link in a ring
  // bucket, or in the free list while the slot is free), and its
  // previous link in a ring bucket.
  std::vector<Key> key_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint32_t> bucket_head_ =
      std::vector<std::uint32_t>(kBuckets, kNil);
  // Non-empty buckets: bit (b & 63) of ring_bits_[b >> 6], and bit i of
  // ring_words_ while ring_bits_[i] is non-zero.
  std::array<std::uint64_t, kBuckets / 64> ring_bits_{};
  std::uint64_t ring_words_ = 0;
  static_assert(kBuckets / 64 == 64, "ring_words_ summarizes one word");
  std::size_t ring_size_ = 0;
  std::uint64_t base_window_ = 0;  // the current window; never after now_'s
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNil;
  std::uint32_t running_slot_ = kNil;
  TimeUs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
};

/// Repeats a callback at a (possibly jittered) interval until stopped.
/// The callback receives the process so it can stop itself.
class PeriodicProcess {
 public:
  using TickFn = InplaceFunction<void(PeriodicProcess&)>;

  /// Starts ticking at `start`, then every `interval`. The optional
  /// `jitter_fn` returns a signed offset added to each subsequent interval.
  PeriodicProcess(Simulator& sim, TimeUs start, DurationUs interval, TickFn fn);

  ~PeriodicProcess() { stop(); }
  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  void stop();
  bool running() const noexcept { return running_; }
  DurationUs interval() const noexcept { return interval_; }
  void set_interval(DurationUs interval) noexcept { interval_ = interval; }
  std::uint64_t ticks() const noexcept { return ticks_; }

 private:
  void tick();

  Simulator& sim_;
  DurationUs interval_;
  TickFn fn_;
  EventHandle pending_{};
  bool running_ = true;
  std::uint64_t ticks_ = 0;
};

}  // namespace livesim::sim

#endif  // LIVESIM_SIM_SIMULATOR_H
