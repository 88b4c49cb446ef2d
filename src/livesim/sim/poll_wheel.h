// Bucketed poll wheel: the one way an HLS viewer polls its edge.
//
// The §5.2 HLS tier has every viewer poll its edge on its own ~2.8 s
// timer. Simulated literally (one PeriodicProcess per viewer) a flash
// crowd of 100k viewers costs 100k engine events per poll interval. The
// wheel collapses that to one engine event per *edge* per tick: viewer
// poll phases are quantized onto a grid of `buckets` slots spanning one
// poll period, members of a bucket hang off an intrusive list, and a
// single pending event (for the earliest non-empty bucket) fans out to
// the whole cohort when it fires. Scheduling cost scales with edges, not
// viewers. A one-member wheel fires one event per tick: it is a
// per-viewer timer, the oracle the session differential tests compare
// shared edge wheels against.
//
// Per-member state lives here as struct-of-arrays ledgers indexed by
// dense slots -- the next-deadline bucket, the first-due gate and the
// intrusive list links -- addressed by {index, generation} CohortSlot
// handles exactly like the engine's EventHandle, so a stale handle
// (viewer migrated away, slot recycled) can never touch the slot's next
// tenant.
//
// Determinism contract (the shared-vs-per-viewer-wheel differential
// relies on it):
//  * fan-out visits a bucket's members in attach order (append-at-tail),
//    which is exactly the firing order of one-PeriodicProcess-per-viewer
//    timers created in the same order;
//  * a member attached during its own bucket's fan-out (first tick is
//    always quantized strictly after `now`, so it lands one full rotation
//    out) is never visited by the running pass -- the per-slot first-due
//    time gates it;
//  * detaching any member mid-fan-out (even the one about to be visited)
//    is safe: the cursor is advanced past a slot before its callback runs
//    and fixed up when the upcoming slot is unlinked.
//
// An empty wheel schedules nothing: zero members, zero pending events.
#ifndef LIVESIM_SIM_POLL_WHEEL_H
#define LIVESIM_SIM_POLL_WHEEL_H

#include <cstdint>
#include <functional>
#include <vector>

#include "livesim/sim/simulator.h"
#include "livesim/util/time.h"

namespace livesim::sim {

/// Names one cohort ledger slot, generation-checked against recycling --
/// the viewer-side mirror of EventHandle.
struct CohortSlot {
  static constexpr std::uint32_t kInvalidIndex = 0xFFFFFFFFu;

  std::uint32_t index = kInvalidIndex;
  std::uint32_t generation = 0;

  constexpr bool valid() const noexcept { return index != kInvalidIndex; }
  friend constexpr bool operator==(CohortSlot, CohortSlot) = default;
};

class PollWheel {
 public:
  /// Fan-out callback: (tick time, member tag, member slot). The callback
  /// may attach or detach any member, including the one it was called for.
  using FanoutFn = std::function<void(TimeUs, std::uint64_t, CohortSlot)>;

  /// Most buckets a wheel may have: one bit each in the non-empty mask.
  static constexpr std::uint32_t kMaxBuckets = 64;

  /// `period` is split into `buckets` slots of width period/buckets
  /// (floored, min 1 us); the effective rotation is slot_width * buckets,
  /// which callers must use as their poll interval so quantized timers
  /// and wheel ticks stay on the same grid. Throws std::invalid_argument
  /// for more than kMaxBuckets buckets.
  PollWheel(Simulator& sim, DurationUs period, std::uint32_t buckets);
  ~PollWheel();

  PollWheel(const PollWheel&) = delete;
  PollWheel& operator=(const PollWheel&) = delete;

  void set_fanout(FanoutFn fn) { fanout_ = std::move(fn); }

  /// Quantizes a raw poll phase onto the wheel grid: the smallest
  /// multiple of slot_width that is >= `raw` AND strictly after now.
  /// (Strictly after: an attach can never tick in the instant it was
  /// made, matching a freshly created timer whose first event carries a
  /// later sequence number than anything already queued at `now`.)
  TimeUs quantize(TimeUs raw) const noexcept;

  /// Attaches a member whose first tick is at `first_tick` (must be
  /// quantized; callers use quantize()). Subsequent ticks come every
  /// effective_period(). `tag` is opaque and handed back at fan-out.
  CohortSlot attach(TimeUs first_tick, std::uint64_t tag);

  /// Detaches a member. Safe on stale/invalid handles (returns false) and
  /// during fan-out. When the wheel empties its pending event is
  /// cancelled, so a drained simulation holds no wheel events.
  bool detach(CohortSlot s);

  /// True while `s` names a live member.
  bool attached(CohortSlot s) const noexcept;
  /// The member's tag (0 on a stale slot).
  std::uint64_t tag(CohortSlot s) const noexcept;

  // --- introspection ---
  std::size_t size() const noexcept { return members_; }
  std::uint32_t buckets() const noexcept {
    return static_cast<std::uint32_t>(bucket_head_.size());
  }
  DurationUs slot_width() const noexcept { return slot_width_; }
  /// slot_width() * buckets(): the rotation callers must poll at.
  DurationUs effective_period() const noexcept { return period_; }
  /// Bucket fan-outs fired so far (one engine event each).
  std::uint64_t ticks() const noexcept { return ticks_; }
  /// Earliest due time across non-empty buckets (-1: none); the owning
  /// bucket lands in *bucket_out (kNoBucket: none). The pending engine
  /// event is aimed here.
  TimeUs earliest_due(std::uint32_t* bucket_out) const noexcept;
  /// Bucket `b`'s next fire time (-1 while it is empty).
  TimeUs bucket_due(std::uint32_t b) const noexcept { return bucket_due_[b]; }

  static constexpr std::uint32_t kNoBucket = 0xFFFFFFFFu;

 private:
  static constexpr std::uint32_t kNil = kNoBucket;

  struct Ledger {
    // Struct-of-arrays over member slots: each vector is indexed by the
    // slot index, grown together. Hot fan-out walks touch next_/tag_/
    // first_due_ only.
    std::vector<std::uint64_t> tag;
    std::vector<std::uint32_t> generation;
    std::vector<std::uint32_t> bucket;     // next-deadline bucket
    std::vector<TimeUs> first_due;         // gate for the first rotation
    std::vector<std::uint32_t> prev;       // intrusive bucket list links
    std::vector<std::uint32_t> next;       // (doubles as free-list link)
  };

  bool live(CohortSlot s) const noexcept {
    return s.valid() && s.index < ledger_.tag.size() &&
           ledger_.generation[s.index] == s.generation &&
           ledger_.bucket[s.index] != kNil;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void fire();                       // the single pending engine event
  void reschedule();                 // re-aim pending_ at the earliest due

  Simulator& sim_;
  DurationUs slot_width_;
  DurationUs period_;  // slot_width_ * buckets
  FanoutFn fanout_;

  Ledger ledger_;
  std::vector<std::uint32_t> bucket_head_;
  std::vector<std::uint32_t> bucket_tail_;
  std::vector<TimeUs> bucket_due_;   // next fire time; valid when non-empty
  std::uint64_t nonempty_ = 0;       // bit b: bucket b has members

  std::uint32_t free_head_ = kNil;
  std::size_t members_ = 0;
  std::uint64_t ticks_ = 0;

  EventHandle pending_{};
  TimeUs pending_time_ = -1;         // -1: nothing scheduled
  std::uint32_t pending_bucket_ = kNil;
  std::uint32_t fan_cursor_ = kNil;  // next slot the running fan-out visits
};

}  // namespace livesim::sim

#endif  // LIVESIM_SIM_POLL_WHEEL_H
