#include "livesim/sim/poll_wheel.h"

#include <bit>
#include <stdexcept>

namespace livesim::sim {

PollWheel::PollWheel(Simulator& sim, DurationUs period, std::uint32_t buckets)
    : sim_(sim) {
  if (buckets > kMaxBuckets)
    throw std::invalid_argument("PollWheel: more than 64 buckets");
  if (buckets == 0) buckets = 1;
  slot_width_ = period / static_cast<DurationUs>(buckets);
  if (slot_width_ < 1) slot_width_ = 1;
  period_ = slot_width_ * static_cast<DurationUs>(buckets);
  bucket_head_.assign(buckets, kNil);
  bucket_tail_.assign(buckets, kNil);
  bucket_due_.assign(buckets, -1);
}

PollWheel::~PollWheel() {
  if (pending_.valid()) sim_.cancel(pending_);
}

TimeUs PollWheel::quantize(TimeUs raw) const noexcept {
  const DurationUs w = slot_width_;
  TimeUs t = ((raw + w - 1) / w) * w;
  const TimeUs now = sim_.now();
  if (t <= now) t = (now / w + 1) * w;
  return t;
}

std::uint32_t PollWheel::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = ledger_.next[idx];
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(ledger_.member.size());
  ledger_.member.push_back(nullptr);
  ledger_.generation.push_back(1);
  ledger_.bucket.push_back(kNil);
  ledger_.first_due.push_back(0);
  ledger_.prev.push_back(kNil);
  ledger_.next.push_back(kNil);
  return idx;
}

void PollWheel::release_slot(std::uint32_t idx) {
  // Bump the generation so every outstanding CohortSlot naming this index
  // goes stale; the slot then heads the free list.
  ++ledger_.generation[idx];
  ledger_.bucket[idx] = kNil;
  ledger_.prev[idx] = kNil;
  ledger_.next[idx] = free_head_;
  free_head_ = idx;
}

CohortSlot PollWheel::attach(TimeUs first_tick, void* member) {
  const std::uint32_t idx = acquire_slot();
  const auto b = static_cast<std::uint32_t>(
      (first_tick / slot_width_) % static_cast<DurationUs>(buckets()));

  ledger_.member[idx] = member;
  ledger_.bucket[idx] = b;
  ledger_.first_due[idx] = first_tick;

  // Append at tail: fan-out order == attach order == the firing order of
  // equivalent per-viewer timers created in the same sequence.
  ledger_.prev[idx] = bucket_tail_[b];
  ledger_.next[idx] = kNil;
  if (bucket_tail_[b] != kNil)
    ledger_.next[bucket_tail_[b]] = idx;
  else
    bucket_head_[b] = idx;
  bucket_tail_[b] = idx;
  nonempty_ |= std::uint64_t{1} << b;

  if (bucket_due_[b] < 0 || first_tick < bucket_due_[b])
    bucket_due_[b] = first_tick;
  ++members_;

  if (pending_time_ < 0 || bucket_due_[b] < pending_time_) reschedule();
  return CohortSlot{idx, ledger_.generation[idx]};
}

bool PollWheel::detach(CohortSlot s) {
  if (!live(s)) return false;
  const std::uint32_t idx = s.index;
  const std::uint32_t b = ledger_.bucket[idx];

  // A running fan-out about to visit or prefetch this slot steps over it.
  if (fan_cursor_ == idx) fan_cursor_ = ledger_.next[idx];
  if (fan_ahead_ == idx) fan_ahead_ = ledger_.next[idx];

  const std::uint32_t p = ledger_.prev[idx];
  const std::uint32_t n = ledger_.next[idx];
  if (p != kNil) ledger_.next[p] = n; else bucket_head_[b] = n;
  if (n != kNil) ledger_.prev[n] = p; else bucket_tail_[b] = p;

  release_slot(idx);
  --members_;

  if (bucket_head_[b] == kNil) {
    bucket_due_[b] = -1;
    nonempty_ &= ~(std::uint64_t{1} << b);
    reschedule();  // the emptied bucket may have been the pending target
  }
  return true;
}

bool PollWheel::attached(CohortSlot s) const noexcept { return live(s); }

void* PollWheel::member(CohortSlot s) const noexcept {
  return live(s) ? ledger_.member[s.index] : nullptr;
}

// Bucket b's due times all lie on its own grid points (slot index = b mod
// buckets), so no two buckets are ever due at once. Walking the non-empty
// buckets in rotation order from the first grid point at or after now, a
// bucket due at its next grid point (less than one period past it) is due
// before every bucket after it, and every bucket before it is due a full
// period or more later: it is the earliest, and the walk stops there. Only
// members attached several rotations ahead make the walk go on; then it
// keeps the minimum, as a scan of all buckets would.
TimeUs PollWheel::earliest_due(std::uint32_t* bucket_out) const noexcept {
  TimeUs best = -1;
  std::uint32_t best_b = kNil;
  const std::uint32_t n = buckets();
  // Rotate the non-empty mask so bit i is the bucket whose next grid point
  // at or after now is the i-th one: (first_slot + i) * slot_width_.
  const TimeUs first_slot = (sim_.now() + slot_width_ - 1) / slot_width_;
  const auto start = static_cast<std::uint32_t>(first_slot % n);
  const std::uint64_t all = n == 64 ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << n) - 1;
  std::uint64_t ahead =
      start == 0 ? nonempty_
                 : ((nonempty_ >> start) | (nonempty_ << (n - start))) & all;
  for (; ahead != 0; ahead &= ahead - 1) {
    const auto i = static_cast<std::uint32_t>(std::countr_zero(ahead));
    const std::uint32_t b = start + i < n ? start + i : start + i - n;
    const TimeUs due = bucket_due_[b];
    if (best < 0 || due < best) {
      best = due;
      best_b = b;
    }
    if (due < (first_slot + i) * slot_width_ + period_) break;
  }
  if (bucket_out != nullptr) *bucket_out = best_b;
  return best;
}

void PollWheel::reschedule() {
  std::uint32_t b = kNil;
  const TimeUs due = earliest_due(&b);
  if (due == pending_time_ && b == pending_bucket_) return;  // already aimed
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = EventHandle{};
  }
  pending_time_ = -1;
  pending_bucket_ = kNil;
  if (due < 0) return;  // empty wheel: no pending event at all
  pending_ = sim_.schedule_at(due, [this] { fire(); });
  pending_time_ = due;
  pending_bucket_ = b;
}

void PollWheel::prefetch_ahead() noexcept {
  // Whole cache lines, from the one holding the member's first byte. The
  // span may run past the end of a small member, so it is walked as
  // integers: a prefetch never faults and nothing here is dereferenced.
  constexpr std::uintptr_t kLine = 64;
  const auto first =
      reinterpret_cast<std::uintptr_t>(ledger_.member[fan_ahead_]);
  for (std::uintptr_t line = first & ~(kLine - 1);
       line < first + kPrefetchBytes; line += kLine)
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  fan_ahead_ = ledger_.next[fan_ahead_];
}

void PollWheel::fire() {
  const TimeUs tick = pending_time_;
  const std::uint32_t b = pending_bucket_;
  pending_ = EventHandle{};
  pending_time_ = -1;
  pending_bucket_ = kNil;
  ++ticks_;

  // Advance the due time before fanning out so members attached by a
  // callback (quantized strictly after now) see the bucket's next
  // rotation, never this pass.
  bucket_due_[b] = tick + period_;

  // Prime the lookahead with the bucket's first kPrefetchAhead members;
  // each visit then prefetches the member kPrefetchAhead links past it.
  fan_cursor_ = bucket_head_[b];
  fan_ahead_ = fan_cursor_;
  for (std::uint32_t k = 0; k < kPrefetchAhead && fan_ahead_ != kNil; ++k)
    prefetch_ahead();
  while (fan_cursor_ != kNil) {
    const std::uint32_t cur = fan_cursor_;
    fan_cursor_ = ledger_.next[cur];  // advance first: detaching cur is safe
    if (fan_ahead_ != kNil) prefetch_ahead();
    if (ledger_.first_due[cur] > tick) continue;  // joined mid-rotation
    ledger_.first_due[cur] = 0;
    if (fanout_)
      fanout_(tick, ledger_.member[cur],
              CohortSlot{cur, ledger_.generation[cur]});
  }
  fan_cursor_ = kNil;
  fan_ahead_ = kNil;

  if (bucket_head_[b] == kNil) {
    bucket_due_[b] = -1;
    nonempty_ &= ~(std::uint64_t{1} << b);
  }
  reschedule();
}

}  // namespace livesim::sim
