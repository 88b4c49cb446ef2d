#include "livesim/client/adaptive.h"

namespace livesim::client {

void AdaptivePlayback::anchor(TimeUs arrival, DurationUs media_offset) {
  // Re-anchor so that this unit plays after the (possibly grown) target
  // pre-buffer has a chance to refill: schedule the unit at arrival and
  // push the playhead origin back by the target so the buffer holds
  // ~target seconds of content once steady arrivals resume.
  start_wall_ = arrival + current_target_;
  anchor_media_ = media_offset;
}

void AdaptivePlayback::on_arrival(TimeUs arrival, DurationUs media_offset,
                                  DurationUs duration) {
  media_offered_ += duration;
  if (!have_first_) {
    have_first_ = true;
    first_arrival_ = arrival;
  }

  if (!started_) {
    buffered_media_ += duration;
    if (buffered_media_ >= current_target_) {
      started_ = true;
      // Initial anchor: oldest content plays now; this unit's schedule sits
      // `buffered_media_` ahead of the playhead.
      start_wall_ = arrival;
      anchor_media_ = media_offset - (buffered_media_ - duration);
      // Score the pre-buffered backlog conservatively as waiting ~half the
      // accumulated buffer on average.
      delay_.add(time::to_seconds(buffered_media_) / 2.0);
    }
    return;
  }

  const TimeUs sched = start_wall_ + (media_offset - anchor_media_);
  if (arrival <= sched) {
    delay_.add(time::to_seconds(sched - arrival));
  } else {
    // Under-run: the player freezes from sched until this unit arrives,
    // grows the target (capped), and rebuffers -- the refill pause counts
    // as stall too, since the screen stays frozen while the buffer fills.
    ++rebuffers_;
    if (current_target_ < kMaxPreBuffer) {
      current_target_ += kGrowStep;
      if (current_target_ > kMaxPreBuffer) current_target_ = kMaxPreBuffer;
    }
    stalled_ += (arrival - sched) + current_target_;
    anchor(arrival, media_offset);
    // This unit waits out the refill in the buffer.
    delay_.add(time::to_seconds(current_target_));
  }
}

double AdaptivePlayback::stall_ratio() const noexcept {
  if (media_offered_ == 0) return 0.0;
  const DurationUs denom = media_offered_;
  const DurationUs stall = started_ ? stalled_ : media_offered_;
  return static_cast<double>(stall) / static_cast<double>(denom);
}

}  // namespace livesim::client
