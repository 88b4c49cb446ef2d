#include "livesim/client/playback.h"

namespace livesim::client {

void PlaybackSchedule::on_arrival(TimeUs arrival, DurationUs media_offset,
                                  DurationUs duration) {
  media_offered_ += duration;

  if (!have_first_) {
    have_first_ = true;
    first_media_ = media_offset;
  }

  if (!started_) {
    buffered_before_start_ += duration;
    if (buffered_before_start_ >= pre_buffer_) {
      // The arrival that completes the pre-buffer anchors the schedule:
      // the oldest unit plays now, unit u plays at
      // start_wall + (media_u - media_first).
      started_ = true;
      start_wall_ = arrival;
    } else {
      // Still pre-buffering: the schedule anchor is unknown until the
      // pre-buffer fills, so hold the unit and score it at start.
      pending_pre_start_.push_back({arrival, media_offset, duration});
      return;
    }
    // Score everything that was waiting in the pre-buffer.
    for (const auto& u : pending_pre_start_) {
      const TimeUs sched = start_wall_ + (u.media_offset - first_media_);
      delay_.add(time::to_seconds(sched - u.arrival));
      e2e_.add(time::to_seconds(sched - u.media_offset));
      ++played_;
    }
    // Free the buffer, not just empty it: it is never filled again, and a
    // crowd holds one per viewer for the viewer's whole life.
    std::vector<PendingUnit>().swap(pending_pre_start_);
    // The anchoring unit itself.
    const TimeUs sched = start_wall_ + (media_offset - first_media_);
    delay_.add(time::to_seconds(sched - arrival));
    e2e_.add(time::to_seconds(sched - media_offset));
    ++played_;
    return;
  }

  const TimeUs sched = start_wall_ + (media_offset - first_media_);
  if (arrival <= sched) {
    // Early or on time: waits in the buffer for sched - arrival.
    delay_.add(time::to_seconds(sched - arrival));
    e2e_.add(time::to_seconds(sched - media_offset));
    ++played_;
  } else if (arrival <= sched + duration) {
    // Arrived mid-slot: the beginning of the slot stalls, the remainder
    // plays (partial discard of a late chunk/frame).
    media_discarded_ += arrival - sched;
    delay_.add(0.0);
    e2e_.add(time::to_seconds(arrival - media_offset));
    ++played_;
  } else {
    media_discarded_ += duration;
    ++discarded_;
  }
}

double PlaybackSchedule::stall_ratio() const noexcept {
  if (media_offered_ == 0) return 0.0;
  DurationUs stalled = media_discarded_;
  if (!started_) stalled = media_offered_;  // never played anything
  return static_cast<double>(stalled) / static_cast<double>(media_offered_);
}

}  // namespace livesim::client
