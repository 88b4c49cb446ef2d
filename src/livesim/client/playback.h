// Client-side playback buffering, §6 of the paper.
//
// Decompiled-Periscope semantics: the client pre-buffers P seconds of
// content, then plays units (frames or chunks) by sequence on a fixed
// real-time schedule; a unit that has not arrived by the end of its
// scheduled slot is discarded and its slot is a stall. The two §6 metrics
// fall out directly:
//   stalling ratio   = discarded media time / total media time
//   buffering delay  = scheduled play time - arrival time, per played unit
#ifndef LIVESIM_CLIENT_PLAYBACK_H
#define LIVESIM_CLIENT_PLAYBACK_H

#include <cstdint>
#include <optional>
#include <vector>

#include "livesim/stats/accumulator.h"
#include "livesim/util/time.h"

namespace livesim::client {

class PlaybackSchedule {
 public:
  /// `pre_buffer`: media seconds accumulated before playback starts (the
  /// paper's P). Playback is anchored at the arrival that completes the
  /// pre-buffer; with P=0 it is anchored at the first arrival.
  explicit PlaybackSchedule(DurationUs pre_buffer)
      : pre_buffer_(pre_buffer) {}

  /// Reports one content unit. `media_offset` is the unit's position on
  /// the media timeline (capture time relative to the stream start),
  /// `duration` its media length, `arrival` its wall-clock arrival at the
  /// client. Arrivals may be reported in any order.
  void on_arrival(TimeUs arrival, DurationUs media_offset, DurationUs duration);

  /// Total media time offered so far.
  DurationUs media_offered() const noexcept { return media_offered_; }

  /// Fraction of offered media whose slot stalled (0 if nothing offered).
  /// Media that never got a schedule (playback never started) counts as
  /// stalled in full.
  double stall_ratio() const noexcept;

  /// Buffering delay stats over *played* units, in seconds.
  const stats::Accumulator& buffering_delay_s() const noexcept {
    return delay_;
  }

  /// Ground-truth end-to-end delay over played units: scheduled play time
  /// minus the unit's capture timestamp. Used to validate that the
  /// component decomposition (Figure 10) sums to what viewers experience.
  const stats::Accumulator& end_to_end_s() const noexcept { return e2e_; }

  bool started() const noexcept { return started_; }
  std::uint64_t units_played() const noexcept { return played_; }
  std::uint64_t units_discarded() const noexcept { return discarded_; }

  /// The media timestamp on screen at wall time `wall` (what the viewer is
  /// reacting to when they tap a heart). Nullopt before playback starts.
  std::optional<TimeUs> media_position(TimeUs wall) const noexcept {
    if (!started_ || wall < start_wall_) return std::nullopt;
    return first_media_ + (wall - start_wall_);
  }

 private:
  struct PendingUnit {
    TimeUs arrival;
    DurationUs media_offset;
    DurationUs duration;
  };

  DurationUs pre_buffer_;
  std::vector<PendingUnit> pending_pre_start_;
  bool started_ = false;
  bool have_first_ = false;
  DurationUs first_media_ = 0;
  DurationUs buffered_before_start_ = 0;
  TimeUs start_wall_ = 0;

  DurationUs media_offered_ = 0;
  DurationUs media_discarded_ = 0;
  std::uint64_t played_ = 0;
  std::uint64_t discarded_ = 0;
  stats::Accumulator delay_;
  stats::Accumulator e2e_;
};

}  // namespace livesim::client

#endif  // LIVESIM_CLIENT_PLAYBACK_H
