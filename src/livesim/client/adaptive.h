// Adaptive client buffering -- the optimization §6 closes with:
//
// "In cases when viewers have stable last-mile connection ... smaller
// buffer size could be applied to reduce the buffering delay. In other
// cases of bad connection, Periscope could always fall back to the
// default 9s buffer to provide smooth playback."
//
// AdaptivePlayback starts with an optimistic pre-buffer and re-anchors
// with a larger one whenever playback under-runs: stable viewers keep the
// low-delay schedule, unstable viewers converge to the conservative one.
#ifndef LIVESIM_CLIENT_ADAPTIVE_H
#define LIVESIM_CLIENT_ADAPTIVE_H

#include <cstdint>

#include "livesim/stats/accumulator.h"
#include "livesim/util/time.h"

namespace livesim::client {

class AdaptivePlayback {
 public:
  /// The deployed 9 s buffer caps growth; each under-run adds kGrowStep.
  static constexpr DurationUs kMaxPreBuffer = 9 * time::kSecond;
  static constexpr DurationUs kGrowStep = 1500 * time::kMillisecond;

  explicit AdaptivePlayback(DurationUs initial_pre_buffer)
      : current_target_(initial_pre_buffer) {}

  /// Same contract as PlaybackSchedule::on_arrival, but the schedule may
  /// re-anchor (rebuffer) after an under-run.
  void on_arrival(TimeUs arrival, DurationUs media_offset,
                  DurationUs duration);

  double stall_ratio() const noexcept;
  const stats::Accumulator& buffering_delay_s() const noexcept {
    return delay_;
  }
  DurationUs current_pre_buffer() const noexcept { return current_target_; }
  std::uint32_t rebuffer_events() const noexcept { return rebuffers_; }
  bool started() const noexcept { return started_; }
  /// Total media time offered via on_arrival. Resilience experiments use
  /// this to charge media that never reached the client (server death,
  /// exhausted retries) as stall on top of stall_ratio(), which only
  /// covers what was offered.
  DurationUs media_offered() const noexcept { return media_offered_; }

 private:
  void anchor(TimeUs arrival, DurationUs media_offset);

  DurationUs current_target_;

  bool started_ = false;
  bool have_first_ = false;
  TimeUs first_arrival_ = 0;
  DurationUs buffered_media_ = 0;

  TimeUs start_wall_ = 0;
  DurationUs anchor_media_ = 0;

  DurationUs media_offered_ = 0;
  DurationUs stalled_ = 0;
  std::uint32_t rebuffers_ = 0;
  stats::Accumulator delay_;
};

}  // namespace livesim::client

#endif  // LIVESIM_CLIENT_ADAPTIVE_H
