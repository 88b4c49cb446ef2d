// Client-side poll retry: timeout detection state + backoff pacing.
//
// The §5.2 poll loop assumes every request comes back; this is what the
// client does when one doesn't. PollRetryState tracks the consecutive-
// failure streak, paces the next attempt with capped exponential backoff
// (jittered from the caller's RNG stream), and gives up after
// kMaxAttempts failures in a row — the point where a real app would
// drop the viewer to an error screen. A success resets the streak, so
// transient partitions cost a few backed-off polls, not the session.
#ifndef LIVESIM_CLIENT_RETRY_H
#define LIVESIM_CLIENT_RETRY_H

#include <cstdint>
#include <optional>

#include "livesim/fault/backoff.h"
#include "livesim/util/rng.h"
#include "livesim/util/time.h"

namespace livesim::client {

class PollRetryState {
 public:
  /// Consecutive failures tolerated before the client gives up.
  static constexpr std::uint32_t kMaxAttempts = 6;

  /// A poll failed (timeout, partition, corrupt response) at `now`.
  /// Returns when to retry (fault::backoff_delay), or nullopt if the
  /// streak just reached kMaxAttempts — the client has given up
  /// (terminal; later calls keep returning nullopt).
  std::optional<TimeUs> on_failure(TimeUs now, Rng& rng);

  /// A poll succeeded: the failure streak resets.
  void on_success() noexcept {
    if (!gave_up_) streak_ = 0;
  }

  std::uint32_t consecutive_failures() const noexcept { return streak_; }
  std::uint32_t total_failures() const noexcept { return total_; }
  bool gave_up() const noexcept { return gave_up_; }

 private:
  std::uint32_t streak_ = 0;
  std::uint32_t total_ = 0;
  bool gave_up_ = false;
};

}  // namespace livesim::client

#endif  // LIVESIM_CLIENT_RETRY_H
