#include "livesim/client/retry.h"

namespace livesim::client {

std::optional<TimeUs> PollRetryState::on_failure(TimeUs now, Rng& rng) {
  if (gave_up_) return std::nullopt;
  ++streak_;
  ++total_;
  if (streak_ >= kMaxAttempts) {
    gave_up_ = true;
    return std::nullopt;
  }
  return now + fault::backoff_delay(streak_, rng);
}

}  // namespace livesim::client
