#include "livesim/fault/backoff.h"

#include <algorithm>

namespace livesim::fault {

DurationUs backoff_base_delay(std::uint32_t attempt) noexcept {
  // Compute in double: 2^60 µs is ~36k years, far past any cap, and the
  // double path cannot overflow the way repeated integer doubling can.
  const double cap = static_cast<double>(kBackoffCap);
  double d = static_cast<double>(kBackoffBase);
  for (std::uint32_t i = 1; i < attempt; ++i) {
    d *= kBackoffMultiplier;
    if (d >= cap) break;
  }
  return static_cast<DurationUs>(std::min(d, cap));
}

DurationUs backoff_delay(std::uint32_t attempt, Rng& rng) noexcept {
  const double jitter = 1.0 + kBackoffJitter * (2.0 * rng.uniform() - 1.0);
  return static_cast<DurationUs>(
      static_cast<double>(backoff_base_delay(attempt)) * jitter);
}

}  // namespace livesim::fault
