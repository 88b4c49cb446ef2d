// Exponential backoff with a cap and deterministic jitter.
//
// The retry discipline shared by the resilience machinery: clients retry
// timed-out polls with it, the failover path paces its reconnect
// attempts with it. Jitter comes from the caller's RNG stream, so two
// runs with the same seed back off identically — and retries across a
// fleet of simulated clients decorrelate instead of thundering back in
// lockstep.
#ifndef LIVESIM_FAULT_BACKOFF_H
#define LIVESIM_FAULT_BACKOFF_H

#include <cstdint>

#include "livesim/util/rng.h"
#include "livesim/util/time.h"

namespace livesim::fault {

// Attempt 1 waits kBackoffBase, each later attempt kBackoffMultiplier
// times longer, capped at kBackoffCap before jitter; the jitter is a
// uniform multiplier in [1 - kBackoffJitter, 1 + kBackoffJitter].
inline constexpr DurationUs kBackoffBase = 500 * time::kMillisecond;
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr DurationUs kBackoffCap = 8 * time::kSecond;
inline constexpr double kBackoffJitter = 0.2;

/// Un-jittered delay for 1-based `attempt`:
/// min(kBackoffBase * kBackoffMultiplier^(attempt-1), kBackoffCap).
DurationUs backoff_base_delay(std::uint32_t attempt) noexcept;

/// Jittered delay: backoff_base_delay(attempt) scaled by one uniform
/// draw. Deterministic given the RNG state.
DurationUs backoff_delay(std::uint32_t attempt, Rng& rng) noexcept;

}  // namespace livesim::fault

#endif  // LIVESIM_FAULT_BACKOFF_H
