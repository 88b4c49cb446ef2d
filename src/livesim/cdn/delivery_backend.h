// The delivery ladder's tiers -- "how media reaches a viewer" -- named
// once for the session, the service's handoff policy and the Fig 14 cost
// sweeps.
//
// The paper's system is a hard-coded two-tier split: Wowza pushes RTMP
// frames to the first ~100 viewers, Fastly serves 3 s HLS chunks to the
// rest. LL-HLS/CMAF is the middle rung of the latency ladder:
//
//   tier      transport semantics                  delay    cost/viewer
//   kRtmp     push, per-frame, persistent conn     lowest   highest
//   kLlHls    pull, partial segments, blocking     middle   middle
//             playlist reload + preload hints
//   kHls      pull, whole chunks, free-running     highest  lowest
//             playlist polling
//
// The session runs one pull transaction for both pull tiers
// (core/broadcast_session.h); the per-tier cost curves are
// closed forms in cdn/resource_model.h.
#ifndef LIVESIM_CDN_DELIVERY_BACKEND_H
#define LIVESIM_CDN_DELIVERY_BACKEND_H

#include <cstdint>

#include "livesim/util/time.h"

namespace livesim::cdn {

enum class DeliveryTier : std::uint8_t { kRtmp = 0, kLlHls = 1, kHls = 2 };

/// Stable lowercase names for logs, JSON, and test diagnostics.
const char* tier_name(DeliveryTier tier) noexcept;

/// The app's free-running HLS playlist poll interval (§5.2 measured
/// 2-2.8 s): the session's viewers, the outage replays and the cost
/// curves all poll at it.
inline constexpr DurationUs kHlsPollInterval = time::from_seconds(2.8);
/// How long a dead connection (RTMP ingest or HLS edge) goes unnoticed
/// before the client fails over: socket timeout plus app reaction.
inline constexpr DurationUs kFailoverDetectTimeout = 2 * time::kSecond;
/// LL-HLS partial-segment cadence: the ingest seals a part about every
/// kLlHlsPartDuration of media.
inline constexpr DurationUs kLlHlsPartDuration = 1 * time::kSecond;
/// Longest server-side park of a blocking playlist reload. A reload still
/// parked at the cap is released empty, and the client re-requests at
/// once (preload-hint semantics).
inline constexpr DurationUs kLlHlsHoldCap = 3 * time::kSecond;

}  // namespace livesim::cdn

#endif  // LIVESIM_CDN_DELIVERY_BACKEND_H
