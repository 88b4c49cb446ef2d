// Control plane: shared types for proactive edge health monitoring and
// anycast load steering.
//
// The delivery tier (cdn/ + core/) is reactive: a dead or saturated edge
// is discovered only after a client burns through its poll timeout and
// detect window. The control plane closes that loop proactively — a
// HealthMonitor scrapes per-edge telemetry on a fixed cadence into
// ring-buffer stats::Timeseries ledgers, a SteeringPolicy turns the
// ledgers into per-edge health states (healthy / draining / dead), and
// the published anycast-map overrides steer new joins and failover
// re-anycast around bad edges before client timeouts fire.
//
// Determinism contract: scrape ticks ride the slot-arena engine clock,
// edges are always visited in sorted-id order, and all control-plane
// randomness (none is drawn by default) comes from one dedicated RNG
// substream handed over at construction — so enabling the control plane
// never perturbs any other component's stream, and with
// ControlPlaneConfig::enabled == false no object is built at all.
#ifndef LIVESIM_CONTROL_CONTROL_H
#define LIVESIM_CONTROL_CONTROL_H

#include <cstdint>

#include "livesim/cdn/delivery_backend.h"
#include "livesim/util/time.h"

namespace livesim::control {

struct ControlPlaneConfig {
  /// Master switch. Off (the default): nothing is constructed, nothing
  /// is scraped, no RNG is forked — existing experiments reproduce bit
  /// for bit.
  bool enabled = false;
  /// Overlay assist: when the live-edge footprint saturates (the
  /// fraction of scraped edges that are draining, dead, or full reaches
  /// kSaturationFraction), the control plane activates the overlay P2P
  /// mesh as an edge-offload escape valve: failovers that would orphan
  /// purely for capacity reasons are parked on the mesh instead.
  bool overlay_assist = false;
};

/// Scrape cadence: the monitor samples every edge's telemetry this often.
inline constexpr DurationUs kScrapeInterval = 500 * time::kMillisecond;
/// Decision -> the updated anycast map is live at the routing layer (map
/// push + propagation). Health transitions publish after this delay;
/// until then routing still sees the previous state.
inline constexpr DurationUs kSteerLatency = 100 * time::kMillisecond;
// The proactive detection window for a silent death is at most one scrape
// plus the steer latency; at or past the client's own timeout there would
// be nothing proactive about it.
static_assert(kScrapeInterval + kSteerLatency < cdn::kFailoverDetectTimeout);

/// Ring capacity of each per-edge telemetry ledger (scrapes kept).
inline constexpr std::uint32_t kHistory = 64;
/// Drain when attached >= kDrainLoadFraction * capacity (finite capacity
/// only; capacity 0 = unbounded edges never drain on load).
inline constexpr double kDrainLoadFraction = 0.9;
/// Hysteresis: a draining edge recovers only once attached falls to
/// kUndrainLoadFraction * capacity or below (and its streak is clean).
inline constexpr double kUndrainLoadFraction = 0.7;
/// Drain when the origin-fetch failure streak reaches this many
/// consecutive failures.
inline constexpr std::uint32_t kDrainFailureStreak = 3;
/// Trend trigger: drain when the load ledger's least-squares slope
/// projects attached >= capacity within this horizon.
inline constexpr DurationUs kTrendHorizon = 5 * time::kSecond;
/// A drained edge stays drained at least this long (flap damping).
inline constexpr DurationUs kDrainCooldown = 2 * time::kSecond;
/// Footprint saturation that arms the overlay assist.
inline constexpr double kSaturationFraction = 0.5;

/// One edge's telemetry at one scrape tick. The scrape source (the
/// session layer) builds these in sorted-site-id order.
struct EdgeSample {
  std::uint64_t site = 0;
  std::uint64_t attached = 0;
  std::uint64_t capacity = 0;       // 0 = unbounded
  std::uint64_t fetch_failures = 0; // cumulative
  std::uint32_t failure_streak = 0; // consecutive, reset on success
  std::uint64_t cohort = 0;         // poll-wheel cohort size (0 if none)
  bool down = false;                // the scrape probe got no answer
};

enum class EdgeHealth : std::uint8_t {
  kHealthy = 0,
  kDraining = 1,  // steer around; attached viewers stay
  kDead = 2,      // steer around AND proactively migrate attached viewers
};

}  // namespace livesim::control

#endif  // LIVESIM_CONTROL_CONTROL_H
