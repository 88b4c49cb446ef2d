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

#include "livesim/overlay/mesh.h"
#include "livesim/util/time.h"

namespace livesim::control {

struct ControlPlaneConfig {
  /// Master switch. Off (the default): nothing is constructed, nothing
  /// is scraped, no RNG is forked — existing experiments reproduce bit
  /// for bit.
  bool enabled = false;

  /// Scrape cadence: the monitor samples every edge's telemetry this
  /// often. The proactive detection window for a silent death is at most
  /// one scrape interval plus steer_latency — set it well under the
  /// client failover_detect_timeout or there is nothing proactive about
  /// it.
  DurationUs scrape_interval = 500 * time::kMillisecond;

  /// Decision -> the updated anycast map is live at the routing layer
  /// (map push + propagation). Health transitions publish after this
  /// delay; until then routing still sees the previous state.
  DurationUs steer_latency = 100 * time::kMillisecond;

  /// Ring capacity of each per-edge telemetry ledger (scrapes kept).
  std::uint32_t history = 64;

  /// Drain when attached >= drain_load_fraction * capacity (finite
  /// capacity only; capacity 0 = unbounded edges never drain on load).
  double drain_load_fraction = 0.9;
  /// Hysteresis: a draining edge recovers only once attached falls to
  /// undrain_load_fraction * capacity or below (and its streak is clean).
  double undrain_load_fraction = 0.7;
  /// Drain when the origin-fetch failure streak reaches this many
  /// consecutive failures (0 disables the streak trigger).
  std::uint32_t drain_failure_streak = 3;
  /// Trend trigger: drain when the load ledger's least-squares slope
  /// projects attached >= capacity within this horizon (0 disables).
  DurationUs trend_horizon = 5 * time::kSecond;
  /// A drained edge stays drained at least this long (flap damping).
  DurationUs drain_cooldown = 2 * time::kSecond;

  /// Overlay assist: when the live-edge footprint saturates (the
  /// fraction of scraped edges that are draining, dead, or full reaches
  /// saturation_fraction), the control plane activates the overlay/ P2P
  /// mesh as an edge-offload escape valve: failovers that would orphan
  /// purely for capacity reasons are parked on the mesh instead.
  bool overlay_assist = false;
  double saturation_fraction = 0.5;
  overlay::P2PMesh::Params mesh{};
};

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
