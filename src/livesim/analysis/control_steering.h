// Control-steering experiment: reactive spill vs proactive drain.
//
// The capacity-spill experiment models the platform the paper measured:
// a dead edge is discovered one viewer at a time, each paying a failed
// poll plus the full detect window. This experiment runs the same
// four-phase spill driver over the identical workload (same traces, same
// blackout, same draws) with the control plane's scrape/steer model
// layered on top: the HealthMonitor's first scrape tick strictly after
// the outage sees the dark edges, and control::kSteerLatency later the
// anycast-map override is routing-visible — from that instant an
// affected viewer's next poll re-anycasts immediately instead of burning
// its detect window.
//
// The proactive decision instant is clamped to [first dark poll, first
// dark poll + cdn::kFailoverDetectTimeout]: the client timeout stays as
// the fallback, so proactive detection can never be slower than reactive
// — the dominance contract bench_control_steering pins per grid cell.
//
// With control.enabled == false there is no clamp and the experiment's
// spill stats equal capacity_spill_experiment's bit for bit.
// Defined in resilience.cpp, beside the driver.
#ifndef LIVESIM_ANALYSIS_CONTROL_STEERING_H
#define LIVESIM_ANALYSIS_CONTROL_STEERING_H

#include <vector>

#include "livesim/analysis/resilience.h"
#include "livesim/control/control.h"
#include "livesim/geo/datacenters.h"
#include "livesim/stats/sampler.h"
#include "livesim/util/time.h"

namespace livesim::analysis {

struct ControlSteeringConfig {
  /// The reactive workload: blackout geometry, viewers, capacity, seed,
  /// threads. Identical semantics to capacity_spill_experiment.
  CapacitySpillConfig spill{};
  /// The scrape/steer model. enabled == false degenerates to the
  /// reactive experiment bit for bit.
  control::ControlPlaneConfig control{};
};

struct ControlSteeringStats {
  /// The spill outcome under the chosen detection model (reactive when
  /// the control plane is disabled, steered when enabled).
  CapacitySpillStats spill;

  /// Per affected viewer, canonical (trace, viewer) order: outage start
  /// -> re-anycast decision, seconds. `reactive` is what the client
  /// timeout alone would pay; `proactive` is what the steered system
  /// pays (equal to reactive when the control plane is disabled).
  stats::Sampler reactive_detect_s;
  stats::Sampler proactive_detect_s;

  /// Engine time the anycast override became routing-visible (first
  /// scrape tick strictly after the outage + kSteerLatency); 0 when the
  /// control plane is disabled.
  TimeUs steer_published_at = 0;
  /// Whether the steered detection model was applied.
  bool proactive = false;
  /// Affected viewers whose decision beat their own client timeout.
  std::uint64_t steered_early = 0;
};

/// Runs the capacity-spill workload over each trace, with the control
/// plane's scrape/steer detection model layered on when
/// config.control.enabled. Deterministic in (spill.base.seed) at every
/// thread count.
ControlSteeringStats control_steering_experiment(
    const std::vector<BroadcastTrace>& traces,
    const geo::DatacenterCatalog& catalog, const ControlSteeringConfig& config);

}  // namespace livesim::analysis

#endif  // LIVESIM_ANALYSIS_CONTROL_STEERING_H
