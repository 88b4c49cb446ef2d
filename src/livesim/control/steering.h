// SteeringPolicy: per-edge health state machine + anycast-map overrides.
//
// Consumes one EdgeSample per edge per scrape tick (sorted-id order, fed
// by the HealthMonitor) and maintains a three-state machine per edge:
//
//   healthy --(down)--------------------------> dead
//   healthy --(load/streak/trend trigger)-----> draining
//   draining --(recovered + cooldown)---------> healthy
//   dead --(probe answers again)--------------> draining (cooldown holds)
//
// A transition is a *decision*; it becomes routing-visible only when the
// owner (ControlPlane) publishes it kSteerLatency later — the policy
// itself just records decisions deterministically. The
// published override set ("avoid these sites") is the anycast-map
// override the paper-era platform would push to its DNS/anycast tier.
#ifndef LIVESIM_CONTROL_STEERING_H
#define LIVESIM_CONTROL_STEERING_H

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "livesim/control/control.h"
#include "livesim/util/time.h"

namespace livesim::control {

class SteeringPolicy {
 public:
  struct Transition {
    std::uint64_t site = 0;
    EdgeHealth from = EdgeHealth::kHealthy;
    EdgeHealth to = EdgeHealth::kHealthy;
    TimeUs decided_at = 0;
  };

  /// Feeds one edge's scrape sample. `projected_load` is the load
  /// ledger's linear projection at now + kTrendHorizon (the monitor owns
  /// the ledgers; the policy only sees the projection). Returns the
  /// transition decided this tick, if any.
  std::optional<Transition> observe(const EdgeSample& sample,
                                    double projected_load, TimeUs now);

  /// Decided health (may not be published yet — the ControlPlane owns
  /// the steer-latency delay between decision and routing visibility).
  EdgeHealth health(std::uint64_t site) const noexcept;

  /// Sites currently decided draining or dead, sorted by id: the
  /// anycast-map override payload.
  std::vector<std::uint64_t> override_sites() const;

  /// Fraction of observed edges that are draining, dead, or full — the
  /// footprint-saturation signal that arms the overlay assist.
  double saturation() const noexcept;

  // --- ledger ---
  std::uint64_t drains() const noexcept { return drains_; }
  std::uint64_t undrains() const noexcept { return undrains_; }
  std::uint64_t deaths() const noexcept { return deaths_; }
  std::uint64_t revivals() const noexcept { return revivals_; }
  const std::vector<Transition>& transitions() const noexcept {
    return transitions_;
  }

 private:
  struct EdgeState {
    EdgeHealth health = EdgeHealth::kHealthy;
    TimeUs drained_at = 0;  // cooldown anchor (drain or revival)
    bool full = false;      // last sample's attached >= capacity
  };

  std::map<std::uint64_t, EdgeState> edges_;  // sorted: deterministic scans
  std::vector<Transition> transitions_;
  std::uint64_t drains_ = 0;
  std::uint64_t undrains_ = 0;
  std::uint64_t deaths_ = 0;
  std::uint64_t revivals_ = 0;
};

}  // namespace livesim::control

#endif  // LIVESIM_CONTROL_STEERING_H
