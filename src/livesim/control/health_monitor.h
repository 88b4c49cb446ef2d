// HealthMonitor + ControlPlane: the proactive half of the delivery tier.
//
// The HealthMonitor is a passive ledger bank: one ring-buffer
// stats::Timeseries pair (load, failure streak) per edge site, fed one
// EdgeSample per edge per scrape. It answers the trend questions the
// SteeringPolicy asks ("where will this edge's load be kTrendHorizon
// from now?") without the policy ever touching raw history.
//
// The ControlPlane is the active umbrella: it owns a PeriodicProcess on
// the slot-arena engine that calls the installed scrape function every
// kScrapeInterval, feeds the samples through monitor + policy, and
// publishes each health transition kSteerLatency later (anycast map
// push + propagation). Only *published* state is routing-visible:
// avoid(site) is what LivestreamService consults when ranking edges,
// and a published death fires the steer callback so attached viewers
// are migrated before their own poll timeouts notice anything.
//
// Determinism: scrape ticks ride the engine clock, the scrape function
// must yield samples in sorted-site-id order (the session layer does),
// publications are scheduled in transition order (engine FIFO breaks
// same-instant ties), and the one forked RNG substream is reserved for
// future probabilistic steering — nothing draws from it today, which is
// itself part of the reproducibility contract.
#ifndef LIVESIM_CONTROL_HEALTH_MONITOR_H
#define LIVESIM_CONTROL_HEALTH_MONITOR_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "livesim/control/control.h"
#include "livesim/control/steering.h"
#include "livesim/sim/simulator.h"
#include "livesim/stats/timeseries.h"
#include "livesim/util/rng.h"
#include "livesim/util/time.h"

namespace livesim::control {

/// Per-edge telemetry ledger bank: rings of kHistory scrapes. Pure
/// bookkeeping: no clock, no engine, no policy — just rings and the
/// projections over them.
class HealthMonitor {
 public:
  struct EdgeLedger {
    stats::Timeseries load;    // attached() per scrape
    stats::Timeseries streak;  // consecutive fetch failures per scrape
    std::uint64_t last_cohort = 0;
    std::uint64_t last_fetch_failures = 0;
    EdgeLedger(std::size_t cap) : load(cap), streak(cap) {}
  };

  /// Records one edge's sample at scrape time `now`.
  void ingest(const EdgeSample& sample, TimeUs now);

  /// Load ledger's linear projection `horizon` past the newest sample
  /// for `site` (0 for an unseen site).
  double projected_load(std::uint64_t site, DurationUs horizon) const;

  const EdgeLedger* ledger(std::uint64_t site) const;
  std::size_t edges() const noexcept { return ledgers_.size(); }
  std::uint64_t samples() const noexcept { return samples_; }

 private:
  std::map<std::uint64_t, EdgeLedger> ledgers_;  // sorted-id iteration
  std::uint64_t samples_ = 0;
};

/// The scrape source: returns one EdgeSample per live-footprint edge,
/// in sorted-site-id order. Installed by the session layer.
using ScrapeFn = std::function<std::vector<EdgeSample>()>;

/// Callback fired when a *published* transition demands action from the
/// delivery tier (today: proactive migration off a published-dead edge).
using SteerFn = std::function<void(const SteeringPolicy::Transition&)>;

class ControlPlane {
 public:
  /// Takes its own RNG substream so enabling the control plane never
  /// perturbs any other component's draws. No scraping starts until
  /// start() is called with a scrape source.
  ControlPlane(sim::Simulator& sim, ControlPlaneConfig config, Rng rng);
  ~ControlPlane() = default;

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Begins scraping: first tick at now + kScrapeInterval, then every
  /// kScrapeInterval on the engine clock.
  void start(ScrapeFn scrape);
  void stop();

  /// Fired kSteerLatency after a transition is decided, once it is
  /// routing-visible. Install before start() for deterministic replay.
  void set_steer_fn(SteerFn fn) { steer_ = std::move(fn); }

  /// Published override check: should routing steer around this site
  /// right now? (Decided-but-unpublished transitions do not count.)
  bool avoid(std::uint64_t site) const {
    return published_.count(site) != 0;
  }
  /// Published override set, sorted by site id: the anycast map payload.
  std::vector<std::uint64_t> published_overrides() const {
    return {published_.begin(), published_.end()};
  }

  /// Published health for a site (healthy if never observed/published).
  EdgeHealth published_health(std::uint64_t site) const;

  /// True once the footprint saturation signal (fraction of scraped
  /// edges draining/dead/full) has reached kSaturationFraction and the
  /// config arms the overlay assist.
  bool overlay_assist_active() const noexcept { return assist_active_; }
  /// Engine time the assist first armed (0 = never).
  TimeUs assist_armed_at() const noexcept { return assist_armed_at_; }

  const HealthMonitor& monitor() const noexcept { return monitor_; }
  const SteeringPolicy& policy() const noexcept { return policy_; }
  std::uint64_t scrapes() const noexcept { return scrapes_; }
  std::uint64_t publications() const noexcept { return publications_; }

  /// Hands a child component a derived stream off the control plane's
  /// own substream (used by the overlay-assist mesh).
  Rng fork_rng() noexcept { return rng_.fork(); }

 private:
  void scrape_tick();
  void publish(const SteeringPolicy::Transition& t);

  sim::Simulator& sim_;
  ControlPlaneConfig config_;
  Rng rng_;
  HealthMonitor monitor_;
  SteeringPolicy policy_;
  ScrapeFn scrape_fn_;
  SteerFn steer_;
  std::unique_ptr<sim::PeriodicProcess> process_;
  std::set<std::uint64_t> published_;  // routing-visible override sites
  std::map<std::uint64_t, EdgeHealth> published_health_;
  bool assist_active_ = false;
  TimeUs assist_armed_at_ = 0;
  std::uint64_t scrapes_ = 0;
  std::uint64_t publications_ = 0;
};

}  // namespace livesim::control

#endif  // LIVESIM_CONTROL_HEALTH_MONITOR_H
