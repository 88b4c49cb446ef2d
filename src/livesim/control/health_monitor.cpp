#include "livesim/control/health_monitor.h"

#include <utility>

namespace livesim::control {

void HealthMonitor::ingest(const EdgeSample& sample, TimeUs now) {
  auto it = ledgers_.find(sample.site);
  if (it == ledgers_.end())
    it = ledgers_.emplace(sample.site, EdgeLedger(kHistory)).first;
  EdgeLedger& led = it->second;
  led.load.push(now, static_cast<double>(sample.attached));
  led.streak.push(now, static_cast<double>(sample.failure_streak));
  led.last_cohort = sample.cohort;
  led.last_fetch_failures = sample.fetch_failures;
  ++samples_;
}

double HealthMonitor::projected_load(std::uint64_t site,
                                     DurationUs horizon) const {
  auto it = ledgers_.find(site);
  return it == ledgers_.end() ? 0.0 : it->second.load.project(horizon);
}

const HealthMonitor::EdgeLedger* HealthMonitor::ledger(
    std::uint64_t site) const {
  auto it = ledgers_.find(site);
  return it == ledgers_.end() ? nullptr : &it->second;
}

ControlPlane::ControlPlane(sim::Simulator& sim, ControlPlaneConfig config,
                           Rng rng)
    : sim_(sim), config_(config), rng_(rng) {}

void ControlPlane::start(ScrapeFn scrape) {
  scrape_fn_ = std::move(scrape);
  if (process_) return;
  process_ = std::make_unique<sim::PeriodicProcess>(
      sim_, sim_.now() + kScrapeInterval, kScrapeInterval,
      [this](sim::PeriodicProcess&) { scrape_tick(); });
}

void ControlPlane::stop() {
  if (process_) process_->stop();
}

EdgeHealth ControlPlane::published_health(std::uint64_t site) const {
  auto it = published_health_.find(site);
  return it == published_health_.end() ? EdgeHealth::kHealthy : it->second;
}

void ControlPlane::scrape_tick() {
  if (!scrape_fn_) return;
  ++scrapes_;
  const TimeUs now = sim_.now();
  // The scrape source yields samples in sorted-site-id order; ingesting
  // and deciding in that order is what makes the decision stream (and
  // every publication's engine-FIFO position) reproducible.
  for (const EdgeSample& sample : scrape_fn_()) {
    monitor_.ingest(sample, now);
    const double projected =
        monitor_.projected_load(sample.site, kTrendHorizon);
    if (auto t = policy_.observe(sample, projected, now)) {
      const SteeringPolicy::Transition decided = *t;
      sim_.schedule_in(kSteerLatency,
                       [this, decided] { publish(decided); });
    }
  }
  // Footprint saturation arms the overlay assist; it stays armed (the
  // mesh, once bootstrapped, keeps absorbing offload) — disarming and
  // re-warming a P2P mesh per oscillation would be worse than the drain.
  if (config_.overlay_assist && !assist_active_ &&
      policy_.saturation() >= kSaturationFraction) {
    assist_active_ = true;
    assist_armed_at_ = now;
  }
}

void ControlPlane::publish(const SteeringPolicy::Transition& t) {
  // Publications apply in decision order (engine FIFO): a later decision
  // for the same site lands after this one and wins, so the map
  // converges on the newest decided state.
  ++publications_;
  published_health_[t.site] = t.to;
  if (t.to == EdgeHealth::kHealthy)
    published_.erase(t.site);
  else
    published_.insert(t.site);
  if (steer_) steer_(t);
}

}  // namespace livesim::control
