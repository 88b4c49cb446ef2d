#include "livesim/control/steering.h"

namespace livesim::control {

std::optional<SteeringPolicy::Transition> SteeringPolicy::observe(
    const EdgeSample& sample, double projected_load, TimeUs now) {
  EdgeState& st = edges_[sample.site];
  st.full = sample.capacity != 0 && sample.attached >= sample.capacity;
  const EdgeHealth before = st.health;

  EdgeHealth after = before;
  switch (before) {
    case EdgeHealth::kHealthy: {
      if (sample.down) {
        after = EdgeHealth::kDead;
        break;
      }
      // Load trigger: at the drain fraction now, or trending there
      // within the horizon per the ledger's least-squares slope.
      const bool load_hot =
          sample.capacity != 0 &&
          static_cast<double>(sample.attached) >=
              kDrainLoadFraction * static_cast<double>(sample.capacity);
      const bool trending =
          sample.capacity != 0 &&
          projected_load >= static_cast<double>(sample.capacity);
      const bool streak_hot = sample.failure_streak >= kDrainFailureStreak;
      if (load_hot || trending || streak_hot) after = EdgeHealth::kDraining;
      break;
    }
    case EdgeHealth::kDraining: {
      if (sample.down) {
        after = EdgeHealth::kDead;
        break;
      }
      // Hysteresis + cooldown: recover only once load sits at or below
      // the undrain fraction, the failure streak is clean, and the
      // cooldown since the drain decision has elapsed. Unbounded edges
      // (capacity 0) only drain on streaks, so load never pins them.
      const bool load_ok =
          sample.capacity == 0 ||
          static_cast<double>(sample.attached) <=
              kUndrainLoadFraction * static_cast<double>(sample.capacity);
      const bool streak_ok = sample.failure_streak == 0;
      const bool cooled = now >= st.drained_at + kDrainCooldown;
      if (load_ok && streak_ok && cooled) after = EdgeHealth::kHealthy;
      break;
    }
    case EdgeHealth::kDead: {
      // The probe answers again: the box is back, but it re-enters
      // through draining (cold cache, unknown load) and must earn
      // healthy through the same hysteresis as any drained edge.
      if (!sample.down) after = EdgeHealth::kDraining;
      break;
    }
  }

  if (after == before) return std::nullopt;
  st.health = after;
  if (after == EdgeHealth::kDraining || after == EdgeHealth::kDead)
    st.drained_at = now;
  if (after == EdgeHealth::kDead) ++deaths_;
  if (before == EdgeHealth::kDead) ++revivals_;
  if (before == EdgeHealth::kHealthy && after == EdgeHealth::kDraining)
    ++drains_;
  if (after == EdgeHealth::kHealthy) ++undrains_;
  const Transition t{sample.site, before, after, now};
  transitions_.push_back(t);
  return t;
}

EdgeHealth SteeringPolicy::health(std::uint64_t site) const noexcept {
  auto it = edges_.find(site);
  return it == edges_.end() ? EdgeHealth::kHealthy : it->second.health;
}

std::vector<std::uint64_t> SteeringPolicy::override_sites() const {
  std::vector<std::uint64_t> out;
  for (const auto& [site, st] : edges_)  // std::map: already sorted by id
    if (st.health != EdgeHealth::kHealthy) out.push_back(site);
  return out;
}

double SteeringPolicy::saturation() const noexcept {
  if (edges_.empty()) return 0.0;
  std::size_t bad = 0;
  for (const auto& [site, st] : edges_)
    if (st.health != EdgeHealth::kHealthy || st.full) ++bad;
  return static_cast<double>(bad) / static_cast<double>(edges_.size());
}

}  // namespace livesim::control
