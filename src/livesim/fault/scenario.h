// Correlated fault scenarios: one logical event, many component faults.
//
// PR 2's FaultSchedule injects *independent* single-component faults, but
// the outages that dominate real viewer-visible stalls are correlated:
// a regional power event takes every PoP in a metro dark at once, an
// ingest death cascades load (and then failures) onto its gateway and
// downstream edges, and maintenance rolls through the footprint one site
// at a time. A FaultScenario is a script of such logical events; expand()
// resolves each one against a DatacenterCatalog into the per-component
// FaultEvents the existing injector already knows how to replay.
//
// Determinism contract (same as fault.h): expansion draws randomness only
// from a dedicated substream per logical event — seeded by
// sim::substream_seed(seed, event index) — so the same (scenario,
// catalog, seed) triple always yields the same schedule, adding an event
// never perturbs the expansion of its neighbours, and an EMPTY scenario
// expands to an EMPTY schedule (which the session layer treats as
// "no fault machinery at all": bit-for-bit parity with a clean run).
#ifndef LIVESIM_FAULT_SCENARIO_H
#define LIVESIM_FAULT_SCENARIO_H

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "livesim/fault/fault.h"
#include "livesim/geo/datacenters.h"
#include "livesim/util/time.h"

namespace livesim::fault {

/// Every edge PoP within `radius_km` of `center` goes dark at `at` for
/// `duration` ("every EU edge dark for 30 s"). A zero radius degenerates
/// to the single nearest edge — the building block of the edge-to-edge
/// failover experiments, where 100% of that edge's viewers must
/// re-anycast with zero orphans. Expansion is fully deterministic (no
/// randomness at all).
struct RegionalBlackoutSpec {
  TimeUs at = 0;
  DurationUs duration = 30 * time::kSecond;
  geo::GeoPoint center{};
  /// Blackout radius; edges with haversine(center, site) <= radius_km go
  /// dark. The nearest edge is ALWAYS included, so radius 0 kills exactly
  /// one PoP.
  double radius_km = 0.0;
  /// Also crash ingest sites inside the radius (the Wowza VMs share the
  /// region's fate). Their `duration` matches the blackout.
  bool include_ingest = false;
};

/// An ingest death at `origin` that propagates downstream: the crash
/// raises the fault probability of the W2F gateway path and the edges
/// that suddenly field its failed-over viewers. Hop h (1-based, by
/// distance rank from the origin) suffers an edge-down with probability
/// spread_probability * attenuation^(h-1); struck edges go dark
/// `propagation_delay` * h after the crash. Deterministic in the
/// scenario seed.
struct CascadeSpec {
  TimeUs at = 0;
  geo::GeoPoint origin{};                 // resolved to the nearest ingest
  DurationUs ingest_down = 10 * time::kSecond;
  DurationUs propagation_delay = 2 * time::kSecond;  // per hop
  double spread_probability = 0.7;        // hop-1 strike probability
  double attenuation = 0.5;               // per further hop
  DurationUs edge_down = 5 * time::kSecond;  // how long a struck edge dies
  /// Only edges within this of the origin can be struck (the overload is
  /// regional — traffic re-anycasts locally, not across oceans).
  double radius_km = 4000.0;
  std::size_t max_hops = 3;               // candidate edges considered
};

/// Planned maintenance sweeping the edge footprint: sites restart one at
/// a time, ordered west -> east by longitude (ties by catalog id), each
/// dark for `down_per_site`, consecutive restarts `site_gap` apart. With
/// `flush_only` the site is never dark — its cache is just wiped (a warm
/// rolling deploy). Expansion is fully deterministic.
struct RollingWaveSpec {
  TimeUs start = 0;
  DurationUs site_gap = 5 * time::kSecond;
  DurationUs down_per_site = 2 * time::kSecond;
  bool flush_only = false;
};

/// A script of logical outage events. Value type; the empty scenario is
/// the (free) "scenarios disabled" state.
class FaultScenario {
 public:
  using Spec = std::variant<RegionalBlackoutSpec, CascadeSpec,
                            RollingWaveSpec>;

  FaultScenario() = default;

  FaultScenario& add(RegionalBlackoutSpec spec);
  FaultScenario& add(CascadeSpec spec);
  FaultScenario& add(RollingWaveSpec spec);

  bool empty() const noexcept { return specs_.empty(); }
  std::size_t size() const noexcept { return specs_.size(); }

  /// Expands every logical event into per-site FaultEvents (targets are
  /// catalog datacenter ids) merged into one time-ordered schedule.
  /// Deterministic in (scenario, catalog, seed); an empty scenario yields
  /// an empty (inert) schedule and draws nothing.
  FaultSchedule expand(const geo::DatacenterCatalog& catalog,
                       std::uint64_t seed) const;

  /// Convenience: the edge-site ids a regional blackout darkens (the
  /// nearest edge plus everything within the radius). What expand() uses;
  /// exposed so experiments can compute outage membership without
  /// re-deriving the rule.
  static std::vector<DatacenterId> blackout_sites(
      const geo::DatacenterCatalog& catalog, const RegionalBlackoutSpec& spec);

 private:
  std::vector<Spec> specs_;
};

}  // namespace livesim::fault

#endif  // LIVESIM_FAULT_SCENARIO_H
