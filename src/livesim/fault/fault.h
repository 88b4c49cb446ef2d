// Deterministic fault modeling for the simulation.
//
// The delivery anatomy of §4-§5 assumes a healthy Wowza→Fastly path; this
// module supplies the unhealthy ones. A FaultSchedule is a time-ordered
// script of fault events — ingest crash/restart windows, edge-cache
// flushes, link partitions, chunk-corruption windows — either written by
// hand or drawn from a seeded Poisson process. Schedules are plain data:
// the same (params, seed) pair always yields the same script, so faulty
// runs are exactly as reproducible as sunny-day ones, at any thread count
// (randomized schedules are generated from per-broadcast RNG substreams,
// never from a stream shared across workers).
#ifndef LIVESIM_FAULT_FAULT_H
#define LIVESIM_FAULT_FAULT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "livesim/util/rng.h"
#include "livesim/util/time.h"

namespace livesim::fault {

enum class FaultKind : std::uint8_t {
  kIngestCrash = 0,    // Wowza node dies; restarts after `duration`
  kEdgeCacheFlush,     // edge cache wiped; next poll re-pulls from origin
  kLinkDegrade,        // link outage/partition lasting `duration`
  kChunkCorruption,    // downloads corrupt w.p. `magnitude` for `duration`
  kEdgeDown,           // edge PoP dies for `duration`; viewers re-anycast
};
inline constexpr std::size_t kFaultKindCount = 5;

const char* to_string(FaultKind kind) noexcept;

struct FaultEvent {
  TimeUs at = 0;
  FaultKind kind = FaultKind::kIngestCrash;
  /// Down / degradation / corruption window length (0 = point event).
  DurationUs duration = 0;
  /// Optional target site id (datacenter); 0 = the session default
  /// (the broadcaster's ingest, or every edge for cache flushes and
  /// edge-down events). Scenario expansion (scenario.h) always targets
  /// concrete sites, so one correlated script can dim a whole region.
  std::uint64_t target = 0;
  /// Kind-specific knob; for kChunkCorruption the per-download
  /// corruption probability (<=0 means the generator default).
  double magnitude = 0.0;
};

/// Parameters for a randomized (but seed-deterministic) fault script.
/// Each event is an ingest crash, an edge-cache flush, a link degradation
/// or a corruption window with equal odds (kEdgeDown comes only from
/// scenarios, scenario.h); windows last an exponential draw around the
/// kind's mean below.
struct RandomFaultParams {
  /// Poisson arrival rate of fault events. 0 = empty schedule.
  double faults_per_minute = 0.0;
  /// Events are drawn in [0, horizon). 0 = caller substitutes its own
  /// horizon (e.g. the broadcast length) before generating.
  DurationUs horizon = 0;
};

inline constexpr DurationUs kMeanIngestDown = 8 * time::kSecond;
inline constexpr DurationUs kMeanLinkDown = 4 * time::kSecond;
inline constexpr DurationUs kMeanCorruptionWindow = 5 * time::kSecond;
/// A randomized corruption window's per-download corruption probability.
inline constexpr double kCorruptionProbability = 0.5;

/// A time-ordered fault script. Value type: copy freely, compare by
/// events(). An empty schedule is the (cheap) "faults disabled" state.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Inserts an event, keeping events() sorted by (at, insertion order).
  FaultSchedule& add(FaultEvent e);

  /// Draws a schedule from a Poisson event process: exponential
  /// inter-arrivals at `params.faults_per_minute`, a uniform kind,
  /// duration by the kind's exponential mean. Deterministic in
  /// (params, seed).
  static FaultSchedule randomized(const RandomFaultParams& params,
                                  std::uint64_t seed);

  const std::vector<FaultEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }
  std::size_t size() const noexcept { return events_.size(); }

  /// True if `t` falls inside any `kind` event's [at, at+duration) window.
  bool active(FaultKind kind, TimeUs t) const noexcept;

  /// All events of one kind, in time order.
  std::vector<FaultEvent> of_kind(FaultKind kind) const;

 private:
  std::vector<FaultEvent> events_;  // sorted by (at, insertion)
};

}  // namespace livesim::fault

#endif  // LIVESIM_FAULT_FAULT_H
