#include "livesim/fault/fault.h"

#include <algorithm>

namespace livesim::fault {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kIngestCrash: return "ingest-crash";
    case FaultKind::kEdgeCacheFlush: return "edge-cache-flush";
    case FaultKind::kLinkDegrade: return "link-degrade";
    case FaultKind::kChunkCorruption: return "chunk-corruption";
    case FaultKind::kEdgeDown: return "edge-down";
  }
  return "unknown";
}

FaultSchedule& FaultSchedule::add(FaultEvent e) {
  // Stable insert by time: equal-time events keep insertion order, so a
  // hand-written script replays in the order it was written.
  auto it = std::upper_bound(
      events_.begin(), events_.end(), e,
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  events_.insert(it, e);
  return *this;
}

FaultSchedule FaultSchedule::randomized(const RandomFaultParams& params,
                                        std::uint64_t seed) {
  FaultSchedule out;
  if (params.faults_per_minute <= 0.0 || params.horizon <= 0) return out;

  // The kinds a randomized script draws: every kind but kEdgeDown.
  constexpr std::size_t kDrawnKinds = kFaultKindCount - 1;
  Rng rng(seed);
  const double mean_gap_us =
      static_cast<double>(time::kMinute) / params.faults_per_minute;
  TimeUs t = 0;
  for (;;) {
    t += static_cast<DurationUs>(rng.exponential(mean_gap_us));
    if (t >= params.horizon) break;

    FaultEvent e;
    e.at = t;
    e.kind = static_cast<FaultKind>(
        static_cast<std::size_t>(rng.uniform() * kDrawnKinds));
    switch (e.kind) {
      case FaultKind::kIngestCrash:
        e.duration = static_cast<DurationUs>(
            rng.exponential(static_cast<double>(kMeanIngestDown)));
        break;
      case FaultKind::kLinkDegrade:
        e.duration = static_cast<DurationUs>(
            rng.exponential(static_cast<double>(kMeanLinkDown)));
        break;
      case FaultKind::kChunkCorruption:
        e.duration = static_cast<DurationUs>(
            rng.exponential(static_cast<double>(kMeanCorruptionWindow)));
        e.magnitude = kCorruptionProbability;
        break;
      default:  // kEdgeCacheFlush: a point event
        break;
    }
    out.events_.push_back(e);  // generated in time order already
  }
  return out;
}

bool FaultSchedule::active(FaultKind kind, TimeUs t) const noexcept {
  for (const auto& e : events_) {
    if (e.at > t) break;
    if (e.kind == kind && t < e.at + e.duration) return true;
  }
  return false;
}

std::vector<FaultEvent> FaultSchedule::of_kind(FaultKind kind) const {
  std::vector<FaultEvent> out;
  for (const auto& e : events_)
    if (e.kind == kind) out.push_back(e);
  return out;
}

}  // namespace livesim::fault
