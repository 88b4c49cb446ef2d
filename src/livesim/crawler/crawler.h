// The measurement apparatus itself (§3.1), modeled faithfully:
//
//  * the service's global list returns 50 randomly selected broadcasts out
//    of all currently-active ones;
//  * the crawler runs many accounts, each refreshing every 5 s, staggered
//    so the effective refresh period is 0.25 s;
//  * each newly seen broadcast is joined by a monitor thread until it ends.
//
// The paper validated that 0.5 s effective refresh already captures every
// broadcast; the coverage experiment reproduces that claim and its
// dependence on broadcast volume (the ablation bench sweeps refresh rate).
#ifndef LIVESIM_CRAWLER_CRAWLER_H
#define LIVESIM_CRAWLER_CRAWLER_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "livesim/sim/simulator.h"
#include "livesim/util/ids.h"
#include "livesim/util/rng.h"

namespace livesim::crawler {

/// The service-side global broadcast list.
class GlobalList {
 public:
  void broadcast_started(BroadcastId id) { active_.insert(id.value); }
  void broadcast_ended(BroadcastId id) { active_.erase(id.value); }

  std::size_t active_count() const noexcept { return active_.size(); }

  /// Returns `k` broadcasts sampled uniformly without replacement from the
  /// active set (all of them if fewer than k are live).
  std::vector<BroadcastId> sample(std::size_t k, Rng& rng) const;

 private:
  std::unordered_set<std::uint64_t> active_;
};

/// Accounts the paper's crawler ran.
inline constexpr std::uint32_t kAccounts = 20;
/// The app's global-list refresh period, per account.
inline constexpr DurationUs kAccountInterval = 5 * time::kSecond;
/// Broadcasts one global-list refresh returns.
inline constexpr std::size_t kListSize = 50;

/// Multi-account list crawler.
class ListCrawler {
 public:
  ListCrawler(sim::Simulator& sim, const GlobalList& list,
              std::uint32_t accounts, Rng rng);

  /// Begins the staggered refresh loops.
  void start();
  void stop();

  DurationUs effective_refresh() const noexcept {
    return kAccountInterval / num_accounts_;
  }

  bool has_seen(BroadcastId id) const {
    return first_seen_.count(id.value) != 0;
  }
  /// Time each broadcast was first captured.
  const std::unordered_map<std::uint64_t, TimeUs>& first_seen() const noexcept {
    return first_seen_;
  }
  std::uint64_t refreshes() const noexcept { return refreshes_; }

 private:
  sim::Simulator& sim_;
  const GlobalList& list_;
  std::uint32_t num_accounts_;
  Rng rng_;
  std::vector<std::unique_ptr<sim::PeriodicProcess>> accounts_;
  std::unordered_map<std::uint64_t, TimeUs> first_seen_;
  std::uint64_t refreshes_ = 0;
};

/// Coverage experiment: Poisson broadcast arrivals with lognormal
/// durations, crawled at a given effective refresh period.
struct CoverageResult {
  std::uint64_t total_broadcasts = 0;
  std::uint64_t captured = 0;
  double coverage = 0.0;                // captured / total
  double mean_detection_latency_s = 0;  // start -> first capture, captured only
  double peak_active = 0;               // max simultaneous broadcasts
};

struct CoverageParams {
  double arrivals_per_s = 2.0;        // broadcast creation rate
  double mean_duration_s = 300.0;     // lognormal-ish duration
  std::uint32_t accounts = kAccounts;
  DurationUs horizon = 30 * time::kMinute;
  std::uint64_t seed = 1;
};

CoverageResult run_coverage_experiment(const CoverageParams& params);

}  // namespace livesim::crawler

#endif  // LIVESIM_CRAWLER_CRAWLER_H
