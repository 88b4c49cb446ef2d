#include "livesim/crawler/crawler.h"

#include <algorithm>
#include <cmath>

namespace livesim::crawler {

std::vector<BroadcastId> GlobalList::sample(std::size_t k, Rng& rng) const {
  std::vector<BroadcastId> all;
  all.reserve(active_.size());
  for (auto id : active_) all.emplace_back(id);
  if (all.size() <= k) return all;
  // Partial Fisher-Yates: uniform sample of k without replacement.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(all.size()) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

ListCrawler::ListCrawler(sim::Simulator& sim, const GlobalList& list,
                         std::uint32_t accounts, Rng rng)
    : sim_(sim), list_(list), num_accounts_(accounts), rng_(rng) {}

void ListCrawler::start() {
  const DurationUs stagger = effective_refresh();
  for (std::uint32_t a = 0; a < num_accounts_; ++a) {
    accounts_.push_back(std::make_unique<sim::PeriodicProcess>(
        sim_, sim_.now() + static_cast<TimeUs>(a) * stagger, kAccountInterval,
        [this](sim::PeriodicProcess&) {
          ++refreshes_;
          for (BroadcastId id : list_.sample(kListSize, rng_))
            first_seen_.emplace(id.value, sim_.now());
        }));
  }
}

void ListCrawler::stop() {
  for (auto& a : accounts_) a->stop();
}

CoverageResult run_coverage_experiment(const CoverageParams& params) {
  sim::Simulator sim;
  Rng rng(params.seed);
  GlobalList list;

  CoverageResult result;
  std::unordered_map<std::uint64_t, TimeUs> started_at;
  std::uint64_t next_id = 0;
  double peak_active = 0;

  // Broadcast arrival process.
  std::function<void()> arrive = [&] {
    if (sim.now() >= params.horizon) return;
    const BroadcastId id{next_id++};
    list.broadcast_started(id);
    started_at[id.value] = sim.now();
    ++result.total_broadcasts;
    peak_active = std::max(peak_active, static_cast<double>(list.active_count()));

    const double dur_s = std::max(
        3.0, rng.lognormal(std::log(params.mean_duration_s) - 0.5, 1.0));
    sim.schedule_in(time::from_seconds(dur_s),
                    [&list, id] { list.broadcast_ended(id); });
    sim.schedule_in(
        time::from_seconds(rng.exponential(1.0 / params.arrivals_per_s)),
        arrive);
  };
  sim.schedule_in(0, arrive);

  ListCrawler crawler(sim, list, params.accounts, rng.fork());
  crawler.start();

  // Stop the crawler a little after the horizon so trailing broadcasts can
  // still be captured before they end.
  sim.schedule_at(params.horizon + 10 * time::kSecond,
                  [&crawler] { crawler.stop(); });
  sim.run();

  double latency_sum = 0;
  for (const auto& [id, seen] : crawler.first_seen()) {
    auto it = started_at.find(id);
    if (it == started_at.end()) continue;
    ++result.captured;
    latency_sum += time::to_seconds(seen - it->second);
  }
  result.coverage = result.total_broadcasts
                        ? static_cast<double>(result.captured) /
                              static_cast<double>(result.total_broadcasts)
                        : 0.0;
  result.mean_detection_latency_s =
      result.captured ? latency_sum / static_cast<double>(result.captured) : 0;
  result.peak_active = peak_active;
  return result;
}

}  // namespace livesim::crawler
