// Daily time series for the growth plots (Figures 1-2), plus the
// fixed-capacity ring-buffer Timeseries the control plane's telemetry
// ledgers are built on.
#ifndef LIVESIM_STATS_TIMESERIES_H
#define LIVESIM_STATS_TIMESERIES_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "livesim/util/time.h"

namespace livesim::stats {

/// Fixed-capacity ring buffer of (time, value) points: a telemetry
/// ledger that remembers the last `capacity` scrapes and answers window
/// queries (mean, min/max, least-squares trend) over what it holds.
/// Pushing past capacity overwrites the oldest point; `pushes()` keeps
/// the lifetime count so overwritten history is still accounted for.
/// All queries are pure arithmetic over the ring in newest-to-oldest
/// order, so identical push sequences yield bit-identical answers.
class Timeseries {
 public:
  struct Point {
    TimeUs at = 0;
    double value = 0.0;
  };

  explicit Timeseries(std::size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  void push(TimeUs at, double value) {
    ring_[head_] = Point{at, value};
    if (++head_ == ring_.size()) head_ = 0;
    if (size_ < ring_.size()) ++size_;
    ++pushes_;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return ring_.size(); }
  bool empty() const noexcept { return size_ == 0; }
  /// Lifetime pushes, including points the ring has since overwritten.
  std::uint64_t pushes() const noexcept { return pushes_; }

  /// i-th newest point: newest(0) is the latest sample. Requires i < size().
  const Point& newest(std::size_t i = 0) const {
    return i < head_ ? ring_[head_ - 1 - i]
                     : ring_[head_ + ring_.size() - 1 - i];
  }
  double last() const { return empty() ? 0.0 : newest().value; }

  double mean() const noexcept {
    if (size_ == 0) return 0.0;
    double sum = 0.0;
    for_each_newest_first([&](const Point& p) { sum += p.value; });
    return sum / static_cast<double>(size_);
  }

  double max() const noexcept {
    double m = 0.0;
    bool first = true;
    for_each_newest_first([&](const Point& p) {
      if (first || p.value > m) m = p.value;
      first = false;
    });
    return m;
  }

  /// Least-squares slope of value over time, per second, across the ring
  /// (oldest to newest). 0 with fewer than two points or zero time span —
  /// the "trending toward full" predictor the steering policy projects
  /// forward.
  double slope_per_s() const noexcept {
    if (size_ < 2) return 0.0;
    double mt = 0.0, mv = 0.0;
    for_each_newest_first([&](const Point& p) {
      mt += time::to_seconds(p.at);
      mv += p.value;
    });
    mt /= static_cast<double>(size_);
    mv /= static_cast<double>(size_);
    double num = 0.0, den = 0.0;
    for_each_newest_first([&](const Point& p) {
      const double dt = time::to_seconds(p.at) - mt;
      num += dt * (p.value - mv);
      den += dt * dt;
    });
    return den > 0.0 ? num / den : 0.0;
  }

  /// Linear projection of the ring's trend `horizon` ahead of the newest
  /// point. With an empty ring returns 0; with a flat trend, last().
  double project(DurationUs horizon) const noexcept {
    if (empty()) return 0.0;
    return last() + slope_per_s() * time::to_seconds(horizon);
  }

 private:
  // Visits the points newest to oldest, the order every query sums in:
  // the run below head_ backwards, then the wrapped run from the end.
  template <typename F>
  void for_each_newest_first(F&& f) const {
    std::size_t left = size_;
    for (std::size_t i = head_; i > 0 && left > 0; --left) f(ring_[--i]);
    for (std::size_t i = ring_.size(); left > 0; --left) f(ring_[--i]);
  }

  std::vector<Point> ring_;
  std::size_t head_ = 0;   // next write position
  std::size_t size_ = 0;
  std::uint64_t pushes_ = 0;
};

/// Counts events per simulated day; days index from 0.
class DailySeries {
 public:
  explicit DailySeries(std::size_t days) : counts_(days, 0) {}

  void add(TimeUs at, std::uint64_t n = 1) {
    const auto day = time::day_index(at);
    if (day >= 0 && static_cast<std::size_t>(day) < counts_.size())
      counts_[static_cast<std::size_t>(day)] += n;
  }

  void add_day(std::size_t day, std::uint64_t n = 1) {
    if (day < counts_.size()) counts_[day] += n;
  }

  std::size_t days() const noexcept { return counts_.size(); }
  std::uint64_t at(std::size_t day) const { return counts_.at(day); }
  const std::vector<std::uint64_t>& values() const noexcept { return counts_; }

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (auto c : counts_) sum += c;
    return sum;
  }

 private:
  std::vector<std::uint64_t> counts_;
};

}  // namespace livesim::stats

#endif  // LIVESIM_STATS_TIMESERIES_H
