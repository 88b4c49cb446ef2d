// Streaming moment accumulators (Welford), usable without storing samples.
#ifndef LIVESIM_STATS_ACCUMULATOR_H
#define LIVESIM_STATS_ACCUMULATOR_H

#include <cmath>
#include <cstdint>
#include <limits>

namespace livesim::stats {

/// Accumulates count / mean / variance / min / max in O(1) space.
class Accumulator {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  /// Merges another accumulator (parallel Welford).
  void merge(const Accumulator& o) noexcept {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const auto n = static_cast<double>(n_ + o.n_);
    m2_ += o.m2_ + delta * delta * static_cast<double>(n_) *
                       static_cast<double>(o.n_) / n;
    mean_ += delta * static_cast<double>(o.n_) / n;
    n_ += o.n_;
    if (o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
  }

  std::uint64_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Pearson correlation between paired samples, streaming (co-moment form).
class Correlation {
 public:
  void add(double x, double y) noexcept {
    ++n_;
    const auto n = static_cast<double>(n_);
    const double dx = x - mx_;
    const double dy = y - my_;
    mx_ += dx / n;
    my_ += dy / n;
    // Update co-moment with the *new* mean of y (standard online covariance).
    cxy_ += dx * (y - my_);
    sxx_ += dx * (x - mx_);
    syy_ += dy * (y - my_);
  }

  std::uint64_t count() const noexcept { return n_; }

  /// Pearson r; 0 when degenerate (fewer than 2 points or zero variance).
  double pearson() const noexcept {
    if (n_ < 2) return 0.0;
    const double denom = std::sqrt(sxx_ * syy_);
    return denom > 0.0 ? cxy_ / denom : 0.0;
  }

 private:
  std::uint64_t n_ = 0;
  double mx_ = 0, my_ = 0;
  double cxy_ = 0, sxx_ = 0, syy_ = 0;
};

}  // namespace livesim::stats

#endif  // LIVESIM_STATS_ACCUMULATOR_H
