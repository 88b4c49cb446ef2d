// Sample collector with quantile / CDF queries.
//
// The paper's figures are almost all empirical CDFs across broadcasts;
// Sampler is the workhorse that turns per-broadcast metrics into the
// printed series.
#ifndef LIVESIM_STATS_SAMPLER_H
#define LIVESIM_STATS_SAMPLER_H

#include <cstddef>
#include <vector>

#include "livesim/stats/accumulator.h"

namespace livesim::stats {

class Sampler {
 public:
  void add(double x) {
    samples_.push_back(x);
    acc_.add(x);
    sorted_ = false;
  }

  /// Appends another sampler's samples in their insertion order.
  ///
  /// The summary moments are re-accumulated sample-by-sample rather than
  /// combined with Accumulator::merge: that makes merging shard results in
  /// index order produce a Sampler byte-identical to single-pass serial
  /// accumulation, which the parallel experiment runner's determinism
  /// guarantee (same output at every thread count) depends on.
  void merge(const Sampler& o) {
    samples_.reserve(samples_.size() + o.samples_.size());
    for (double x : o.samples_) add(x);
  }

  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  const Accumulator& summary() const noexcept { return acc_; }
  double mean() const noexcept { return acc_.mean(); }
  double stddev() const noexcept { return acc_.stddev(); }
  double min() const noexcept { return acc_.min(); }
  double max() const noexcept { return acc_.max(); }

  /// Quantile in [0, 1] with linear interpolation between order statistics.
  double quantile(double q) const;

  double median() const { return quantile(0.5); }

  /// Empirical CDF: fraction of samples <= x.
  double cdf_at(double x) const;

  /// Fraction of samples strictly below / at-or-above thresholds.
  double fraction_leq(double x) const { return cdf_at(x); }
  double fraction_geq(double x) const;

  /// Samples in insertion order.
  const std::vector<double>& samples() const noexcept { return samples_; }

  /// Sorted copy of the samples (cached).
  const std::vector<double>& sorted() const;

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_cache_;
  mutable bool sorted_ = false;
  Accumulator acc_;
};

}  // namespace livesim::stats

#endif  // LIVESIM_STATS_SAMPLER_H
