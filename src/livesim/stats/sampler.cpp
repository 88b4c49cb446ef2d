#include "livesim/stats/sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace livesim::stats {

const std::vector<double>& Sampler::sorted() const {
  if (!sorted_) {
    sorted_cache_ = samples_;
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    sorted_ = true;
  }
  return sorted_cache_;
}

double Sampler::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("quantile of empty sampler");
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto& s = sorted();
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + frac * (s[hi] - s[lo]);
}

double Sampler::cdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  const auto& s = sorted();
  const auto it = std::upper_bound(s.begin(), s.end(), x);
  return static_cast<double>(it - s.begin()) / static_cast<double>(s.size());
}

double Sampler::fraction_geq(double x) const {
  if (samples_.empty()) return 0.0;
  const auto& s = sorted();
  const auto it = std::lower_bound(s.begin(), s.end(), x);
  return static_cast<double>(s.end() - it) / static_cast<double>(s.size());
}

}  // namespace livesim::stats
