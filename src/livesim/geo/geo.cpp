#include "livesim/geo/geo.h"

#include <cmath>

namespace livesim::geo {
namespace {
constexpr double kEarthRadiusKm = 6371.0;
constexpr double kDegToRad = M_PI / 180.0;
}  // namespace

double haversine_km(const GeoPoint& a, const GeoPoint& b) noexcept {
  const double lat1 = a.lat_deg * kDegToRad;
  const double lat2 = b.lat_deg * kDegToRad;
  const double dlat = (b.lat_deg - a.lat_deg) * kDegToRad;
  const double dlon = (b.lon_deg - a.lon_deg) * kDegToRad;
  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

DurationUs mean_delay(double distance_km) noexcept {
  const double prop_ms = distance_km / kKmPerMs;
  return kLatencyBase + time::from_millis(prop_ms);
}

DurationUs sample_delay(double distance_km, Rng& rng) noexcept {
  const DurationUs mean = mean_delay(distance_km);
  // Multiplicative jitter, right-skewed: queueing adds delay more often
  // than routing removes it.
  const double mult = 1.0 + kLatencyJitter * std::abs(rng.normal(0.0, 1.0));
  auto d = static_cast<DurationUs>(static_cast<double>(mean) * mult);
  return d < kLatencyBase ? kLatencyBase : d;
}

}  // namespace livesim::geo
