// Geographic primitives: coordinates, great-circle distance, and a
// distance -> network latency model used for all wide-area links.
#ifndef LIVESIM_GEO_GEO_H
#define LIVESIM_GEO_GEO_H

#include <string>

#include "livesim/util/rng.h"
#include "livesim/util/time.h"

namespace livesim::geo {

struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;
};

/// Great-circle distance in kilometres (haversine, mean Earth radius).
double haversine_km(const GeoPoint& a, const GeoPoint& b) noexcept;

/// Wide-area latency model.
///
/// One-way delay = base processing + distance / (c * fiber_factor) *
/// route_inflation + jitter. The constants give ~35 ms one-way across the
/// US and ~90 ms transatlantic-to-Asia, consistent with the RTT scales the
/// paper's CDN measurements imply.
inline constexpr DurationUs kLatencyBase = 2 * time::kMillisecond;  // floor
inline constexpr double kKmPerMs = 100.0;       // ~0.5c effective + routing
inline constexpr double kLatencyJitter = 0.10;  // lognormal-ish spread

/// Deterministic mean one-way propagation delay for a distance.
DurationUs mean_delay(double distance_km) noexcept;

/// Sampled one-way delay with jitter (never below kLatencyBase).
DurationUs sample_delay(double distance_km, Rng& rng) noexcept;

}  // namespace livesim::geo

#endif  // LIVESIM_GEO_GEO_H
