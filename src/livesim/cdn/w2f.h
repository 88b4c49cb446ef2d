// Wowza -> Fastly chunk transfer model (Figure 15).
//
// When the first HLS poll after a chunklist expiry hits an edge, the edge
// pulls the fresh chunk from the ingest site. The paper found a sharp
// (>0.25 s) gap between co-located ingest/edge pairs and everything else,
// and inferred a gateway design: the ingest pushes to its co-located edge
// first, which then coordinates distribution to the other edges. We model
// exactly that structure.
#ifndef LIVESIM_CDN_W2F_H
#define LIVESIM_CDN_W2F_H

#include "livesim/geo/datacenters.h"
#include "livesim/geo/geo.h"
#include "livesim/util/rng.h"
#include "livesim/util/time.h"

namespace livesim::cdn {

/// Origin request setup at the gateway.
inline constexpr DurationUs kW2fHandshake = 60 * time::kMillisecond;
/// The gateway's coordination pass before a non-gateway edge gets a chunk.
inline constexpr DurationUs kGatewayCoordination = 250 * time::kMillisecond;
/// Inter-datacenter transfer rate: W2F chunk pulls and LL-HLS part pushes.
inline constexpr double kInterDcBandwidthBps = 500e6;
inline constexpr double kW2fJitter = 0.20;

class W2FModel {
 public:
  explicit W2FModel(const geo::DatacenterCatalog& catalog)
      : catalog_(catalog) {}

  /// The gateway edge for an ingest site: its co-located edge if one
  /// exists (6 of 8 sites), else the nearest edge (the Sao Paulo case).
  const geo::Datacenter& gateway_for(DatacenterId ingest) const;

  /// Samples the chunk-ready-at-ingest -> chunk-cached-at-edge delay for
  /// one transfer of `chunk_bytes` to edge `edge`.
  DurationUs sample_transfer(DatacenterId ingest, DatacenterId edge,
                             std::uint64_t chunk_bytes, Rng& rng) const;

 private:
  const geo::DatacenterCatalog& catalog_;
};

}  // namespace livesim::cdn

#endif  // LIVESIM_CDN_W2F_H
