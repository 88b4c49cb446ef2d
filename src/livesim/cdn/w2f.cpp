#include "livesim/cdn/w2f.h"

#include <cmath>

namespace livesim::cdn {

const geo::Datacenter& W2FModel::gateway_for(DatacenterId ingest) const {
  if (const auto* co = catalog_.colocated_edge(ingest); co != nullptr)
    return *co;
  return catalog_.nearest(ingest, geo::CdnRole::kEdge);
}

DurationUs W2FModel::sample_transfer(DatacenterId ingest, DatacenterId edge,
                                     std::uint64_t chunk_bytes,
                                     Rng& rng) const {
  const geo::Datacenter& gw = gateway_for(ingest);

  const double ingest_gw_km = catalog_.distance_km(ingest, gw.id);
  // Request/response to the origin: one RTT plus transfer.
  DurationUs total = kW2fHandshake + 2 * geo::sample_delay(ingest_gw_km, rng);
  const double transfer_s =
      static_cast<double>(chunk_bytes) * 8.0 / kInterDcBandwidthBps;
  total += time::from_seconds(transfer_s);

  if (edge != gw.id) {
    // Non-gateway edges wait for the gateway's coordination pass, then the
    // inter-edge hop.
    const double gw_edge_km = catalog_.distance_km(gw.id, edge);
    total += kGatewayCoordination + geo::sample_delay(gw_edge_km, rng) +
             time::from_seconds(transfer_s);
  }

  const double jitter = 1.0 + kW2fJitter * std::abs(rng.normal(0.0, 1.0));
  return static_cast<DurationUs>(static_cast<double>(total) * jitter);
}

}  // namespace livesim::cdn
