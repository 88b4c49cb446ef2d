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

class W2FModel {
 public:
  struct Params {
    DurationUs handshake = 60 * time::kMillisecond;  // origin request setup
    DurationUs gateway_coordination = 250 * time::kMillisecond;
    double interdc_bandwidth_bps = 500e6;            // chunk transfer rate
    double jitter_fraction = 0.20;
  };

  W2FModel(const geo::DatacenterCatalog& catalog, geo::LatencyModel latency)
      : catalog_(catalog), latency_(latency) {}

  /// The gateway edge for an ingest site: its co-located edge if one
  /// exists (6 of 8 sites), else the nearest edge (the Sao Paulo case).
  const geo::Datacenter& gateway_for(DatacenterId ingest) const;

  /// Samples the chunk-ready-at-ingest -> chunk-cached-at-edge delay for
  /// one transfer of `chunk_bytes` to edge `edge`.
  DurationUs sample_transfer(DatacenterId ingest, DatacenterId edge,
                             std::uint64_t chunk_bytes, Rng& rng) const;

  const Params& params() const noexcept { return params_; }

 private:
  const geo::DatacenterCatalog& catalog_;
  geo::LatencyModel latency_;
  Params params_{};
};

}  // namespace livesim::cdn

#endif  // LIVESIM_CDN_W2F_H
