// The session fingerprint the golden pins and the differential session
// tests share: every viewer's outcome, then the session's failover and
// buffering ledgers, in one fixed order.
#ifndef LIVESIM_TESTS_SESSION_FINGERPRINT_H
#define LIVESIM_TESTS_SESSION_FINGERPRINT_H

#include <cstdint>

#include "livesim/core/broadcast_session.h"
#include "livesim/geo/datacenters.h"
#include "livesim/sim/simulator.h"
#include "livesim/util/fingerprint.h"

namespace livesim::test {

/// Returned unfinished so a test can fold more fields on top.
inline util::Fingerprint session_fingerprint(const core::BroadcastSession& s) {
  util::Fingerprint h;
  for (const auto& v : s.viewer_results())
    h.mix(v.tier != cdn::DeliveryTier::kRtmp ? 1 : 0)
        .mix(v.orphaned ? 1 : 0)
        .mix(v.attachment.value)
        .mix_double(v.stall_ratio)
        .mix_double(v.mean_buffering_s)
        .mix(v.units_played)
        .mix(v.units_discarded);
  return h.mix(s.rtmp_failovers())
      .mix(s.edge_failovers())
      .mix(s.orphaned_viewers())
      .mix(s.edge_spills())
      .mix(s.corrupted_downloads())
      .mix_double(s.hls_breakdown().buffering_s.mean())
      .mix_double(s.rtmp_breakdown().buffering_s.mean())
      .mix_double(s.failover_latency_s().mean())
      .mix_double(s.edge_failover_latency_s().mean());
}

/// Runs one session on the paper footprint to completion and
/// fingerprints it.
inline std::uint64_t run_session(const core::SessionConfig& cfg) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();
  return session_fingerprint(session).value();
}

}  // namespace livesim::test

#endif  // LIVESIM_TESTS_SESSION_FINGERPRINT_H
