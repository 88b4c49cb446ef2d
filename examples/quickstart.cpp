// Quickstart: simulate one Periscope-style broadcast end to end and print
// where every second of delay comes from.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "livesim/core/broadcast_session.h"

int main() {
  using namespace livesim;

  // 1. A simulator and the paper-era CDN footprint (8 Wowza ingest sites
  //    on EC2, 23 Fastly edge sites).
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  // 2. Configure a broadcast: a streamer in San Francisco, 5 early
  //    viewers on low-latency RTMP, 30 later viewers on chunked HLS.
  core::SessionConfig cfg;
  cfg.broadcast_len = 2 * time::kMinute;
  cfg.broadcaster_location = {37.77, -122.42};
  cfg.rtmp_viewers = 5;
  cfg.hls_viewers = 30;
  cfg.crawler_pollers = true;  // keep edge caches fresh, as real crowds do
  cfg.seed = 1;

  // 3. Run it.
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  // 4. Read the results.
  const auto& rtmp = session.rtmp_breakdown();
  const auto& hls = session.hls_breakdown();
  std::printf("Broadcast ingested at %s, %llu frames\n",
              catalog.get(session.ingest_site()).city.c_str(),
              static_cast<unsigned long long>(
                  session.ingest().frames_ingested()));
  std::printf("\nRTMP path (the first ~100 viewers, the ones who may comment):\n");
  std::printf("  upload %.2fs + last-mile %.2fs + buffering %.2fs = %.2fs\n",
              rtmp.upload_s.mean(), rtmp.last_mile_s.mean(),
              rtmp.buffering_s.mean(), rtmp.total_s());
  std::printf("\nHLS path (everyone else):\n");
  std::printf(
      "  upload %.2fs + chunking %.2fs + wowza2fastly %.2fs + polling %.2fs\n"
      "  + last-mile %.2fs + buffering %.2fs = %.2fs\n",
      hls.upload_s.mean(), hls.chunking_s.mean(), hls.w2f_s.mean(),
      hls.polling_s.mean(), hls.last_mile_s.mean(), hls.buffering_s.mean(),
      hls.total_s());
  std::printf("\nAn HLS viewer lags an RTMP viewer by %.1f seconds -- the "
              "price of scalability.\n",
              hls.total_s() - rtmp.total_s());

  std::printf("\nPer-viewer playback quality:\n");
  for (const auto& v : session.viewer_results()) {
    static int shown = 0;
    if (shown++ >= 6) break;
    std::printf("  %s viewer @(%.0f,%.0f): stall %.1f%%, buffer wait %.2fs\n",
                v.tier == cdn::DeliveryTier::kRtmp ? "RTMP" : "HLS ",
                v.location.lat_deg,
                v.location.lon_deg, v.stall_ratio * 100,
                v.mean_buffering_s);
  }
  return 0;
}
