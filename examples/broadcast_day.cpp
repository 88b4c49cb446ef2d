// A busy hour on the service: broadcasts arrive, audiences pile in, the
// first-100 policy sorts them into RTMP and HLS cohorts, hearts stream
// back, and the measurement crawler (the paper's own §3.1 apparatus)
// watches the global list -- all in one deterministic simulation.
#include <cstdio>

#include "livesim/core/service.h"
#include "livesim/stats/report.h"

int main() {
  using namespace livesim;
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  core::LivestreamService::Config cfg;
  cfg.rtmp_slot_cap = 100;
  cfg.commenter_cap = 100;
  cfg.seed = 2016;
  core::LivestreamService service(sim, catalog, cfg);

  // The paper's crawler watches the global list from 20 accounts.
  crawler::ListCrawler crawler(sim, service.global_list(),
                               crawler::kAccounts, Rng(5));
  crawler.start();

  Rng rng(7);
  geo::UserGeoSampler geo_sampler;
  const DurationUs kHour = time::kHour / 4;  // quarter-hour, keeps it snappy
  std::vector<core::LivestreamService::ViewerHandle> audience;

  // Broadcast arrivals: Poisson, ~one every 20 s; each draws a skewed
  // audience that joins over the first quarter of its life.
  std::function<void()> arrival = [&] {
    if (sim.now() >= kHour) return;
    const auto where = geo_sampler.sample(rng);
    const auto length = time::from_seconds(
        std::min(600.0, std::max(45.0, rng.lognormal(std::log(150.0), 0.9))));
    const auto id = service.start_broadcast(where, length);

    const auto viewers = static_cast<int>(
        std::min(400.0, rng.lognormal(std::log(12.0), 1.4)));
    for (int v = 0; v < viewers; ++v) {
      const DurationUs when = static_cast<DurationUs>(
          rng.uniform() * static_cast<double>(length) * 0.25);
      sim.schedule_in(when, [&, id] {
        if (auto h = service.join(id, geo_sampler.sample(rng))) {
          audience.push_back(*h);
          // Engaged viewers heart a few times during the broadcast.
          if (rng.bernoulli(0.3)) {
            const auto handle = *h;
            for (int k = 0; k < 3; ++k) {
              sim.schedule_in(
                  time::from_seconds(15.0 + rng.uniform() * 60.0),
                  [&service, handle] { service.send_heart(handle); });
            }
          }
        }
      });
    }
    sim.schedule_in(time::from_seconds(rng.exponential(20.0)), arrival);
  };
  sim.schedule_in(0, arrival);
  sim.schedule_at(kHour + time::kMinute, [&] { crawler.stop(); });
  sim.run();

  // --- dashboard ---
  std::uint64_t broadcasts = 0, rtmp = 0, hls = 0, hearts = 0;
  std::uint64_t crawled = 0;
  for (std::uint64_t i = 0;; ++i) {
    const auto info = service.info(BroadcastId{i});
    if (!info) break;
    ++broadcasts;
    rtmp += info->rtmp_viewers;
    hls += info->hls_viewers;
    hearts += info->hearts;
    if (crawler.has_seen(info->id)) ++crawled;
  }

  stats::print_banner("A quarter-hour on the service");
  std::printf("broadcasts started:       %llu (crawler captured %llu = "
              "%.1f%%)\n",
              static_cast<unsigned long long>(broadcasts),
              static_cast<unsigned long long>(crawled),
              100.0 * static_cast<double>(crawled) /
                  static_cast<double>(broadcasts)),
  std::printf("viewers served:           %llu RTMP (interactive), %llu HLS\n",
              static_cast<unsigned long long>(rtmp),
              static_cast<unsigned long long>(hls));
  std::printf("hearts delivered:         %llu\n",
              static_cast<unsigned long long>(hearts));
  std::printf("heart feedback lag:       RTMP %.1fs vs HLS %.1fs (the "
              "'delayed applause' gap)\n",
              service.rtmp_feedback_lag_s().mean(),
              service.hls_feedback_lag_s().mean());
  std::printf("comments:                 capped at the first %u RTMP "
              "joiners per broadcast\n",
              cfg.commenter_cap);
  return 0;
}
