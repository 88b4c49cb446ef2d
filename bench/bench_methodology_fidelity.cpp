// Methodology fidelity (§3.1): run the paper's measurement pipeline
// against the simulated service and compare the crawled dataset with the
// ground truth only a simulator can provide -- including reproducing the
// "our dataset is missing roughly 4.5% of the broadcasts during this
// period" estimate for the Aug 7-9 crawler outage.
#include <cstdio>
#include <functional>
#include <memory>

#include "livesim/crawler/service_crawler.h"
#include "livesim/stats/report.h"

int main() {
  using namespace livesim;
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::LivestreamService::Config cfg;
  cfg.seed = 314;
  core::LivestreamService service(sim, catalog, cfg);

  // A 30-minute window of service activity with a mid-run 3-minute
  // crawler outage (the Aug 7-9 bug in miniature).
  const DurationUs horizon = 30 * time::kMinute;
  auto rng = std::make_shared<Rng>(315);
  auto arrive = std::make_shared<std::function<void()>>();
  geo::UserGeoSampler geo_sampler;
  *arrive = [&, rng, arrive] {
    if (sim.now() >= horizon) return;
    const auto id = service.start_broadcast(
        geo_sampler.sample(*rng),
        time::from_seconds(30.0 + rng->lognormal(std::log(90.0), 0.8)));
    const int viewers = static_cast<int>(1 + rng->lognormal(1.2, 0.9));
    for (int v = 0; v < viewers; ++v) {
      if (auto h = service.join(id, geo_sampler.sample(*rng))) {
        const auto handle = *h;
        sim.schedule_in(20 * time::kSecond,
                        [&service, handle] { service.send_heart(handle); });
      }
    }
    sim.schedule_in(time::from_seconds(rng->exponential(5.0)), *arrive);
  };
  sim.schedule_in(0, *arrive);

  crawler::ServiceCrawler crawler(sim, service, Rng(316));
  crawler.start();
  crawler.schedule_outage(12 * time::kMinute, 15 * time::kMinute);
  sim.schedule_at(horizon + 5 * time::kMinute, [&] { crawler.stop(); });
  sim.run();

  // Ground truth vs crawl.
  std::uint64_t total = 0, total_hearts = 0;
  std::uint64_t outage_window_total = 0, outage_window_missed = 0;
  for (std::uint64_t i = 0;; ++i) {
    const auto info = service.info(BroadcastId{i});
    if (!info) break;
    ++total;
    total_hearts += info->hearts;
    const bool in_window = info->started_at >= 12 * time::kMinute &&
                           info->started_at < 15 * time::kMinute;
    if (in_window) {
      ++outage_window_total;
      if (!crawler.records().count(i)) ++outage_window_missed;
    }
  }
  std::uint64_t crawled_hearts = 0;
  for (const auto& [id, rec] : crawler.records()) crawled_hearts += rec.hearts;

  stats::print_banner(
      "§3.1 methodology fidelity: crawled dataset vs ground truth");
  stats::Table table({"Quantity", "Ground truth", "Crawled", "Error"});
  table.add_row({"broadcasts", stats::Table::integer(
                                   static_cast<std::int64_t>(total)),
                 stats::Table::integer(static_cast<std::int64_t>(
                     crawler.broadcasts_captured())),
                 stats::Table::percent(
                     1.0 - static_cast<double>(crawler.broadcasts_captured()) /
                               static_cast<double>(total),
                     2)});
  table.add_row({"hearts", stats::Table::integer(
                               static_cast<std::int64_t>(total_hearts)),
                 stats::Table::integer(
                     static_cast<std::int64_t>(crawled_hearts)),
                 stats::Table::percent(
                     1.0 - static_cast<double>(crawled_hearts) /
                               static_cast<double>(total_hearts),
                     2)});
  table.print();
  std::printf(
      "\nDuring the injected outage window: %llu/%llu broadcasts missed "
      "(%.1f%% of that period -- the paper estimated ~4.5%% for Aug 7-9 "
      "and judged it 'small enough not to affect our data analysis').\n",
      static_cast<unsigned long long>(outage_window_missed),
      static_cast<unsigned long long>(outage_window_total),
      100.0 * static_cast<double>(outage_window_missed) /
          static_cast<double>(outage_window_total ? outage_window_total : 1));
  std::printf("Misses are exactly the broadcasts that began AND ended inside "
              "the outage; anything still live when the crawler recovered "
              "was captured (with a late first_seen).\n");
  return 0;
}
