// The full §3.1 measurement pipeline against a live (simulated) service:
// staggered accounts refresh the global list; every newly discovered
// broadcast gets a monitor that records its metadata until it ends --
// "for each broadcast, we collect the broadcastID, starting and ending
// time of the broadcast, ... and a sequence of timestamped comments and
// hearts. Only metadata is stored."
//
// Because the service is simulated, the crawled dataset can be compared
// against ground truth -- the validation the paper itself could only
// approximate (e.g., its "missing roughly 4.5% of broadcasts" estimate
// for the Aug 7-9 outage).
#ifndef LIVESIM_CRAWLER_SERVICE_CRAWLER_H
#define LIVESIM_CRAWLER_SERVICE_CRAWLER_H

#include <map>
#include <memory>

#include "livesim/core/service.h"
#include "livesim/crawler/crawler.h"

namespace livesim::crawler {

/// The paper's crawler (kAccounts accounts refreshing a kListSize list
/// every kAccountInterval), plus one metadata monitor per broadcast.
class ServiceCrawler {
 public:
  /// Per-broadcast metadata poll.
  static constexpr DurationUs kMonitorPoll = time::kSecond;

  struct Record {
    BroadcastId id{};
    TimeUs first_seen = 0;
    TimeUs last_live = 0;       // last poll at which it was still live
    std::uint32_t peak_viewers = 0;
    std::uint64_t hearts = 0;
    std::uint64_t comments = 0;
    bool ended = false;
  };

  ServiceCrawler(sim::Simulator& sim, core::LivestreamService& service,
                 Rng rng);
  ~ServiceCrawler();

  void start();
  void stop();

  /// Simulates the Aug 7-9 style outage: accounts stop refreshing in
  /// [from, until); monitors for already-known broadcasts keep running
  /// (as the paper's did -- the bug was in list crawling).
  void schedule_outage(TimeUs from, TimeUs until);

  const std::map<std::uint64_t, Record>& records() const noexcept {
    return records_;
  }
  std::uint64_t broadcasts_captured() const noexcept {
    return records_.size();
  }

 private:
  void refresh();
  void monitor(BroadcastId id);

  sim::Simulator& sim_;
  core::LivestreamService& service_;
  Rng rng_;
  std::vector<std::unique_ptr<sim::PeriodicProcess>> accounts_;
  std::vector<std::unique_ptr<sim::PeriodicProcess>> monitors_;
  std::map<std::uint64_t, Record> records_;
  bool running_ = false;
  TimeUs outage_from_ = 0, outage_until_ = 0;
};

}  // namespace livesim::crawler

#endif  // LIVESIM_CRAWLER_SERVICE_CRAWLER_H
