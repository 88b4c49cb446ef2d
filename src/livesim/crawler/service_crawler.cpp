#include "livesim/crawler/service_crawler.h"

namespace livesim::crawler {

ServiceCrawler::ServiceCrawler(sim::Simulator& sim,
                               core::LivestreamService& service, Rng rng)
    : sim_(sim), service_(service), rng_(rng) {}

ServiceCrawler::~ServiceCrawler() { stop(); }

void ServiceCrawler::start() {
  running_ = true;
  const DurationUs stagger = kAccountInterval / kAccounts;
  for (std::uint32_t a = 0; a < kAccounts; ++a) {
    accounts_.push_back(std::make_unique<sim::PeriodicProcess>(
        sim_, sim_.now() + static_cast<TimeUs>(a) * stagger, kAccountInterval,
        [this](sim::PeriodicProcess&) { refresh(); }));
  }
}

void ServiceCrawler::stop() {
  running_ = false;
  for (auto& a : accounts_) a->stop();
  for (auto& m : monitors_) m->stop();
}

void ServiceCrawler::schedule_outage(TimeUs from, TimeUs until) {
  outage_from_ = from;
  outage_until_ = until;
}

void ServiceCrawler::refresh() {
  if (!running_) return;
  const TimeUs now = sim_.now();
  if (outage_until_ > 0 && now >= outage_from_ && now < outage_until_)
    return;  // crawler bug window: list refreshes silently fail
  for (BroadcastId id :
       service_.global_list().sample(kListSize, rng_)) {
    if (records_.count(id.value)) continue;
    Record rec;
    rec.id = id;
    rec.first_seen = now;
    records_.emplace(id.value, rec);
    monitor(id);
  }
}

void ServiceCrawler::monitor(BroadcastId id) {
  // "Our crawler starts a new thread to join the broadcast and records
  // data until the broadcast terminates."
  monitors_.push_back(std::make_unique<sim::PeriodicProcess>(
      sim_, sim_.now(), kMonitorPoll,
      [this, id](sim::PeriodicProcess& proc) {
        const auto info = service_.info(id);
        auto& rec = records_.at(id.value);
        if (!info || !info->live) {
          rec.ended = true;
          proc.stop();
          return;
        }
        rec.last_live = sim_.now();
        rec.peak_viewers =
            std::max(rec.peak_viewers, info->rtmp_viewers +
                                           info->llhls_viewers +
                                           info->hls_viewers);
        rec.hearts = info->hearts;
        rec.comments = info->comments;
      }));
}

}  // namespace livesim::crawler
