#include "livesim/net/link.h"

#include <cmath>
#include <utility>

namespace livesim::net {

DurationUs Link::sample_delay(std::size_t bytes) {
  const double serialization_s =
      params_.bandwidth_bps > 0
          ? static_cast<double>(bytes) * 8.0 / params_.bandwidth_bps
          : 0.0;
  const double jitter_mult =
      1.0 + params_.jitter_fraction * std::abs(rng_.normal(0.0, 1.0));
  const auto d = static_cast<DurationUs>(
      static_cast<double>(params_.base_delay) * jitter_mult +
      serialization_s * static_cast<double>(time::kSecond));
  return d > 0 ? d : 1;
}

DurationUs Link::send(std::size_t bytes, sim::EventFn on_arrival) {
  if (params_.loss_rate > 0.0 && rng_.bernoulli(params_.loss_rate)) return -1;
  const DurationUs d = sample_delay(bytes);
  sim_.schedule_in(d, std::move(on_arrival));
  return d;
}

UplinkModel::UplinkModel(Params params, Rng rng, TimeUs start)
    : params_(params), rng_(rng), created_at_(start), next_free_(start),
      next_outage_start_(start),
      outages_enabled_(params.outage_rate_per_s > 0.0) {
  if (outages_enabled_) {
    next_outage_start_ += static_cast<TimeUs>(
        rng_.exponential(1.0 / params_.outage_rate_per_s) *
        static_cast<double>(time::kSecond));
  }
  if (params_.mean_initial_outage > 0) {
    next_free_ += static_cast<TimeUs>(rng_.exponential(
        static_cast<double>(params_.mean_initial_outage)));
  }
}

void UplinkModel::maybe_advance_outages(TimeUs until) {
  // Lazily apply every outage that begins before `until`: each one pushes
  // the link's free time past the outage end.
  while (outages_enabled_ && next_outage_start_ <= until) {
    const auto duration = static_cast<DurationUs>(
        rng_.exponential(static_cast<double>(params_.mean_outage)));
    const TimeUs outage_end = next_outage_start_ + duration;
    if (outage_end > next_free_) next_free_ = outage_end;
    next_outage_start_ =
        outage_end + static_cast<TimeUs>(
                         rng_.exponential(1.0 / params_.outage_rate_per_s) *
                         static_cast<double>(time::kSecond));
    until = next_free_ > until ? next_free_ : until;
  }
}

double UplinkModel::bandwidth_at(TimeUs t) const noexcept {
  const double full = params_.link.bandwidth_bps;
  const TimeUs age = t - created_at_;
  if (params_.ramp_duration <= 0 || age >= params_.ramp_duration) return full;
  const double frac =
      params_.initial_bw_fraction +
      (1.0 - params_.initial_bw_fraction) *
          (static_cast<double>(age) /
           static_cast<double>(params_.ramp_duration));
  return full * frac;
}

void UplinkModel::block_until(TimeUs end) noexcept {
  if (end > next_free_) next_free_ = end;
}

TimeUs UplinkModel::transmit(TimeUs now, std::size_t bytes) {
  TimeUs depart = next_free_ > now ? next_free_ : now;
  maybe_advance_outages(depart);
  depart = next_free_ > depart ? next_free_ : depart;

  const double bw = bandwidth_at(depart);
  const double serialization_s =
      bw > 0 ? static_cast<double>(bytes) * 8.0 / bw : 0.0;
  depart += static_cast<DurationUs>(serialization_s *
                                    static_cast<double>(time::kSecond));
  next_free_ = depart;

  const double jitter_mult =
      1.0 + params_.link.jitter_fraction * std::abs(rng_.normal(0.0, 1.0));
  TimeUs arrive =
      depart + static_cast<DurationUs>(
                   static_cast<double>(params_.link.base_delay) * jitter_mult);
  // TCP delivers in order: a delayed byte delays everything behind it.
  if (arrive < last_arrival_) arrive = last_arrival_;
  last_arrival_ = arrive;
  return arrive;
}

TimeUs FifoUplink::send(std::size_t bytes, ArrivalFn on_arrival) {
  const TimeUs arrive = model_.transmit(sim_.now(), bytes);
  auto deliver = [arrive, fn = std::move(on_arrival)] { fn(arrive); };
  static_assert(sim::EventFn::fits_inline<decltype(deliver)>());
  sim_.schedule_at(arrive, std::move(deliver));
  return arrive;
}

Link::Params LastMileProfiles::wired() {
  return {.base_delay = 8 * time::kMillisecond,
          .jitter_fraction = 0.08,
          .loss_rate = 0.0,
          .bandwidth_bps = 50e6};
}

Link::Params LastMileProfiles::wifi() {
  return {.base_delay = 15 * time::kMillisecond,
          .jitter_fraction = 0.25,
          .loss_rate = 0.0,
          .bandwidth_bps = 20e6};
}

Link::Params LastMileProfiles::lte() {
  return {.base_delay = 45 * time::kMillisecond,
          .jitter_fraction = 0.35,
          .loss_rate = 0.0,
          .bandwidth_bps = 8e6};
}

FifoUplink::Params LastMileProfiles::stable_uplink() {
  // Frequent tiny hiccups (WiFi contention): keep chunk boundaries
  // wandering by tens of ms, as real uploads do, without visible stalls.
  return {.link = wifi(), .outage_rate_per_s = 0.3,
          .mean_outage = 40 * time::kMillisecond};
}

FifoUplink::Params LastMileProfiles::bursty_uplink() {
  // Roughly one multi-second stall every ~20 s of streaming.
  return {.link = wifi(), .outage_rate_per_s = 0.05,
          .mean_outage = 2 * time::kSecond};
}

}  // namespace livesim::net
