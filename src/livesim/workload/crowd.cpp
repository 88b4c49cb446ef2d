#include "livesim/workload/crowd.h"

#include <algorithm>
#include <cmath>

#include "livesim/sim/parallel.h"
#include "livesim/util/fingerprint.h"
#include "livesim/util/rng.h"

namespace livesim::workload {

CrowdPreset CrowdPreset::twitch_flash_crowd() {
  CrowdPreset p;
  p.name = "twitch_flash_crowd";
  p.channels = 50;
  p.channel_zipf_s = 1.8;
  p.viewers = 30000;
  p.horizon = 30 * time::kMinute;
  p.mean_session_s = 240.0;
  p.spike_at_frac = 0.5;
  p.spike_amplitude = 8.0;
  p.spike_ramp_s = 120.0;
  return p;
}

CrowdPreset CrowdPreset::twitch_steady_giants() {
  CrowdPreset p;
  p.name = "twitch_steady_giants";
  p.channels = 20;
  p.channel_zipf_s = 2.0;
  p.viewers = 20000;
  p.horizon = 30 * time::kMinute;
  p.mean_session_s = 1200.0;
  p.spike_amplitude = 1.0;  // no storm: arrivals stay uniform
  return p;
}

CrowdPreset CrowdPreset::twitch_giant_channel() {
  CrowdPreset p;
  p.name = "twitch_giant_channel";
  p.channels = 8;
  // Zipf s = 4.0 over 8 ranks puts ~92% of draws on rank 0 (the
  // generalized harmonic H(8, 4) ~= 1.082): the one-giant-channel
  // concentration the Twitch measurement studies report for top events.
  // (s = 1.5 can never reach 90% — zeta(1.5) ~= 2.61 caps the top rank
  // near 38% — so the steep exponent is what realizes the regime.)
  p.channel_zipf_s = 4.0;
  p.viewers = 100000;
  p.horizon = 30 * time::kMinute;
  p.mean_session_s = 1200.0;
  p.spike_amplitude = 1.0;  // steady arrivals: skew is the whole point
  return p;
}

CrowdPreset CrowdPreset::periscope_tail() {
  CrowdPreset p;
  p.name = "periscope_tail";
  p.channels = 2000;
  p.channel_zipf_s = 1.1;
  p.viewers = 10000;
  p.horizon = 30 * time::kMinute;
  p.mean_session_s = 90.0;
  p.spike_amplitude = 1.0;
  return p;
}

std::vector<CrowdRecord> generate_crowd(const CrowdPreset& preset,
                                        std::uint64_t seed,
                                        unsigned threads) {
  const double horizon_s = time::to_seconds(preset.horizon);
  const TimeUs spike_start = static_cast<TimeUs>(
      std::clamp(preset.spike_at_frac, 0.0, 1.0) *
      static_cast<double>(preset.horizon));
  const TimeUs spike_len = std::min(
      preset.horizon - spike_start, time::from_seconds(preset.spike_ramp_s));
  // Arrival mixture: inside the storm window the rate is `amplitude`
  // times the background, so a viewer lands in the window with
  // probability A*W / (A*W + (1-W)), W = window fraction of the horizon.
  const double w = horizon_s > 0.0
                       ? time::to_seconds(spike_len) / horizon_s
                       : 0.0;
  const double a = std::max(1.0, preset.spike_amplitude);
  const double p_spike = (a * w) / (a * w + (1.0 - w));

  const ZipfSampler channel_sampler(
      std::max<std::int64_t>(1, preset.channels), preset.channel_zipf_s);

  return sim::parallel_map<CrowdRecord>(
      preset.viewers, threads, [&](std::size_t i) {
        Rng rng(sim::substream_seed(seed, i));
        CrowdRecord r;
        r.channel =
            static_cast<std::uint32_t>(channel_sampler.sample(rng) - 1);
        if (spike_len > 0 && rng.uniform() < p_spike) {
          r.join = spike_start +
                   static_cast<TimeUs>(rng.uniform() *
                                       static_cast<double>(spike_len));
        } else {
          // Background arrival over the rest of the horizon.
          TimeUs t = static_cast<TimeUs>(
              rng.uniform() * static_cast<double>(preset.horizon - spike_len));
          if (t >= spike_start) t += spike_len;
          r.join = t;
        }
        const double stay_s = rng.exponential(preset.mean_session_s);
        const DurationUs stay = time::from_seconds(stay_s);
        const DurationUs remaining = preset.horizon - r.join;
        r.stay = std::max<DurationUs>(1, std::min(stay, remaining));
        return r;
      });
}

CrowdShape crowd_shape(const std::vector<CrowdRecord>& records,
                       DurationUs horizon, DurationUs bin) {
  CrowdShape shape;
  if (records.empty() || horizon <= 0 || bin <= 0) return shape;

  // Audience concentration.
  std::vector<std::uint64_t> per_channel;
  for (const auto& r : records) {
    if (r.channel >= per_channel.size()) per_channel.resize(r.channel + 1, 0);
    ++per_channel[r.channel];
  }
  const std::uint64_t top =
      *std::max_element(per_channel.begin(), per_channel.end());
  shape.top_channel_share =
      static_cast<double>(top) / static_cast<double>(records.size());

  // Concurrency sweep: +1 at join, -1 at leave, swept in bin order.
  const auto bins = static_cast<std::size_t>((horizon + bin - 1) / bin);
  std::vector<std::int64_t> delta(bins + 1, 0);
  for (const auto& r : records) {
    const auto jb = static_cast<std::size_t>(r.join / bin);
    const auto lb =
        std::min(bins, static_cast<std::size_t>((r.join + r.stay) / bin));
    ++delta[std::min(jb, bins)];
    --delta[lb];
  }
  std::int64_t level = 0;
  double sum = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    level += delta[b];
    sum += static_cast<double>(level);
    if (level > static_cast<std::int64_t>(shape.peak_concurrent)) {
      shape.peak_concurrent = static_cast<std::uint32_t>(level);
      shape.peak_at = static_cast<TimeUs>(b) * bin;
    }
  }
  const double mean = sum / static_cast<double>(bins);
  if (mean > 0.0) {
    shape.peak_to_mean = static_cast<double>(shape.peak_concurrent) / mean;
    // Every record contributes one join and one leave over the horizon.
    const double events = 2.0 * static_cast<double>(records.size());
    const double minutes = time::to_seconds(horizon) / 60.0;
    shape.churn_per_min = events / (mean * minutes);
  }
  return shape;
}

std::uint64_t crowd_fingerprint(const std::vector<CrowdRecord>& records) {
  util::Fingerprint h;
  for (const auto& r : records)
    h.mix(r.channel)
        .mix(static_cast<std::uint64_t>(r.join))
        .mix(static_cast<std::uint64_t>(r.stay));
  return h.value();
}

}  // namespace livesim::workload
