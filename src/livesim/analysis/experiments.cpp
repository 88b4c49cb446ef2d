#include "livesim/analysis/experiments.h"

#include <algorithm>
#include <cmath>

#include "livesim/cdn/w2f.h"
#include "livesim/client/playback.h"
#include "livesim/media/chunker.h"
#include "livesim/media/encoder.h"
#include "livesim/net/link.h"
#include "livesim/sim/parallel.h"
#include "livesim/sim/simulator.h"

namespace livesim::analysis {

namespace {

// The per-broadcast randomness the legacy serial generate_traces loop drew
// from the master RNG, in its exact draw order: one uniform for the uplink
// profile, then the uplink fork, then the frame-source fork.
struct TraceDraws {
  double profile = 0.0;
  std::uint64_t uplink_seed = 0;
  std::uint64_t source_seed = 0;
};

BroadcastTrace simulate_one_trace(const TraceSetConfig& config,
                                  const TraceDraws& draws) {
  BroadcastTrace trace;

  net::UplinkModel::Params uplink_params;
  if (draws.profile < config.bursty_fraction) {
    uplink_params = net::LastMileProfiles::bursty_uplink();
    trace.bursty = true;
  } else if (draws.profile <
             config.bursty_fraction + config.slow_start_fraction) {
    // Constrained uplinks: an initial connection outage floods the first
    // seconds of video out in one burst, and the bandwidth ramps up from
    // below the video bitrate -- the source of the paper's ~10% of
    // broadcasts with >5 s buffering delay (Fig 16b).
    uplink_params = net::LastMileProfiles::stable_uplink();
    uplink_params.mean_initial_outage = 10 * time::kSecond;
    uplink_params.initial_bw_fraction = 0.012;
    uplink_params.ramp_duration = 20 * time::kSecond;
    trace.bursty = true;
  } else {
    uplink_params = net::LastMileProfiles::stable_uplink();
  }
  net::UplinkModel uplink(uplink_params, Rng(draws.uplink_seed), 0);

  media::FrameSource source(Rng(draws.source_seed));
  media::Chunker chunker(config.chunk_target);
  const auto record = [&trace](const media::Chunk& c) {
    trace.chunks.push_back(
        {c.completed_ts, c.first_capture_ts, c.duration, c.size_bytes});
  };

  const auto frames =
      static_cast<std::uint64_t>(config.broadcast_len / media::kFrameInterval);
  trace.frame_interval = media::kFrameInterval;
  trace.frame_arrivals.resize(frames, 0);

  // No engine: the uplink computes each arrival when the frame is sent,
  // frames are sent in capture order one interval after capture, and
  // arrivals never decrease. So frame order is the order the ingest sees
  // them, and the chunker is fed inline. Connect handshake ahead of frame
  // 1 (see BroadcastSession::start).
  TimeUs last_arrival = uplink.transmit(0, 4096);
  for (std::uint64_t i = 0; i < frames; ++i) {
    const media::VideoFrame f = source.next(0);
    last_arrival =
        uplink.transmit(f.capture_ts + trace.frame_interval, f.size_bytes + 64);
    trace.frame_arrivals[f.seq] = last_arrival;
    if (auto sealed = chunker.push(f, last_arrival)) record(*sealed);
  }
  if (auto sealed = chunker.flush(last_arrival)) record(*sealed);
  return trace;
}

}  // namespace

std::vector<BroadcastTrace> generate_traces(const TraceSetConfig& config) {
  const auto n = static_cast<std::size_t>(config.broadcasts);

  // Serial prepass: advance the master RNG exactly as the legacy loop did
  // (uniform + two forks = three next_u64 per broadcast, independent of
  // what each simulation does with them). Each broadcast's simulation then
  // runs from its own pre-drawn seeds, so the output is byte-identical to
  // the serial path at every thread count.
  std::vector<TraceDraws> draws(n);
  Rng rng(config.seed);
  for (auto& d : draws) {
    d.profile = rng.uniform();
    d.uplink_seed = rng.next_u64();   // == the state rng.fork() would seed
    d.source_seed = rng.next_u64();
  }

  return sim::parallel_map<BroadcastTrace>(
      n, config.threads,
      [&](std::size_t i) { return simulate_one_trace(config, draws[i]); });
}

PollingStats polling_experiment(const std::vector<BroadcastTrace>& traces,
                                DurationUs interval, DurationUs w2f_offset,
                                std::uint64_t seed, unsigned threads) {
  // One jitter substream per broadcast (not one shared stream): broadcast
  // i's samples depend only on (seed, i), so the result is identical no
  // matter how the traces are sharded across workers.
  const auto ranges = sim::shard_ranges(traces.size(),
                                        sim::resolve_threads(threads));
  std::vector<PollingStats> parts(ranges.size());
  sim::parallel_for_shards(
      traces.size(), threads,
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        PollingStats& part = parts[shard];
        for (std::size_t i = begin; i < end; ++i) {
          const auto& trace = traces[i];
          if (trace.chunks.size() < 3) continue;
          Rng rng(sim::substream_seed(seed, i));
          const TimeUs phase = static_cast<TimeUs>(
              rng.uniform() * static_cast<double>(interval));
          stats::Accumulator delays;
          for (const auto& c : trace.chunks) {
            // Availability at the edge jitters with the origin-pull latency.
            const auto w2f = static_cast<DurationUs>(
                static_cast<double>(w2f_offset) *
                (1.0 + 0.35 * std::abs(rng.normal(0.0, 1.0))));
            const TimeUs available = c.completed_at_ingest + w2f;
            // First poll tick at/after availability.
            const TimeUs since_phase = available > phase ? available - phase : 0;
            const TimeUs ticks = (since_phase + interval - 1) / interval;
            const TimeUs poll_at = phase + ticks * interval;
            delays.add(time::to_seconds(poll_at - available));
          }
          part.per_broadcast_mean_s.add(delays.mean());
          part.per_broadcast_std_s.add(delays.stddev());
        }
      });

  PollingStats out;
  for (const auto& p : parts) {
    out.per_broadcast_mean_s.merge(p.per_broadcast_mean_s);
    out.per_broadcast_std_s.merge(p.per_broadcast_std_s);
  }
  return out;
}

namespace {

// Shared shard/merge driver for the two buffering experiments: runs
// `per_trace(trace_index, shard_stats)` over every trace, one substream
// per broadcast, merging shard results in index order.
template <typename PerTrace>
BufferingStats sharded_buffering(std::size_t n, unsigned threads,
                                 const PerTrace& per_trace) {
  const auto ranges = sim::shard_ranges(n, sim::resolve_threads(threads));
  std::vector<BufferingStats> parts(ranges.size());
  sim::parallel_for_shards(
      n, threads, [&](std::size_t shard, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) per_trace(i, parts[shard]);
      });
  BufferingStats out;
  for (const auto& p : parts) {
    out.stall_ratio.merge(p.stall_ratio);
    out.mean_delay_s.merge(p.mean_delay_s);
  }
  return out;
}

}  // namespace

BufferingStats rtmp_buffering_experiment(
    const std::vector<BroadcastTrace>& traces, DurationUs pre_buffer,
    std::uint64_t seed, unsigned threads) {
  return sharded_buffering(
      traces.size(), threads, [&](std::size_t t, BufferingStats& out) {
        const auto& trace = traces[t];
        Rng rng(sim::substream_seed(seed, t));
        client::PlaybackSchedule playback(pre_buffer);
        for (std::size_t i = 0; i < trace.frame_arrivals.size(); ++i) {
          if (trace.frame_arrivals[i] == 0 && i > 0) continue;  // lost/unsent
          const DurationUs jitter = static_cast<DurationUs>(
              5000.0 * std::abs(rng.normal(0.0, 1.0)));
          playback.on_arrival(
              trace.frame_arrivals[i] + kRtmpLastMile + jitter,
              static_cast<DurationUs>(i) * trace.frame_interval,
              trace.frame_interval);
        }
        out.stall_ratio.add(playback.stall_ratio());
        out.mean_delay_s.add(playback.started()
                                 ? playback.buffering_delay_s().mean()
                                 : 0.0);
      });
}

BufferingStats hls_buffering_experiment(
    const std::vector<BroadcastTrace>& traces, DurationUs pre_buffer,
    DurationUs poll_interval, std::uint64_t seed, unsigned threads) {
  return sharded_buffering(
      traces.size(), threads, [&](std::size_t t, BufferingStats& out) {
        const auto& trace = traces[t];
        if (trace.chunks.empty()) return;
        Rng rng(sim::substream_seed(seed, t));
        client::PlaybackSchedule playback(pre_buffer);
        const TimeUs phase = static_cast<TimeUs>(
            rng.uniform() * static_cast<double>(poll_interval));
        for (const auto& c : trace.chunks) {
          // Availability at the edge: completion + expiry notice + origin pull
          // (kept fresh by the many-viewer / crawler polling of §4.3).
          const DurationUs w2f = static_cast<DurationUs>(
              static_cast<double>(kW2fOffset) *
              (1.0 + 0.3 * std::abs(rng.normal(0.0, 1.0))));
          const TimeUs available = c.completed_at_ingest + w2f;
          const TimeUs since_phase = available > phase ? available - phase : 0;
          const TimeUs ticks =
              (since_phase + poll_interval - 1) / poll_interval;
          const TimeUs poll_at = phase + ticks * poll_interval;
          playback.on_arrival(poll_at + kHlsDownload, c.media_start,
                              c.duration);
        }
        out.stall_ratio.add(playback.stall_ratio());
        out.mean_delay_s.add(playback.started()
                                 ? playback.buffering_delay_s().mean()
                                 : 0.0);
      });
}

std::vector<W2FBucket> w2f_experiment(const geo::DatacenterCatalog& catalog,
                                      int samples_per_pair,
                                      std::uint64_t seed) {
  std::vector<W2FBucket> buckets = {
      {"co-located (0 km)", -1.0, 0.5, {}},
      {"(0, 500 km]", 0.5, 500.0, {}},
      {"(500, 5000 km]", 500.0, 5000.0, {}},
      {"(5000, 10000 km]", 5000.0, 10000.0, {}},
      {"> 10000 km", 10000.0, 1e9, {}},
  };
  Rng rng(seed);
  const cdn::W2FModel model(catalog);

  for (const auto* ingest : catalog.ingest_sites()) {
    for (const auto* edge : catalog.edge_sites()) {
      const double km = catalog.distance_km(ingest->id, edge->id);
      auto bucket = std::find_if(buckets.begin(), buckets.end(),
                                 [km](const W2FBucket& b) {
                                   return km > b.min_km && km <= b.max_km;
                                 });
      if (bucket == buckets.end()) continue;
      for (int s = 0; s < samples_per_pair; ++s) {
        // Expiry notice to this edge + the crawler's <=0.1 s poll offset.
        const DurationUs notice = geo::sample_delay(km, rng);
        const DurationUs poll_offset =
            static_cast<DurationUs>(rng.uniform() * 100000.0);
        const DurationUs transfer =
            model.sample_transfer(ingest->id, edge->id, 200000, rng);
        bucket->delay_s.add(
            time::to_seconds(notice + poll_offset + transfer));
      }
    }
  }
  return buckets;
}

BreakdownResult delay_breakdown_experiment(int repetitions,
                                           std::uint64_t seed) {
  BreakdownResult out;
  for (int rep = 0; rep < repetitions; ++rep) {
    sim::Simulator sim;
    const auto catalog = geo::DatacenterCatalog::paper_footprint();
    core::SessionConfig cfg;
    cfg.broadcast_len = 2 * time::kMinute;
    // The paper's controlled experiment: one broadcaster in Santa Barbara,
    // one RTMP and one HLS viewer on local WiFi; the measurement crawler
    // keeps the Fastly caches fresh.
    cfg.broadcaster_location = {34.42, -119.70};
    cfg.global_viewers = false;
    cfg.rtmp_viewers = 1;
    cfg.hls_viewers = 1;
    cfg.crawler_pollers = true;
    cfg.seed = seed + static_cast<std::uint64_t>(rep);
    core::BroadcastSession session(sim, catalog, cfg);
    session.start();
    sim.run();
    session.finalize();
    out.rtmp.merge(session.rtmp_breakdown());
    out.hls.merge(session.hls_breakdown());
  }
  return out;
}

}  // namespace livesim::analysis
