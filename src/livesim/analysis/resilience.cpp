#include "livesim/analysis/resilience.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <unordered_map>

#include "livesim/analysis/control_steering.h"
#include "livesim/cdn/delivery_backend.h"
#include "livesim/client/adaptive.h"
#include "livesim/client/retry.h"
#include "livesim/fault/backoff.h"
#include "livesim/sim/parallel.h"

namespace livesim::analysis {

namespace {

// The §6 client timings (kRtmpLastMile, kHlsDownload, kW2fOffset) come
// from experiments.h; kW2fOffset is also the cold-cache penalty after a
// flush or a re-anycast.

// A poll with no answer by this deadline counts as failed.
constexpr DurationUs kPollTimeout = 1 * time::kSecond;
// The adaptive client's starting pre-buffer.
constexpr DurationUs kPreBuffer = 6 * time::kSecond;
// The regional blackout's window.
constexpr TimeUs kOutageAt = 30 * time::kSecond;
constexpr DurationUs kOutageDuration = 30 * time::kSecond;

// Salt for the fault-script substream: broadcast i's fault schedule and
// its viewer jitter come from unrelated streams, so adding a draw to one
// model never perturbs the other.
constexpr std::uint64_t kFaultSeedSalt = 0xFA175EEDULL;

bool in_window(const std::vector<fault::FaultEvent>& events, TimeUs t) {
  for (const auto& e : events)
    if (t >= e.at && t < e.at + e.duration) return true;
  return false;
}

// If `t` falls inside a window, returns the window's end; else `t`.
TimeUs past_windows(const std::vector<fault::FaultEvent>& events, TimeUs t) {
  for (const auto& e : events)
    if (t >= e.at && t < e.at + e.duration) return e.at + e.duration;
  return t;
}

DurationUs total_media(const BroadcastTrace& trace) {
  return static_cast<DurationUs>(trace.frame_arrivals.size()) *
         trace.frame_interval;
}

// Stalled plus never-delivered media over the broadcast's total media, so
// a viewer who gave up or froze scores the missing tail too.
double stall_score(const client::AdaptivePlayback& playback,
                   DurationUs media_len) {
  const DurationUs offered = std::min(playback.media_offered(), media_len);
  const double offered_stall =
      playback.stall_ratio() * static_cast<double>(playback.media_offered());
  const double missing = static_cast<double>(media_len - offered);
  return std::min(1.0,
                  (offered_stall + missing) / static_cast<double>(media_len));
}

void simulate_viewer(const BroadcastTrace& trace, const ResilienceConfig& cfg,
                     std::size_t index, ResilienceStats& out) {
  Rng rng(sim::substream_seed(cfg.seed, index));

  const DurationUs media_len = total_media(trace);
  if (media_len <= 0) return;

  fault::RandomFaultParams fparams = cfg.faults;
  if (fparams.horizon == 0) fparams.horizon = media_len;
  const auto faults = fault::FaultSchedule::randomized(
      fparams, sim::substream_seed(cfg.seed ^ kFaultSeedSalt, index));

  out.counters.viewers += 1;
  out.counters.faults_injected += faults.size();

  const auto crashes = faults.of_kind(fault::FaultKind::kIngestCrash);
  const auto degrades = faults.of_kind(fault::FaultKind::kLinkDegrade);
  const auto corruptions = faults.of_kind(fault::FaultKind::kChunkCorruption);
  const auto flushes = faults.of_kind(fault::FaultKind::kEdgeCacheFlush);
  out.counters.ingest_crashes += crashes.size();

  // Only the first crash matters to this viewer: after it they live on
  // HLS, where a (restarted) ingest only shows up as chunk availability.
  const bool crashed = !crashes.empty();
  const TimeUs crash_at =
      crashed ? crashes.front().at : std::numeric_limits<TimeUs>::max();
  const TimeUs crash_end =
      crashed ? crashes.front().at + crashes.front().duration : 0;

  client::AdaptivePlayback playback(kPreBuffer);

  // --- Phase 1: RTMP push until the ingest dies (or the end) ---------
  DurationUs delivered_media = 0;  // high-water mark of media handed over
  for (std::size_t i = 0; i < trace.frame_arrivals.size(); ++i) {
    const TimeUs at_ingest = trace.frame_arrivals[i];
    if (at_ingest == 0 && i > 0) continue;  // lost/unsent upstream
    if (at_ingest >= crash_at) break;       // frame hit a dead server
    const DurationUs jitter =
        static_cast<DurationUs>(5000.0 * std::abs(rng.normal(0.0, 1.0)));
    // A last-mile partition stalls TCP; delivery resumes at recovery.
    const TimeUs recv =
        past_windows(degrades, at_ingest + kRtmpLastMile + jitter);
    const DurationUs media_offset =
        static_cast<DurationUs>(i) * trace.frame_interval;
    playback.on_arrival(recv, media_offset, trace.frame_interval);
    if (media_offset + trace.frame_interval > delivered_media)
      delivered_media = media_offset + trace.frame_interval;
  }

  if (crashed) {
    // Chunk availability at the (cold) edge: sealed at the ingest --
    // stalled chunks seal when the ingest restarts -- then one W2F pull.
    const std::size_t n_chunks = trace.chunks.size();
    std::vector<TimeUs> avail(n_chunks);
    for (std::size_t j = 0; j < n_chunks; ++j) {
      TimeUs sealed = trace.chunks[j].completed_at_ingest;
      if (sealed >= crash_at && sealed < crash_end) sealed = crash_end;
      const auto w2f = static_cast<DurationUs>(
          static_cast<double>(kW2fOffset) *
          (1.0 + 0.35 * std::abs(rng.normal(0.0, 1.0))));
      avail[j] = sealed + w2f;
    }

    // Skip the backlog the viewer already watched over RTMP.
    std::size_t cursor = 0;
    while (cursor < n_chunks &&
           trace.chunks[cursor].media_start + trace.chunks[cursor].duration <=
               delivered_media)
      ++cursor;

    client::PollRetryState retry;

    // --- Phase 2: detect the dead connection, fail over to HLS -------
    // An attempt succeeds once the origin is reachable again AND a chunk
    // of new content has made it to the edge.
    bool migrated = false;
    TimeUs attempt = crash_at + cdn::kFailoverDetectTimeout;
    TimeUs now = attempt;
    while (!migrated) {
      const bool reachable = attempt >= crash_end && !in_window(degrades, attempt);
      if (reachable && cursor < n_chunks && avail[cursor] <= attempt) {
        migrated = true;
        out.counters.failovers += 1;
        out.failover_latency_s.add(
            time::to_seconds(attempt + kHlsDownload - crash_at));
        now = attempt;
        break;
      }
      const auto next = retry.on_failure(attempt + kPollTimeout, rng);
      if (!next) {
        out.counters.unrecoverable += 1;
        break;
      }
      attempt = *next;
    }

    // --- Phase 3: steady HLS polling with retry/backoff --------------
    if (migrated) {
      const TimeUs wall_horizon =
          (n_chunks ? avail[n_chunks - 1] : now) + 8 * cdn::kHlsPollInterval;
      TimeUs prev_success = now;
      TimeUs poll_t = now;  // the migration attempt doubles as poll 0
      bool first_poll = true;
      while (cursor < n_chunks) {
        if (!first_poll && in_window(degrades, poll_t)) {
          const auto next = retry.on_failure(poll_t + kPollTimeout, rng);
          if (!next) {
            out.counters.unrecoverable += 1;
            break;
          }
          poll_t = *next;
          continue;
        }
        retry.on_success();

        // An edge flush since the last successful poll forces this poll
        // through a full origin re-pull.
        DurationUs extra = 0;
        for (const auto& f : flushes)
          if (f.at > prev_success && f.at <= poll_t) {
            extra = kW2fOffset;
            break;
          }

        if (cursor < n_chunks && avail[cursor] <= poll_t) {
          TimeUs recv = poll_t + extra + kHlsDownload;
          if (in_window(corruptions, poll_t) &&
              rng.bernoulli(fault::kCorruptionProbability)) {
            // Integrity check fails: discard and re-fetch after a backoff
            // step (the re-fetch is assumed clean).
            out.counters.chunk_refetches += 1;
            recv = poll_t + fault::backoff_delay(1, rng) + extra +
                   kHlsDownload;
          }
          while (cursor < n_chunks && avail[cursor] <= poll_t) {
            const auto& c = trace.chunks[cursor];
            playback.on_arrival(recv, c.media_start, c.duration);
            const DurationUs end = c.media_start + c.duration;
            if (end > delivered_media) delivered_media = end;
            ++cursor;
          }
        }
        prev_success = poll_t;
        first_poll = false;
        poll_t += cdn::kHlsPollInterval;
        if (poll_t > wall_horizon) break;  // nothing more will ever arrive
      }
    }
  }

  out.stall_ratio.add(stall_score(playback, media_len));
  out.rebuffer_count.add(static_cast<double>(playback.rebuffer_events()));
}

// --- Regional-outage replays ------------------------------------------

// The blackout's dark edge sites, computed once per run from (catalog,
// center, radius) and sorted so membership tests are binary searches.
std::vector<DatacenterId> dark_edges(const geo::DatacenterCatalog& catalog,
                                     const RegionalOutageConfig& cfg) {
  fault::RegionalBlackoutSpec spec;
  spec.at = kOutageAt;
  spec.duration = kOutageDuration;
  spec.center = cfg.center;
  spec.radius_km = cfg.radius_km;
  std::vector<DatacenterId> dark =
      fault::FaultScenario::blackout_sites(catalog, spec);
  std::sort(dark.begin(), dark.end());
  return dark;
}

// One HLS viewer of the outage replays. draw_viewer fills the draws, the
// spill driver the decision fields, walk_viewer the results.
struct OutageViewer {
  std::vector<TimeUs> avail;  // per chunk: sealed at the ingest + W2F pull
  geo::GeoPoint loc{};
  DatacenterId home{};         // load-blind anycast attachment
  TimeUs poll0 = 0;            // poll phase
  TimeUs first_dark_poll = 0;  // first poll lost to the dark PoP
  TimeUs decision_t = 0;       // instant the re-anycast decision lands
  double stall = 0.0;
  double latency_s = 0.0;  // edge death -> first chunk via the new edge
  bool has_media = false;  // the trace has media, so the viewer exists
  bool dark_member = false;
  bool affected = false;  // a poll was lost to the dark PoP
  bool orphaned = false;  // no edge admitted the viewer
  bool has_latency = false;
};

// Draws one viewer from its trace's substream, in a fixed order:
// location, one jittered W2F pull per chunk, then the poll phase
// (unsynchronized with chunk seals, §5.2). Reuses v.avail's storage.
void draw_viewer(const BroadcastTrace& trace,
                 const geo::DatacenterCatalog& catalog,
                 const std::vector<DatacenterId>& dark,
                 const geo::UserGeoSampler& sampler, Rng& rng,
                 OutageViewer& v) {
  v.has_media = true;
  v.loc = sampler.sample(rng);
  v.home = catalog.nearest(v.loc, geo::CdnRole::kEdge).id;
  v.dark_member = std::binary_search(dark.begin(), dark.end(), v.home);
  const std::size_t n_chunks = trace.chunks.size();
  v.avail.resize(n_chunks);
  for (std::size_t j = 0; j < n_chunks; ++j) {
    const auto w2f = static_cast<DurationUs>(
        static_cast<double>(kW2fOffset) *
        (1.0 + 0.35 * std::abs(rng.normal(0.0, 1.0))));
    v.avail[j] = trace.chunks[j].completed_at_ingest + w2f;
  }
  v.poll0 = static_cast<TimeUs>(rng.uniform() *
                                static_cast<double>(cdn::kHlsPollInterval));
}

// The RNG-free poll walk of one drawn viewer. At the first poll lost to
// the dark PoP it asks `decide(poll_t)` when the re-anycast lands: a time
// resumes polling there through the new edge's cold cache, nullopt
// freezes playback and the missing tail scores as stall. Every refugee
// pays the same cold-cache pull wherever it lands. Fills v.stall and the
// failover latency.
template <typename Decide>
void walk_viewer(const BroadcastTrace& trace, OutageViewer& v,
                 Decide&& decide) {
  const std::size_t n_chunks = trace.chunks.size();
  client::AdaptivePlayback playback(kPreBuffer);
  const TimeUs outage_end = kOutageAt + kOutageDuration;
  const TimeUs wall_horizon = (n_chunks ? v.avail[n_chunks - 1] : 0) +
                              8 * cdn::kHlsPollInterval + kOutageDuration;

  TimeUs poll_t = v.poll0;
  std::size_t cursor = 0;
  bool migrated = false;
  bool awaiting_first = false;  // failover done, first chunk not yet seen
  DurationUs cold_penalty = 0;  // new edge's cache is empty
  v.has_latency = false;

  while (cursor < n_chunks && poll_t <= wall_horizon) {
    if (!migrated && v.dark_member && poll_t >= kOutageAt &&
        poll_t < outage_end) {
      const std::optional<TimeUs> resume = decide(poll_t);
      if (!resume) break;
      migrated = true;
      awaiting_first = true;
      cold_penalty = kW2fOffset;  // first fetch re-pulls the origin
      poll_t = *resume;
      continue;
    }

    if (v.avail[cursor] <= poll_t) {
      const TimeUs recv = poll_t + cold_penalty + kHlsDownload;
      cold_penalty = 0;
      if (awaiting_first) {
        // Edge death -> first chunk via the new edge: detection, the
        // re-anycast, the cold origin pull, and the re-anchored download
        // (the second pipeline flush) are all inside this number.
        v.latency_s = time::to_seconds(recv - kOutageAt);
        v.has_latency = true;
        awaiting_first = false;
      }
      while (cursor < n_chunks && v.avail[cursor] <= poll_t) {
        const auto& c = trace.chunks[cursor];
        playback.on_arrival(recv, c.media_start, c.duration);
        ++cursor;
      }
    }
    poll_t += cdn::kHlsPollInterval;
  }
  v.stall = stall_score(playback, total_media(trace));
}

// The capacity-spill driver behind capacity_spill_experiment and
// control_steering_experiment. A shared load ledger would make
// per-viewer parallelism racy, so it runs in four phases:
//   A (parallel) draw each viewer and walk it; an affected viewer stops
//     at its first dark poll, which fixes its reactive decision instant;
//   B (serial)   clamp each decision to `steer_at` when set, then admit
//     affected viewers in (decision time, trace, viewer) order;
//   C (parallel) re-walk each affected viewer with its admission outcome
//     (the walk draws no RNG, so the re-walk is pure);
//   D (serial)   emit samples in canonical (trace, viewer) order, handing
//     each affected viewer to `on_affected`.
// The result is byte-identical at every thread count.
template <typename OnAffected>
CapacitySpillStats run_capacity_spill(
    const std::vector<BroadcastTrace>& traces,
    const geo::DatacenterCatalog& catalog, const CapacitySpillConfig& config,
    std::optional<TimeUs> steer_at, OnAffected&& on_affected) {
  const RegionalOutageConfig& base = config.base;
  const std::vector<DatacenterId> dark = dark_edges(catalog, base);
  const std::uint32_t V = base.viewers_per_broadcast;
  std::vector<OutageViewer> viewers(traces.size() * V);

  // --- Phase A (parallel): draw, walk to the decision ------------------
  sim::parallel_for_shards(
      traces.size(), base.threads,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        geo::UserGeoSampler sampler;
        for (std::size_t i = begin; i < end; ++i) {
          if (total_media(traces[i]) <= 0) continue;  // no viewers
          Rng rng(sim::substream_seed(base.seed, i));
          for (std::uint32_t k = 0; k < V; ++k) {
            OutageViewer& v = viewers[i * V + k];
            draw_viewer(traces[i], catalog, dark, sampler, rng, v);
            walk_viewer(traces[i], v, [&](TimeUs dark_poll) {
              v.affected = true;
              v.first_dark_poll = dark_poll;
              v.decision_t = dark_poll + cdn::kFailoverDetectTimeout;
              return std::optional<TimeUs>();  // resumed in phase C
            });
          }
        }
      });

  // --- Phase B (serial): steering clamp, then admissions ---------------
  // A published anycast-map override lets an affected viewer's very next
  // poll land on a live edge instead of burning the full detect window.
  // The clamp keeps the client timeout as the worst case, so proactive
  // never loses to reactive.
  if (steer_at) {
    for (OutageViewer& v : viewers)
      if (v.affected)
        v.decision_t =
            std::clamp(*steer_at, v.first_dark_poll,
                       v.first_dark_poll + cdn::kFailoverDetectTimeout);
  }

  CapacitySpillStats out;
  out.dark_edges = dark.size();

  // Load-blind joins first: every viewer counts toward its home edge.
  std::unordered_map<std::uint64_t, std::uint64_t> load;
  for (const OutageViewer& v : viewers)
    if (v.has_media) load[v.home.value] += 1;
  std::unordered_map<std::uint64_t, std::uint64_t> peak = load;

  // Affected viewers re-anycast in the order their decisions land;
  // (trace, viewer) breaks wall-clock ties, so the pile-up sequence is
  // deterministic and independent of thread count.
  std::vector<std::size_t> order;
  for (std::size_t idx = 0; idx < viewers.size(); ++idx)
    if (viewers[idx].affected) order.push_back(idx);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return viewers[a].decision_t < viewers[b].decision_t;
                   });

  for (std::size_t idx : order) {
    OutageViewer& v = viewers[idx];
    out.counters.affected += 1;
    if (load[v.home.value] > 0) load[v.home.value] -= 1;  // left the dead PoP

    // Candidates: the spill_k nearest live edges, ranked (distance, id).
    bool skipped_full = false;
    double nearest_live_km = -1.0;
    const geo::Datacenter* chosen = nullptr;
    double chosen_km = 0.0;
    for (const geo::Datacenter* dc : catalog.k_nearest(
             v.loc, geo::CdnRole::kEdge, config.spill_k, dark)) {
      const double km = geo::haversine_km(v.loc, dc->location);
      if (nearest_live_km < 0.0) nearest_live_km = km;
      if (config.edge_capacity != 0 &&
          load[dc->id.value] >= config.edge_capacity) {
        skipped_full = true;  // overflow outward, ring by ring
        continue;
      }
      chosen = dc;
      chosen_km = km;
      break;
    }

    if (chosen == nullptr) {
      v.orphaned = true;
      out.counters.orphaned += 1;
      if (skipped_full) out.capacity_orphans += 1;
    } else {
      out.counters.failovers += 1;
      const std::uint64_t target = chosen->id.value;
      load[target] += 1;
      if (load[target] > peak[target]) peak[target] = load[target];
      if (skipped_full) {
        out.edge_spills += 1;
        out.spill_overshoot_km.add(chosen_km - nearest_live_km);
      }
    }
  }

  out.edge_peak_loads.assign(peak.begin(), peak.end());
  std::sort(out.edge_peak_loads.begin(), out.edge_peak_loads.end());

  // --- Phase C (parallel): re-walk the affected viewers ----------------
  sim::parallel_for_shards(
      traces.size(), base.threads,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          for (std::uint32_t k = 0; k < V; ++k) {
            OutageViewer& v = viewers[i * V + k];
            if (!v.affected) continue;
            walk_viewer(traces[i], v, [&](TimeUs) {
              return v.orphaned ? std::optional<TimeUs>()
                                : std::optional<TimeUs>(v.decision_t);
            });
          }
      });

  // --- Phase D (serial): emit in canonical (trace, viewer) order -------
  // The same order as regional_resilience_experiment's merged shards at
  // every thread count, so infinite capacity reproduces its samplers.
  for (const OutageViewer& v : viewers) {
    if (!v.has_media) continue;
    out.counters.viewers += 1;
    out.stall_ratio.add(v.stall);
    if (v.has_latency) out.failover_latency_s.add(v.latency_s);
    if (v.affected) on_affected(v);
  }
  return out;
}

}  // namespace

ResilienceStats resilience_experiment(
    const std::vector<BroadcastTrace>& traces,
    const ResilienceConfig& config) {
  const auto ranges = sim::shard_ranges(
      traces.size(), sim::resolve_threads(config.threads));
  std::vector<ResilienceStats> parts(ranges.size());
  sim::parallel_for_shards(
      traces.size(), config.threads,
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          simulate_viewer(traces[i], config, i, parts[shard]);
      });

  ResilienceStats out;
  for (const auto& p : parts) {
    out.stall_ratio.merge(p.stall_ratio);
    out.rebuffer_count.merge(p.rebuffer_count);
    out.failover_latency_s.merge(p.failover_latency_s);
    out.counters.merge(p.counters);
  }
  return out;
}

RegionalOutageStats regional_resilience_experiment(
    const std::vector<BroadcastTrace>& traces,
    const geo::DatacenterCatalog& catalog,
    const RegionalOutageConfig& config) {
  const std::vector<DatacenterId> dark = dark_edges(catalog, config);
  // With unbounded capacity a refugee is admitted by any live edge, so
  // the decision only asks whether one is left.
  const bool all_dark = dark.size() == catalog.edge_sites().size();

  const auto ranges = sim::shard_ranges(
      traces.size(), sim::resolve_threads(config.threads));
  std::vector<RegionalOutageStats> parts(ranges.size());
  sim::parallel_for_shards(
      traces.size(), config.threads,
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        RegionalOutageStats& out = parts[shard];
        geo::UserGeoSampler sampler;
        OutageViewer v;
        for (std::size_t i = begin; i < end; ++i) {
          if (total_media(traces[i]) <= 0) continue;  // no viewers
          // One substream per trace: every viewer of broadcast i draws
          // from it in a fixed order, so shard boundaries are invisible.
          Rng rng(sim::substream_seed(config.seed, i));
          for (std::uint32_t k = 0; k < config.viewers_per_broadcast; ++k) {
            draw_viewer(traces[i], catalog, dark, sampler, rng, v);
            walk_viewer(traces[i], v,
                        [&](TimeUs dark_poll) -> std::optional<TimeUs> {
                          out.counters.affected += 1;
                          if (all_dark) {
                            out.counters.orphaned += 1;
                            return std::nullopt;
                          }
                          out.counters.failovers += 1;
                          return dark_poll + cdn::kFailoverDetectTimeout;
                        });
            out.counters.viewers += 1;
            out.stall_ratio.add(v.stall);
            if (v.has_latency) out.failover_latency_s.add(v.latency_s);
          }
        }
      });

  RegionalOutageStats out;
  out.dark_edges = dark.size();
  for (const auto& p : parts) {
    out.stall_ratio.merge(p.stall_ratio);
    out.failover_latency_s.merge(p.failover_latency_s);
    out.counters.merge(p.counters);
  }
  return out;
}

CapacitySpillStats capacity_spill_experiment(
    const std::vector<BroadcastTrace>& traces,
    const geo::DatacenterCatalog& catalog, const CapacitySpillConfig& config) {
  return run_capacity_spill(traces, catalog, config, std::nullopt,
                            [](const OutageViewer&) {});
}

ControlSteeringStats control_steering_experiment(
    const std::vector<BroadcastTrace>& traces,
    const geo::DatacenterCatalog& catalog,
    const ControlSteeringConfig& config) {
  ControlSteeringStats out;

  // The steer instant is pure scrape arithmetic — no engine needs to
  // spin for it. The monitor's ticks land at k * kScrapeInterval; the
  // first tick STRICTLY after the outage is the first scrape that can
  // see the dark edges (a tick at the outage instant races the blackout;
  // we conservatively let the blackout win). kSteerLatency later the
  // override is routing-visible.
  std::optional<TimeUs> steer_at;
  if (config.control.enabled) {
    const TimeUs tick =
        (kOutageAt / control::kScrapeInterval + 1) * control::kScrapeInterval;
    out.steer_published_at = tick + control::kSteerLatency;
    out.proactive = true;
    steer_at = out.steer_published_at;
  }

  // Detection times per affected viewer, canonical order. The reactive
  // instant is rebuilt from the first dark poll, so one run yields both
  // distributions over the same viewers.
  out.spill = run_capacity_spill(
      traces, catalog, config.spill, steer_at, [&](const OutageViewer& v) {
        const TimeUs reactive_t =
            v.first_dark_poll + cdn::kFailoverDetectTimeout;
        out.reactive_detect_s.add(time::to_seconds(reactive_t - kOutageAt));
        out.proactive_detect_s.add(time::to_seconds(v.decision_t - kOutageAt));
        if (v.decision_t < reactive_t) ++out.steered_early;
      });
  return out;
}

}  // namespace livesim::analysis
