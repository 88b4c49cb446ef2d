#include "livesim/analysis/flash_crowd.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <vector>

#include "livesim/core/service.h"
#include "livesim/fault/scenario.h"
#include "livesim/sim/parallel.h"
#include "livesim/sim/simulator.h"
#include "livesim/util/fingerprint.h"
#include "livesim/util/rng.h"

namespace livesim::analysis {

namespace {

/// Fixed per-unit cost on top of the per-record work: every unit is a
/// full service + session + frame-pipeline replica of its channel, and
/// that replica runs the broadcast's event schedule even for an empty
/// slice. Calibrated coarsely (a replica costs about as much as a few
/// hundred crowd records); only the LPT balance depends on it, never
/// any simulated result.
constexpr std::size_t kUnitReplicaCost = 256;

/// One unit's aggregate outcome: everything the merge folds, in
/// (channel, sub-shard) order.
struct ChannelOutcome {
  core::LivestreamService::CrowdDriveStats drive;
  std::uint64_t steered_joins = 0;
  std::uint64_t edge_failovers = 0;
  stats::Accumulator edge_failover_latency_s;
  std::uint64_t proactive_migrations = 0;
  std::uint64_t orphaned_viewers = 0;
  std::uint64_t edge_spills = 0;
  stats::Accumulator spill_distance_km;
  std::uint64_t overlay_assists = 0;
  std::uint64_t control_drains = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> peak_loads;
  std::uint64_t events_processed = 0;
};

/// ChannelOutcome plus the per-record crowd core the sub-shard merge
/// rebuilds samplers and the partition-invariant fingerprint from.
struct UnitOutcome {
  ChannelOutcome agg;
  /// Per slice record: admitted (1) or late (0), in record order.
  std::vector<std::uint8_t> admitted;
  /// Per slice record: its re-attachment sample count...
  std::vector<std::uint32_t> reattach_count;
  /// ...and the samples themselves, concatenated in record order.
  std::vector<double> reattach_flat;
};

TimeUs resolve_blackout_at(const FlashCrowdConfig& config) {
  if (config.blackout_at != 0) return config.blackout_at;
  const auto& p = config.preset;
  const TimeUs spike_start = static_cast<TimeUs>(
      std::clamp(p.spike_at_frac, 0.0, 1.0) * static_cast<double>(p.horizon));
  const TimeUs spike_len =
      std::min(p.horizon - spike_start, time::from_seconds(p.spike_ramp_s));
  return spike_start + spike_len / 2;  // the middle of the ramp
}

UnitOutcome run_unit(const geo::DatacenterCatalog& catalog,
                     const FlashCrowdConfig& config,
                     const CrowdShardUnit& unit,
                     std::span<const workload::CrowdRecord> slice,
                     const fault::FaultScenario& scenario,
                     TimeUs blackout_at) {
  sim::Simulator sim;

  // The unit replicates its CHANNEL's environment exactly: same service
  // seed, same broadcaster draw, same crowd-drive seed for every
  // sub-shard of the channel. Only the record slice (and its global
  // index offset) differs, so every record draws the location and
  // viewer streams it would draw in the full run.
  core::LivestreamService::Config scfg;
  scfg.rtmp_slot_cap = config.rtmp_slot_cap;
  scfg.session_defaults = config.session;
  scfg.seed = sim::substream_seed(config.service_seed, unit.channel);

  core::LivestreamService service(sim, catalog, scfg);

  // Broadcaster location: its own substream (offset so it never aliases
  // the service seed above).
  Rng rng(sim::substream_seed(config.service_seed ^ 0x9e3779b97f4a7c15ULL,
                              unit.channel));
  geo::UserGeoSampler sampler;
  const auto broadcast =
      service.start_broadcast(sampler.sample(rng), config.preset.horizon);

  core::LivestreamService::CrowdDriveConfig dcfg;
  dcfg.batch_window = config.batch_window;
  dcfg.seed = sim::substream_seed(config.crowd_seed ^ 0xbf58476d1ce4e5b9ULL,
                                  unit.channel);
  dcfg.record_index_offset = unit.begin;
  const BroadcastId channels[] = {broadcast};
  const std::size_t drive = service.drive_crowd(channels, slice, dcfg);

  if (!scenario.empty()) {
    sim.schedule_at(blackout_at, [&service, &scenario, &config] {
      service.inject_scenario(scenario, config.scenario_seed);
    });
  }
  sim.run();

  UnitOutcome out;
  out.agg.drive = service.crowd_stats(drive);
  out.agg.steered_joins = service.steered_joins();
  const core::BroadcastSession* session = service.session(broadcast);
  out.agg.edge_failovers = session->edge_failovers();
  out.agg.edge_failover_latency_s = session->edge_failover_latency_s();
  out.agg.proactive_migrations = session->proactive_migrations();
  out.agg.orphaned_viewers = session->orphaned_viewers();
  out.agg.edge_spills = session->edge_spills();
  out.agg.spill_distance_km = session->spill_distance_km();
  out.agg.overlay_assists = session->overlay_assists();
  out.agg.control_drains = service.control_drains();
  out.agg.peak_loads = session->edge_peak_loads();
  out.agg.events_processed = sim.events_processed();

  // Per-record crowd core, in record order.
  const auto handles = service.crowd_handles(drive);
  out.admitted.resize(handles.size(), 0);
  out.reattach_count.resize(handles.size(), 0);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (!handles[i].valid()) continue;  // late join: no viewer existed
    out.admitted[i] = 1;
    const auto samples =
        session->viewer_reattach_samples(handles[i].viewer_index);
    out.reattach_count[i] = static_cast<std::uint32_t>(samples.size());
    out.reattach_flat.insert(out.reattach_flat.end(), samples.begin(),
                             samples.end());
  }
  return out;
}

}  // namespace

CrowdShardPlan crowd_shard_plan(std::span<const std::size_t> channel_sizes,
                                std::uint32_t sub_shards, unsigned workers) {
  CrowdShardPlan plan;
  const std::uint32_t v = std::max<std::uint32_t>(1, sub_shards);
  for (std::size_t c = 0; c < channel_sizes.size(); ++c) {
    auto ranges = sim::shard_ranges(channel_sizes[c], v);
    // An empty channel still gets one (empty) unit: its replica runs
    // the broadcast frame pipeline, exactly like the by-channel run.
    if (ranges.empty()) ranges.push_back({0, 0});
    for (std::size_t s = 0; s < ranges.size(); ++s)
      plan.units.push_back({static_cast<std::uint32_t>(c),
                            static_cast<std::uint32_t>(s), ranges[s].begin,
                            ranges[s].end,
                            ranges[s].size() + kUnitReplicaCost});
  }

  // LPT: heaviest unit first onto the least-loaded worker. Ties break
  // toward the lower unit index / lower worker id, so the plan is a
  // pure function of its inputs.
  const unsigned w = std::max(1u, workers);
  plan.worker_units.assign(w, {});
  std::vector<std::size_t> order(plan.units.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return plan.units[a].weight > plan.units[b].weight;
                   });
  std::vector<std::size_t> load(w, 0);
  for (std::size_t u : order) {
    const std::size_t target = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    plan.worker_units[target].push_back(u);
    load[target] += plan.units[u].weight;
    plan.total_weight += plan.units[u].weight;
  }
  plan.max_worker_weight = *std::max_element(load.begin(), load.end());
  return plan;
}

FlashCrowdStats flash_crowd_experiment(const geo::DatacenterCatalog& catalog,
                                       const FlashCrowdConfig& config) {
  const std::vector<workload::CrowdRecord> records =
      workload::generate_crowd(config.preset, config.crowd_seed,
                               config.threads);

  // Partition per channel, global record order preserved inside each
  // channel (generate_crowd's output is index-ordered at every thread
  // count, so this split never depends on scheduling). Each unit sees
  // its records re-ranked to channel 0: the unit's service hosts
  // exactly one broadcast.
  std::vector<std::vector<workload::CrowdRecord>> per_channel(
      std::max<std::uint32_t>(1, config.preset.channels));
  for (workload::CrowdRecord r : records) {
    const std::uint32_t c = std::min<std::uint32_t>(
        r.channel, static_cast<std::uint32_t>(per_channel.size() - 1));
    r.channel = 0;
    per_channel[c].push_back(r);
  }

  fault::FaultScenario scenario;
  TimeUs blackout_at = 0;
  if (config.blackout) {
    fault::RegionalBlackoutSpec spec;
    blackout_at = resolve_blackout_at(config);
    spec.at = 0;  // injected live AT blackout_at; times are relative
    spec.duration = config.blackout_duration;
    spec.center = kCrowdBlackoutCenter;
    spec.radius_km = kCrowdBlackoutRadiusKm;
    scenario.add(spec);
  }

  FlashCrowdStats stats;
  stats.viewers = records.size();
  stats.sub_shards = std::max<std::uint32_t>(1, config.sub_shards);

  // The weighted plan: (channel, sub-shard) units, LPT-packed onto the
  // resolved worker count. The unit LIST is the canonical merge order;
  // the worker assignment only decides who runs what.
  std::vector<std::size_t> channel_sizes(per_channel.size());
  for (std::size_t c = 0; c < per_channel.size(); ++c)
    channel_sizes[c] = per_channel[c].size();
  const unsigned workers = sim::resolve_threads(config.threads);
  const CrowdShardPlan plan =
      crowd_shard_plan(channel_sizes, stats.sub_shards, workers);
  stats.shard_units = plan.units.size();
  stats.planned_speedup = plan.planned_speedup();

  std::vector<UnitOutcome> outcomes(plan.units.size());
  std::vector<double> unit_wall_ns(plan.units.size(), 0.0);
  sim::parallel_for_plan(
      plan.worker_units, config.threads, [&](std::size_t u) {
        const CrowdShardUnit& unit = plan.units[u];
        const auto slice =
            std::span<const workload::CrowdRecord>(per_channel[unit.channel])
                .subspan(unit.begin, unit.end - unit.begin);
        const auto t0 = std::chrono::steady_clock::now();
        outcomes[u] =
            run_unit(catalog, config, unit, slice, scenario, blackout_at);
        unit_wall_ns[u] = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      });

  // Shard imbalance: max worker wall over mean worker wall (idle
  // workers count — a giant serialized unit shows up as ~workers).
  // Grouped by the PLAN's assignment, so the ratio is meaningful even
  // when fewer cores than workers actually ran.
  {
    std::vector<double> worker_wall(plan.worker_units.size(), 0.0);
    double total = 0.0;
    for (std::size_t w = 0; w < plan.worker_units.size(); ++w) {
      for (std::size_t u : plan.worker_units[w]) worker_wall[w] += unit_wall_ns[u];
      total += worker_wall[w];
    }
    const double mean = total / static_cast<double>(worker_wall.size());
    const double mx = *std::max_element(worker_wall.begin(), worker_wall.end());
    stats.shard_imbalance = mean > 0.0 ? mx / mean : 1.0;
  }

  // ---- Merge + fingerprints, in (channel, sub-shard) unit order. ----
  util::Fingerprint h;
  // The partition-invariant crowd core gets its own hash chain.
  util::Fingerprint ch;

  // Analytic admission latency: the drive's batch fires at quantize(join)
  // (BatchTimeline ceils to the window grid; drives are scheduled at
  // sim time 0), so the latency the service recorded for an admitted
  // record is bitwise to_seconds(quantize(join) - join). Rebuilding it
  // here gives the sub-shard merge a partition-invariant, record-order
  // sampler without shipping every double across the merge.
  const DurationUs window = config.batch_window < 1 ? 1 : config.batch_window;
  const auto admission_latency = [&](const workload::CrowdRecord& r) {
    const TimeUs q = ((r.join + window - 1) / window) * window;
    return time::to_seconds(q - r.join);
  };

  std::map<std::uint64_t, std::uint64_t> peaks;  // site -> summed peak
  for (std::size_t u = 0; u < outcomes.size(); ++u) {
    const CrowdShardUnit& unit = plan.units[u];
    const ChannelOutcome& o = outcomes[u].agg;
    stats.joins += o.drive.joins;
    stats.late_joins += o.drive.late_joins;
    stats.leaves += o.drive.leaves;
    stats.batches += o.drive.batches;
    stats.steered_joins += o.steered_joins;
    stats.edge_failovers += o.edge_failovers;
    stats.edge_failover_latency_s.merge(o.edge_failover_latency_s);
    stats.proactive_migrations += o.proactive_migrations;
    stats.orphaned_viewers += o.orphaned_viewers;
    stats.edge_spills += o.edge_spills;
    stats.spill_distance_km.merge(o.spill_distance_km);
    stats.overlay_assists += o.overlay_assists;
    stats.control_drains += o.control_drains;
    stats.events_processed += o.events_processed;
    for (const auto& [site, peak] : o.peak_loads) peaks[site] += peak;

    h.mix(o.drive.joins)
        .mix(o.drive.late_joins)
        .mix(o.drive.leaves)
        .mix(o.drive.batches)
        .mix(o.drive.admission_latency_s.count())
        .mix_double(o.drive.admission_latency_s.mean())
        .mix_double(o.drive.admission_latency_s.max())
        .mix(o.steered_joins)
        .mix(o.edge_failovers)
        .mix(o.edge_failover_latency_s.count())
        .mix_double(o.edge_failover_latency_s.mean())
        .mix(o.proactive_migrations)
        .mix(o.orphaned_viewers)
        .mix(o.edge_spills)
        .mix(o.overlay_assists)
        .mix(o.control_drains)
        .mix(o.events_processed);
    for (const auto& [site, peak] : o.peak_loads) h.mix(site).mix(peak);

    // Per-record crowd core, channel-major global record order (unit
    // order IS that order by construction). The merged admission and
    // re-attachment samplers are rebuilt in the same order, so they are
    // identical at every sub-shard count too.
    const auto& slice_records = per_channel[unit.channel];
    std::size_t flat = 0;
    for (std::size_t i = 0; i < outcomes[u].admitted.size(); ++i) {
      const bool admitted = outcomes[u].admitted[i] != 0;
      ch.mix(admitted ? 1 : 0);
      if (!admitted) continue;
      const double lat = admission_latency(slice_records[unit.begin + i]);
      ch.mix_double(lat);
      stats.admission_latency_s.add(lat);
      const std::uint32_t n = outcomes[u].reattach_count[i];
      ch.mix(n);
      for (std::uint32_t k = 0; k < n; ++k) {
        const double sample = outcomes[u].reattach_flat[flat++];
        ch.mix_double(sample);
        stats.reattach_latency_s.add(sample);
      }
    }
  }
  ch.mix(stats.joins)
      .mix(stats.late_joins)
      .mix(stats.leaves)
      .mix(stats.edge_failovers)
      .mix(stats.orphaned_viewers);

  for (const auto& [site, peak] : peaks)
    stats.peak_edge_load = std::max(stats.peak_edge_load, peak);
  stats.fingerprint = h.value();
  stats.crowd_fingerprint = ch.value();
  return stats;
}

}  // namespace livesim::analysis
