// Engine macro-benchmark: the tracked perf baseline for the event engine.
//
// Runs three workload mixes straight against sim::Simulator and reports
// events/sec, ns/event, and peak RSS, then writes the results to a JSON
// file (BENCH_engine.json by default) so CI can archive the numbers and
// a future engine change can be compared against a recorded baseline.
//
//   schedule_run   -- schedule N events at pseudo-random times, drain.
//                     The pure scheduling + dispatch hot path.
//   cancel_heavy   -- schedule N, cancel every other handle, drain.
//                     The O(1)-cancel + indexed-heap-splice path
//                     (retransmit-timer-style workloads).
//   periodic_heavy -- K PeriodicProcesses ticking through T of simulated
//                     time. The re-arm-in-place fast path.
//   flash_crowd    -- 100k HLS viewers polling one edge at 2.8 s via the
//                     bucketed PollWheel (one engine event per bucket
//                     tick fans out to the cohort), against the same
//                     crowd as 100k per-viewer PeriodicProcess timers.
//                     Reports ns/viewer-poll and the engine-events-per-
//                     poll-interval reduction the wheel buys.
//
// Each mix runs `reps` times. Wall-clock numbers come from the fastest
// rep (least scheduler noise); every rep also folds its observable firing
// order into an FNV-1a fingerprint, and all reps must agree -- the
// "fingerprint=... identical: yes" contract lines below are grepped by
// CI exactly like the resilience determinism contracts.
//
// Usage: bench_engine_baseline [out.json] [n_events] [reps]
//        defaults: BENCH_engine.json 1000000 3
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "livesim/sim/poll_wheel.h"
#include "livesim/sim/simulator.h"
#include "livesim/util/fingerprint.h"
#include "livesim/util/rng.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace {
using namespace livesim;

long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) return ru.ru_maxrss;
#endif
  return 0;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct MixResult {
  const char* name = "";
  std::uint64_t events = 0;     // events actually dispatched per rep
  std::uint64_t best_ns = 0;    // fastest rep, wall clock
  std::uint64_t fingerprint = 0;
  bool deterministic = true;    // all reps fingerprinted identically
  double ns_per_event() const {
    return events > 0 ? static_cast<double>(best_ns) /
                            static_cast<double>(events)
                      : 0.0;
  }
  double events_per_sec() const {
    return best_ns > 0 ? static_cast<double>(events) * 1e9 /
                             static_cast<double>(best_ns)
                       : 0.0;
  }
};

// schedule_run: the BM_EventQueueScheduleRun shape, at macro scale.
std::uint64_t run_schedule_mix(std::size_t n, util::Fingerprint& fp,
                               std::uint64_t* dispatched) {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i)
    sim.schedule_at(static_cast<TimeUs>((i * 7919) % 262144),
                    [&sink] { ++sink; });
  sim.run();
  const std::uint64_t elapsed = now_ns() - t0;
  fp.mix(sink);
  fp.mix(static_cast<std::uint64_t>(sim.now()));
  fp.mix(sim.events_processed());
  *dispatched = sim.events_processed();
  return elapsed;
}

// cancel_heavy: arm n timers, defuse every other one, drain the rest.
std::uint64_t run_cancel_mix(std::size_t n, util::Fingerprint& fp,
                             std::uint64_t* dispatched) {
  sim::Simulator sim;
  std::vector<sim::EventHandle> handles(n);
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i)
    handles[i] = sim.schedule_at(static_cast<TimeUs>((i * 7919) % 262144),
                                 [&sink] { ++sink; });
  std::uint64_t cancelled = 0;
  for (std::size_t i = 0; i < n; i += 2)
    cancelled += sim.cancel(handles[i]) ? 1u : 0u;
  sim.run();
  const std::uint64_t elapsed = now_ns() - t0;
  fp.mix(sink);
  fp.mix(cancelled);
  fp.mix(static_cast<std::uint64_t>(sim.now()));
  fp.mix(sim.events_processed());
  // Every schedule and every cancel is engine work: count them all.
  *dispatched = sim.events_processed() + cancelled;
  return elapsed;
}

// periodic_heavy: k processes x enough ticks to total ~n firings.
std::uint64_t run_periodic_mix(std::size_t n, util::Fingerprint& fp,
                               std::uint64_t* dispatched) {
  sim::Simulator sim;
  constexpr std::size_t kProcs = 64;
  const auto horizon =
      static_cast<TimeUs>(n / kProcs) * 10;  // interval 10us each
  std::uint64_t sink = 0;
  std::vector<std::unique_ptr<sim::PeriodicProcess>> procs;
  procs.reserve(kProcs);
  const std::uint64_t t0 = now_ns();
  for (std::size_t p = 0; p < kProcs; ++p)
    procs.push_back(std::make_unique<sim::PeriodicProcess>(
        sim, static_cast<TimeUs>(p), 10,
        [&sink](sim::PeriodicProcess&) { ++sink; }));
  sim.run_until(horizon);
  for (auto& p : procs) p->stop();
  const std::uint64_t elapsed = now_ns() - t0;
  fp.mix(sink);
  fp.mix(static_cast<std::uint64_t>(sim.now()));
  fp.mix(sim.events_processed());
  *dispatched = sim.events_processed();
  return elapsed;
}

// flash_crowd: the §5.2 poll loop at Twitch scale. One hundred thousand
// viewers, one edge, 2.8 s interval. The wheel path pays one engine event
// per non-empty bucket per rotation; the per-viewer-timer baseline pays
// one per viewer. Fan-out work per viewer-poll is the same on both sides
// (ledger toggle + order fingerprint), and because the wheel visits a
// bucket in attach order -- exactly the firing order of same-phase
// timers -- the two observable orders must fingerprint identically.
struct FlashCrowdStats {
  std::uint64_t polls = 0;             // viewer-polls via the wheel
  std::uint64_t wheel_ns = 0;
  std::uint64_t timer_ns = 0;
  std::uint64_t wheel_events_per_interval = 0;
  std::uint64_t timer_events_per_interval = 0;
  bool order_parity = false;           // wheel order == timer order
};

constexpr std::size_t kCrowdViewers = 100000;
constexpr TimeUs kCrowdPeriod = 2800000;  // 2.8 s in us
constexpr std::uint32_t kCrowdBuckets = 64;

std::uint64_t run_flash_crowd_mix(std::size_t n, util::Fingerprint& fp,
                                  std::uint64_t* dispatched,
                                  FlashCrowdStats* stats) {
  const std::size_t intervals =
      std::max<std::size_t>(2, std::min<std::size_t>(20, n / kCrowdViewers));
  const TimeUs horizon = static_cast<TimeUs>(intervals) * kCrowdPeriod;

  // --- wheel lane ---
  std::uint64_t wheel_events = 0;
  std::uint64_t wheel_ns = 0;
  util::Fingerprint wheel_order;
  std::uint64_t wheel_polls = 0;
  {
    sim::Simulator sim;
    sim::PollWheel wheel(sim, kCrowdPeriod, kCrowdBuckets);
    std::vector<std::uint8_t> outstanding(kCrowdViewers, 0);
    wheel.set_fanout(
        [&](TimeUs tick, std::uint64_t tag, sim::CohortSlot) {
          wheel_order.mix(tag ^ static_cast<std::uint64_t>(tick));
          outstanding[tag] ^= 1;  // the per-viewer SoA ledger touch
          ++wheel_polls;
        });
    Rng rng(42);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kCrowdViewers; ++i) {
      const auto raw = static_cast<TimeUs>(
          rng.uniform() * static_cast<double>(kCrowdPeriod));
      wheel.attach(wheel.quantize(raw), i);
    }
    sim.run_until(horizon);
    wheel_ns = now_ns() - t0;
    wheel_events = sim.events_processed();
  }

  // --- per-viewer-timer baseline, identical phases & work ---
  std::uint64_t timer_events = 0;
  std::uint64_t timer_ns = 0;
  util::Fingerprint timer_order;
  std::uint64_t timer_polls = 0;
  {
    sim::Simulator sim;
    std::vector<std::uint8_t> outstanding(kCrowdViewers, 0);
    std::vector<std::unique_ptr<sim::PeriodicProcess>> procs;
    procs.reserve(kCrowdViewers);
    Rng rng(42);
    const std::uint64_t t0 = now_ns();
    constexpr TimeUs kWidth = kCrowdPeriod / kCrowdBuckets;
    for (std::size_t i = 0; i < kCrowdViewers; ++i) {
      const auto raw = static_cast<TimeUs>(
          rng.uniform() * static_cast<double>(kCrowdPeriod));
      TimeUs t = ((raw + kWidth - 1) / kWidth) * kWidth;  // same quantize
      if (t <= 0) t = kWidth;
      procs.push_back(std::make_unique<sim::PeriodicProcess>(
          sim, t, kCrowdPeriod,
          [&timer_order, &outstanding, &timer_polls, &sim,
           i](sim::PeriodicProcess&) {
            timer_order.mix(static_cast<std::uint64_t>(i) ^
                            static_cast<std::uint64_t>(sim.now()));
            outstanding[i] ^= 1;
            ++timer_polls;
          }));
    }
    sim.run_until(horizon);
    for (auto& p : procs) p->stop();
    timer_ns = now_ns() - t0;
    timer_events = sim.events_processed();
  }

  fp.mix(wheel_order.value());
  fp.mix(wheel_polls);
  fp.mix(wheel_events);
  fp.mix(timer_order.value());
  fp.mix(timer_events);
  *dispatched = wheel_polls;

  if (stats != nullptr) {
    stats->polls = wheel_polls;
    stats->wheel_ns = wheel_ns;
    stats->timer_ns = timer_ns;
    stats->wheel_events_per_interval = wheel_events / intervals;
    stats->timer_events_per_interval = timer_events / intervals;
    stats->order_parity = wheel_order.value() == timer_order.value() &&
                          wheel_polls == timer_polls;
  }
  return wheel_ns;
}

template <typename MixFn>
MixResult measure(const char* name, std::size_t n, int reps, MixFn mix) {
  MixResult r;
  r.name = name;
  r.best_ns = ~0ULL;
  std::uint64_t first_fp = 0;
  for (int rep = 0; rep < reps; ++rep) {
    util::Fingerprint fp;
    std::uint64_t dispatched = 0;
    const std::uint64_t ns = mix(n, fp, &dispatched);
    if (ns < r.best_ns) r.best_ns = ns;
    r.events = dispatched;
    if (rep == 0) {
      first_fp = fp.value();
    } else if (fp.value() != first_fp) {
      r.deterministic = false;
    }
  }
  r.fingerprint = first_fp;
  std::printf(
      "engine_baseline mix=%s events=%" PRIu64 " ns_per_event=%.1f"
      " events_per_sec=%.0f fingerprint=%016" PRIx64 " identical: %s\n",
      r.name, r.events, r.ns_per_event(), r.events_per_sec(), r.fingerprint,
      r.deterministic ? "yes" : "NO -- BUG");
  return r;
}

// flash_crowd needs its own driver: besides the standard per-mix line it
// prints the wheel-vs-timer contract lines CI pins (ns/viewer-poll, the
// engine-events-per-interval reduction, and fan-out order parity).
MixResult measure_flash_crowd(std::size_t n, int reps) {
  MixResult r;
  r.name = "flash_crowd";
  r.best_ns = ~0ULL;
  std::uint64_t first_fp = 0;
  FlashCrowdStats stats;
  std::uint64_t best_timer_ns = ~0ULL;
  for (int rep = 0; rep < reps; ++rep) {
    util::Fingerprint fp;
    std::uint64_t dispatched = 0;
    FlashCrowdStats s;
    const std::uint64_t ns = run_flash_crowd_mix(n, fp, &dispatched, &s);
    if (ns < r.best_ns) r.best_ns = ns;
    if (s.timer_ns < best_timer_ns) best_timer_ns = s.timer_ns;
    r.events = dispatched;
    stats = s;
    if (rep == 0) {
      first_fp = fp.value();
    } else if (fp.value() != first_fp) {
      r.deterministic = false;
    }
  }
  r.fingerprint = first_fp;
  std::printf(
      "engine_baseline mix=%s events=%" PRIu64 " ns_per_event=%.1f"
      " events_per_sec=%.0f fingerprint=%016" PRIx64 " identical: %s\n",
      r.name, r.events, r.ns_per_event(), r.events_per_sec(), r.fingerprint,
      r.deterministic ? "yes" : "NO -- BUG");

  const double wheel_ns_per_poll =
      stats.polls > 0
          ? static_cast<double>(r.best_ns) / static_cast<double>(stats.polls)
          : 0.0;
  const double timer_ns_per_poll =
      stats.polls > 0 ? static_cast<double>(best_timer_ns) /
                            static_cast<double>(stats.polls)
                      : 0.0;
  const double reduction =
      stats.wheel_events_per_interval > 0
          ? static_cast<double>(stats.timer_events_per_interval) /
                static_cast<double>(stats.wheel_events_per_interval)
          : 0.0;
  std::printf(
      "engine_baseline flash_crowd viewers=%zu ns_per_viewer_poll=%.1f"
      " (timers: %.1f)\n",
      kCrowdViewers, wheel_ns_per_poll, timer_ns_per_poll);
  std::printf(
      "engine_baseline flash_crowd events_per_interval wheel=%" PRIu64
      " timers=%" PRIu64 " reduction=%.1fx (>=5x: %s)\n",
      stats.wheel_events_per_interval, stats.timer_events_per_interval,
      reduction, reduction >= 5.0 ? "yes" : "NO -- BUG");
  std::printf("engine_baseline flash_crowd fanout order parity"
              " wheel==timers: %s\n",
              stats.order_parity ? "yes" : "NO -- BUG");
  if (reduction < 5.0 || !stats.order_parity) r.deterministic = false;
  return r;
}

void write_json(const char* path, const std::vector<MixResult>& mixes,
                std::size_t n, int reps) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"engine_baseline\",\n");
  std::fprintf(f, "  \"n_events\": %zu,\n  \"reps\": %d,\n", n, reps);
  std::fprintf(f, "  \"peak_rss_kb\": %ld,\n", peak_rss_kb());
  std::fprintf(f, "  \"mixes\": [\n");
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const MixResult& m = mixes[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %" PRIu64
                 ", \"ns_per_event\": %.1f, \"events_per_sec\": %.0f,"
                 " \"fingerprint\": \"%016" PRIx64
                 "\", \"deterministic\": %s}%s\n",
                 m.name, m.events, m.ns_per_event(), m.events_per_sec(),
                 m.fingerprint, m.deterministic ? "true" : "false",
                 i + 1 < mixes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : "BENCH_engine.json";
  const std::size_t n =
      argc > 2 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10))
               : 1000000;
  const int reps = argc > 3 ? std::atoi(argv[3]) : 3;
  if (n == 0 || reps <= 0) {
    std::fprintf(stderr,
                 "usage: bench_engine_baseline [out.json] [n_events] [reps]\n");
    return 1;
  }

  std::printf("== Engine perf baseline (n=%zu, reps=%d) ==\n", n, reps);
  std::vector<MixResult> mixes;
  mixes.push_back(measure("schedule_run", n, reps, run_schedule_mix));
  mixes.push_back(measure("cancel_heavy", n, reps, run_cancel_mix));
  mixes.push_back(measure("periodic_heavy", n, reps, run_periodic_mix));
  mixes.push_back(measure_flash_crowd(n, reps));
  std::printf("peak_rss_kb=%ld\n", peak_rss_kb());

  bool all_deterministic = true;
  for (const MixResult& m : mixes) all_deterministic &= m.deterministic;
  std::printf("engine_baseline all mixes deterministic: %s\n",
              all_deterministic ? "yes" : "NO -- BUG");

  write_json(out, mixes, n, reps);
  std::printf("wrote %s\n", out);
  return all_deterministic ? 0 : 1;
}
