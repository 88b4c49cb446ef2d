// Property-style tests for the event-queue semantics the parallel runner
// leans on: every shard runs its own Simulator, so cross-thread-count
// determinism reduces to each Simulator being deterministic on its own —
// stable same-instant ordering, exact cancellation semantics, monotone
// clock, and run_until boundary behaviour. Each property is checked
// against a trivially-correct reference model over many random schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "livesim/sim/simulator.h"
#include "livesim/util/rng.h"

namespace livesim::sim {
namespace {

struct Scheduled {
  TimeUs t;
  int label;
  EventHandle id;
};

// Reference order: stable sort by time (insertion order breaks ties),
// which is exactly the documented queue contract.
std::vector<int> reference_order(const std::vector<Scheduled>& events) {
  std::vector<Scheduled> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     return a.t < b.t;
                   });
  std::vector<int> out;
  out.reserve(sorted.size());
  for (const auto& e : sorted) out.push_back(e.label);
  return out;
}

TEST(SimulatorProperty, SameInstantOrderingIsStable) {
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    Simulator sim;
    std::vector<Scheduled> events;
    std::vector<int> fired;
    const int n = static_cast<int>(rng.uniform_int(1, 120));
    for (int i = 0; i < n; ++i) {
      // Few distinct instants => heavy tie-breaking pressure.
      const TimeUs t = rng.uniform_int(0, 8) * 10;
      const EventHandle id = sim.schedule_at(t, [&fired, i] { fired.push_back(i); });
      events.push_back({t, i, id});
    }
    sim.run();
    EXPECT_EQ(fired, reference_order(events)) << "round " << round;
  }
}

TEST(SimulatorProperty, CancelledSubsetNeverFiresRestKeepsOrder) {
  Rng rng(11);
  for (int round = 0; round < 50; ++round) {
    Simulator sim;
    std::vector<Scheduled> events;
    std::vector<int> fired;
    const int n = static_cast<int>(rng.uniform_int(2, 100));
    for (int i = 0; i < n; ++i) {
      const TimeUs t = rng.uniform_int(0, 6) * 5;
      const EventHandle id = sim.schedule_at(t, [&fired, i] { fired.push_back(i); });
      events.push_back({t, i, id});
    }
    std::vector<Scheduled> kept;
    for (const auto& e : events) {
      if (rng.bernoulli(0.4)) {
        EXPECT_TRUE(sim.cancel(e.id));
        EXPECT_FALSE(sim.cancel(e.id));  // double-cancel always fails
      } else {
        kept.push_back(e);
      }
    }
    EXPECT_EQ(sim.pending(), kept.size());
    sim.run();
    EXPECT_EQ(fired, reference_order(kept)) << "round " << round;
  }
}

TEST(SimulatorProperty, CancelAfterFireReturnsFalse) {
  Rng rng(13);
  for (int round = 0; round < 20; ++round) {
    Simulator sim;
    std::vector<EventHandle> ids;
    const int n = static_cast<int>(rng.uniform_int(1, 60));
    for (int i = 0; i < n; ++i)
      ids.push_back(sim.schedule_at(rng.uniform_int(0, 100), [] {}));
    sim.run();
    // Every event has fired; cancelling any of them must report failure.
    for (const EventHandle id : ids) EXPECT_FALSE(sim.cancel(id));
    EXPECT_EQ(sim.events_processed(), static_cast<std::size_t>(n));
  }
}

TEST(SimulatorProperty, PastSchedulesClampToNowAndClockIsMonotone) {
  Rng rng(17);
  for (int round = 0; round < 30; ++round) {
    Simulator sim;
    std::vector<TimeUs> fire_times;
    const TimeUs anchor = 500;
    sim.schedule_at(anchor, [&] {
      // From inside an event at t=anchor, schedule with times all over
      // [0, 2*anchor]; the past half must clamp to exactly `anchor`.
      for (int i = 0; i < 40; ++i) {
        const TimeUs t = rng.uniform_int(0, 2 * anchor);
        sim.schedule_at(t, [&] { fire_times.push_back(sim.now()); });
      }
      sim.schedule_in(-100, [&] { fire_times.push_back(sim.now()); });
    });
    sim.run();
    ASSERT_EQ(fire_times.size(), 41u);
    TimeUs prev = anchor;
    for (const TimeUs t : fire_times) {
      EXPECT_GE(t, anchor);  // nothing ever fires before the scheduling event
      EXPECT_GE(t, prev);    // clock never goes backwards
      prev = t;
    }
    // At least the negative-delay event clamped to exactly `anchor`.
    EXPECT_EQ(fire_times.front(), anchor);
  }
}

TEST(SimulatorProperty, RunUntilPartitionsEventsAtBoundary) {
  Rng rng(19);
  for (int round = 0; round < 40; ++round) {
    Simulator sim;
    std::vector<TimeUs> fired;
    std::vector<TimeUs> times;
    const int n = static_cast<int>(rng.uniform_int(1, 80));
    for (int i = 0; i < n; ++i) {
      const TimeUs t = rng.uniform_int(0, 1000);
      times.push_back(t);
      sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
    }
    const TimeUs boundary = rng.uniform_int(0, 1000);
    sim.run_until(boundary);

    const auto expected_fired = static_cast<std::size_t>(
        std::count_if(times.begin(), times.end(),
                      [&](TimeUs t) { return t <= boundary; }));
    EXPECT_EQ(fired.size(), expected_fired);
    for (const TimeUs t : fired) EXPECT_LE(t, boundary);
    EXPECT_EQ(sim.pending(), times.size() - expected_fired);
    // Clock lands exactly on the boundary even with no event there.
    EXPECT_EQ(sim.now(), boundary);

    // run_until into the past is a no-op: no events, clock unchanged.
    sim.run_until(boundary / 2);
    EXPECT_EQ(sim.now(), boundary);
    EXPECT_EQ(fired.size(), expected_fired);

    sim.run();
    EXPECT_EQ(fired.size(), times.size());
  }
}

TEST(SimulatorProperty, RunUntilAfterCancelSkipsTombstones) {
  Rng rng(23);
  for (int round = 0; round < 30; ++round) {
    Simulator sim;
    int fired = 0;
    std::vector<EventHandle> ids;
    for (int i = 0; i < 50; ++i)
      ids.push_back(sim.schedule_at(rng.uniform_int(0, 100), [&] { ++fired; }));
    int cancelled = 0;
    for (const EventHandle id : ids) {
      if (rng.bernoulli(0.5) && sim.cancel(id)) ++cancelled;
    }
    sim.run_until(100);  // past every event: only survivors fire
    EXPECT_EQ(fired, 50 - cancelled);
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.now(), 100);
  }
}

// --- Calendar-queue differential ------------------------------------------
//
// The engine files an event by how far ahead of its current window it is:
// the window itself (1024 us, a heap), a ring of the next 4095 windows
// (~4.2 s), or a far heap beyond the ring. The properties above draw times
// within one window. This one draws them from zero delay to several
// horizons out, schedules from inside callbacks, re-arms PeriodicProcesses,
// cancels everywhere and stops run_until inside empty stretches, and checks
// every firing, now() and pending() against a reference std::set of
// (time, seq).

constexpr DurationUs kWindow = 1024;
constexpr DurationUs kHorizon = 4096 * kWindow;

class CalendarDifferential {
 public:
  explicit CalendarDifferential(std::uint64_t seed) : rng_(seed) {}

  void run(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      driver_op();
      ASSERT_EQ(sim_.now(), now_) << "round " << round;
      ASSERT_EQ(sim_.pending(), ref_.size()) << "round " << round;
      ASSERT_FALSE(::testing::Test::HasFailure()) << "round " << round;
    }
    for (Process& p : procs_) stop_process(p);
    sim_.run();
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(sim_.pending(), 0u);
    EXPECT_EQ(sim_.events_processed(), fired_);
  }

  // Cancels by distance ahead of now: within now's 1024 us window, inside
  // the ring's horizon, and more than a window past it.
  std::array<std::uint64_t, 3> cancels{};
  std::uint64_t fired() const { return fired_; }
  std::uint64_t rearms() const { return rearms_; }
  std::uint64_t empty_stretch_stops() const { return empty_stops_; }

 private:
  using Entry = std::tuple<TimeUs, std::uint64_t, int>;  // (time, seq, label)

  struct Process {
    int label = -1;
    std::unique_ptr<PeriodicProcess> proc;
  };

  DurationUs draw_delay() {
    switch (rng_.uniform_int(0, 6)) {
      case 0: return 0;
      case 1: return rng_.uniform_int(1, kWindow - 1);
      case 2: return rng_.uniform_int(kWindow, 200'000);
      case 3: return rng_.uniform_int(200'000, kHorizon - 2 * kWindow);
      case 4: return rng_.uniform_int(kHorizon - 4 * kWindow,
                                      kHorizon + 4 * kWindow);
      case 5: return rng_.uniform_int(kHorizon, 6 * kHorizon);
      default: return -rng_.uniform_int(1, 5000);  // in the past: clamps
    }
  }

  DurationUs draw_interval() {
    static constexpr DurationUs kIntervals[] = {700, 20'000, 900'000,
                                                kHorizon + 3000};
    return kIntervals[rng_.uniform_int(0, 3)];
  }

  // Mirrors one schedule: the engine consumes one seq per schedule_at and
  // per re-arm, in call order, and clamps past times to now.
  void add_ref(TimeUs t, int label) {
    const Entry e{std::max(t, sim_.now()), seq_++, label};
    ref_.insert(e);
    key_[label] = e;
  }

  void drop_ref(int label) {
    ref_.erase(key_.at(label));
    key_.erase(label);
  }

  void schedule_one() {
    const int label = next_label_++;
    const TimeUs t = sim_.now() + draw_delay();
    handles_[label] = sim_.schedule_at(t, [this, label] { on_fire(label); });
    add_ref(t, label);
  }

  // The engine fires `label` now: it must be the reference's head.
  void check_head(int label) {
    ASSERT_FALSE(ref_.empty());
    const auto [t, seq, head] = *ref_.begin();
    EXPECT_EQ(head, label) << "fired out of (time, seq) order";
    EXPECT_EQ(t, sim_.now());
    ref_.erase(ref_.begin());
    key_.erase(label);
    now_ = sim_.now();
    ++fired_;
  }

  void on_fire(int label) {
    check_head(label);
    stale_.push_back(handles_.at(label));
    handles_.erase(label);
    callback_ops();
  }

  void on_tick(Process& p, PeriodicProcess& self) {
    check_head(p.label);
    callback_ops();
    if (rng_.bernoulli(0.1)) {
      self.stop();  // from inside its own tick: no re-arm follows
      return;
    }
    if (rng_.bernoulli(0.2)) self.set_interval(draw_interval());
    // PeriodicProcess re-arms right after this returns, with the next seq.
    add_ref(sim_.now() + self.interval(), p.label);
    ++rearms_;
  }

  void callback_ops() {
    if (rng_.bernoulli(0.5)) schedule_one();
    if (rng_.bernoulli(0.2)) schedule_one();
    if (rng_.bernoulli(0.15)) cancel_one();
  }

  // Cancels the next one-shot to fire, the newest one, or a random one:
  // the first two are mostly near now, the last mostly far ahead.
  void cancel_one() {
    if (handles_.empty()) return;
    auto it = handles_.begin();
    switch (rng_.uniform_int(0, 2)) {
      case 0:
        it = handles_.find(std::get<2>(*ref_.begin()));
        if (it == handles_.end()) return;  // the head is a process
        break;
      case 1:
        it = std::prev(handles_.end());
        break;
      default: {
        const auto last = static_cast<std::int64_t>(handles_.size()) - 1;
        std::advance(it, rng_.uniform_int(0, last));
        break;
      }
    }
    const int label = it->first;
    const TimeUs t = std::get<0>(key_.at(label));
    const std::size_t region = t / kWindow == sim_.now() / kWindow ? 0
                               : t - sim_.now() > kHorizon + kWindow ? 2
                                                                     : 1;
    ++cancels[region];
    EXPECT_TRUE(sim_.cancel(it->second));
    EXPECT_FALSE(sim_.cancel(it->second));
    handles_.erase(it);
    drop_ref(label);
  }

  void start_process(Process& p) {
    p.label = next_label_++;
    const TimeUs start = sim_.now() + draw_delay();
    p.proc = std::make_unique<PeriodicProcess>(
        sim_, start, draw_interval(),
        [this, &p](PeriodicProcess& self) { on_tick(p, self); });
    add_ref(start, p.label);
  }

  void stop_process(Process& p) {
    if (!p.proc || !p.proc->running()) return;
    p.proc->stop();
    drop_ref(p.label);
  }

  void run_until(TimeUs t) {
    sim_.run_until(t);
    if (now_ < t) now_ = t;
    if (!ref_.empty()) {
      EXPECT_GT(std::get<0>(*ref_.begin()), t);
    }
  }

  void driver_op() {
    switch (rng_.uniform_int(0, 11)) {
      case 0:
      case 1:
        for (auto i = rng_.uniform_int(1, 3); i > 0; --i) schedule_one();
        break;
      case 2:
      case 3:
        sim_.step(static_cast<std::size_t>(rng_.uniform_int(1, 6)));
        break;
      case 4:
        run_until(sim_.now() + std::max<DurationUs>(0, draw_delay()));
        break;
      case 5:
      case 6:
        // Stop strictly between now and the next event: an empty stretch,
        // often across whole empty windows or the rest of the ring.
        if (!ref_.empty() && std::get<0>(*ref_.begin()) > now_ + 1) {
          const TimeUs next = std::get<0>(*ref_.begin());
          ++empty_stops_;
          run_until(rng_.bernoulli(0.5) ? next - 1 : now_ + (next - now_) / 2);
        }
        break;
      case 7:
        cancel_one();
        break;
      case 8:
        if (!stale_.empty()) {
          const auto pick = rng_.uniform_int(
              0, static_cast<std::int64_t>(stale_.size()) - 1);
          EXPECT_FALSE(sim_.cancel(stale_[static_cast<std::size_t>(pick)]));
        }
        break;
      case 9:
      case 10: {
        Process& p = procs_[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(procs_.size()) - 1))];
        if (p.proc && p.proc->running()) {
          stop_process(p);
        } else {
          start_process(p);
        }
        break;
      }
      default:
        // Drain everything within the horizon: only far events remain, so
        // a later pop jumps the window straight to the far heap.
        run_until(sim_.now() + kHorizon);
        break;
    }
  }

  Simulator sim_;
  Rng rng_;
  std::set<Entry> ref_;
  std::map<int, Entry> key_;            // label -> its reference entry
  std::map<int, EventHandle> handles_;  // pending one-shot events
  std::vector<EventHandle> stale_;      // fired one-shot events
  std::array<Process, 4> procs_{};
  std::uint64_t seq_ = 0;
  TimeUs now_ = 0;
  int next_label_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t rearms_ = 0;
  std::uint64_t empty_stops_ = 0;
};

TEST(SimulatorProperty, CalendarQueueMatchesReferenceAcrossAllRegions) {
  for (std::uint64_t seed : {5u, 29u, 131u}) {
    CalendarDifferential diff(seed);
    diff.run(4000);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
    EXPECT_GT(diff.fired(), 5000u) << "seed " << seed;
    EXPECT_GT(diff.rearms(), 1000u) << "seed " << seed;
    EXPECT_GT(diff.empty_stretch_stops(), 250u) << "seed " << seed;
    for (std::size_t region = 0; region < diff.cancels.size(); ++region)
      EXPECT_GT(diff.cancels[region], 100u)
          << "seed " << seed << ", region " << region;
  }
}

}  // namespace
}  // namespace livesim::sim
