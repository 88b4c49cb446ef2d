// Pins the engine's "allocation-free hot path" contract with a global
// operator-new hook: once the arena and heap are warm, scheduling and
// running events whose captures fit the EventFn inline budget must perform
// ZERO heap allocations, and PeriodicProcess steady-state ticking must
// re-arm in place without touching the allocator. It also pins that
// trace generation allocates per broadcast, not per frame, and that a
// warm session's pull transactions, RTMP pushes and frame uplink allocate
// nothing per viewer.
//
// This lives in its own test binary because replacing global operator new
// is a whole-program decision; the main livesim_tests binary stays stock.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "livesim/analysis/experiments.h"
#include "livesim/core/broadcast_session.h"
#include "livesim/geo/datacenters.h"
#include "livesim/net/link.h"
#include "livesim/sim/simulator.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace livesim::sim {
namespace {

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(EngineAllocations, WarmSchedulingOfSmallCapturesIsAllocationFree) {
  Simulator sim;
  std::uint64_t sink = 0;
  // Warm-up: grow the slot arena, the heap vector, and the position array
  // past the sizes the measured phase will need.
  constexpr int kWarm = 4096;
  constexpr int kMeasured = 1024;
  for (int i = 0; i < kWarm; ++i)
    sim.schedule_at((i * 7) % 50, [&sink] { ++sink; });
  sim.run();

  // Measured phase: a capture well under the inline budget (one pointer
  // plus two 8-byte values = 24 bytes).
  const std::uint64_t before = allocation_count();
  std::uint64_t a = 1, b = 2;
  for (int i = 0; i < kMeasured; ++i)
    sim.schedule_at(sim.now() + (i * 13) % 50,
                    [&sink, a, b] { sink += a + b; });
  const std::uint64_t after_schedule = allocation_count();
  sim.run();
  const std::uint64_t after_run = allocation_count();

  EXPECT_EQ(after_schedule - before, 0u)
      << "scheduling a <=64-byte capture allocated";
  EXPECT_EQ(after_run - after_schedule, 0u) << "running events allocated";
  EXPECT_EQ(sink, static_cast<std::uint64_t>(kWarm) + 3u * kMeasured);
}

TEST(EngineAllocations, CancelIsAllocationFree) {
  Simulator sim;
  constexpr int kWarm = 4096;
  std::vector<EventHandle> handles;
  handles.reserve(kWarm);
  std::uint64_t sink = 0;
  for (int i = 0; i < kWarm; ++i)
    sim.schedule_at((i * 7) % 50, [&sink] { ++sink; });
  sim.run();

  for (int i = 0; i < kWarm; ++i)
    handles.push_back(
        sim.schedule_at(sim.now() + (i * 7) % 50, [&sink] { ++sink; }));
  const std::uint64_t before = allocation_count();
  for (const EventHandle& h : handles) EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(allocation_count() - before, 0u) << "cancel allocated";
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EngineAllocations, OversizedCaptureAllocatesExactlyOncePerSchedule) {
  Simulator sim;
  std::uint64_t sink = 0;
  sim.schedule_at(1, [&sink] { ++sink; });
  sim.run();  // warm the arena and heap

  std::array<char, 100> big{};  // over the 64-byte inline budget
  big[0] = 1;
  const std::uint64_t before = allocation_count();
  sim.schedule_at(sim.now() + 1,
                  [&sink, big] { sink += static_cast<unsigned char>(big[0]); });
  EXPECT_EQ(allocation_count() - before, 1u)
      << "an oversized capture should cost exactly one boxed cell";
  sim.run();
  EXPECT_EQ(sink, 2u);
}

TEST(EngineAllocations, PeriodicSteadyStateTickingIsAllocationFree) {
  Simulator sim;
  std::uint64_t ticks_seen = 0;
  PeriodicProcess proc(sim, 0, 10, [&](PeriodicProcess&) { ++ticks_seen; });
  sim.run_until(50);  // construction + first few ticks may allocate
  const std::uint64_t before = allocation_count();
  sim.run_until(10050);  // 1000 more re-arm-in-place ticks
  EXPECT_EQ(allocation_count() - before, 0u)
      << "steady-state periodic ticking allocated";
  proc.stop();
  EXPECT_EQ(ticks_seen, 1006u);
}

TEST(EngineAllocations, WarmEventsAcrossTheCalendarHorizonAreAllocationFree) {
  // Delays from zero to three calendar horizons (4096 windows of 1024 us)
  // ahead: events fill the current window's heap, the ring of future
  // windows and the far heap beyond it, far events migrate into the ring as
  // the window advances, and cancels hit all three.
  constexpr int kEvents = 4096;
  constexpr TimeUs kSpan = 3 * 4096 * 1024;
  const auto delay = [](int i) -> TimeUs {
    return (i & 3) == 0 ? i % 1024 : (static_cast<TimeUs>(i) * 104729) % kSpan;
  };
  Simulator sim;
  std::uint64_t sink = 0;
  std::vector<EventHandle> handles(2 * kEvents);
  const auto round = [&](int copies) {
    const TimeUs now = sim.now();
    for (int c = 0; c < copies; ++c)
      for (int i = 0; i < kEvents; ++i)
        handles[static_cast<std::size_t>(c * kEvents + i)] =
            sim.schedule_at(now + delay(i), [&sink] { ++sink; });
    for (int i = 0; i < copies * kEvents; i += 5)
      EXPECT_TRUE(sim.cancel(handles[static_cast<std::size_t>(i)]));
    sim.run();
  };
  // Warm-up: two copies of the measured round, so every region's storage
  // grows past what one copy needs.
  round(2);
  const std::uint64_t before = allocation_count();
  round(1);
  EXPECT_EQ(allocation_count() - before, 0u)
      << "a warm engine allocated for events spanning the horizon";
  EXPECT_EQ(sim.pending(), 0u);
  // Every fifth event of a round is cancelled.
  const auto survivors = [](int n) { return n - (n + 4) / 5; };
  EXPECT_EQ(sink, static_cast<std::uint64_t>(survivors(2 * kEvents) +
                                             survivors(kEvents)));
}

TEST(EngineAllocations, WarmUplinkSendsOfSmallCapturesAreAllocationFree) {
  Simulator sim;
  net::FifoUplink uplink(sim, net::LastMileProfiles::stable_uplink(), Rng(1));
  std::uint64_t sink = 0;
  constexpr int kWarm = 4096;
  constexpr int kMeasured = 1024;
  for (int i = 0; i < kWarm; ++i)
    uplink.send(1000, [&sink](TimeUs) { ++sink; });
  sim.run();

  // A 40-byte capture, the size of the session's frame-uplink closure:
  // send's [arrival, callback] wrapper must still fit the EventFn buffer.
  const std::uint64_t before = allocation_count();
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < kMeasured; ++i)
    uplink.send(1000, [&sink, a, b, c, d](TimeUs) { sink += a + b + c + d; });
  sim.run();
  EXPECT_EQ(allocation_count() - before, 0u) << "a warm uplink send allocated";
  EXPECT_EQ(sink, static_cast<std::uint64_t>(kWarm) + 10u * kMeasured);
}

// Allocations over [30 s, 50 s) of a 60 s broadcast whose viewers all sit
// next to the broadcaster, so one edge serves every pull viewer.
std::uint64_t warm_session_allocations(std::uint32_t rtmp, std::uint32_t llhls,
                                       std::uint32_t hls) {
  Simulator sim;
  // Grow the engine's slot arena and heap past the session's pending
  // peak first, so the count is the session's own.
  for (int i = 0; i < 4096; ++i) sim.schedule_at(0, [] {});
  sim.run();
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  core::SessionConfig cfg;
  cfg.broadcast_len = 60 * time::kSecond;
  cfg.rtmp_viewers = rtmp;
  cfg.llhls_viewers = llhls;
  cfg.hls_viewers = hls;
  cfg.global_viewers = false;
  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run_until(30 * time::kSecond);
  const std::uint64_t before = allocation_count();
  sim.run_until(50 * time::kSecond);
  return allocation_count() - before;
}

// Ten times the viewers must allocate no more: what a warm session still
// allocates is per chunk or per part, never per viewer.
void expect_no_per_viewer_allocations(std::uint32_t rtmp, std::uint32_t llhls,
                                      std::uint32_t hls) {
  const std::uint64_t few = warm_session_allocations(rtmp, llhls, hls);
  const std::uint64_t many =
      warm_session_allocations(10 * rtmp, 10 * llhls, 10 * hls);
  EXPECT_LE(many, few) << "10x the viewers allocated " << many << " times, "
                       << "1x allocated " << few;
  std::printf("[ allocs   ] %llu with 1x the viewers, %llu with 10x\n",
              static_cast<unsigned long long>(few),
              static_cast<unsigned long long>(many));
}

TEST(SessionAllocations, WarmHlsPollsAllocateNothingPerViewer) {
  expect_no_per_viewer_allocations(0, 0, 10);
}

TEST(SessionAllocations, WarmLlHlsReloadsAllocateNothingPerViewer) {
  expect_no_per_viewer_allocations(0, 10, 0);
}

TEST(SessionAllocations, WarmRtmpPushesAllocateNothingPerViewer) {
  expect_no_per_viewer_allocations(10, 0, 0);
}

TEST(SessionAllocations, WarmThreeTierSessionAllocatesNothingPerViewer) {
  expect_no_per_viewer_allocations(10, 10, 10);
}

TEST(TraceAllocations, GenerateTracesAllocatesPerBroadcastNotPerFrame) {
  analysis::TraceSetConfig cfg;
  cfg.broadcasts = 8;
  cfg.broadcast_len = 2 * time::kMinute;  // 3,000 frames each
  cfg.threads = 1;
  const std::uint64_t before = allocation_count();
  const auto traces = analysis::generate_traces(cfg);
  const std::uint64_t allocations = allocation_count() - before;
  ASSERT_EQ(traces.size(), 8u);
  ASSERT_EQ(traces[0].frame_arrivals.size(), 3000u);
  EXPECT_LT(allocations, 32u * 8u)
      << "trace generation allocated " << allocations << " times for "
      << 8 * 3000 << " frames";
}

}  // namespace
}  // namespace livesim::sim
