// Micro-benchmarks (google-benchmark) for the hot paths: the event queue,
// SHA-256, WOTS signing, the RTMP codec, and Zipf sampling. These bound
// how large a simulation the library can drive per wall-second.
#include <benchmark/benchmark.h>

#include <vector>

#include "livesim/media/encoder.h"
#include "livesim/protocol/rtmp.h"
#include "livesim/security/sha256.h"
#include "livesim/security/stream_sign.h"
#include "livesim/sim/simulator.h"
#include "livesim/util/rng.h"

namespace {
using namespace livesim;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i)
      sim.schedule_at(static_cast<TimeUs>((i * 7919) % 100000),
                      [&sink] { ++sink; });
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

// Cancel-heavy mix: schedule N, cancel every other one through its handle,
// then drain. Exercises the O(1) handle validation plus the indexed heap
// splice -- the path timer-wheel-style workloads (retransmit timers armed
// and almost always cancelled) live on.
void BM_EventQueueScheduleCancelRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<sim::EventHandle> handles(n);
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i)
      handles[i] = sim.schedule_at(static_cast<TimeUs>((i * 7919) % 100000),
                                   [&sink] { ++sink; });
    for (std::size_t i = 0; i < n; i += 2) sim.cancel(handles[i]);
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleCancelRun)->Arg(1000)->Arg(100000);

void BM_Sha256Throughput(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(bytes, 0xAB);
  for (auto _ : state) {
    auto digest = security::Sha256::hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(4096)->Arg(262144);

void BM_WotsSign(benchmark::State& state) {
  const auto seed = security::Sha256::hash(std::string("bench"));
  const auto kp = security::Wots::derive(seed, 0);
  const auto msg = security::Sha256::hash(std::string("frame"));
  for (auto _ : state) {
    auto sig = security::Wots::sign(kp, msg);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_WotsSign);

void BM_WotsVerify(benchmark::State& state) {
  const auto seed = security::Sha256::hash(std::string("bench"));
  const auto kp = security::Wots::derive(seed, 0);
  const auto msg = security::Sha256::hash(std::string("frame"));
  const auto sig = security::Wots::sign(kp, msg);
  for (auto _ : state) {
    auto pk = security::Wots::recover_public_key(sig, msg);
    benchmark::DoNotOptimize(pk);
  }
}
BENCHMARK(BM_WotsVerify);

void BM_RtmpCodecRoundTrip(benchmark::State& state) {
  media::FrameSource src(Rng(1));
  auto frame = src.next();
  frame.payload.assign(frame.size_bytes, 0x5C);
  for (auto _ : state) {
    const auto wire = protocol::frame_to_wire(frame);
    auto back = protocol::wire_to_frame(wire);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_RtmpCodecRoundTrip);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(state.range(0), 1.05);
  Rng rng(3);
  for (auto _ : state) {
    auto r = zipf.sample(rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1000000);

void BM_StreamSignerPerFrame(benchmark::State& state) {
  const auto seed = security::Sha256::hash(std::string("bench"));
  media::FrameSource src(Rng(1));
  std::vector<media::VideoFrame> frames;
  for (int i = 0; i < 250; ++i) {
    auto f = src.next();
    f.payload.assign(f.size_bytes, 0x11);
    frames.push_back(std::move(f));
  }
  for (auto _ : state) {
    state.PauseTiming();
    security::StreamSigner signer(seed, 16, 25);
    auto work = frames;
    state.ResumeTiming();
    for (auto& f : work) signer.process(f);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 250);
}
BENCHMARK(BM_StreamSignerPerFrame);

}  // namespace

BENCHMARK_MAIN();
