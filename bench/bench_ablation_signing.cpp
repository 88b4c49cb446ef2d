// Ablation: signature defense overhead vs signing window (§7.2).
//
// The paper's proposed countermeasure signs a hash of each frame, and
// notes "we can further reduce overhead by signing only selective frames
// or signing hashes across multiple frames." This sweep measures the real
// CPU and byte cost of that dial on actual wire-size frames, against
// full RTMPS encryption (Facebook Live's approach) as the upper bound.
#include <chrono>
#include <cstdio>

#include "livesim/media/encoder.h"
#include "livesim/protocol/rtmp.h"
#include "livesim/protocol/rtmps.h"
#include "livesim/security/stream_sign.h"
#include "livesim/stats/report.h"

namespace {
using namespace livesim;

constexpr double kFrameS = time::to_seconds(media::kFrameInterval);

std::vector<media::VideoFrame> capture(int n) {
  media::FrameSource src(Rng(1));
  Rng payload(2);
  std::vector<media::VideoFrame> frames;
  for (int i = 0; i < n; ++i) {
    auto f = src.next();
    f.payload.resize(f.size_bytes);
    for (auto& b : f.payload) b = static_cast<std::uint8_t>(payload.next_u64());
    frames.push_back(std::move(f));
  }
  return frames;
}
}  // namespace

int main() {
  using namespace livesim;
  const int kFrames = 2000;  // 80 s of video
  auto frames = capture(kFrames);
  std::size_t video_bytes = 0;
  for (const auto& f : frames) video_bytes += f.payload.size();

  stats::print_banner(
      "Ablation: broadcaster-side integrity cost per signing window");
  stats::Table table({"Scheme", "Setup(ms)", "CPU us/frame",
                      "Overhead bytes/s", "Overhead %", "Detects tamper?",
                      "Detection lag"});

  // Baseline: no protection (deployed Periscope).
  table.add_row({"RTMP (deployed)", "0", "0.0", "0", "0.0%", "NO", "-"});

  for (std::uint32_t window : {1u, 5u, 25u, 125u}) {
    auto work = capture(kFrames);
    const auto seed = security::Sha256::hash(std::string("s"));
    // Key-pool derivation happens once at broadcast setup (and can be
    // pipelined); keep it out of the per-frame cost.
    std::size_t keys = 1;
    while (keys * window < static_cast<std::size_t>(kFrames)) keys *= 2;
    const auto ts = std::chrono::steady_clock::now();
    security::StreamSigner signer(seed, keys, window);
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t sig_bytes = 0;
    for (auto& f : work) {
      signer.process(f);
      sig_bytes += f.signature.size();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double setup_ms =
        std::chrono::duration<double, std::milli>(t0 - ts).count();
    const double us_per_frame =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kFrames;
    const double bytes_per_s =
        static_cast<double>(sig_bytes) / (kFrames * kFrameS);
    table.add_row(
        {"sign every " + std::to_string(window) + " frames",
         stats::Table::num(setup_ms, 0),
         stats::Table::num(us_per_frame, 1),
         stats::Table::integer(static_cast<std::int64_t>(bytes_per_s)),
         stats::Table::percent(
             static_cast<double>(sig_bytes) / static_cast<double>(video_bytes),
             1),
         "yes", stats::Table::num(window * kFrameS, 2) + "s"});
  }

  {
    const auto t0 = std::chrono::steady_clock::now();
    protocol::SecureChannel::Key key{};
    protocol::SecureChannel sender(key);
    std::size_t wire_bytes = 0;
    for (const auto& f : frames)
      wire_bytes += sender.seal(protocol::frame_to_wire(f)).size();
    const auto t1 = std::chrono::steady_clock::now();
    const double us_per_frame =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kFrames;
    table.add_row(
        {"RTMPS (encrypt-then-MAC)", "0", stats::Table::num(us_per_frame, 1),
         stats::Table::integer(static_cast<std::int64_t>(
             static_cast<double>(wire_bytes - video_bytes) /
             (kFrames * kFrameS))),
         stats::Table::percent(static_cast<double>(wire_bytes - video_bytes) /
                                   static_cast<double>(video_bytes),
                               1),
         "yes (+privacy)", "1 frame"});
  }
  table.print();
  std::printf("\nThe paper's sweet spot: signing a hash across ~1 s of "
              "frames costs a small fraction of full-stream encryption "
              "(and, unlike a shared-key MAC channel, stays publicly "
              "verifiable by every viewer), with ~1 s tamper detection.\n");
  return 0;
}
