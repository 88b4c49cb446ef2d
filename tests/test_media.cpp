#include <gtest/gtest.h>

#include "livesim/media/chunker.h"
#include "livesim/media/encoder.h"

namespace livesim::media {
namespace {

TEST(FrameSource, SequentialTimestamps) {
  FrameSource src(Rng(1));
  VideoFrame prev = src.next();
  for (int i = 1; i < 100; ++i) {
    const VideoFrame f = src.next();
    EXPECT_EQ(f.seq, prev.seq + 1);
    EXPECT_EQ(f.capture_ts - prev.capture_ts, f.duration);
    prev = f;
  }
}

TEST(FrameSource, KeyframeCadence) {
  FrameSource src(Rng(2));
  for (int i = 0; i < 100; ++i) {
    const VideoFrame f = src.next();
    EXPECT_EQ(f.keyframe, f.seq % 25 == 0) << "seq " << f.seq;
  }
}

TEST(FrameSource, KeyframesAreLarger) {
  FrameSource src(Rng(3));
  double key_sum = 0, other_sum = 0;
  int keys = 0, others = 0;
  for (int i = 0; i < 2000; ++i) {
    const VideoFrame f = src.next();
    if (f.keyframe) {
      key_sum += f.size_bytes;
      ++keys;
    } else {
      other_sum += f.size_bytes;
      ++others;
    }
  }
  EXPECT_GT(key_sum / keys, 4.0 * other_sum / others);
}

TEST(FrameSource, GopAverageNearMeanFrameBytes) {
  FrameSource src(Rng(4));
  double total = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) total += src.next().size_bytes;
  const double mean = total / n;
  EXPECT_NEAR(mean, kMeanFrameBytes, kMeanFrameBytes * 0.25);
}

TEST(FrameSource, StartOffsetShiftsCaptureTimes) {
  FrameSource src(Rng(5));
  const VideoFrame f = src.next(1000000);
  EXPECT_EQ(f.capture_ts, 1000000);
}

std::vector<VideoFrame> make_frames(int n) {
  FrameSource src(Rng(6));
  std::vector<VideoFrame> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(src.next());
  return out;
}

TEST(Chunker, SealsThreeSecondChunksOnKeyframes) {
  Chunker chunker(kChunkTarget);
  const auto frames = make_frames(75 * 4 + 1);  // 4 chunks + sealer frame
  std::vector<Chunk> sealed;
  for (const auto& f : frames) {
    if (auto c = chunker.push(f, f.capture_ts + 100000)) sealed.push_back(*c);
  }
  ASSERT_EQ(sealed.size(), 4u);
  for (const auto& c : sealed) {
    EXPECT_EQ(c.duration, 3 * time::kSecond);
    EXPECT_EQ(c.frame_count, 75u);
    EXPECT_EQ(c.first_frame_seq % 25, 0u);  // starts on a keyframe
  }
  EXPECT_EQ(sealed[1].seq, sealed[0].seq + 1);
  EXPECT_EQ(sealed[1].first_frame_seq, sealed[0].first_frame_seq + 75);
}

TEST(Chunker, BytesConserved) {
  Chunker chunker(kChunkTarget);
  const auto frames = make_frames(75 * 3);
  std::uint64_t fed = 0, chunked = 0;
  for (const auto& f : frames) {
    fed += f.size_bytes;
    if (auto c = chunker.push(f, f.capture_ts)) chunked += c->size_bytes;
  }
  if (auto c = chunker.flush(frames.back().capture_ts)) chunked += c->size_bytes;
  EXPECT_EQ(fed, chunked);
}

TEST(Chunker, FlushSealsPartialChunk) {
  Chunker chunker(kChunkTarget);
  const auto frames = make_frames(10);
  for (const auto& f : frames) chunker.push(f, f.capture_ts);
  const auto c = chunker.flush(999);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->frame_count, 10u);
  EXPECT_EQ(c->completed_ts, 999);
  EXPECT_FALSE(chunker.flush(1000).has_value());  // nothing left
}

TEST(Chunker, MaxDurationForcesSealWithoutKeyframe) {
  Chunker chunker(3 * time::kSecond);
  // Only the first frame is a keyframe: none arrives in time, and the
  // cap of twice the target governs.
  auto frames = make_frames(200);
  for (auto& f : frames) f.keyframe = f.seq == 0;
  std::vector<Chunk> sealed;
  for (const auto& f : frames) {
    if (auto c = chunker.push(f, f.capture_ts)) sealed.push_back(*c);
  }
  ASSERT_GE(sealed.size(), 1u);
  EXPECT_EQ(sealed[0].duration, 6 * time::kSecond);
}

TEST(Chunker, PlaylistSlidingWindow) {
  Chunker chunker(kChunkTarget);
  const auto frames = make_frames(75 * 6 + 1);
  for (const auto& f : frames) chunker.push(f, f.capture_ts);
  const ChunkList& list = chunker.playlist();
  EXPECT_EQ(list.chunks.size(), 4u);
  EXPECT_EQ(list.latest_seq(), 5);  // 6 chunks sealed, window keeps 2..5
  EXPECT_EQ(list.chunks.front().seq, 2u);
  EXPECT_EQ(list.version, 6u);
}

TEST(Chunker, EmptyPlaylistLatestSeq) {
  Chunker chunker(kChunkTarget);
  EXPECT_EQ(chunker.playlist().latest_seq(), -1);
}

class ChunkDurationSweep
    : public ::testing::TestWithParam<std::int64_t> {};  // target seconds

TEST_P(ChunkDurationSweep, ChunkDurationTracksTarget) {
  const std::int64_t target_s = GetParam();
  Chunker chunker(target_s * time::kSecond);
  const auto frames = make_frames(2000);
  std::vector<Chunk> sealed;
  for (const auto& f : frames) {
    if (auto c = chunker.push(f, f.capture_ts)) sealed.push_back(*c);
  }
  ASSERT_GE(sealed.size(), 2u);
  for (const auto& c : sealed) {
    // Sealed on the first keyframe (1 s cadence) at/after the target.
    EXPECT_GE(c.duration, target_s * time::kSecond);
    EXPECT_LE(c.duration, (target_s + 1) * time::kSecond);
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, ChunkDurationSweep,
                         ::testing::Values(1, 2, 3, 5, 10));

}  // namespace
}  // namespace livesim::media
