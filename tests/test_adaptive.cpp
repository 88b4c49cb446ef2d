#include <gtest/gtest.h>

#include "livesim/client/adaptive.h"
#include "livesim/client/playback.h"

namespace livesim::client {
namespace {

constexpr DurationUs kChunk = 3 * time::kSecond;

// Chunks arrive every 3 s with a constant pipeline delay.
void feed_steady(AdaptivePlayback& p, int n, DurationUs pipeline) {
  for (int i = 0; i < n; ++i) {
    const DurationUs media = static_cast<DurationUs>(i) * kChunk;
    p.on_arrival(media + pipeline, media, kChunk);
  }
}

TEST(Adaptive, StableLinkKeepsLowBuffer) {
  AdaptivePlayback p(6 * time::kSecond);
  feed_steady(p, 40, 4 * time::kSecond);
  EXPECT_EQ(p.rebuffer_events(), 0u);
  EXPECT_EQ(p.stall_ratio(), 0.0);
  EXPECT_EQ(p.current_pre_buffer(), 6 * time::kSecond);
  // Delay stays near the low target, well under the deployed 9 s.
  EXPECT_LT(p.buffering_delay_s().mean(), 6.5);
}

TEST(Adaptive, UnderRunGrowsBufferTowardMax) {
  AdaptivePlayback p(3 * time::kSecond);
  // Repeated 5 s outages: each late burst triggers a rebuffer + growth.
  DurationUs extra = 0;
  for (int i = 0; i < 60; ++i) {
    const DurationUs media = static_cast<DurationUs>(i) * kChunk;
    if (i % 12 == 11) extra = 5 * time::kSecond;  // periodic trouble
    p.on_arrival(media + 4 * time::kSecond + extra, media, kChunk);
    if (extra > 0) extra = 0;
  }
  EXPECT_GT(p.rebuffer_events(), 0u);
  EXPECT_GT(p.current_pre_buffer(), 3 * time::kSecond);
  EXPECT_LE(p.current_pre_buffer(), 9 * time::kSecond);
}

TEST(Adaptive, GrowthIsCappedAtMax) {
  AdaptivePlayback p(3 * time::kSecond);
  for (int i = 0; i < 80; ++i) {
    const DurationUs media = static_cast<DurationUs>(i) * kChunk;
    // Pathological link: throughput below the bitrate, so arrivals drift
    // ever later -- every re-anchor eventually under-runs again.
    const DurationUs drift = static_cast<DurationUs>(i) * 800 *
                             time::kMillisecond;
    p.on_arrival(media + 4 * time::kSecond + drift, media, kChunk);
  }
  EXPECT_GT(p.rebuffer_events(), 2u);
  EXPECT_EQ(p.current_pre_buffer(), 9 * time::kSecond);
}

TEST(Adaptive, NeverStartsIsFullStall) {
  AdaptivePlayback p(60 * time::kSecond);
  feed_steady(p, 3, time::kSecond);  // 9 s of media, 60 s target
  EXPECT_FALSE(p.started());
  EXPECT_EQ(p.stall_ratio(), 1.0);
}

TEST(Adaptive, BeatsFixedNineOnStableLinks) {
  // Same stable trace through fixed-9 and adaptive-from-6.
  PlaybackSchedule fixed9(9 * time::kSecond);
  AdaptivePlayback adaptive(6 * time::kSecond);
  for (int i = 0; i < 40; ++i) {
    const DurationUs media = static_cast<DurationUs>(i) * kChunk;
    fixed9.on_arrival(media + 4 * time::kSecond, media, kChunk);
    adaptive.on_arrival(media + 4 * time::kSecond, media, kChunk);
  }
  EXPECT_EQ(adaptive.stall_ratio(), 0.0);
  EXPECT_LT(adaptive.buffering_delay_s().mean(),
            fixed9.buffering_delay_s().mean());
}

TEST(Adaptive, RecoversSmoothnessAfterGrowth) {
  AdaptivePlayback p(3 * time::kSecond);
  // One big outage early, then steady: after growth, no further stalls.
  for (int i = 0; i < 60; ++i) {
    const DurationUs media = static_cast<DurationUs>(i) * kChunk;
    const DurationUs extra = (i == 5) ? 6 * time::kSecond : 0;
    p.on_arrival(media + 4 * time::kSecond + extra, media, kChunk);
  }
  EXPECT_EQ(p.rebuffer_events(), 1u);
  const double stall_after_one_event = p.stall_ratio();
  EXPECT_LT(stall_after_one_event, 0.10);
}

}  // namespace
}  // namespace livesim::client
