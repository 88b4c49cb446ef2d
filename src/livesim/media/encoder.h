// Frame source: models the broadcaster's camera + encoder.
//
// Produces 25 fps frames with a keyframe cadence and realistic size
// variation. Frame *generation* is perfectly periodic; network burstiness
// is added by the uplink model, matching the paper's observation that 10%
// of broadcasts see >5 s buffering delay "caused by the bursty arrival of
// video frames during uploading from the broadcaster".
#ifndef LIVESIM_MEDIA_ENCODER_H
#define LIVESIM_MEDIA_ENCODER_H

#include <cstdint>

#include "livesim/media/frame.h"
#include "livesim/util/rng.h"

namespace livesim::media {

inline constexpr DurationUs kFrameInterval = 40 * time::kMillisecond;
inline constexpr double kFramesPerSecond =
    time::kSecond / static_cast<double>(kFrameInterval);
inline constexpr std::uint32_t kGopFrames = 25;        // keyframe every 1 s
inline constexpr std::uint32_t kMeanFrameBytes = 2000;  // ~400 kbps video
inline constexpr double kKeyframeMultiplier = 8.0;
inline constexpr double kFrameSizeJitter = 0.25;  // lognormal-ish spread

class FrameSource {
 public:
  explicit FrameSource(Rng rng) : rng_(rng) {}

  /// Produces the next frame; capture timestamps advance by exactly one
  /// frame interval per call, starting at `start`.
  VideoFrame next(TimeUs start = 0);

 private:
  Rng rng_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace livesim::media

#endif  // LIVESIM_MEDIA_ENCODER_H
