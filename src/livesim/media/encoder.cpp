#include "livesim/media/encoder.h"

#include <algorithm>
#include <cmath>

namespace livesim::media {

VideoFrame FrameSource::next(TimeUs start) {
  VideoFrame f;
  f.seq = next_seq_++;
  f.capture_ts = start + static_cast<TimeUs>(f.seq) * kFrameInterval;
  f.duration = kFrameInterval;
  f.keyframe = (f.seq % kGopFrames) == 0;
  const double base = static_cast<double>(kMeanFrameBytes);
  const double mult = f.keyframe ? kKeyframeMultiplier : 1.0;
  const double jitter = std::exp(rng_.normal(0.0, kFrameSizeJitter));
  // Non-key frames are smaller than the mean so that the GOP average
  // stays near kMeanFrameBytes despite the large keyframes.
  const double gop = static_cast<double>(kGopFrames);
  const double nonkey_scale = gop / (gop - 1.0 + kKeyframeMultiplier);
  f.size_bytes = static_cast<std::uint32_t>(std::max(
      64.0, base * nonkey_scale * mult * jitter));
  return f;
}

}  // namespace livesim::media
