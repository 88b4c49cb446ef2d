// Chunker: assembles RTMP frames into HLS chunks at the ingest server.
//
// A chunk is sealed when it has accumulated at least `target_duration` of
// video AND the next frame is a keyframe (HLS segments must start on a
// keyframe so they are independently decodable); a hard cap of twice the
// target prevents unbounded chunks when keyframes are sparse. The chunking
// delay this introduces -- equal to the chunk duration, ~3 s -- is one of
// the three big HLS delay contributors in Figure 11.
#ifndef LIVESIM_MEDIA_CHUNKER_H
#define LIVESIM_MEDIA_CHUNKER_H

#include <cstddef>
#include <functional>
#include <optional>

#include "livesim/media/frame.h"

namespace livesim::media {

/// The paper's HLS chunk length: >85.9% of HLS broadcasts use 3 s chunks.
inline constexpr DurationUs kChunkTarget = 3 * time::kSecond;
/// Chunks kept in the playlist's sliding window.
inline constexpr std::size_t kPlaylistWindow = 4;

class Chunker {
 public:
  explicit Chunker(DurationUs target_duration)
      : target_duration_(target_duration) {
    list_.target_duration = target_duration;
  }

  /// Feeds one frame arriving at time `now`; returns the sealed chunk when
  /// this frame completed one, else nullopt. The sealed chunk's
  /// completed_ts is `now`.
  std::optional<Chunk> push(const VideoFrame& frame, TimeUs now);

  /// Seals whatever is pending (end of broadcast). Returns nullopt if the
  /// accumulator is empty.
  std::optional<Chunk> flush(TimeUs now);

  /// Current playlist (sliding window of recent chunks).
  const ChunkList& playlist() const noexcept { return list_; }

 private:
  Chunk seal(TimeUs now);

  DurationUs target_duration_;
  ChunkList list_;
  // Accumulator state for the chunk being built.
  bool building_ = false;
  TimeUs acc_first_capture_ = 0;
  std::uint64_t acc_first_seq_ = 0;
  DurationUs acc_duration_ = 0;
  std::uint32_t acc_frames_ = 0;
  std::uint64_t acc_bytes_ = 0;
  std::uint64_t next_chunk_seq_ = 0;
};

}  // namespace livesim::media

#endif  // LIVESIM_MEDIA_CHUNKER_H
