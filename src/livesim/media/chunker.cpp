#include "livesim/media/chunker.h"

namespace livesim::media {

std::optional<Chunk> Chunker::push(const VideoFrame& frame, TimeUs now) {
  std::optional<Chunk> sealed;
  // Seal-before-append: a keyframe arriving once the target is met starts
  // the next chunk, so chunk boundaries land on keyframes.
  if (building_ &&
      ((frame.keyframe && acc_duration_ >= target_duration_) ||
       acc_duration_ >= 2 * target_duration_)) {
    sealed = seal(now);
  }
  if (!building_) {
    building_ = true;
    acc_first_capture_ = frame.capture_ts;
    acc_first_seq_ = frame.seq;
    acc_duration_ = 0;
    acc_frames_ = 0;
    acc_bytes_ = 0;
  }
  acc_duration_ += frame.duration;
  acc_frames_ += 1;
  acc_bytes_ += frame.size_bytes;
  return sealed;
}

std::optional<Chunk> Chunker::flush(TimeUs now) {
  if (!building_) return std::nullopt;
  return seal(now);
}

Chunk Chunker::seal(TimeUs now) {
  Chunk c;
  c.seq = next_chunk_seq_++;
  c.first_capture_ts = acc_first_capture_;
  c.completed_ts = now;
  c.duration = acc_duration_;
  c.first_frame_seq = acc_first_seq_;
  c.frame_count = acc_frames_;
  c.size_bytes = acc_bytes_;
  building_ = false;

  list_.chunks.push_back(c);
  if (list_.chunks.size() > kPlaylistWindow)
    list_.chunks.erase(list_.chunks.begin());
  ++list_.version;
  return c;
}

}  // namespace livesim::media
