// Client-side state for one LL-HLS blocking-playlist-reload loop.
//
// Where the plain HLS client free-runs a poll timer (playlist every
// poll_interval regardless of what the server has), the LL-HLS client
// issues a reload tagged with the last part it holds (`_HLS_msn` /
// `_HLS_part` semantics) and the SERVER paces it: the request parks
// edge-side until the next partial segment is ready, or until the hold
// cap expires (released empty -- the client re-requests at once). With
// preload hints the client keeps exactly one reload in flight at all
// times; without them it self-paces at the part cadence after each
// response.
//
// The loop itself is driven by core::BroadcastSession (it owns the event
// engine legs); this struct is the per-viewer lane state plus the gap
// policy. Reloads never tick on a poll wheel: the server paces them.
#ifndef LIVESIM_CLIENT_BLOCKING_RELOAD_H
#define LIVESIM_CLIENT_BLOCKING_RELOAD_H

#include <cstdint>

#include "livesim/util/time.h"

namespace livesim::client {

struct BlockingReloadLane {
  /// Highest part sequence the client holds (-1 before the first part):
  /// the `_HLS_part` cursor the next reload blocks on.
  std::int64_t last_part_seq = -1;
  /// One reload in flight (the chain invariant; the LL-HLS analog of
  /// the HLS viewer's poll-outstanding bit).
  bool outstanding = false;

  // --- ledgers ---
  std::uint64_t reloads_issued = 0;
  std::uint64_t parts_received = 0;
  /// Reloads whose hold cap expired server-side with nothing new.
  std::uint64_t empty_reloads = 0;

  /// Client-side gap between a reload response and the next request.
  /// Preload hints mean re-request immediately -- the server's hold does
  /// the pacing; without hints the client self-paces at the part cadence.
  static DurationUs next_gap(bool preload_hints,
                             DurationUs part_duration) noexcept {
    return preload_hints ? 0 : part_duration;
  }
};

}  // namespace livesim::client

#endif  // LIVESIM_CLIENT_BLOCKING_RELOAD_H
