// Network link models.
//
// Link: memoryless one-way delay (propagation + serialization + jitter,
// optional loss) -- used for server<->server and download paths.
//
// The broadcaster's last mile is a stateful first-in-first-out uplink with
// transient outages. Frames cannot overtake each other, so an outage makes
// queued frames arrive in a burst when connectivity returns -- the
// mechanism behind the paper's ~10% of broadcasts with >5 s client-side
// buffering delay (Fig 16b). It comes in two parts:
//  * UplinkModel: the pure model. transmit(now, bytes) returns the arrival
//    time in closed form; nothing is scheduled. Arrivals never decrease
//    and nothing feeds back into the model, so a caller that only needs
//    arrival times (generate_traces) runs it in a plain loop, no engine.
//  * FifoUplink: the thin event wrapper sessions use. send() and
//    inject_outage() call the model at sim.now() and schedule the arrival
//    callback; a callback whose capture fits ArrivalFn's 40-byte buffer is
//    scheduled without a heap allocation.
#ifndef LIVESIM_NET_LINK_H
#define LIVESIM_NET_LINK_H

#include <cstddef>

#include "livesim/sim/simulator.h"
#include "livesim/util/rng.h"
#include "livesim/util/time.h"

namespace livesim::net {

class Link {
 public:
  struct Params {
    DurationUs base_delay = 20 * time::kMillisecond;  // one-way propagation
    double jitter_fraction = 0.15;    // right-skewed multiplicative jitter
    double loss_rate = 0.0;           // per-message drop probability
    double bandwidth_bps = 20e6;      // serialization component
  };

  Link(sim::Simulator& sim, Params params, Rng rng)
      : sim_(sim), params_(params), rng_(rng) {}

  /// Samples the one-way delay for a message of `bytes`.
  DurationUs sample_delay(std::size_t bytes);

  /// Delivers `on_arrival` after a sampled delay; drops it (never calls)
  /// with probability loss_rate. Returns the scheduled delay, or -1 if
  /// the message was lost. The callback is scheduled as-is (no extra
  /// wrapper), so small captures ride the engine's allocation-free path.
  DurationUs send(std::size_t bytes, sim::EventFn on_arrival);

  const Params& params() const noexcept { return params_; }

 private:
  sim::Simulator& sim_;
  Params params_;
  Rng rng_;
};

class UplinkModel {
 public:
  struct Params {
    Link::Params link{};                      // per-message delay model
    double outage_rate_per_s = 0.0;           // Poisson outage arrivals
    DurationUs mean_outage = time::kSecond;   // exponential duration
    // Bandwidth ramp: effective bandwidth starts at
    // initial_bw_fraction * link.bandwidth_bps and grows linearly to the
    // full rate over ramp_duration. Models constrained cellular uplinks
    // whose early-broadcast backlog produces multi-second buffering
    // delays downstream (Fig 16b tail).
    double initial_bw_fraction = 1.0;
    DurationUs ramp_duration = 0;
    // Connection-establishment outage: the uplink is blocked for this long
    // at t=0 (captured frames queue and then flood out). Mean of an
    // exponential draw; 0 disables.
    DurationUs mean_initial_outage = 0;
  };

  /// `start` is the clock origin of the bandwidth ramp and the outage
  /// process (the instant the broadcaster connects).
  UplinkModel(Params params, Rng rng, TimeUs start);

  /// Sends a message of `bytes` at `now` and returns its arrival time at
  /// the receiver. Call it in send order (non-decreasing `now`): the
  /// random draws follow call order, and arrivals never decrease (FIFO,
  /// in-order delivery).
  TimeUs transmit(TimeUs now, std::size_t bytes);

  /// Blocks the uplink until `end` (fault injection: a link partition
  /// with a known recovery point). Messages sent before then queue behind
  /// it and flood out in FIFO order at recovery, exactly like a natural
  /// outage. Draws no randomness.
  void block_until(TimeUs end) noexcept;

 private:
  void maybe_advance_outages(TimeUs until);
  double bandwidth_at(TimeUs t) const noexcept;

  Params params_;
  Rng rng_;
  TimeUs created_at_ = 0;         // ramp/outage clock origin
  TimeUs next_free_ = 0;          // uplink busy until here (FIFO)
  TimeUs last_arrival_ = 0;       // in-order delivery floor
  TimeUs next_outage_start_ = 0;  // lazily sampled outage process
  bool outages_enabled_;
};

class FifoUplink {
 public:
  using Params = UplinkModel::Params;

  /// Arrival callback. Sized so that send's [arrival time, callback]
  /// wrapper still fits the engine's 64-byte inline budget: the 40-byte
  /// buffer plus the vtable pointer is 48 bytes, aligned to 16, so the
  /// wrapper is 8 + 8 bytes of padding + 48 == 64. A 48-byte buffer pads
  /// to 64 and boxes the 80-byte wrapper on every send.
  using ArrivalFn = sim::InplaceFunction<void(TimeUs), 40>;

  FifoUplink(sim::Simulator& sim, Params params, Rng rng)
      : sim_(sim), model_(params, rng, sim.now()) {}

  /// Enqueues a message of `bytes` now; `on_arrival(arrival_time)` fires
  /// at the receiver. FIFO order is preserved. Returns the arrival time.
  TimeUs send(std::size_t bytes, ArrivalFn on_arrival);

  /// Blocks the uplink until now + `duration` (see UplinkModel::block_until).
  void inject_outage(DurationUs duration) {
    model_.block_until(sim_.now() + duration);
  }

 private:
  sim::Simulator& sim_;
  UplinkModel model_;
};

/// Canned last-mile profiles roughly matching 2015 access networks.
struct LastMileProfiles {
  static Link::Params wired();
  static Link::Params wifi();
  static Link::Params lte();

  /// Broadcaster uplink variants: `stable` for the ~88% of broadcasts with
  /// smooth upload; `bursty` for the rest (per Fig 16b's tail).
  static FifoUplink::Params stable_uplink();
  static FifoUplink::Params bursty_uplink();
};

}  // namespace livesim::net

#endif  // LIVESIM_NET_LINK_H
