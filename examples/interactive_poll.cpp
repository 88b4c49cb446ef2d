// The paper's motivating scenario (§1): a broadcaster polls the audience.
//
// "A delayed user will likely enter her vote after the real-time vote has
// concluded, thus discounting her input" -- and "delayed hearts will be
// misinterpreted by the broadcaster as positive feedback for a later
// event in the stream."
//
// This example runs a broadcast where the broadcaster asks a question at
// t=30 s and closes voting 10 s later, with hearts flowing back over the
// PubNub-style message channel. RTMP viewers (the privileged first ~100)
// make it; most HLS viewers don't.
#include <cstdio>

#include "livesim/core/broadcast_session.h"
#include "livesim/msg/pubsub.h"
#include "livesim/stats/accumulator.h"

int main() {
  using namespace livesim;

  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();

  core::SessionConfig cfg;
  cfg.broadcast_len = 2 * time::kMinute;
  cfg.rtmp_viewers = 20;
  cfg.hls_viewers = 60;
  cfg.crawler_pollers = true;
  cfg.seed = 99;

  core::BroadcastSession session(sim, catalog, cfg);
  session.start();
  sim.run();
  session.finalize();

  const double rtmp_lag = session.rtmp_breakdown().total_s();
  const double hls_lag = session.hls_breakdown().total_s();

  // The poll: asked at t=30 s of *media* time, closes after a 10 s window
  // of *wall* time. A viewer sees the question at media_ts + their lag,
  // and their vote flies back over the message channel (~0.15 s).
  const double kAsk = 30.0, kWindow = 10.0, kMsgDelay = 0.15;
  const double kThinking = 2.0;  // humans need a moment to tap

  msg::CommenterPolicy commenters(100);
  int votes_in = 0, votes_late = 0, rtmp_in = 0, hls_in = 0;
  stats::Accumulator heart_lag;

  for (const auto& v : session.viewer_results()) {
    const bool on_hls = v.tier != cdn::DeliveryTier::kRtmp;
    const double lag = on_hls ? hls_lag : rtmp_lag;
    const double vote_arrives = kAsk + lag + kThinking + kMsgDelay;
    const bool counted = vote_arrives <= kAsk + kWindow;
    (counted ? votes_in : votes_late) += 1;
    if (counted) (on_hls ? hls_in : rtmp_in) += 1;
    commenters.admit_commenter();
    // A heart sent in reaction to the question lands lag+msg later; the
    // broadcaster is by then lag seconds further into the stream.
    heart_lag.add(lag + kMsgDelay);
  }

  std::printf("Audience: %d RTMP + %d HLS viewers; delays %.1fs / %.1fs\n",
              20, 60, rtmp_lag, hls_lag);
  std::printf("\nPoll asked at t=%.0fs, voting closes at t=%.0fs:\n", kAsk,
              kAsk + kWindow);
  std::printf("  votes counted:  %d (RTMP %d, HLS %d)\n", votes_in, rtmp_in,
              hls_in);
  std::printf("  votes too late: %d -- all HLS viewers whose lag + reaction "
              "time overshot the window\n",
              votes_late);
  std::printf("\nHearts: mean feedback lag %.1f s. A heart for the joke at "
              "t=30 arrives while the broadcaster is at t=%.1f -- "
              "attributed to the wrong moment (the paper's 'delayed "
              "applause' problem).\n",
              heart_lag.mean(), kAsk + heart_lag.mean());
  std::printf("\nOnly the first %u joiners may comment at all (CommenterPolicy"
              "), so interactive group features are capped exactly where "
              "RTMP capacity ends.\n",
              commenters.cap());
  return 0;
}
