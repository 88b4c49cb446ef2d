#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "livesim/core/service.h"

namespace livesim::core {
namespace {

class ServiceFixture : public ::testing::Test {
 protected:
  ServiceFixture()
      : catalog_(geo::DatacenterCatalog::paper_footprint()),
        service_(sim_, catalog_, make_config()) {}

  static LivestreamService::Config make_config() {
    LivestreamService::Config cfg;
    cfg.rtmp_slot_cap = 3;  // small caps to exercise overflow in tests
    cfg.commenter_cap = 2;
    cfg.seed = 11;
    return cfg;
  }

  sim::Simulator sim_;
  geo::DatacenterCatalog catalog_;
  LivestreamService service_;
};

TEST_F(ServiceFixture, BroadcastAppearsOnGlobalListWhileLive) {
  const auto id =
      service_.start_broadcast({37.77, -122.42}, 30 * time::kSecond);
  EXPECT_EQ(service_.global_list().active_count(), 1u);
  EXPECT_TRUE(service_.info(id)->live);
  sim_.run();
  EXPECT_EQ(service_.global_list().active_count(), 0u);
  EXPECT_FALSE(service_.info(id)->live);
}

TEST_F(ServiceFixture, SlotPolicyFirstComersGetRtmp) {
  const auto id =
      service_.start_broadcast({37.77, -122.42}, 60 * time::kSecond);
  std::vector<LivestreamService::ViewerHandle> handles;
  for (int i = 0; i < 6; ++i) {
    auto h = service_.join(id, {40.71, -74.01});
    ASSERT_TRUE(h.has_value());
    handles.push_back(*h);
  }
  // First 3 on RTMP (cap), of which the first 2 may comment.
  EXPECT_TRUE(handles[0].rtmp);
  EXPECT_TRUE(handles[1].rtmp);
  EXPECT_TRUE(handles[2].rtmp);
  EXPECT_FALSE(handles[3].rtmp);
  EXPECT_FALSE(handles[5].rtmp);
  EXPECT_TRUE(handles[0].can_comment);
  EXPECT_TRUE(handles[1].can_comment);
  EXPECT_FALSE(handles[2].can_comment);
  EXPECT_FALSE(handles[4].can_comment);

  const auto info = service_.info(id);
  EXPECT_EQ(info->rtmp_viewers, 3u);
  EXPECT_EQ(info->hls_viewers, 3u);
  sim_.run();
}

// Viewers join a service broadcast only through join(): the session
// defaults' static viewer counts, LL-HLS included, start nobody.
TEST(LivestreamService, SessionDefaultViewerCountsStartNoViewers) {
  sim::Simulator sim;
  const auto catalog = geo::DatacenterCatalog::paper_footprint();
  LivestreamService::Config cfg;
  cfg.session_defaults.rtmp_viewers = 5;
  cfg.session_defaults.llhls_viewers = 5;
  cfg.session_defaults.hls_viewers = 5;
  LivestreamService service(sim, catalog, cfg);
  const auto id = service.start_broadcast({37.77, -122.42}, time::kMinute);
  EXPECT_EQ(service.session(id)->viewer_count(), 0u);
  const auto info = service.info(id);
  EXPECT_EQ(info->rtmp_viewers + info->llhls_viewers + info->hls_viewers, 0u);
  sim.run();
}

TEST_F(ServiceFixture, JoinDeadBroadcastFails) {
  const auto id =
      service_.start_broadcast({37.77, -122.42}, 10 * time::kSecond);
  sim_.run();
  EXPECT_FALSE(service_.join(id, {40.71, -74.01}).has_value());
  EXPECT_FALSE(service_.join(BroadcastId{999}, {40.71, -74.01}).has_value());
}

TEST_F(ServiceFixture, CommentsRejectedBeyondCap) {
  const auto id =
      service_.start_broadcast({37.77, -122.42}, 60 * time::kSecond);
  auto privileged = *service_.join(id, {37.0, -122.0});
  (void)*service_.join(id, {37.0, -122.0});  // second commenter slot
  auto third = *service_.join(id, {37.0, -122.0});

  // Let playback start before commenting.
  sim_.run_until(20 * time::kSecond);
  EXPECT_TRUE(service_.send_comment(privileged, "hello"));
  EXPECT_FALSE(service_.send_comment(third, "let me in"));
  EXPECT_EQ(service_.comments_rejected(), 1u);
  sim_.run();
  EXPECT_EQ(service_.info(id)->comments, 1u);
}

TEST_F(ServiceFixture, HeartsCountAndCarryFeedbackLag) {
  const auto id =
      service_.start_broadcast({37.77, -122.42}, 90 * time::kSecond);
  auto rtmp_viewer = *service_.join(id, {37.0, -122.0});
  ASSERT_TRUE(rtmp_viewer.rtmp);
  for (int i = 0; i < 3; ++i) (void)service_.join(id, {37.0, -122.0});
  auto hls_viewer = *service_.join(id, {37.0, -122.0});
  ASSERT_FALSE(hls_viewer.rtmp);

  // Hearts at t=30s and t=60s from both cohorts.
  for (TimeUs t : {30 * time::kSecond, 60 * time::kSecond}) {
    sim_.schedule_at(t, [&] {
      service_.send_heart(rtmp_viewer);
      service_.send_heart(hls_viewer);
    });
  }
  sim_.run();

  EXPECT_EQ(service_.info(id)->hearts, 4u);
  ASSERT_EQ(service_.rtmp_feedback_lag_s().count(), 2u);
  ASSERT_EQ(service_.hls_feedback_lag_s().count(), 2u);
  // RTMP feedback is near-real-time; HLS reactions refer to a moment
  // ~10 s in the past -- the paper's "delayed applause" problem.
  EXPECT_LT(service_.rtmp_feedback_lag_s().mean(), 3.0);
  EXPECT_GT(service_.hls_feedback_lag_s().mean(), 6.0);
  EXPECT_GT(service_.hls_feedback_lag_s().mean(),
            3.0 * service_.rtmp_feedback_lag_s().mean());
}

TEST_F(ServiceFixture, FeedbackLagFollowsTheViewersCurrentPath) {
  const auto id =
      service_.start_broadcast({37.77, -122.42}, 90 * time::kSecond);
  std::vector<LivestreamService::ViewerHandle> handles;
  for (int i = 0; i < 4; ++i)
    handles.push_back(*service_.join(id, {37.0, -122.0}));
  ASSERT_TRUE(handles[0].rtmp);
  ASSERT_FALSE(handles[3].rtmp);
  // The ingest dies from 15 s to 20 s: the RTMP joiners fail over to HLS
  // and stay there (no rejoin), so their hearts are pull feedback.
  fault::FaultSchedule crash;
  crash.add({15 * time::kSecond, fault::FaultKind::kIngestCrash,
             5 * time::kSecond});
  service_.session(id)->inject_faults(crash);
  sim_.schedule_at(60 * time::kSecond, [&] {
    for (const auto& h : handles) service_.send_heart(h);
  });
  sim_.run();

  for (const auto& v : service_.session(id)->viewer_results())
    EXPECT_EQ(v.tier, cdn::DeliveryTier::kHls);
  EXPECT_EQ(service_.info(id)->hearts, 4u);
  EXPECT_EQ(service_.rtmp_feedback_lag_s().count(), 0u);
  EXPECT_EQ(service_.hls_feedback_lag_s().count(), 4u);
}

TEST_F(ServiceFixture, HeartBeforePlaybackStartsIsDropped) {
  const auto id =
      service_.start_broadcast({37.77, -122.42}, 60 * time::kSecond);
  auto v = *service_.join(id, {37.0, -122.0});
  service_.send_heart(v);  // nothing on screen yet
  sim_.run();
  EXPECT_EQ(service_.info(id)->hearts, 0u);
}

TEST_F(ServiceFixture, ConcurrentBroadcastsAreIndependent) {
  const auto a =
      service_.start_broadcast({37.77, -122.42}, 40 * time::kSecond);
  const auto b =
      service_.start_broadcast({51.51, -0.13}, 80 * time::kSecond);
  EXPECT_EQ(service_.global_list().active_count(), 2u);

  auto va = *service_.join(a, {37.0, -122.0});
  auto vb = *service_.join(b, {52.0, 0.0});
  sim_.schedule_at(20 * time::kSecond, [&] {
    service_.send_heart(va);
    service_.send_heart(vb);
  });
  sim_.run();
  EXPECT_EQ(service_.info(a)->hearts, 1u);
  EXPECT_EQ(service_.info(b)->hearts, 1u);
  // Different ingest sites: San Jose vs Dublin.
  EXPECT_NE(service_.session(a)->ingest_site(),
            service_.session(b)->ingest_site());
}

TEST_F(ServiceFixture, MidBroadcastJoinersStillPlay) {
  const auto id =
      service_.start_broadcast({37.77, -122.42}, 60 * time::kSecond);
  LivestreamService::ViewerHandle late{};
  sim_.schedule_at(30 * time::kSecond, [&] {
    late = *service_.join(id, {40.71, -74.01});
  });
  sim_.run();
  ASSERT_TRUE(late.valid());
  const auto& playback = service_.session(id)->viewer_playback(
      late.viewer_index);
  EXPECT_TRUE(playback.started());
  EXPECT_GT(playback.units_played(), 100u);  // ~30 s of frames
}

TEST_F(ServiceFixture, LeaveStopsDelivery) {
  // After a leave nothing more reaches the viewer's playback or the
  // session's per-tier delay ledgers, on any tier: not an RTMP push in
  // flight, not an HLS poll response in flight, not an LL-HLS reload
  // parked at the edge. With 20 viewers per tier, some leave with a
  // request outstanding.
  constexpr std::uint32_t kViewers = 20;
  for (const cdn::DeliveryTier tier :
       {cdn::DeliveryTier::kRtmp, cdn::DeliveryTier::kLlHls,
        cdn::DeliveryTier::kHls}) {
    auto cfg = make_config();
    cfg.rtmp_slot_cap = tier == cdn::DeliveryTier::kRtmp ? kViewers : 0;
    cfg.llhls_slot_cap = tier == cdn::DeliveryTier::kLlHls ? kViewers : 0;
    sim::Simulator sim;
    LivestreamService service(sim, catalog_, cfg);
    const auto id =
        service.start_broadcast({37.77, -122.42}, 60 * time::kSecond);
    std::vector<LivestreamService::ViewerHandle> viewers;
    for (std::uint32_t i = 0; i < kViewers; ++i) {
      viewers.push_back(*service.join(id, {37.0, -122.0}));
      ASSERT_EQ(viewers.back().tier, tier);
    }
    const BroadcastSession& session = *service.session(id);
    const DelayBreakdown& ledger =
        tier == cdn::DeliveryTier::kRtmp    ? session.rtmp_breakdown()
        : tier == cdn::DeliveryTier::kLlHls ? session.llhls_breakdown()
                                            : session.hls_breakdown();
    auto units = [&](const LivestreamService::ViewerHandle& v) {
      const auto& pb = session.viewer_playback(v.viewer_index);
      return pb.units_played() + pb.units_discarded();
    };
    // The viewer-side samples; upload and chunking are the broadcaster's.
    auto samples = [&] {
      return std::vector<std::uint64_t>{ledger.w2f_s.count(),
                                        ledger.polling_s.count(),
                                        ledger.last_mile_s.count()};
    };

    // Let ~20 s play, then one viewer leaves every 150 ms, so the leaves
    // sweep a whole 3 s chunk cycle; each viewer's counts must freeze.
    std::vector<std::uint64_t> units_at_leave;
    for (std::uint32_t i = 0; i < kViewers; ++i) {
      sim.run_until(20 * time::kSecond + i * 150 * time::kMillisecond);
      service.leave(viewers[i]);
      units_at_leave.push_back(units(viewers[i]));
      EXPECT_GT(units_at_leave.back(), 0u);
    }
    const auto samples_at_leave = samples();
    sim.run();
    for (std::uint32_t i = 0; i < kViewers; ++i)
      EXPECT_EQ(units(viewers[i]), units_at_leave[i])
          << "viewer " << i << " on tier " << static_cast<int>(tier);
    EXPECT_EQ(samples(), samples_at_leave)
        << "tier " << static_cast<int>(tier);
  }
}

TEST_F(ServiceFixture, LeaveIsIdempotentAndSurvivesBroadcastEnd) {
  const auto id =
      service_.start_broadcast({37.77, -122.42}, 10 * time::kSecond);
  auto v = *service_.join(id, {37.0, -122.0});
  service_.leave(v);
  service_.leave(v);
  sim_.run();
  service_.leave(v);  // after the broadcast ended: no-op
}

TEST_F(ServiceFixture, PrivateBroadcastEnforcesInviteList) {
  const auto id = service_.start_private_broadcast(
      {37.77, -122.42}, 60 * time::kSecond, {UserId{10}, UserId{11}});
  // Never on the public global list.
  EXPECT_EQ(service_.global_list().active_count(), 0u);
  EXPECT_TRUE(service_.info(id)->is_private);
  EXPECT_TRUE(service_.info(id)->encrypted_transport);  // RTMPS (§7.2)

  // Invitees get in; strangers and anonymous joins are rejected.
  EXPECT_TRUE(service_.join_as(id, UserId{10}, {37.0, -122.0}).has_value());
  EXPECT_FALSE(service_.join_as(id, UserId{99}, {37.0, -122.0}).has_value());
  EXPECT_FALSE(service_.join(id, {37.0, -122.0}).has_value());
  sim_.run();
  EXPECT_EQ(service_.info(id)->rtmp_viewers, 1u);
}

TEST_F(ServiceFixture, PublicBroadcastIgnoresIdentity) {
  const auto id =
      service_.start_broadcast({37.77, -122.42}, 30 * time::kSecond);
  EXPECT_FALSE(service_.info(id)->is_private);
  EXPECT_FALSE(service_.info(id)->encrypted_transport);
  EXPECT_TRUE(service_.join_as(id, UserId{12345}, {37.0, -122.0}).has_value());
  EXPECT_TRUE(service_.join(id, {37.0, -122.0}).has_value());
  sim_.run();
}

}  // namespace
}  // namespace livesim::core
