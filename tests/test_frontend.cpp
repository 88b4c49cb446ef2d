#include <gtest/gtest.h>

#include "livesim/cdn/frontend.h"
#include "livesim/protocol/assembler.h"
#include "livesim/media/encoder.h"
#include "livesim/security/attack.h"

namespace livesim::cdn {
namespace {

using protocol::RtmpMessage;
using protocol::RtmpMessageType;
using Verdict = RtmpFrontend::Verdict;

security::Digest secret() {
  return security::Sha256::hash(std::string("server-secret"));
}

std::vector<std::uint8_t> connect_wire(const std::string& token) {
  RtmpMessage msg{RtmpMessageType::kConnect,
                  protocol::encode_connect({token, "key"})};
  return protocol::encode_message(msg);
}

std::vector<std::uint8_t> eos_wire() {
  return protocol::encode_message(RtmpMessage{RtmpMessageType::kEndOfStream, {}});
}

media::VideoFrame sample_frame(std::uint64_t seq = 0) {
  media::VideoFrame f;
  f.seq = seq;
  f.capture_ts = static_cast<TimeUs>(seq) * 40000;
  f.keyframe = seq % 25 == 0;
  f.payload = {1, 2, 3, 4};
  f.size_bytes = 4;
  return f;
}

TEST(TokenAuthority, IssueValidateRoundTrip) {
  TokenAuthority auth(secret());
  const auto token = auth.issue(42);
  EXPECT_EQ(token.size(), 26u);  // 13-byte opaque capability, hex
  EXPECT_TRUE(auth.validate(42, token));
  EXPECT_FALSE(auth.validate(43, token));       // wrong broadcast
  EXPECT_FALSE(auth.validate(42, token + "a")); // wrong length
  auto corrupted = token;
  corrupted[0] = corrupted[0] == 'a' ? 'b' : 'a';
  EXPECT_FALSE(auth.validate(42, corrupted));
}

TEST(TokenAuthority, TokensDifferPerBroadcast) {
  TokenAuthority auth(secret());
  EXPECT_NE(auth.issue(1), auth.issue(2));
  TokenAuthority other(security::Sha256::hash(std::string("other")));
  EXPECT_NE(auth.issue(1), other.issue(1));
}

TEST(RtmpFrontend, HappyPath) {
  TokenAuthority auth(secret());
  int sunk = 0;
  RtmpFrontend fe(auth, 7, [&](const media::VideoFrame&) { ++sunk; });
  EXPECT_EQ(fe.consume(connect_wire(auth.issue(7))), Verdict::kAcknowledged);
  EXPECT_EQ(fe.state(), RtmpFrontend::State::kStreaming);
  for (std::uint64_t i = 0; i < 10; ++i)
    EXPECT_EQ(fe.consume(protocol::frame_to_wire(sample_frame(i))),
              Verdict::kAccepted);
  EXPECT_EQ(fe.consume(eos_wire()), Verdict::kEndOfStream);
  EXPECT_EQ(fe.state(), RtmpFrontend::State::kClosed);
  EXPECT_EQ(sunk, 10);
  EXPECT_EQ(fe.frames_accepted(), 10u);
}

TEST(RtmpFrontend, WrongTokenRejected) {
  TokenAuthority auth(secret());
  RtmpFrontend fe(auth, 7, nullptr);
  EXPECT_EQ(fe.consume(connect_wire("deadbeef")), Verdict::kRejected);
  EXPECT_EQ(fe.state(), RtmpFrontend::State::kClosed);
  // Closed connections accept nothing.
  EXPECT_EQ(fe.consume(connect_wire(auth.issue(7))), Verdict::kRejected);
}

TEST(RtmpFrontend, TokenForAnotherBroadcastRejected) {
  TokenAuthority auth(secret());
  RtmpFrontend fe(auth, 7, nullptr);
  EXPECT_EQ(fe.consume(connect_wire(auth.issue(8))), Verdict::kRejected);
}

TEST(RtmpFrontend, FramesBeforeConnectRejected) {
  TokenAuthority auth(secret());
  RtmpFrontend fe(auth, 7, nullptr);
  EXPECT_EQ(fe.consume(protocol::frame_to_wire(sample_frame())),
            Verdict::kRejected);
}

TEST(RtmpFrontend, GarbageClosesConnection) {
  TokenAuthority auth(secret());
  RtmpFrontend fe(auth, 7, nullptr);
  const std::vector<std::uint8_t> garbage{0xFF, 0x01, 0x02};
  EXPECT_EQ(fe.consume(garbage), Verdict::kRejected);
  EXPECT_EQ(fe.state(), RtmpFrontend::State::kClosed);
}

TEST(RtmpFrontend, DoubleConnectRejected) {
  TokenAuthority auth(secret());
  RtmpFrontend fe(auth, 7, nullptr);
  ASSERT_EQ(fe.consume(connect_wire(auth.issue(7))), Verdict::kAcknowledged);
  EXPECT_EQ(fe.consume(connect_wire(auth.issue(7))), Verdict::kRejected);
}

// --- the §7 hijack, server-side view ---

TEST(RtmpFrontend, SniffedTokenLetsAttackerPublish) {
  TokenAuthority auth(secret());
  const std::string token = auth.issue(7);

  // The victim connects through the attacker's WiFi...
  security::TamperAttacker attacker;
  attacker.intercept(connect_wire(token));
  ASSERT_EQ(attacker.stats().tokens_sniffed, 1u);

  // ...and the attacker can now open its OWN session with the sniffed
  // token: the front-end has no way to tell (no channel binding).
  RtmpFrontend hijacked(auth, 7, nullptr);
  EXPECT_EQ(hijacked.consume(connect_wire(token)), Verdict::kAcknowledged);
  EXPECT_EQ(hijacked.consume(protocol::frame_to_wire(sample_frame())),
            Verdict::kAccepted);
}

TEST(RtmpFrontend, DefenseKillsTamperedStream) {
  TokenAuthority auth(secret());
  const auto seed = security::Sha256::hash(std::string("device"));
  security::StreamSigner signer(seed, 16, 5);
  security::TamperAttacker attacker;

  RtmpFrontend fe(auth, 7, nullptr, signer.root(), 5);
  ASSERT_EQ(fe.consume(connect_wire(auth.issue(7))), Verdict::kAcknowledged);

  media::FrameSource src(Rng(1));
  bool killed = false;
  for (int i = 0; i < 10 && !killed; ++i) {
    auto f = src.next();
    f.payload.assign(32, static_cast<std::uint8_t>(i + 1));
    signer.process(f);
    const auto wire = attacker.intercept(protocol::frame_to_wire(f));
    const auto verdict = fe.consume(wire);
    if (verdict == Verdict::kTampered) killed = true;
  }
  EXPECT_TRUE(killed);
  EXPECT_EQ(fe.state(), RtmpFrontend::State::kClosed);
}

TEST(RtmpFrontend, DefensePassesCleanStream) {
  TokenAuthority auth(secret());
  const auto seed = security::Sha256::hash(std::string("device"));
  security::StreamSigner signer(seed, 16, 5);

  RtmpFrontend fe(auth, 7, nullptr, signer.root(), 5);
  ASSERT_EQ(fe.consume(connect_wire(auth.issue(7))), Verdict::kAcknowledged);
  media::FrameSource src(Rng(2));
  for (int i = 0; i < 20; ++i) {
    auto f = src.next();
    f.payload.assign(32, static_cast<std::uint8_t>(i));
    signer.process(f);
    ASSERT_EQ(fe.consume(protocol::frame_to_wire(f)), Verdict::kAccepted);
  }
  EXPECT_EQ(fe.frames_accepted(), 20u);
}

TEST(RtmpFrontend, ConsumesSegmentedByteStreamViaAssembler) {
  // The full receive path: TCP fragments -> assembler -> front-end.
  TokenAuthority auth(secret());
  int sunk = 0;
  RtmpFrontend fe(auth, 9, [&](const media::VideoFrame&) { ++sunk; });

  std::vector<std::uint8_t> stream = connect_wire(auth.issue(9));
  for (std::uint64_t i = 0; i < 30; ++i) {
    const auto wire = protocol::frame_to_wire(sample_frame(i));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  const auto eos = eos_wire();
  stream.insert(stream.end(), eos.begin(), eos.end());

  protocol::MessageAssembler assembler;
  Rng rng(55);
  std::size_t pos = 0;
  bool ended = false;
  while (pos < stream.size()) {
    const auto take = static_cast<std::size_t>(std::min<std::int64_t>(
        rng.uniform_int(1, 200),
        static_cast<std::int64_t>(stream.size() - pos)));
    for (auto& msg : assembler.feed(std::span<const std::uint8_t>(
             stream.data() + pos, take))) {
      const auto verdict = fe.consume(protocol::encode_message(msg));
      if (verdict == RtmpFrontend::Verdict::kEndOfStream) ended = true;
      ASSERT_NE(verdict, RtmpFrontend::Verdict::kRejected);
    }
    pos += take;
  }
  EXPECT_TRUE(ended);
  EXPECT_EQ(sunk, 30);
  EXPECT_FALSE(assembler.corrupted());
}

}  // namespace
}  // namespace livesim::cdn
