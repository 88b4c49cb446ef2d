#include <gtest/gtest.h>

#include "livesim/media/encoder.h"
#include "livesim/protocol/rtmps.h"
#include "livesim/security/attack.h"
#include "livesim/security/stream_sign.h"

namespace livesim::security {
namespace {

std::vector<media::VideoFrame> make_frames(int n) {
  media::FrameSource src(Rng(1));
  std::vector<media::VideoFrame> out;
  Rng payload_rng(2);
  for (int i = 0; i < n; ++i) {
    auto f = src.next();
    f.payload.resize(64);
    for (auto& b : f.payload)
      b = static_cast<std::uint8_t>(payload_rng.next_u64());
    out.push_back(std::move(f));
  }
  return out;
}

TEST(StreamSign, CleanStreamVerifies) {
  const Digest seed = Sha256::hash(std::string("broadcast-seed"));
  StreamSigner signer(seed, 16, 5);
  StreamVerifier verifier(signer.root(), 5);

  auto frames = make_frames(50);
  int signed_frames = 0;
  for (auto& f : frames) {
    signer.process(f);
    if (!f.signature.empty()) ++signed_frames;
    EXPECT_NE(verifier.process(f), StreamVerifier::Result::kTampered);
  }
  EXPECT_EQ(signed_frames, 10);
  EXPECT_EQ(verifier.windows_verified(), 10u);
  EXPECT_EQ(verifier.windows_tampered(), 0u);
}

TEST(StreamSign, TamperedPayloadDetected) {
  const Digest seed = Sha256::hash(std::string("seed"));
  StreamSigner signer(seed, 16, 5);
  StreamVerifier verifier(signer.root(), 5);

  auto frames = make_frames(25);
  for (auto& f : frames) signer.process(f);
  frames[7].payload[0] ^= 0xFF;  // tamper one mid-window frame

  std::uint64_t tampered = 0;
  for (const auto& f : frames) {
    if (verifier.process(f) == StreamVerifier::Result::kTampered) ++tampered;
  }
  EXPECT_EQ(tampered, 1u);  // exactly the window containing frame 7
  EXPECT_EQ(verifier.windows_verified(), 4u);
}

TEST(StreamSign, TamperedSignatureDetected) {
  const Digest seed = Sha256::hash(std::string("seed"));
  StreamSigner signer(seed, 16, 5);
  StreamVerifier verifier(signer.root(), 5);
  auto frames = make_frames(10);
  for (auto& f : frames) signer.process(f);
  frames[4].signature[20] ^= 1;  // frame 4 carries window 0's signature
  std::uint64_t tampered = 0;
  for (const auto& f : frames)
    if (verifier.process(f) == StreamVerifier::Result::kTampered) ++tampered;
  EXPECT_EQ(tampered, 1u);
  EXPECT_EQ(verifier.windows_verified(), 1u);
}

TEST(StreamSign, MissingSignatureDetected) {
  const Digest seed = Sha256::hash(std::string("seed"));
  StreamSigner signer(seed, 16, 5);
  StreamVerifier verifier(signer.root(), 5);
  auto frames = make_frames(5);
  for (auto& f : frames) signer.process(f);
  frames[4].signature.clear();  // attacker strips the signature
  StreamVerifier::Result last{};
  for (const auto& f : frames) last = verifier.process(f);
  EXPECT_EQ(last, StreamVerifier::Result::kTampered);
}

TEST(StreamSign, UnexpectedSignatureMidWindowDetected) {
  StreamVerifier verifier(Sha256::hash(std::string("root")), 10);
  auto frames = make_frames(3);
  frames[1].signature = {1, 2, 3};
  EXPECT_EQ(verifier.process(frames[0]), StreamVerifier::Result::kPassThrough);
  EXPECT_EQ(verifier.process(frames[1]), StreamVerifier::Result::kTampered);
}

TEST(StreamSign, KeyExhaustionThrows) {
  const Digest seed = Sha256::hash(std::string("seed"));
  StreamSigner signer(seed, 2, 1);  // 2 keys, sign every frame
  auto frames = make_frames(3);
  signer.process(frames[0]);
  signer.process(frames[1]);
  EXPECT_THROW(signer.process(frames[2]), std::runtime_error);
}

TEST(StreamSign, SignEveryZeroRejected) {
  const Digest seed = Sha256::hash(std::string("seed"));
  EXPECT_THROW(StreamSigner(seed, 4, 0), std::invalid_argument);
}

TEST(SignatureBlob, EncodeDecodeRoundTrip) {
  SignatureBlob blob;
  blob.key_index = 9;
  blob.wots_signature.assign(Wots::kSignatureBytes, 0x5A);
  blob.auth_path = {Sha256::hash(std::string("a")), Sha256::hash(std::string("b"))};
  const auto wire = blob.encode();
  EXPECT_EQ(wire.size(), blob.wire_size());
  const auto back = SignatureBlob::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->key_index, 9u);
  EXPECT_EQ(back->wots_signature, blob.wots_signature);
  ASSERT_EQ(back->auth_path.size(), 2u);
  EXPECT_TRUE(digest_equal(back->auth_path[1], blob.auth_path[1]));
}

TEST(SignatureBlob, DecodeRejectsTrailingBytes) {
  SignatureBlob blob;
  blob.wots_signature = {1};
  auto wire = blob.encode();
  wire.push_back(0x00);
  EXPECT_FALSE(SignatureBlob::decode(wire).has_value());
}

TEST(SignatureBlob, DecodeRejectsTruncation) {
  SignatureBlob blob;
  blob.wots_signature.assign(100, 1);
  blob.auth_path.assign(4, Digest{});
  auto wire = blob.encode();
  wire.resize(wire.size() - 10);
  EXPECT_FALSE(SignatureBlob::decode(wire).has_value());
}

class SignEverySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SignEverySweep, OverheadShrinksWithWindow) {
  const std::uint32_t k = GetParam();
  const Digest seed = Sha256::hash(std::string("seed"));
  StreamSigner signer(seed, 64, k);
  StreamVerifier verifier(signer.root(), k);
  auto frames = make_frames(60);
  std::size_t sig_bytes = 0;
  for (auto& f : frames) {
    signer.process(f);
    sig_bytes += f.signature.size();
    ASSERT_NE(verifier.process(f), StreamVerifier::Result::kTampered);
  }
  // Signature bytes per frame should be ~ (blob size / k).
  const double per_frame =
      static_cast<double>(sig_bytes) / static_cast<double>(frames.size());
  EXPECT_LT(per_frame, 2500.0 / k + 500.0);
}

INSTANTIATE_TEST_SUITE_P(Windows, SignEverySweep,
                         ::testing::Values(1, 5, 25, 50));

// --- the full §7 attack scenarios over wire bytes ---

TEST(Attack, UnsignedStreamTamperedSilently) {
  TamperAttacker attacker;
  auto frames = make_frames(20);
  int altered = 0;
  for (const auto& f : frames) {
    const auto wire = protocol::frame_to_wire(f);
    const auto forwarded = attacker.intercept(wire);
    const auto received = protocol::wire_to_frame(forwarded);
    ASSERT_TRUE(received.has_value());  // server parses it fine: no defense
    EXPECT_EQ(received->seq, f.seq);    // metadata untouched
    if (received->payload != f.payload) ++altered;
    // Tampered payload is all replacement bytes (black frame).
    for (auto b : received->payload) EXPECT_EQ(b, 0x00);
  }
  EXPECT_EQ(altered, 20);
  EXPECT_EQ(attacker.stats().frames_tampered, 20u);
}

TEST(Attack, TokenSniffedFromConnect) {
  TamperAttacker attacker;
  protocol::RtmpMessage msg{
      protocol::RtmpMessageType::kConnect,
      protocol::encode_connect({"token-abc", "key"})};
  const auto wire = protocol::encode_message(msg);
  const auto fwd = attacker.intercept(wire);
  EXPECT_EQ(fwd, wire);  // forwarded unchanged...
  EXPECT_EQ(attacker.stats().tokens_sniffed, 1u);  // ...but harvested
}

TEST(Attack, SignedStreamTamperDetectedAtVerifier) {
  const Digest seed = Sha256::hash(std::string("seed"));
  StreamSigner signer(seed, 16, 5);
  StreamVerifier verifier(signer.root(), 5);
  TamperAttacker attacker;

  auto frames = make_frames(25);
  std::uint64_t tampered_windows = 0;
  for (auto& f : frames) {
    signer.process(f);
    const auto wire = protocol::frame_to_wire(f);
    const auto received = protocol::wire_to_frame(attacker.intercept(wire));
    ASSERT_TRUE(received.has_value());
    if (verifier.process(*received) == StreamVerifier::Result::kTampered)
      ++tampered_windows;
  }
  EXPECT_EQ(tampered_windows, 5u);  // every window flagged
  EXPECT_EQ(verifier.windows_verified(), 0u);
}

TEST(Attack, RtmpsRecordsSurviveUntouchedOrFailMac) {
  protocol::SecureChannel::Key key{};
  key[1] = 7;
  protocol::SecureChannel sender(key), receiver(key);
  TamperAttacker attacker;

  auto frames = make_frames(10);
  for (const auto& f : frames) {
    const auto record = sender.seal(protocol::frame_to_wire(f));
    const auto fwd = attacker.intercept(record);
    const auto opened = receiver.open(fwd);
    // The attacker cannot parse RTMPS, so it forwards unchanged and the
    // stream goes through intact.
    ASSERT_TRUE(opened.has_value());
    const auto back = protocol::wire_to_frame(*opened);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->payload, f.payload);
  }
  EXPECT_EQ(attacker.stats().frames_tampered, 0u);
  EXPECT_EQ(attacker.stats().parse_failures, 10u);
}

TEST(Attack, ViewerSideSelectiveTamperDetectedOnlyByTargets) {
  // §7.1: "An attacker can also selectively tamper with the broadcast to
  // affect only a specific group of viewers, by connecting to the
  // viewers' WiFi network. ... The broadcaster remains unaware."
  const Digest seed = Sha256::hash(std::string("seed"));
  StreamSigner signer(seed, 16, 5);
  // Server-side verifier (upload path is clean: the attacker sits on one
  // viewer's network, not the broadcaster's).
  StreamVerifier server(signer.root(), 5);
  // Two viewers: one behind the attacker, one on a clean network.
  StreamVerifier victim(signer.root(), 5);
  StreamVerifier bystander(signer.root(), 5);
  TamperAttacker attacker;

  auto frames = make_frames(25);
  std::uint64_t victim_flags = 0, bystander_flags = 0;
  for (auto& f : frames) {
    signer.process(f);
    ASSERT_NE(server.process(f), StreamVerifier::Result::kTampered);
    const auto clean_wire = protocol::frame_to_wire(f);
    const auto victim_frame =
        protocol::wire_to_frame(attacker.intercept(clean_wire));
    const auto bystander_frame = protocol::wire_to_frame(clean_wire);
    ASSERT_TRUE(victim_frame && bystander_frame);
    if (victim.process(*victim_frame) == StreamVerifier::Result::kTampered)
      ++victim_flags;
    if (bystander.process(*bystander_frame) ==
        StreamVerifier::Result::kTampered)
      ++bystander_flags;
  }
  EXPECT_EQ(server.windows_tampered(), 0u);   // broadcaster sees nothing
  EXPECT_EQ(bystander_flags, 0u);             // other viewers unaffected
  EXPECT_EQ(victim_flags, 5u);                // the target detects every window
}

}  // namespace
}  // namespace livesim::security
