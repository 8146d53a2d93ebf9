// Wire codec properties. The binary protocol must be a faithful carrier of
// the negotiation surface:
//   - encode -> decode -> re-encode is byte-identical for 500+ seeded
//     requests and results covering the full field surface (optional media,
//     importance curves, arbitrary byte strings, every enum value);
//   - a request that crossed the wire resolves byte-identically (result
//     signature) to its in-process twin through a real NegotiationService;
//   - decoders refuse malformed payloads (truncation, out-of-range enums,
//     non-finite numbers, trailing bytes) with typed errors, never UB;
//   - framing reassembles from arbitrary chunking and validates CRC32C.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "result_signature.hpp"
#include "test_service.hpp"
#include "util/rng.hpp"
#include "wire/crc32c.hpp"
#include "wire/frame.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;
using testing::TestSystem;
using testing::result_signature;
using wire::Bytes;
using wire::WireError;
using wire::WireErrorCode;

// --- seeded generators over the full field surface ------------------------

std::string random_string(Rng& rng, std::size_t max_len) {
  std::string s;
  const std::size_t len = rng.below(max_len + 1);
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.below(256)));  // any byte, '\0' included
  }
  return s;
}

PiecewiseLinear random_curve(Rng& rng) {
  PiecewiseLinear curve;
  const std::uint64_t anchors = rng.below(5);
  for (std::uint64_t i = 0; i < anchors; ++i) {
    curve.set_anchor(rng.uniform(-10.0, 2000.0), rng.uniform(-2.0, 5.0));
  }
  return curve;
}

VideoQoS random_video(Rng& rng) {
  return VideoQoS{static_cast<ColorDepth>(rng.below(4)),
                  static_cast<int>(rng.between(-5, 120)),
                  static_cast<int>(rng.between(-10, 4096))};
}

ImageQoS random_image(Rng& rng) {
  return ImageQoS{static_cast<ColorDepth>(rng.below(4)),
                  static_cast<int>(rng.between(-10, 4096))};
}

ClientMachine random_client(Rng& rng) {
  ClientMachine c;
  c.name = random_string(rng, 24);
  c.node = random_string(rng, 16);
  c.screen = ScreenSpec{static_cast<int>(rng.between(-100, 8192)),
                        static_cast<int>(rng.between(-100, 8192)),
                        static_cast<ColorDepth>(rng.below(4))};
  c.decoders.clear();
  const std::uint64_t decoders = rng.below(12);
  for (std::uint64_t i = 0; i < decoders; ++i) {
    c.decoders.push_back(static_cast<CodingFormat>(rng.below(11)));
  }
  c.max_audio = static_cast<AudioQuality>(rng.below(3));
  c.has_audio_out = rng.chance(0.8);
  return c;
}

UserProfile random_profile(Rng& rng) {
  UserProfile p;
  p.name = random_string(rng, 32);
  if (rng.chance(0.75)) {
    p.mm.video = VideoProfile{random_video(rng), random_video(rng)};
  } else {
    p.mm.video.reset();
  }
  if (rng.chance(0.75)) {
    p.mm.audio = AudioProfile{AudioQoS{static_cast<AudioQuality>(rng.below(3))},
                              AudioQoS{static_cast<AudioQuality>(rng.below(3))}};
  } else {
    p.mm.audio.reset();
  }
  if (rng.chance(0.6)) {
    TextProfile text;
    text.desired = static_cast<Language>(rng.below(4));
    const std::uint64_t acceptable = rng.below(4);
    for (std::uint64_t i = 0; i < acceptable; ++i) {
      text.acceptable.push_back(static_cast<Language>(rng.below(4)));
    }
    p.mm.text = std::move(text);
  } else {
    p.mm.text.reset();
  }
  if (rng.chance(0.5)) {
    p.mm.image = ImageProfile{random_image(rng), random_image(rng)};
  } else {
    p.mm.image.reset();
  }
  p.mm.cost.max_cost = Money::micros(rng.between(-1'000'000, 2'000'000'000));
  p.mm.time.delivery_time_s = rng.uniform(0.0, 600.0);
  p.mm.time.choice_period_s = rng.uniform(0.0, 600.0);

  ImportanceProfile imp;  // start empty: curves with 0..4 anchors
  for (double& v : imp.video_color) v = rng.uniform(-1.0, 3.0);
  imp.frame_rate = random_curve(rng);
  imp.resolution = random_curve(rng);
  for (double& v : imp.audio_quality) v = rng.uniform(-1.0, 3.0);
  for (double& v : imp.language) v = rng.uniform(-1.0, 3.0);
  for (double& v : imp.image_color) v = rng.uniform(-1.0, 3.0);
  imp.image_resolution = random_curve(rng);
  for (double& v : imp.media_weight) v = rng.uniform(0.0, 4.0);
  imp.cost_per_dollar = rng.uniform(-1.0, 2.0);
  const std::uint64_t servers = rng.below(4);
  for (std::uint64_t i = 0; i < servers; ++i) {
    imp.preferred_servers.push_back(random_string(rng, 12));
  }
  imp.server_bonus = rng.uniform(0.0, 2.0);
  p.importance = std::move(imp);
  return p;
}

NegotiationRequest random_request(Rng& rng) {
  NegotiationRequest req;
  req.id = rng.next_u64();
  req.client = random_client(rng);
  req.document = random_string(rng, 40);
  req.profile = random_profile(rng);
  req.session_class = static_cast<SessionClass>(rng.below(3));
  req.deadline_ms = rng.uniform(0.0, 10'000.0);
  req.accept_degraded = rng.chance(0.5);
  req.cache = static_cast<CacheUse>(rng.below(3));
  return req;
}

NegotiationResult random_result(Rng& rng) {
  NegotiationResult r;
  r.request_id = rng.next_u64();
  r.shed = static_cast<ShedReason>(rng.below(3));
  r.session_id = rng.next_u64();
  r.queue_ms = rng.uniform(0.0, 1'000.0);
  r.total_ms = rng.uniform(0.0, 1'000.0);
  r.worker = static_cast<int>(rng.between(-1, 63));
  r.verdict = static_cast<NegotiationStatus>(rng.below(5));
  r.committed_index = rng.chance(0.3) ? SIZE_MAX : static_cast<std::size_t>(rng.below(4096));
  if (rng.chance(0.7)) {
    UserOffer offer;
    if (rng.chance(0.7)) offer.video = random_video(rng);
    if (rng.chance(0.7)) offer.audio = AudioQoS{static_cast<AudioQuality>(rng.below(3))};
    if (rng.chance(0.5)) offer.text = TextQoS{static_cast<Language>(rng.below(4))};
    if (rng.chance(0.5)) offer.image = random_image(rng);
    offer.cost = Money::micros(rng.between(-1'000'000, 2'000'000'000));
    r.user_offer = std::move(offer);
  }
  const std::uint64_t problems = rng.below(5);
  for (std::uint64_t i = 0; i < problems; ++i) {
    r.problems.push_back(random_string(rng, 48));
  }
  r.commit_stats.attempts = static_cast<int>(rng.below(100));
  r.commit_stats.retries = static_cast<int>(rng.below(100));
  r.commit_stats.transient_failures = static_cast<int>(rng.below(100));
  r.commit_stats.permanent_failures = static_cast<int>(rng.below(100));
  r.commit_stats.released_on_failure = static_cast<int>(rng.below(100));
  r.commit_stats.backoff_ms = rng.uniform(0.0, 10'000.0);
  return r;
}

// --- round trips ----------------------------------------------------------

TEST(WireCodec, RequestRoundTripIsByteIdentical) {
  for (std::uint64_t seed = 0; seed < 520; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const NegotiationRequest request = random_request(rng);
    auto encoded = wire::encode_request_payload(request);
    ASSERT_TRUE(encoded.ok()) << "seed " << seed << ": " << encoded.error().to_text();
    auto decoded = wire::decode_request_payload(encoded.value());
    ASSERT_TRUE(decoded.ok()) << "seed " << seed << ": " << decoded.error().to_text();
    auto re_encoded = wire::encode_request_payload(decoded.value());
    ASSERT_TRUE(re_encoded.ok()) << "seed " << seed;
    EXPECT_EQ(encoded.value(), re_encoded.value()) << "seed " << seed;

    EXPECT_EQ(decoded.value().id, request.id);
    EXPECT_EQ(decoded.value().document, request.document);
    EXPECT_EQ(decoded.value().session_class, request.session_class);
    EXPECT_EQ(decoded.value().cache, request.cache);
    EXPECT_EQ(decoded.value().accept_degraded, request.accept_degraded);
    EXPECT_EQ(decoded.value().client.name, request.client.name);
    EXPECT_EQ(decoded.value().profile.name, request.profile.name);
    EXPECT_EQ(decoded.value().resolved, nullptr);
  }
}

TEST(WireCodec, ResultRoundTripIsByteIdentical) {
  for (std::uint64_t seed = 0; seed < 520; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
    const NegotiationResult result = random_result(rng);
    const Bytes encoded = wire::encode_result_payload(result);
    auto decoded = wire::decode_result_payload(encoded);
    ASSERT_TRUE(decoded.ok()) << "seed " << seed << ": " << decoded.error().to_text();
    EXPECT_EQ(encoded, wire::encode_result_payload(decoded.value())) << "seed " << seed;
    // The signature covers the whole procedure surface the wire carries.
    EXPECT_EQ(result_signature(result), result_signature(decoded.value())) << "seed " << seed;
    EXPECT_EQ(decoded.value().committed_index, result.committed_index);
    EXPECT_EQ(decoded.value().worker, result.worker);
  }
}

TEST(WireCodec, ErrorRoundTripCoversEveryCode) {
  for (std::uint16_t code = 1; code <= 12; ++code) {
    WireError error{static_cast<WireErrorCode>(code), "detail for " + std::to_string(code)};
    auto decoded = wire::decode_error_payload(wire::encode_error_payload(error));
    ASSERT_TRUE(decoded.ok()) << "code " << code;
    EXPECT_EQ(decoded.value().code, error.code);
    EXPECT_EQ(decoded.value().detail, error.detail);
  }
}

TEST(WireCodec, FrameSurvivesArbitraryChunking) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed + 77);
    Bytes payload;
    const std::uint64_t len = rng.below(2048);
    for (std::uint64_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<std::uint8_t>(rng.below(256)));
    }
    const std::uint64_t frame_seq = rng.next_u64();
    const Bytes encoded = wire::encode_frame(wire::FrameType::kResult, frame_seq, payload);

    wire::FrameAssembler assembler(wire::kDefaultMaxFrameBytes);
    std::size_t offset = 0;
    while (offset < encoded.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(encoded.size() - offset, 1 + rng.below(97));
      assembler.feed(encoded.data() + offset, chunk);
      offset += chunk;
    }
    wire::FrameAssembler::Next next = assembler.next();
    ASSERT_TRUE(next.frame.has_value()) << "seed " << seed;
    EXPECT_EQ(next.frame->type, wire::FrameType::kResult);
    EXPECT_EQ(next.frame->seq, frame_seq);
    EXPECT_EQ(next.frame->payload, payload);
    EXPECT_TRUE(assembler.next().needs_more());
    EXPECT_EQ(assembler.buffered(), 0u);
  }
}

// --- typed refusals -------------------------------------------------------

TEST(WireCodec, ResolvedRequestIsUnencodable) {
  NegotiationRequest request;
  request.client = ClientMachine{};
  request.resolved = std::make_shared<const MultimediaDocument>(TestSystem::news_article());
  auto encoded = wire::encode_request_payload(request);
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.error().code, WireErrorCode::kUnencodable);
}

TEST(WireCodec, TruncatedRequestPayloadIsTypedError) {
  Rng rng(4242);
  const NegotiationRequest request = random_request(rng);
  const Bytes encoded = wire::encode_request_payload(request).value();
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::size_t cut = rng.below(encoded.size());
    Bytes truncated(encoded.begin(), encoded.begin() + static_cast<std::ptrdiff_t>(cut));
    auto decoded = wire::decode_request_payload(truncated);
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.error().code, WireErrorCode::kBadPayload);
  }
}

TEST(WireCodec, TrailingBytesAreRejected) {
  Rng rng(99);
  Bytes encoded = wire::encode_request_payload(random_request(rng)).value();
  encoded.push_back(0);
  auto decoded = wire::decode_request_payload(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, WireErrorCode::kBadPayload);

  Bytes result_bytes = wire::encode_result_payload(random_result(rng));
  result_bytes.push_back(0);
  auto result = wire::decode_result_payload(result_bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, WireErrorCode::kBadPayload);
}

TEST(WireCodec, OutOfRangeEnumIsRejected) {
  Rng rng(7);
  Bytes encoded = wire::encode_request_payload(random_request(rng)).value();
  // Request layout opens with id:u64, session_class:u8.
  encoded[8] = 200;
  auto decoded = wire::decode_request_payload(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, WireErrorCode::kBadPayload);
}

TEST(WireCodec, NonFiniteNumbersAreRejectedNamingTheField) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // One case per group of request numbers: importance weights, curve
  // anchors, the cost and server weights, the time profile, the deadline.
  const std::vector<std::pair<std::string, std::function<void(NegotiationRequest&)>>> cases = {
      {"video_color weight",
       [&](NegotiationRequest& r) { r.profile.importance.video_color[2] = kNaN; }},
      {"media_weight", [&](NegotiationRequest& r) { r.profile.importance.media_weight[0] = kInf; }},
      {"frame_rate anchor",
       [&](NegotiationRequest& r) { r.profile.importance.frame_rate.set_anchor(25.0, kNaN); }},
      {"image_resolution anchor",
       [&](NegotiationRequest& r) {
         r.profile.importance.image_resolution.set_anchor(kInf, 1.0);
       }},
      {"cost_per_dollar", [&](NegotiationRequest& r) { r.profile.importance.cost_per_dollar = kNaN; }},
      {"server_bonus", [&](NegotiationRequest& r) { r.profile.importance.server_bonus = -kInf; }},
      {"delivery_time_s", [&](NegotiationRequest& r) { r.profile.mm.time.delivery_time_s = kNaN; }},
      {"choice_period_s", [&](NegotiationRequest& r) { r.profile.mm.time.choice_period_s = kInf; }},
      {"deadline_ms", [&](NegotiationRequest& r) { r.deadline_ms = kNaN; }},
  };
  const NegotiationRequest valid =
      make_negotiation_request(TestSystem{}.client, "article", TestSystem::tolerant_profile());
  ASSERT_TRUE(wire::decode_request_payload(wire::encode_request_payload(valid).value()).ok());
  for (const auto& [field, spoil] : cases) {
    NegotiationRequest request = valid;
    spoil(request);
    auto decoded = wire::decode_request_payload(wire::encode_request_payload(request).value());
    ASSERT_FALSE(decoded.ok()) << field;
    EXPECT_EQ(decoded.error().code, WireErrorCode::kBadPayload) << field;
    EXPECT_EQ(decoded.error().detail, field + " not a finite number");
  }
}

TEST(WireCrc, MatchesKnownVectors) {
  // RFC 3720 test vector: 32 zero bytes.
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(wire::crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::string check = "123456789";
  EXPECT_EQ(wire::crc32c(check.data(), check.size()), 0xE3069283u);
}

// --- differential: the wire is invisible to the procedure -----------------

/// A service-shaped request: harness client + preset profile with seeded
/// importance/policy variation, against the shared news article (and
/// sometimes a document that does not exist — refusals must carry over the
/// wire identically too).
NegotiationRequest random_service_request(const ServiceSystem& sys, Rng& rng) {
  NegotiationRequest req;
  req.id = rng.next_u64();
  req.client = sys.clients[rng.below(sys.clients.size())];
  req.document = rng.chance(0.9) ? "article" : "no-such-document";
  switch (rng.below(3)) {
    case 0: req.profile = TestSystem::tolerant_profile(); break;
    case 1: req.profile = demanding_user_profile(); break;
    default: req.profile = thrifty_user_profile(); break;
  }
  req.profile.importance.cost_per_dollar = rng.uniform(0.0, 1.0);
  if (rng.chance(0.5)) {
    req.profile.importance.preferred_servers = {rng.chance(0.5) ? "server-a" : "server-b"};
    req.profile.importance.server_bonus = rng.uniform(0.0, 1.0);
  }
  req.session_class = static_cast<SessionClass>(rng.below(3));
  req.accept_degraded = rng.chance(0.8);
  req.cache = static_cast<CacheUse>(rng.below(3));
  return req;
}

TEST(WireDifferential, DecodedRequestsResolveIdenticallyThroughTheService) {
  ServiceSystem direct_sys(8);
  ServiceSystem wire_sys(8);
  ServiceConfig config;
  config.workers = 1;  // sequential: outcomes depend only on the request order
  NegotiationService direct(*direct_sys.manager, *direct_sys.sessions, config);
  NegotiationService wired(*wire_sys.manager, *wire_sys.sessions, config);
  direct.start();
  wired.start();

  Rng rng(2026);
  for (int i = 0; i < 500; ++i) {
    const NegotiationRequest request = random_service_request(direct_sys, rng);

    auto encoded = wire::encode_request_payload(request);
    ASSERT_TRUE(encoded.ok()) << "request " << i;
    auto decoded = wire::decode_request_payload(encoded.value());
    ASSERT_TRUE(decoded.ok()) << "request " << i;

    const NegotiationResult in_process = direct.submit(request).get();
    const NegotiationResult via_wire = wired.submit(std::move(decoded.value())).get();
    EXPECT_EQ(result_signature(in_process), result_signature(via_wire)) << "request " << i;
    EXPECT_EQ(in_process.request_id, via_wire.request_id) << "request " << i;

    if (in_process.session_id != 0) direct_sys.sessions->complete(in_process.session_id);
    if (via_wire.session_id != 0) wire_sys.sessions->complete(via_wire.session_id);
  }
  direct.stop();
  wired.stop();
  EXPECT_TRUE(direct_sys.drained());
  EXPECT_TRUE(wire_sys.drained());
}

}  // namespace
}  // namespace qosnp
