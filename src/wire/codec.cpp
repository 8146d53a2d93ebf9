#include "wire/codec.hpp"

#include <array>
#include <cmath>
#include <string>
#include <utility>

namespace qosnp::wire {
namespace {

// Wire enum ceilings (exclusive). Growing an enum is a protocol version
// bump: a v1 decoder must reject values it cannot represent.
constexpr std::uint8_t kCodingFormatCount = 12;  // kMPEG1 .. kTIFF
constexpr std::uint8_t kColorDepthCount = 4;
constexpr std::uint8_t kAudioQualityCount = 3;
constexpr std::uint8_t kLanguageCount = 4;
constexpr std::uint8_t kCacheUseCount = 3;
constexpr std::uint8_t kStatusCount = 5;
constexpr std::uint8_t kShedReasonCount = 3;

// Presence bitmask over the four media of an MMProfile / UserOffer.
constexpr std::uint8_t kHasVideo = 1 << 0;
constexpr std::uint8_t kHasAudio = 1 << 1;
constexpr std::uint8_t kHasText = 1 << 2;
constexpr std::uint8_t kHasImage = 1 << 3;

template <typename Enum>
bool read_enum(ByteReader& r, Enum& out, std::uint8_t count, const char* field) {
  const std::uint8_t raw = r.u8();
  if (!r.ok()) return false;
  if (raw >= count) {
    r.fail(std::string(field) + " out of range");
    return false;
  }
  out = static_cast<Enum>(raw);
  return true;
}

// A request's numbers order offers (weights, anchors) or bound time: NaN
// would break the orderings Step 4 sorts by, so a non-finite one is refused.
double read_finite(ByteReader& r, const char* field) {
  const double v = r.f64();
  if (r.ok() && !std::isfinite(v)) r.fail(std::string(field) + " not a finite number");
  return v;
}

// --- QoS value types ------------------------------------------------------

void put(ByteWriter& w, const VideoQoS& q) {
  w.u8(static_cast<std::uint8_t>(q.color));
  w.i32(q.frame_rate_fps);
  w.i32(q.resolution);
}
bool get(ByteReader& r, VideoQoS& q) {
  return read_enum(r, q.color, kColorDepthCount, "video color") &&
         ((q.frame_rate_fps = r.i32(), q.resolution = r.i32(), r.ok()));
}

void put(ByteWriter& w, const AudioQoS& q) { w.u8(static_cast<std::uint8_t>(q.quality)); }
bool get(ByteReader& r, AudioQoS& q) {
  return read_enum(r, q.quality, kAudioQualityCount, "audio quality");
}

void put(ByteWriter& w, const TextQoS& q) { w.u8(static_cast<std::uint8_t>(q.language)); }
bool get(ByteReader& r, TextQoS& q) {
  return read_enum(r, q.language, kLanguageCount, "text language");
}

void put(ByteWriter& w, const ImageQoS& q) {
  w.u8(static_cast<std::uint8_t>(q.color));
  w.i32(q.resolution);
}
bool get(ByteReader& r, ImageQoS& q) {
  return read_enum(r, q.color, kColorDepthCount, "image color") &&
         ((q.resolution = r.i32(), r.ok()));
}

// --- importance profile ---------------------------------------------------

template <std::size_t N>
void put(ByteWriter& w, const std::array<double, N>& a) {
  for (double v : a) w.f64(v);
}
template <std::size_t N>
void get(ByteReader& r, std::array<double, N>& a, const char* field) {
  for (double& v : a) v = read_finite(r, field);
}

void put(ByteWriter& w, const PiecewiseLinear& curve) {
  const auto& anchors = curve.anchors();
  w.u32(static_cast<std::uint32_t>(anchors.size()));
  for (const auto& [x, v] : anchors) {
    w.f64(x);
    w.f64(v);
  }
}
bool get(ByteReader& r, PiecewiseLinear& curve, const char* field) {
  const std::uint32_t n = r.count(16);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const double x = read_finite(r, field);
    const double v = read_finite(r, field);
    if (r.ok()) curve.set_anchor(x, v);
  }
  return r.ok();
}

void put(ByteWriter& w, const ImportanceProfile& imp) {
  put(w, imp.video_color);
  put(w, imp.frame_rate);
  put(w, imp.resolution);
  put(w, imp.audio_quality);
  put(w, imp.language);
  put(w, imp.image_color);
  put(w, imp.image_resolution);
  put(w, imp.media_weight);
  w.f64(imp.cost_per_dollar);
  w.u32(static_cast<std::uint32_t>(imp.preferred_servers.size()));
  for (const std::string& s : imp.preferred_servers) w.str(s);
  w.f64(imp.server_bonus);
}
bool get(ByteReader& r, ImportanceProfile& imp) {
  imp = ImportanceProfile{};  // start from empty curves, not defaults()
  get(r, imp.video_color, "video_color weight");
  if (!get(r, imp.frame_rate, "frame_rate anchor")) return false;
  if (!get(r, imp.resolution, "resolution anchor")) return false;
  get(r, imp.audio_quality, "audio_quality weight");
  get(r, imp.language, "language weight");
  get(r, imp.image_color, "image_color weight");
  if (!get(r, imp.image_resolution, "image_resolution anchor")) return false;
  get(r, imp.media_weight, "media_weight");
  imp.cost_per_dollar = read_finite(r, "cost_per_dollar");
  const std::uint32_t servers = r.count(4);
  imp.preferred_servers.reserve(servers);
  for (std::uint32_t i = 0; i < servers && r.ok(); ++i) {
    imp.preferred_servers.push_back(r.str());
  }
  imp.server_bonus = read_finite(r, "server_bonus");
  return r.ok();
}

// --- MM profile / user profile --------------------------------------------

void put(ByteWriter& w, const MMProfile& mm) {
  std::uint8_t mask = 0;
  if (mm.video) mask |= kHasVideo;
  if (mm.audio) mask |= kHasAudio;
  if (mm.text) mask |= kHasText;
  if (mm.image) mask |= kHasImage;
  w.u8(mask);
  if (mm.video) {
    put(w, mm.video->desired);
    put(w, mm.video->worst);
  }
  if (mm.audio) {
    put(w, mm.audio->desired);
    put(w, mm.audio->worst);
  }
  if (mm.text) {
    w.u8(static_cast<std::uint8_t>(mm.text->desired));
    w.u32(static_cast<std::uint32_t>(mm.text->acceptable.size()));
    for (Language lang : mm.text->acceptable) w.u8(static_cast<std::uint8_t>(lang));
  }
  if (mm.image) {
    put(w, mm.image->desired);
    put(w, mm.image->worst);
  }
  w.i64(mm.cost.max_cost.as_micros());
  w.f64(mm.time.delivery_time_s);
  w.f64(mm.time.choice_period_s);
}
bool get(ByteReader& r, MMProfile& mm) {
  const std::uint8_t mask = r.u8();
  if (!r.ok()) return false;
  if (mask & ~(kHasVideo | kHasAudio | kHasText | kHasImage)) {
    r.fail("unknown media presence bits");
    return false;
  }
  if (mask & kHasVideo) {
    VideoProfile v;
    if (!get(r, v.desired) || !get(r, v.worst)) return false;
    mm.video = v;
  }
  if (mask & kHasAudio) {
    AudioProfile a;
    if (!get(r, a.desired) || !get(r, a.worst)) return false;
    mm.audio = a;
  }
  if (mask & kHasText) {
    TextProfile t;
    if (!read_enum(r, t.desired, kLanguageCount, "text desired language")) return false;
    const std::uint32_t n = r.count(1);
    t.acceptable.reserve(n);
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      Language lang;
      if (!read_enum(r, lang, kLanguageCount, "acceptable language")) return false;
      t.acceptable.push_back(lang);
    }
    if (!r.ok()) return false;
    mm.text = std::move(t);
  }
  if (mask & kHasImage) {
    ImageProfile im;
    if (!get(r, im.desired) || !get(r, im.worst)) return false;
    mm.image = im;
  }
  mm.cost.max_cost = Money::micros(r.i64());
  mm.time.delivery_time_s = read_finite(r, "delivery_time_s");
  mm.time.choice_period_s = read_finite(r, "choice_period_s");
  return r.ok();
}

void put(ByteWriter& w, const UserProfile& profile) {
  w.str(profile.name);
  put(w, profile.mm);
  put(w, profile.importance);
}
bool get(ByteReader& r, UserProfile& profile) {
  profile.name = r.str();
  return r.ok() && get(r, profile.mm) && get(r, profile.importance);
}

// --- client machine -------------------------------------------------------

void put(ByteWriter& w, const ClientMachine& client) {
  w.str(client.name);
  w.str(client.node);
  w.i32(client.screen.width_px);
  w.i32(client.screen.height_px);
  w.u8(static_cast<std::uint8_t>(client.screen.color));
  w.u32(static_cast<std::uint32_t>(client.decoders.size()));
  for (CodingFormat f : client.decoders) w.u8(static_cast<std::uint8_t>(f));
  w.u8(static_cast<std::uint8_t>(client.max_audio));
  w.u8(client.has_audio_out ? 1 : 0);
}
bool get(ByteReader& r, ClientMachine& client) {
  client.name = r.str();
  client.node = r.str();
  client.screen.width_px = r.i32();
  client.screen.height_px = r.i32();
  if (!read_enum(r, client.screen.color, kColorDepthCount, "screen color")) return false;
  const std::uint32_t decoders = r.count(1);
  client.decoders.clear();
  client.decoders.reserve(decoders);
  for (std::uint32_t i = 0; i < decoders && r.ok(); ++i) {
    CodingFormat f;
    if (!read_enum(r, f, kCodingFormatCount, "decoder format")) return false;
    client.decoders.push_back(f);
  }
  if (!read_enum(r, client.max_audio, kAudioQualityCount, "max audio")) return false;
  const std::uint8_t audio_out = r.u8();
  if (!r.ok()) return false;
  if (audio_out > 1) {
    r.fail("has_audio_out not a boolean");
    return false;
  }
  client.has_audio_out = audio_out == 1;
  return true;
}

}  // namespace

// --- request --------------------------------------------------------------

Result<Bytes, WireError> encode_request_payload(const NegotiationRequest& request) {
  if (request.resolved) {
    return Err(WireError{WireErrorCode::kUnencodable,
                         "a resolved document reference cannot cross the wire; "
                         "send the catalog id instead"});
  }
  ByteWriter w;
  w.u64(request.id);
  w.u8(static_cast<std::uint8_t>(request.session_class));
  w.u8(static_cast<std::uint8_t>(request.cache));
  w.u8(request.accept_degraded ? 1 : 0);
  w.f64(request.deadline_ms);
  w.str(request.document);
  put(w, request.client);
  put(w, request.profile);
  return w.take();
}

Result<NegotiationRequest, WireError> decode_request_payload(const Bytes& payload) {
  ByteReader r(payload);
  NegotiationRequest request;
  request.id = r.u64();
  if (!read_enum(r, request.session_class, static_cast<std::uint8_t>(kSessionClassCount),
                 "session class") ||
      !read_enum(r, request.cache, kCacheUseCount, "cache policy")) {
    return Err(WireError{WireErrorCode::kBadPayload, r.error()});
  }
  const std::uint8_t degraded = r.u8();
  if (r.ok() && degraded > 1) r.fail("accept_degraded not a boolean");
  request.accept_degraded = degraded == 1;
  request.deadline_ms = read_finite(r, "deadline_ms");
  request.document = r.str();
  if (!r.ok() || !get(r, request.client) || !get(r, request.profile)) {
    return Err(WireError{WireErrorCode::kBadPayload, r.error()});
  }
  if (!r.exhausted()) {
    return Err(WireError{WireErrorCode::kBadPayload, "trailing bytes after request payload"});
  }
  return request;
}

// --- result ---------------------------------------------------------------

Bytes encode_result_payload(const NegotiationResult& result) {
  ByteWriter w;
  w.u64(result.request_id);
  w.u8(static_cast<std::uint8_t>(result.shed));
  w.u64(result.session_id);
  w.f64(result.queue_ms);
  w.f64(result.total_ms);
  w.i32(result.worker);
  w.u8(static_cast<std::uint8_t>(result.verdict));
  w.u64(result.committed_index == SIZE_MAX ? UINT64_MAX
                                           : static_cast<std::uint64_t>(result.committed_index));
  w.u8(result.user_offer ? 1 : 0);
  if (result.user_offer) {
    const UserOffer& offer = *result.user_offer;
    std::uint8_t mask = 0;
    if (offer.video) mask |= kHasVideo;
    if (offer.audio) mask |= kHasAudio;
    if (offer.text) mask |= kHasText;
    if (offer.image) mask |= kHasImage;
    w.u8(mask);
    if (offer.video) put(w, *offer.video);
    if (offer.audio) put(w, *offer.audio);
    if (offer.text) put(w, *offer.text);
    if (offer.image) put(w, *offer.image);
    w.i64(offer.cost.as_micros());
  }
  w.u32(static_cast<std::uint32_t>(result.problems.size()));
  for (const std::string& p : result.problems) w.str(p);
  w.i32(result.commit_stats.attempts);
  w.i32(result.commit_stats.retries);
  w.i32(result.commit_stats.transient_failures);
  w.i32(result.commit_stats.permanent_failures);
  w.i32(result.commit_stats.released_on_failure);
  w.f64(result.commit_stats.backoff_ms);
  return w.take();
}

Result<NegotiationResult, WireError> decode_result_payload(const Bytes& payload) {
  ByteReader r(payload);
  NegotiationResult result;
  result.request_id = r.u64();
  if (!read_enum(r, result.shed, kShedReasonCount, "shed reason")) {
    return Err(WireError{WireErrorCode::kBadPayload, r.error()});
  }
  result.session_id = r.u64();
  result.queue_ms = r.f64();
  result.total_ms = r.f64();
  result.worker = r.i32();
  if (!read_enum(r, result.verdict, kStatusCount, "verdict")) {
    return Err(WireError{WireErrorCode::kBadPayload, r.error()});
  }
  const std::uint64_t committed = r.u64();
  result.committed_index =
      committed == UINT64_MAX ? SIZE_MAX : static_cast<std::size_t>(committed);
  const std::uint8_t has_offer = r.u8();
  if (r.ok() && has_offer > 1) r.fail("user_offer presence not a boolean");
  if (r.ok() && has_offer == 1) {
    UserOffer offer;
    const std::uint8_t mask = r.u8();
    if (r.ok() && (mask & ~(kHasVideo | kHasAudio | kHasText | kHasImage))) {
      r.fail("unknown user-offer presence bits");
    }
    if (r.ok() && (mask & kHasVideo)) {
      VideoQoS q;
      if (get(r, q)) offer.video = q;
    }
    if (r.ok() && (mask & kHasAudio)) {
      AudioQoS q;
      if (get(r, q)) offer.audio = q;
    }
    if (r.ok() && (mask & kHasText)) {
      TextQoS q;
      if (get(r, q)) offer.text = q;
    }
    if (r.ok() && (mask & kHasImage)) {
      ImageQoS q;
      if (get(r, q)) offer.image = q;
    }
    offer.cost = Money::micros(r.i64());
    if (r.ok()) result.user_offer = std::move(offer);
  }
  const std::uint32_t problems = r.count(4);
  result.problems.reserve(problems);
  for (std::uint32_t i = 0; i < problems && r.ok(); ++i) result.problems.push_back(r.str());
  result.commit_stats.attempts = r.i32();
  result.commit_stats.retries = r.i32();
  result.commit_stats.transient_failures = r.i32();
  result.commit_stats.permanent_failures = r.i32();
  result.commit_stats.released_on_failure = r.i32();
  result.commit_stats.backoff_ms = r.f64();
  if (!r.ok()) return Err(WireError{WireErrorCode::kBadPayload, r.error()});
  if (!r.exhausted()) {
    return Err(WireError{WireErrorCode::kBadPayload, "trailing bytes after result payload"});
  }
  return result;
}

// --- error ----------------------------------------------------------------

Bytes encode_error_payload(const WireError& error) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(error.code));
  w.str(error.detail);
  return w.take();
}

Result<WireError, WireError> decode_error_payload(const Bytes& payload) {
  ByteReader r(payload);
  const std::uint16_t code = r.u16();
  WireError error;
  error.detail = r.str();
  if (!r.ok() || !r.exhausted()) {
    return Err(WireError{WireErrorCode::kBadPayload, "malformed error payload"});
  }
  if (code < static_cast<std::uint16_t>(WireErrorCode::kBadMagic) || code > kMaxWireErrorCode) {
    return Err(WireError{WireErrorCode::kBadPayload,
                         "unknown error code " + std::to_string(code)});
  }
  error.code = static_cast<WireErrorCode>(code);
  return error;
}

// --- frame conveniences ---------------------------------------------------

Result<Bytes, WireError> encode_request_frame(const NegotiationRequest& request,
                                              std::uint64_t seq) {
  auto payload = encode_request_payload(request);
  if (!payload.ok()) return Err(payload.error());
  return encode_frame(FrameType::kRequest, seq, payload.value());
}

Bytes encode_result_frame(const NegotiationResult& result, std::uint64_t seq) {
  return encode_frame(FrameType::kResult, seq, encode_result_payload(result));
}

Bytes encode_error_frame(const WireError& error, std::uint64_t seq) {
  return encode_frame(FrameType::kError, seq, encode_error_payload(error));
}

Bytes encode_ping_frame(std::uint64_t seq) { return encode_frame(FrameType::kPing, seq, {}); }
Bytes encode_pong_frame(std::uint64_t seq) { return encode_frame(FrameType::kPong, seq, {}); }

}  // namespace qosnp::wire
