#include "profile/profiles.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <type_traits>
#include <variant>

namespace qosnp {

namespace {

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(), [](double v) { return std::isfinite(v); });
}

bool all_finite(const PiecewiseLinear& curve) {
  return std::all_of(curve.anchors().begin(), curve.anchors().end(), [](const auto& anchor) {
    return std::isfinite(anchor.first) && std::isfinite(anchor.second);
  });
}

bool all_finite(const UserProfile& p) {
  const ImportanceProfile& imp = p.importance;
  return all_finite(std::array{p.mm.time.delivery_time_s, p.mm.time.choice_period_s,
                               imp.cost_per_dollar, imp.server_bonus}) &&
         all_finite(imp.video_color) && all_finite(imp.audio_quality) &&
         all_finite(imp.language) && all_finite(imp.image_color) &&
         all_finite(imp.media_weight) && all_finite(imp.frame_rate) &&
         all_finite(imp.resolution) && all_finite(imp.image_resolution);
}

}  // namespace

bool TextProfile::tolerates(const TextQoS& offered) const {
  if (offered.language == desired) return true;
  return std::find(acceptable.begin(), acceptable.end(), offered.language) != acceptable.end();
}

bool MMProfile::wants(MediaKind kind) const {
  switch (kind) {
    case MediaKind::kVideo: return video.has_value();
    case MediaKind::kAudio: return audio.has_value();
    case MediaKind::kText: return text.has_value();
    case MediaKind::kImage: return image.has_value();
  }
  return false;
}

MMProfile::Grade MMProfile::grade(const MonomediaQoS& qos) const {
  return std::visit(
      [this](const auto& q) {
        auto against = [&q](const auto& medium) {
          return medium ? Grade{medium->satisfied_by(q), medium->tolerates(q)} : Grade{};
        };
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, VideoQoS>) {
          return against(video);
        } else if constexpr (std::is_same_v<T, AudioQoS>) {
          return against(audio);
        } else if constexpr (std::is_same_v<T, TextQoS>) {
          return against(text);
        } else {
          return against(image);
        }
      },
      qos);
}

UserProfile default_user_profile() {
  UserProfile p;
  p.name = "default";
  VideoProfile video;
  video.desired = VideoQoS{ColorDepth::kColor, kTvFrameRate, kTvResolution};
  video.worst = VideoQoS{ColorDepth::kGray, 10, 320};
  p.mm.video = video;
  AudioProfile audio;
  audio.desired = AudioQoS{AudioQuality::kCD};
  audio.worst = AudioQoS{AudioQuality::kTelephone};
  p.mm.audio = audio;
  TextProfile text;
  text.desired = Language::kEnglish;
  text.acceptable = {Language::kFrench};
  p.mm.text = text;
  ImageProfile image;
  image.desired = ImageQoS{ColorDepth::kColor, kTvResolution};
  image.worst = ImageQoS{ColorDepth::kGray, 320};
  p.mm.image = image;
  p.mm.cost.max_cost = Money::dollars(8);
  p.mm.time = TimeProfile{};
  p.importance = ImportanceProfile::defaults();
  return p;
}

UserProfile demanding_user_profile() {
  UserProfile p = default_user_profile();
  p.name = "demanding";
  p.mm.video->desired = VideoQoS{ColorDepth::kSuperColor, 30, 1280};
  p.mm.video->worst = VideoQoS{ColorDepth::kColor, 25, kTvResolution};
  p.mm.audio->desired = AudioQoS{AudioQuality::kCD};
  p.mm.audio->worst = AudioQoS{AudioQuality::kRadio};
  p.mm.image->desired = ImageQoS{ColorDepth::kSuperColor, 1280};
  p.mm.image->worst = ImageQoS{ColorDepth::kColor, 320};
  p.mm.cost.max_cost = Money::dollars(25);
  p.importance.cost_per_dollar = 1.0;
  return p;
}

UserProfile typical_user_profile() {
  UserProfile p = default_user_profile();
  p.name = "typical";
  return p;
}

UserProfile thrifty_user_profile() {
  UserProfile p = default_user_profile();
  p.name = "thrifty";
  p.mm.video->desired = VideoQoS{ColorDepth::kColor, 15, 320};
  p.mm.video->worst = VideoQoS{ColorDepth::kBlackWhite, 10, 320};
  p.mm.audio->desired = AudioQoS{AudioQuality::kRadio};
  p.mm.audio->worst = AudioQoS{AudioQuality::kTelephone};
  p.mm.image->desired = ImageQoS{ColorDepth::kGray, 320};
  p.mm.image->worst = ImageQoS{ColorDepth::kBlackWhite, 320};
  p.mm.cost.max_cost = Money::dollars(3);
  p.importance.cost_per_dollar = 8.0;
  return p;
}

std::vector<std::string> validate(const UserProfile& profile) {
  std::vector<std::string> problems;
  if (profile.name.empty()) problems.push_back("profile has an empty name");
  if (profile.mm.video && !profile.mm.video->well_formed()) {
    problems.push_back("video profile: worst acceptable exceeds desired");
  }
  if (profile.mm.audio && !profile.mm.audio->well_formed()) {
    problems.push_back("audio profile: worst acceptable exceeds desired");
  }
  if (profile.mm.image && !profile.mm.image->well_formed()) {
    problems.push_back("image profile: worst acceptable exceeds desired");
  }
  if (profile.mm.video) {
    const VideoQoS d = profile.mm.video->desired;
    if (d.frame_rate_fps < kFrozenFrameRate || d.frame_rate_fps > kHdtvFrameRate) {
      problems.push_back("video profile: desired frame rate outside [1, 60] fps");
    }
    if (d.resolution < kMinResolution || d.resolution > kHdtvResolution) {
      problems.push_back("video profile: desired resolution outside [10, 1920] pixels/line");
    }
  }
  if (profile.mm.cost.max_cost.is_negative()) {
    problems.push_back("cost profile: negative maximum cost");
  }
  if (profile.mm.time.delivery_time_s <= 0.0) {
    problems.push_back("time profile: non-positive delivery time");
  }
  if (profile.mm.time.choice_period_s <= 0.0) {
    problems.push_back("time profile: non-positive choice period");
  }
  // NaN would break the orderings Step 4 ranks offers by.
  if (!all_finite(profile)) problems.push_back("profile holds a non-finite number");
  if (!profile.mm.video && !profile.mm.audio && !profile.mm.text && !profile.mm.image) {
    problems.push_back("profile requests no media at all");
  }
  return problems;
}

}  // namespace qosnp
