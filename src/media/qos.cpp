#include "media/qos.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "util/strings.hpp"

namespace qosnp {

namespace {
int clamp_int(int v, int lo, int hi) { return std::clamp(v, lo, hi); }
}  // namespace

VideoQoS VideoQoS::clamped() const {
  VideoQoS out = *this;
  out.frame_rate_fps = clamp_int(frame_rate_fps, kFrozenFrameRate, kHdtvFrameRate);
  out.resolution = clamp_int(resolution, kMinResolution, kHdtvResolution);
  return out;
}

std::string VideoQoS::to_string() const {
  std::ostringstream os;
  os << "(" << qosnp::to_string(color) << ", " << frame_rate_fps << " frames/s, " << resolution
     << " px/line)";
  return os.str();
}

std::string AudioQoS::to_string() const {
  std::ostringstream os;
  os << "(" << qosnp::to_string(quality) << " quality)";
  return os.str();
}

std::string TextQoS::to_string() const {
  std::ostringstream os;
  os << "(" << qosnp::to_string(language) << ")";
  return os.str();
}

ImageQoS ImageQoS::clamped() const {
  ImageQoS out = *this;
  out.resolution = clamp_int(resolution, kMinResolution, kHdtvResolution);
  return out;
}

std::string ImageQoS::to_string() const {
  std::ostringstream os;
  os << "(" << qosnp::to_string(color) << ", " << resolution << " px/line)";
  return os.str();
}

MediaKind media_kind_of(const MonomediaQoS& qos) {
  return std::visit(
      [](const auto& q) -> MediaKind {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, VideoQoS>) return MediaKind::kVideo;
        if constexpr (std::is_same_v<T, AudioQoS>) return MediaKind::kAudio;
        if constexpr (std::is_same_v<T, TextQoS>) return MediaKind::kText;
        if constexpr (std::is_same_v<T, ImageQoS>) return MediaKind::kImage;
      },
      qos);
}

std::string to_string(const MonomediaQoS& qos) {
  return std::visit([](const auto& q) { return q.to_string(); }, qos);
}

std::string qos_text(const MonomediaQoS& qos) {
  return std::visit(
      [](const auto& q) -> std::string {
        using T = std::decay_t<decltype(q)>;
        std::ostringstream os;
        if constexpr (std::is_same_v<T, VideoQoS>) {
          os << qosnp::to_string(q.color) << ' ' << q.frame_rate_fps << ' ' << q.resolution;
        } else if constexpr (std::is_same_v<T, AudioQoS>) {
          os << qosnp::to_string(q.quality);
        } else if constexpr (std::is_same_v<T, TextQoS>) {
          os << qosnp::to_string(q.language);
        } else {
          os << qosnp::to_string(q.color) << ' ' << q.resolution;
        }
        return os.str();
      },
      qos);
}

bool parse_qos_text(MediaKind kind, std::string_view text, MonomediaQoS& out) {
  std::vector<std::string> fields;
  for (const auto& f : split(text, ' ')) {
    if (!trim(f).empty()) fields.emplace_back(trim(f));
  }
  switch (kind) {
    case MediaKind::kVideo: {
      if (fields.size() != 3) return false;
      const auto color = parse_color_depth(fields[0]);
      if (!color) return false;
      VideoQoS q;
      q.color = *color;
      q.frame_rate_fps = std::atoi(fields[1].c_str());
      q.resolution = std::atoi(fields[2].c_str());
      out = q;
      return q.frame_rate_fps > 0 && q.resolution > 0;
    }
    case MediaKind::kAudio: {
      if (fields.size() != 1) return false;
      const auto quality = parse_audio_quality(fields[0]);
      if (!quality) return false;
      out = AudioQoS{*quality};
      return true;
    }
    case MediaKind::kText: {
      if (fields.size() != 1) return false;
      const auto language = parse_language(fields[0]);
      if (!language) return false;
      out = TextQoS{*language};
      return true;
    }
    case MediaKind::kImage: {
      if (fields.size() != 2) return false;
      const auto color = parse_color_depth(fields[0]);
      if (!color) return false;
      ImageQoS q;
      q.color = *color;
      q.resolution = std::atoi(fields[1].c_str());
      out = q;
      return q.resolution > 0;
    }
  }
  return false;
}

}  // namespace qosnp
