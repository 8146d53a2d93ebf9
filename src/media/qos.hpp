// Per-medium QoS value types. These express both what a stored variant
// offers and what a user profile requests (desired / worst-acceptable), in
// the user-perceived units of paper Fig. 2 — never in system units such as
// throughput or jitter (those are produced later by the QoS mapping,
// Sec. 6).
#pragma once

#include <compare>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "media/types.hpp"

namespace qosnp {

/// Video QoS: colour ladder, frame rate [1, 60] fps, resolution
/// [10, 1920] pixels/line.
struct VideoQoS {
  ColorDepth color = ColorDepth::kColor;
  int frame_rate_fps = kTvFrameRate;
  int resolution = kTvResolution;

  friend bool operator==(const VideoQoS&, const VideoQoS&) = default;

  /// True when every characteristic meets or exceeds `floor`.
  bool meets(const VideoQoS& floor) const {
    return color >= floor.color && frame_rate_fps >= floor.frame_rate_fps &&
           resolution >= floor.resolution;
  }

  /// Clamp the characteristics into the Fig. 2 GUI ranges.
  VideoQoS clamped() const;

  std::string to_string() const;
};

/// Audio QoS: perceptual quality ladder (telephone .. CD).
struct AudioQoS {
  AudioQuality quality = AudioQuality::kCD;

  friend bool operator==(const AudioQoS&, const AudioQoS&) = default;

  bool meets(const AudioQoS& floor) const { return quality >= floor.quality; }

  std::string to_string() const;
};

/// Text QoS: the language the article text is rendered in. Languages are
/// unordered; `acceptable` lists the worst-acceptable alternatives.
struct TextQoS {
  Language language = Language::kEnglish;

  friend bool operator==(const TextQoS&, const TextQoS&) = default;

  std::string to_string() const;
};

/// Still-image QoS: colour ladder and resolution.
struct ImageQoS {
  ColorDepth color = ColorDepth::kColor;
  int resolution = kTvResolution;

  friend bool operator==(const ImageQoS&, const ImageQoS&) = default;

  bool meets(const ImageQoS& floor) const {
    return color >= floor.color && resolution >= floor.resolution;
  }

  ImageQoS clamped() const;

  std::string to_string() const;
};

/// The QoS of one monomedia object, whatever its medium.
using MonomediaQoS = std::variant<VideoQoS, AudioQoS, TextQoS, ImageQoS>;

/// Medium carried by a MonomediaQoS alternative.
MediaKind media_kind_of(const MonomediaQoS& qos);

std::string to_string(const MonomediaQoS& qos);

/// The plain-text form both the document and the profile formats store:
/// "color fps resolution" for video, "color resolution" for an image, and
/// the quality or language name for audio and text.
std::string qos_text(const MonomediaQoS& qos);

/// Parse qos_text's form of a `kind` QoS into `out`; false when malformed
/// (wrong field count, unknown name, non-positive number).
bool parse_qos_text(MediaKind kind, std::string_view text, MonomediaQoS& out);

}  // namespace qosnp
