// Client machine model (paper Steps 1-2): the characteristics checked by
// *static local negotiation* (screen size, screen colour, audio device) and
// *static compatibility checking* (which decoders the machine supports).
// The paper's examples: "the user asks for a color video, while the client
// machine screen is black&white" (FAILEDWITHLOCALOFFER); "the client machine
// supports only MPEG decoder and the video variant is coded as MJPEG"
// (that variant is not feasible).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "media/qos.hpp"
#include "media/types.hpp"
#include "net/topology.hpp"
#include "profile/profiles.hpp"

namespace qosnp {

struct ScreenSpec {
  int width_px = 1920;
  int height_px = 1080;
  ColorDepth color = ColorDepth::kSuperColor;
  friend bool operator==(const ScreenSpec&, const ScreenSpec&) = default;
};

struct ClientMachine {
  std::string name = "client";
  NodeId node;  ///< attachment point in the network topology
  ScreenSpec screen;
  std::vector<CodingFormat> decoders{CodingFormat::kMPEG1, CodingFormat::kJPEG,
                                     CodingFormat::kPCM, CodingFormat::kPlainText};
  AudioQuality max_audio = AudioQuality::kCD;
  bool has_audio_out = true;

  bool can_decode(CodingFormat format) const {
    return std::find(decoders.begin(), decoders.end(), format) != decoders.end();
  }

  /// Best video QoS this machine can render (the "local offer" of
  /// FAILEDWITHLOCALOFFER).
  VideoQoS best_video() const {
    return VideoQoS{screen.color, kHdtvFrameRate, std::min(screen.width_px, kHdtvResolution)};
  }
  ImageQoS best_image() const {
    return ImageQoS{screen.color, std::min(screen.width_px, kHdtvResolution)};
  }
  AudioQoS best_audio() const { return AudioQoS{max_audio}; }

  bool supports(const VideoQoS& qos) const {
    return screen.color >= qos.color && screen.width_px >= qos.resolution;
  }
  bool supports(const AudioQoS& qos) const {
    return has_audio_out && max_audio >= qos.quality;
  }
  bool supports(const ImageQoS& qos) const {
    return screen.color >= qos.color && screen.width_px >= qos.resolution;
  }
};

/// Result of static local negotiation (Step 1) against a user profile: the
/// list of requested characteristics the machine cannot render, and the
/// best the machine could do instead (the local offer).
struct LocalCheck {
  bool ok = true;
  std::vector<std::string> problems;
  /// The user's profile clipped to what the machine can render.
  MMProfile local_offer;
};

/// Step 1: check the *desired* request against the machine; a request whose
/// worst-acceptable values already exceed the hardware fails locally.
LocalCheck local_negotiation(const ClientMachine& machine, const MMProfile& requested);

}  // namespace qosnp
