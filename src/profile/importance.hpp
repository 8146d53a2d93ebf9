// Importance factors (paper Sec. 3 and 5.2.2): user-set weights that express
// the relative importance of QoS characteristics and of cost. For scalar
// characteristics (frame rate, resolution) the user sets importance only at
// anchor values (frozen/TV/HDTV rate; minimal/TV/HDTV resolution) and the
// importance of any other value is linearly interpolated between the
// surrounding anchors. For enumerated characteristics (colour, audio
// quality, language) every ladder value carries an importance. The cost
// importance is the importance of one dollar; an offer's cost importance is
// that factor times the offer's cost.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "media/qos.hpp"
#include "media/types.hpp"
#include "util/money.hpp"

namespace qosnp {

/// Piecewise-linear importance curve over a scalar QoS characteristic.
/// Anchors are kept sorted by x; evaluation clamps outside the anchor span.
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;
  PiecewiseLinear(std::initializer_list<std::pair<double, double>> anchors);

  /// Insert or overwrite the anchor at x.
  void set_anchor(double x, double value);
  /// Importance at x: exact at anchors, linear in between, clamped outside.
  double at(double x) const;

  std::size_t anchor_count() const { return anchors_.size(); }
  bool empty() const { return anchors_.empty(); }
  /// The sorted (x, importance) anchors; exposed so the wire codec can
  /// carry the whole curve.
  const std::vector<std::pair<double, double>>& anchors() const { return anchors_; }

  friend bool operator==(const PiecewiseLinear&, const PiecewiseLinear&) = default;

 private:
  std::vector<std::pair<double, double>> anchors_;  // sorted by first
};

/// The importance profile of a user (Fig. 2's importance factors).
struct ImportanceProfile {
  // Video.
  std::array<double, 4> video_color{};  ///< indexed by ColorDepth
  PiecewiseLinear frame_rate;
  PiecewiseLinear resolution;
  // Audio.
  std::array<double, 3> audio_quality{};  ///< indexed by AudioQuality
  // Text.
  std::array<double, 4> language{};  ///< indexed by Language
  // Image.
  std::array<double, 4> image_color{};
  PiecewiseLinear image_resolution;

  /// Per-media multiplier (paper: "the user specifies that the audio is
  /// more important than the video"). Defaults to 1 for every medium.
  std::array<double, 4> media_weight{1.0, 1.0, 1.0, 1.0};  ///< indexed by MediaKind

  /// Importance of one dollar of cost (paper Sec. 5.2.2(b)).
  double cost_per_dollar = 0.0;

  /// Server preference (paper Sec. 8: the profile "may include ... other
  /// information related to document search, e.g. the user prefers certain
  /// servers over others"): each offer component stored on a preferred
  /// server adds `server_bonus` to the offer's overall importance factor.
  std::vector<std::string> preferred_servers;
  double server_bonus = 0.0;

  bool prefers_server(const std::string& server) const;

  /// QoS importance of one monomedia QoS instance: the sum of the
  /// importances of its characteristic values, scaled by the media weight.
  double qos_importance(const MonomediaQoS& qos) const;

  /// Cost importance of an offer: cost_per_dollar x cost-in-dollars.
  double cost_importance(Money cost) const;

  /// Paper defaults ("We associate a default importance value for each QoS
  /// parameter value").
  static ImportanceProfile defaults();

  friend bool operator==(const ImportanceProfile&, const ImportanceProfile&) = default;
};

}  // namespace qosnp
