// User profiles (paper Sec. 3, Fig. 2). A user profile consists of a MM
// profile of *desired* values, a MM profile of *worst acceptable* values,
// and the importance profile. Here each per-medium profile carries the
// desired and worst-acceptable values side by side (equivalent structure,
// friendlier to consume), plus the cost profile and time profile.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "media/qos.hpp"
#include "media/types.hpp"
#include "profile/importance.hpp"
#include "util/money.hpp"

namespace qosnp {

struct VideoProfile {
  VideoQoS desired;
  VideoQoS worst;  ///< worst acceptable values

  bool satisfied_by(const VideoQoS& offered) const { return offered.meets(desired); }
  bool tolerates(const VideoQoS& offered) const { return offered.meets(worst); }
  /// Worst must not exceed desired on any characteristic.
  bool well_formed() const { return desired.meets(worst); }
  friend bool operator==(const VideoProfile&, const VideoProfile&) = default;
};

struct AudioProfile {
  AudioQoS desired;
  AudioQoS worst;

  bool satisfied_by(const AudioQoS& offered) const { return offered.meets(desired); }
  bool tolerates(const AudioQoS& offered) const { return offered.meets(worst); }
  bool well_formed() const { return desired.meets(worst); }
  friend bool operator==(const AudioProfile&, const AudioProfile&) = default;
};

struct TextProfile {
  Language desired = Language::kEnglish;
  /// Languages the user also accepts (the desired one is always accepted).
  std::vector<Language> acceptable;

  bool satisfied_by(const TextQoS& offered) const { return offered.language == desired; }
  bool tolerates(const TextQoS& offered) const;
  bool well_formed() const { return true; }
  friend bool operator==(const TextProfile&, const TextProfile&) = default;
};

struct ImageProfile {
  ImageQoS desired;
  ImageQoS worst;

  bool satisfied_by(const ImageQoS& offered) const { return offered.meets(desired); }
  bool tolerates(const ImageQoS& offered) const { return offered.meets(worst); }
  bool well_formed() const { return desired.meets(worst); }
  friend bool operator==(const ImageProfile&, const ImageProfile&) = default;
};

/// Cost profile: the maximum amount the user is willing to pay to play the
/// requested document with the desired quality (Fig. 2, in $).
struct CostProfile {
  Money max_cost = Money::dollars(10);
  friend bool operator==(const CostProfile&, const CostProfile&) = default;
};

/// Time profile (Fig. 2, in seconds): the deadline for delivering discrete
/// media (text/images) — this drives their bandwidth requirement — and the
/// confirmation window `choicePeriod` of Step 6.
struct TimeProfile {
  double delivery_time_s = 10.0;
  double choice_period_s = 30.0;
  friend bool operator==(const TimeProfile&, const TimeProfile&) = default;
};

/// The per-request MM profile: which media the user wants (absent media are
/// not requested and impose no constraint) plus cost and time profiles.
struct MMProfile {
  std::optional<VideoProfile> video;
  std::optional<AudioProfile> audio;
  std::optional<TextProfile> text;
  std::optional<ImageProfile> image;
  CostProfile cost;
  TimeProfile time;

  bool wants(MediaKind kind) const;

  /// How `qos` fares against the request for its medium. A medium the
  /// profile does not request imposes no constraint (both flags true).
  struct Grade {
    bool desired = true;    ///< satisfied_by the desired values
    bool tolerated = true;  ///< meets the worst acceptable values
  };
  Grade grade(const MonomediaQoS& qos) const;

  friend bool operator==(const MMProfile&, const MMProfile&) = default;
};

/// A named, stored user profile managed by the profile manager.
struct UserProfile {
  std::string name = "default";
  MMProfile mm;
  ImportanceProfile importance = ImportanceProfile::defaults();
};

/// A sensible default profile (the one the QoS GUI preloads).
UserProfile default_user_profile();

/// Named presets of the standard population (paper Sec. 3's spectrum of
/// users): "demanding" wants high quality and pays for it, "typical" is
/// default_user_profile() under its population name, "thrifty" trades
/// quality for cost aggressively. Shared by the experiment profile mix and
/// the population simulation's client classes.
UserProfile demanding_user_profile();
UserProfile typical_user_profile();
UserProfile thrifty_user_profile();

/// Validation problem list for a profile (empty when well-formed).
std::vector<std::string> validate(const UserProfile& profile);

}  // namespace qosnp
