#include "profile/profile_manager.hpp"
#include "profile/profiles.hpp"
#include "profile/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace qosnp {
namespace {

TEST(Profiles, VideoProfileSatisfactionAndTolerance) {
  VideoProfile p;
  p.desired = VideoQoS{ColorDepth::kColor, 25, 640};
  p.worst = VideoQoS{ColorDepth::kGray, 10, 320};
  EXPECT_TRUE(p.satisfied_by(VideoQoS{ColorDepth::kSuperColor, 30, 1280}));
  EXPECT_FALSE(p.satisfied_by(VideoQoS{ColorDepth::kGray, 25, 640}));
  EXPECT_TRUE(p.tolerates(VideoQoS{ColorDepth::kGray, 10, 320}));
  EXPECT_FALSE(p.tolerates(VideoQoS{ColorDepth::kBlackWhite, 25, 640}));
  EXPECT_TRUE(p.well_formed());
}

TEST(Profiles, IllFormedWhenWorstExceedsDesired) {
  VideoProfile p;
  p.desired = VideoQoS{ColorDepth::kGray, 10, 320};
  p.worst = VideoQoS{ColorDepth::kColor, 25, 640};
  EXPECT_FALSE(p.well_formed());
}

TEST(Profiles, TextProfileAcceptableLanguages) {
  TextProfile p;
  p.desired = Language::kFrench;
  p.acceptable = {Language::kEnglish};
  EXPECT_TRUE(p.satisfied_by(TextQoS{Language::kFrench}));
  EXPECT_FALSE(p.satisfied_by(TextQoS{Language::kEnglish}));
  EXPECT_TRUE(p.tolerates(TextQoS{Language::kEnglish}));
  EXPECT_TRUE(p.tolerates(TextQoS{Language::kFrench}));
  EXPECT_FALSE(p.tolerates(TextQoS{Language::kGerman}));
}

TEST(Profiles, MMProfileWants) {
  MMProfile mm;
  EXPECT_FALSE(mm.wants(MediaKind::kVideo));
  mm.video = VideoProfile{};
  EXPECT_TRUE(mm.wants(MediaKind::kVideo));
  EXPECT_FALSE(mm.wants(MediaKind::kAudio));
}

TEST(Profiles, DefaultProfileValidates) {
  EXPECT_TRUE(validate(default_user_profile()).empty());
}

TEST(Profiles, ValidateCatchesProblems) {
  UserProfile p = default_user_profile();
  p.name = "";
  EXPECT_FALSE(validate(p).empty());

  p = default_user_profile();
  p.mm.video->worst = VideoQoS{ColorDepth::kSuperColor, 60, 1920};
  p.mm.video->desired = VideoQoS{ColorDepth::kGray, 10, 320};
  EXPECT_FALSE(validate(p).empty());

  p = default_user_profile();
  p.mm.video->desired.frame_rate_fps = 200;
  EXPECT_FALSE(validate(p).empty());

  p = default_user_profile();
  p.mm.cost.max_cost = Money::dollars(-1);
  EXPECT_FALSE(validate(p).empty());

  p = default_user_profile();
  p.mm.time.delivery_time_s = 0.0;
  EXPECT_FALSE(validate(p).empty());

  p = default_user_profile();
  p.mm.video.reset();
  p.mm.audio.reset();
  p.mm.text.reset();
  p.mm.image.reset();
  EXPECT_FALSE(validate(p).empty());
}

TEST(Profiles, ValidateRejectsNonFiniteNumbers) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::function<void(UserProfile&)>> spoilers = {
      [&](UserProfile& p) { p.mm.time.delivery_time_s = kNaN; },
      [&](UserProfile& p) { p.mm.time.choice_period_s = kInf; },
      [&](UserProfile& p) { p.importance.video_color[1] = kNaN; },
      [&](UserProfile& p) { p.importance.frame_rate.set_anchor(25.0, kNaN); },
      [&](UserProfile& p) { p.importance.image_resolution.set_anchor(kInf, 1.0); },
      [&](UserProfile& p) { p.importance.media_weight[2] = -kInf; },
      [&](UserProfile& p) { p.importance.cost_per_dollar = kNaN; },
      [&](UserProfile& p) { p.importance.server_bonus = kNaN; },
  };
  for (std::size_t i = 0; i < spoilers.size(); ++i) {
    UserProfile p = default_user_profile();
    spoilers[i](p);
    EXPECT_EQ(validate(p), std::vector<std::string>{"profile holds a non-finite number"})
        << "case " << i;
  }
}

TEST(Serialize, RoundTripsDefaultProfile) {
  const UserProfile original = default_user_profile();
  const std::string text = to_text(original);
  auto parsed = parse_profiles(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().size(), 1u);
  const UserProfile& back = parsed.value()[0];
  EXPECT_EQ(back.name, original.name);
  ASSERT_TRUE(back.mm.video.has_value());
  EXPECT_EQ(back.mm.video->desired, original.mm.video->desired);
  EXPECT_EQ(back.mm.video->worst, original.mm.video->worst);
  ASSERT_TRUE(back.mm.audio.has_value());
  EXPECT_EQ(back.mm.audio->desired, original.mm.audio->desired);
  ASSERT_TRUE(back.mm.text.has_value());
  EXPECT_EQ(back.mm.text->desired, original.mm.text->desired);
  EXPECT_EQ(back.mm.text->acceptable, original.mm.text->acceptable);
  ASSERT_TRUE(back.mm.image.has_value());
  EXPECT_EQ(back.mm.image->desired, original.mm.image->desired);
  EXPECT_EQ(back.mm.cost.max_cost, original.mm.cost.max_cost);
  EXPECT_DOUBLE_EQ(back.mm.time.delivery_time_s, original.mm.time.delivery_time_s);
  EXPECT_DOUBLE_EQ(back.importance.cost_per_dollar, original.importance.cost_per_dollar);
  EXPECT_EQ(back.importance.video_color, original.importance.video_color);
  EXPECT_DOUBLE_EQ(back.importance.frame_rate.at(kTvFrameRate),
                   original.importance.frame_rate.at(kTvFrameRate));
}

TEST(Serialize, RoundTripsServerPreferences) {
  UserProfile p = default_user_profile();
  p.importance.preferred_servers = {"server-a", "edge-3"};
  p.importance.server_bonus = 2.5;
  auto parsed = parse_profiles(to_text(p));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const ImportanceProfile& imp = parsed.value()[0].importance;
  EXPECT_EQ(imp.preferred_servers, p.importance.preferred_servers);
  EXPECT_DOUBLE_EQ(imp.server_bonus, 2.5);
  EXPECT_TRUE(imp.prefers_server("edge-3"));
  EXPECT_FALSE(imp.prefers_server("server-b"));
}

TEST(Serialize, ParsesMultipleProfiles) {
  const std::string text = to_text(default_user_profile()) + "\n" + [] {
    UserProfile p = default_user_profile();
    p.name = "second";
    return to_text(p);
  }();
  auto parsed = parse_profiles(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[1].name, "second");
}

TEST(Serialize, SkipsCommentsAndBlankLines) {
  auto parsed = parse_profiles("# a comment\n\nprofile = x\ncost.max = $2.00\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0].mm.cost.max_cost, Money::dollars(2));
}

TEST(Serialize, ParsedProfileStartsWithNoMedia) {
  auto parsed = parse_profiles("profile = bare\ncost.max = $1.00\n");
  ASSERT_TRUE(parsed.ok());
  const MMProfile& mm = parsed.value()[0].mm;
  EXPECT_FALSE(mm.video || mm.audio || mm.text || mm.image);
}

TEST(Serialize, ErrorsCarryLineNumbers) {
  auto parsed = parse_profiles("profile = x\nvideo.desired = nonsense\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("line 2"), std::string::npos);

  parsed = parse_profiles("cost.max = $1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("before any"), std::string::npos);

  parsed = parse_profiles("profile = x\nmystery.key = 1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("unknown key"), std::string::npos);
}

TEST(ProfileManager, StartsWithDefault) {
  ProfileManager manager;
  EXPECT_EQ(manager.default_profile().name, "default");
  EXPECT_EQ(manager.list().size(), 1u);
}

TEST(ProfileManager, SaveFindRemove) {
  ProfileManager manager;
  UserProfile p = default_user_profile();
  p.name = "evening-news";
  ASSERT_TRUE(manager.save(p).ok());
  ASSERT_TRUE(manager.find("evening-news").has_value());
  EXPECT_EQ(manager.list().size(), 2u);
  EXPECT_TRUE(manager.remove("evening-news"));
  EXPECT_FALSE(manager.find("evening-news").has_value());
}

TEST(ProfileManager, CannotRemoveDefault) {
  ProfileManager manager;
  EXPECT_FALSE(manager.remove("default"));
}

TEST(ProfileManager, RejectsInvalidProfile) {
  ProfileManager manager;
  UserProfile bad = default_user_profile();
  bad.name = "bad";
  bad.mm.cost.max_cost = Money::dollars(-5);
  EXPECT_FALSE(manager.save(bad).ok());
  EXPECT_FALSE(manager.find("bad").has_value());
}

TEST(ProfileManager, SetDefault) {
  ProfileManager manager;
  UserProfile p = default_user_profile();
  p.name = "preferred";
  manager.save(p);
  EXPECT_TRUE(manager.set_default("preferred"));
  EXPECT_EQ(manager.default_profile().name, "preferred");
  EXPECT_FALSE(manager.set_default("ghost"));
}

TEST(ProfileManager, FilePersistenceRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "qosnp_profiles_test.txt").string();
  {
    ProfileManager manager;
    UserProfile p = default_user_profile();
    p.name = "saved";
    p.mm.cost.max_cost = Money::cents(1234);
    manager.save(p);
    ASSERT_TRUE(manager.save_to_file(path).ok());
  }
  {
    ProfileManager manager;
    ASSERT_TRUE(manager.load_from_file(path).ok());
    auto p = manager.find("saved");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->mm.cost.max_cost, Money::cents(1234));
  }
  std::remove(path.c_str());
}

TEST(ProfileManager, LoadMissingFileFails) {
  ProfileManager manager;
  EXPECT_FALSE(manager.load_from_file("/nonexistent/qosnp.txt").ok());
}

}  // namespace
}  // namespace qosnp
