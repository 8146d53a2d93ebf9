#include "profile/serialize.hpp"

#include <cstdio>
#include <cstdlib>
#include <span>
#include <sstream>

#include "util/strings.hpp"

namespace qosnp {

namespace {

std::string array_text(std::span<const double> values) {
  std::ostringstream os;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) os << ' ';
    os << format_double(values[i], 3);
  }
  return os.str();
}

std::string curve_text(const PiecewiseLinear& curve, std::span<const double> xs) {
  // Serialise by sampling at the canonical anchor positions: the GUI only
  // exposes those anchors (Fig. 2), so this is lossless for GUI-made curves.
  std::ostringstream os;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) os << ' ';
    os << format_double(xs[i], 0) << ':' << format_double(curve.at(xs[i]), 3);
  }
  return os.str();
}

bool parse_doubles(const std::string& value, std::vector<double>& out) {
  out.clear();
  for (const auto& p : split(value, ' ')) {
    const auto f = trim(p);
    if (f.empty()) continue;
    char* end = nullptr;
    const std::string s(f);
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str()) return false;
    out.push_back(v);
  }
  return !out.empty();
}

bool parse_curve(const std::string& value, PiecewiseLinear& out) {
  out = PiecewiseLinear{};
  for (const auto& p : split(value, ' ')) {
    const auto f = trim(p);
    if (f.empty()) continue;
    const auto pos = f.find(':');
    if (pos == std::string_view::npos) return false;
    const std::string xs(f.substr(0, pos));
    const std::string vs(f.substr(pos + 1));
    char* end = nullptr;
    const double x = std::strtod(xs.c_str(), &end);
    if (end == xs.c_str()) return false;
    const double v = std::strtod(vs.c_str(), &end);
    if (end == vs.c_str()) return false;
    out.set_anchor(x, v);
  }
  return !out.empty();
}

}  // namespace

std::string to_text(const UserProfile& p) {
  std::ostringstream os;
  os << "profile = " << p.name << '\n';
  if (p.mm.video) {
    os << "video.desired = " << qos_text(p.mm.video->desired) << '\n';
    os << "video.worst = " << qos_text(p.mm.video->worst) << '\n';
  }
  if (p.mm.audio) {
    os << "audio.desired = " << to_string(p.mm.audio->desired.quality) << '\n';
    os << "audio.worst = " << to_string(p.mm.audio->worst.quality) << '\n';
  }
  if (p.mm.text) {
    os << "text.desired = " << to_string(p.mm.text->desired) << '\n';
    if (!p.mm.text->acceptable.empty()) {
      os << "text.acceptable =";
      for (Language l : p.mm.text->acceptable) os << ' ' << to_string(l);
      os << '\n';
    }
  }
  if (p.mm.image) {
    os << "image.desired = " << qos_text(p.mm.image->desired) << '\n';
    os << "image.worst = " << qos_text(p.mm.image->worst) << '\n';
  }
  os << "cost.max = " << p.mm.cost.max_cost.to_string() << '\n';
  os << "time.delivery = " << format_double(p.mm.time.delivery_time_s, 1) << '\n';
  os << "time.choice_period = " << format_double(p.mm.time.choice_period_s, 1) << '\n';

  const ImportanceProfile& imp = p.importance;
  os << "importance.video.color = " << array_text(imp.video_color) << '\n';
  const double rate_anchors[] = {kFrozenFrameRate, kTvFrameRate, kHdtvFrameRate};
  const double res_anchors[] = {kMinResolution, kTvResolution, kHdtvResolution};
  os << "importance.frame_rate = " << curve_text(imp.frame_rate, rate_anchors) << '\n';
  os << "importance.resolution = " << curve_text(imp.resolution, res_anchors) << '\n';
  os << "importance.audio = " << array_text(imp.audio_quality) << '\n';
  os << "importance.language = " << array_text(imp.language) << '\n';
  os << "importance.image.color = " << array_text(imp.image_color) << '\n';
  os << "importance.image.resolution = " << curve_text(imp.image_resolution, res_anchors) << '\n';
  os << "importance.media_weight = " << array_text(imp.media_weight) << '\n';
  os << "importance.cost = " << format_double(imp.cost_per_dollar, 3) << '\n';
  if (!imp.preferred_servers.empty()) {
    os << "importance.preferred_servers =";
    for (const auto& s : imp.preferred_servers) os << ' ' << s;
    os << '\n';
    os << "importance.server_bonus = " << format_double(imp.server_bonus, 3) << '\n';
  }
  return os.str();
}

Result<std::vector<UserProfile>> parse_profiles(const std::string& text) {
  std::vector<UserProfile> profiles;
  UserProfile current;
  bool open = false;

  auto fail = [&](int line_no, const std::string& what) {
    return Err(std::string("line " + std::to_string(line_no) + ": " + what));
  };

  const auto lines = split(text, '\n');
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int line_no = static_cast<int>(i) + 1;
    const auto line = trim(lines[i]);
    if (line.empty() || line.front() == '#') continue;
    std::string key;
    std::string value;
    if (!parse_key_value(line, key, value)) {
      return fail(line_no, "expected 'key = value'");
    }
    if (key == "profile") {
      if (open) profiles.push_back(std::move(current));
      current = UserProfile{};
      current.name = value;
      // A parsed profile starts with no media; keys below attach them.
      current.mm.video.reset();
      current.mm.audio.reset();
      current.mm.text.reset();
      current.mm.image.reset();
      open = true;
      continue;
    }
    if (!open) return fail(line_no, "key before any 'profile =' line");

    auto& mm = current.mm;
    auto& imp = current.importance;
    std::vector<double> nums;
    if (key == "video.desired" || key == "video.worst") {
      MonomediaQoS q;
      if (!parse_qos_text(MediaKind::kVideo, value, q)) {
        return fail(line_no, "bad video QoS '" + value + "'");
      }
      if (!mm.video) mm.video = VideoProfile{};
      (key == "video.desired" ? mm.video->desired : mm.video->worst) = std::get<VideoQoS>(q);
    } else if (key == "audio.desired" || key == "audio.worst") {
      const auto q = parse_audio_quality(value);
      if (!q) return fail(line_no, "bad audio quality '" + value + "'");
      if (!mm.audio) mm.audio = AudioProfile{};
      (key == "audio.desired" ? mm.audio->desired : mm.audio->worst) = AudioQoS{*q};
    } else if (key == "text.desired") {
      const auto l = parse_language(value);
      if (!l) return fail(line_no, "bad language '" + value + "'");
      if (!mm.text) mm.text = TextProfile{};
      mm.text->desired = *l;
    } else if (key == "text.acceptable") {
      if (!mm.text) mm.text = TextProfile{};
      mm.text->acceptable.clear();
      for (const auto& p : split(value, ' ')) {
        const auto f = trim(p);
        if (f.empty()) continue;
        const auto l = parse_language(f);
        if (!l) return fail(line_no, "bad language '" + std::string(f) + "'");
        mm.text->acceptable.push_back(*l);
      }
    } else if (key == "image.desired" || key == "image.worst") {
      MonomediaQoS q;
      if (!parse_qos_text(MediaKind::kImage, value, q)) {
        return fail(line_no, "bad image QoS '" + value + "'");
      }
      if (!mm.image) mm.image = ImageProfile{};
      (key == "image.desired" ? mm.image->desired : mm.image->worst) = std::get<ImageQoS>(q);
    } else if (key == "cost.max") {
      mm.cost.max_cost = Money::parse(value);
    } else if (key == "time.delivery") {
      mm.time.delivery_time_s = std::atof(value.c_str());
    } else if (key == "time.choice_period") {
      mm.time.choice_period_s = std::atof(value.c_str());
    } else if (key == "importance.video.color") {
      if (!parse_doubles(value, nums) || nums.size() != 4) {
        return fail(line_no, "expected 4 colour importances");
      }
      std::copy(nums.begin(), nums.end(), imp.video_color.begin());
    } else if (key == "importance.frame_rate") {
      if (!parse_curve(value, imp.frame_rate)) return fail(line_no, "bad curve");
    } else if (key == "importance.resolution") {
      if (!parse_curve(value, imp.resolution)) return fail(line_no, "bad curve");
    } else if (key == "importance.audio") {
      if (!parse_doubles(value, nums) || nums.size() != 3) {
        return fail(line_no, "expected 3 audio importances");
      }
      std::copy(nums.begin(), nums.end(), imp.audio_quality.begin());
    } else if (key == "importance.language") {
      if (!parse_doubles(value, nums) || nums.size() != 4) {
        return fail(line_no, "expected 4 language importances");
      }
      std::copy(nums.begin(), nums.end(), imp.language.begin());
    } else if (key == "importance.image.color") {
      if (!parse_doubles(value, nums) || nums.size() != 4) {
        return fail(line_no, "expected 4 colour importances");
      }
      std::copy(nums.begin(), nums.end(), imp.image_color.begin());
    } else if (key == "importance.image.resolution") {
      if (!parse_curve(value, imp.image_resolution)) return fail(line_no, "bad curve");
    } else if (key == "importance.media_weight") {
      if (!parse_doubles(value, nums) || nums.size() != 4) {
        return fail(line_no, "expected 4 media weights");
      }
      std::copy(nums.begin(), nums.end(), imp.media_weight.begin());
    } else if (key == "importance.cost") {
      if (!parse_doubles(value, nums) || nums.size() != 1) {
        return fail(line_no, "expected one cost importance");
      }
      imp.cost_per_dollar = nums[0];
    } else if (key == "importance.preferred_servers") {
      imp.preferred_servers.clear();
      for (const auto& s : split(value, ' ')) {
        const auto f = trim(s);
        if (!f.empty()) imp.preferred_servers.emplace_back(f);
      }
    } else if (key == "importance.server_bonus") {
      if (!parse_doubles(value, nums) || nums.size() != 1) {
        return fail(line_no, "expected one server bonus");
      }
      imp.server_bonus = nums[0];
    } else {
      return fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (open) profiles.push_back(std::move(current));
  return profiles;
}

}  // namespace qosnp
