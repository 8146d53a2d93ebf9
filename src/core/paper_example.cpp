#include "core/paper_example.hpp"

#include "document/corpus.hpp"

namespace qosnp::paper {

namespace {

/// One-video-monomedia document whose variants carry the example QoS
/// ladder; variant ids are the paper's offer names.
std::shared_ptr<const MultimediaDocument> example_document(
    const std::vector<std::pair<std::string, VideoQoS>>& ladder) {
  auto doc = std::make_shared<MultimediaDocument>();
  doc->id = "news-article";
  doc->title = "A video news article";
  doc->copyright_cost = Money{};
  Monomedia video;
  video.id = "news-article/video";
  video.kind = MediaKind::kVideo;
  video.name = "news video";
  video.duration_s = 180.0;
  for (const auto& [name, qos] : ladder) {
    video.variants.push_back(
        make_video_variant(name, qos, CodingFormat::kMPEG1, video.duration_s, "server-a"));
  }
  doc->monomedia.push_back(std::move(video));
  return doc;
}

/// A single-component system offer with its cost pinned to a dollar figure.
SystemOffer pinned_offer(const std::shared_ptr<const MultimediaDocument>& doc,
                         std::size_t variant_index, Money cost) {
  const Monomedia& video = doc->monomedia.front();
  SystemOffer offer;
  OfferComponent c;
  c.monomedia = &video;
  c.variant = &video.variants[variant_index];
  c.requirements = map_variant(*c.variant, video.duration_s, TimeProfile{});
  offer.components.push_back(c);
  offer.cost.copyright = Money{};
  offer.cost.total = cost;
  return offer;
}

UserProfile video_only_profile(const VideoQoS& desired_and_worst, Money max_cost) {
  UserProfile profile;
  profile.name = "paper-example";
  VideoProfile video;
  video.desired = desired_and_worst;
  video.worst = desired_and_worst;
  profile.mm.video = video;
  profile.mm.cost.max_cost = max_cost;
  profile.importance = importance_setting(1);
  return profile;
}

}  // namespace

ImportanceProfile importance_setting(int which) {
  ImportanceProfile imp;
  // Zero everything; only the factors the example names are set.
  imp.video_color = {0.0, 0.0, 0.0, 0.0};
  imp.audio_quality = {0.0, 0.0, 0.0};
  imp.language = {0.0, 0.0, 0.0, 0.0};
  imp.image_color = {0.0, 0.0, 0.0, 0.0};
  switch (which) {
    case 1:
    case 2:
      // colour 9, grey 6, black&white 2; TV resolution 9; 25fps 9, 15fps 5.
      imp.video_color = {2.0, 6.0, 9.0, 9.0};
      imp.frame_rate = PiecewiseLinear{{15.0, 5.0}, {25.0, 9.0}};
      imp.resolution = PiecewiseLinear{{static_cast<double>(kTvResolution), 9.0}};
      imp.cost_per_dollar = which == 1 ? 4.0 : 0.0;
      break;
    case 3:
      // All QoS importances zero; cost importance 4.
      imp.frame_rate = PiecewiseLinear{{25.0, 0.0}};
      imp.resolution = PiecewiseLinear{{static_cast<double>(kTvResolution), 0.0}};
      imp.cost_per_dollar = 4.0;
      break;
    default:
      break;
  }
  return imp;
}

ClassificationExample classification_example() {
  ClassificationExample ex;
  ex.document = example_document({
      {"offer1", VideoQoS{ColorDepth::kBlackWhite, 25, kTvResolution}},
      {"offer2", VideoQoS{ColorDepth::kColor, 15, kTvResolution}},
      {"offer3", VideoQoS{ColorDepth::kGray, 25, kTvResolution}},
      {"offer4", VideoQoS{ColorDepth::kColor, 25, kTvResolution}},
  });
  ex.offers.document = ex.document;
  ex.offers.total_combinations = 4;
  ex.offers.eager.push_back(pinned_offer(ex.document, 0, Money::cents(250)));
  ex.offers.eager.push_back(pinned_offer(ex.document, 1, Money::dollars(4)));
  ex.offers.eager.push_back(pinned_offer(ex.document, 2, Money::dollars(3)));
  ex.offers.eager.push_back(pinned_offer(ex.document, 3, Money::dollars(5)));
  ex.profile = video_only_profile(VideoQoS{ColorDepth::kColor, 25, kTvResolution},
                                  Money::dollars(4));
  return ex;
}

std::string offer_name(const SystemOffer& offer) {
  return offer.components.empty() ? std::string{} : offer.components.front().variant->id;
}

MotivatingExample motivating_example() {
  MotivatingExample ex;
  ex.document = example_document({
      {"offerA", VideoQoS{ColorDepth::kColor, 15, kTvResolution}},
      {"offerB", VideoQoS{ColorDepth::kGray, 25, kTvResolution}},
      {"offerC", VideoQoS{ColorDepth::kColor, 25, kTvResolution}},
  });
  ex.offers.document = ex.document;
  ex.offers.total_combinations = 3;
  ex.offers.eager.push_back(pinned_offer(ex.document, 0, Money::dollars(5)));
  ex.offers.eager.push_back(pinned_offer(ex.document, 1, Money::dollars(4)));
  ex.offers.eager.push_back(pinned_offer(ex.document, 2, Money::dollars(6)));
  ex.profile = video_only_profile(VideoQoS{ColorDepth::kColor, 25, kTvResolution},
                                  Money::dollars(6));
  return ex;
}

}  // namespace qosnp::paper
