#include "core/offer.hpp"

#include <sstream>

namespace qosnp {

std::string_view to_string(Sns sns) {
  switch (sns) {
    case Sns::kDesirable: return "DESIRABLE";
    case Sns::kAcceptable: return "ACCEPTABLE";
    case Sns::kConstraint: return "CONSTRAINT";
  }
  return "?";
}

std::string_view to_string(NegotiationStatus status) {
  switch (status) {
    case NegotiationStatus::kSucceeded: return "SUCCEEDED";
    case NegotiationStatus::kFailedWithOffer: return "FAILEDWITHOFFER";
    case NegotiationStatus::kFailedTryLater: return "FAILEDTRYLATER";
    case NegotiationStatus::kFailedWithoutOffer: return "FAILEDWITHOUTOFFER";
    case NegotiationStatus::kFailedWithLocalOffer: return "FAILEDWITHLOCALOFFER";
  }
  return "?";
}

std::string SystemOffer::describe() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (i) os << ", ";
    os << components[i].variant->id;
  }
  os << "} " << to_string(sns) << " oif=" << oif << " cost=" << total_cost().to_string();
  return os.str();
}

namespace {

template <typename Q>
void fold_weakest(std::optional<Q>& slot, const Q& q);

template <>
void fold_weakest<VideoQoS>(std::optional<VideoQoS>& slot, const VideoQoS& q) {
  if (!slot) {
    slot = q;
    return;
  }
  slot->color = std::min(slot->color, q.color);
  slot->frame_rate_fps = std::min(slot->frame_rate_fps, q.frame_rate_fps);
  slot->resolution = std::min(slot->resolution, q.resolution);
}

template <>
void fold_weakest<AudioQoS>(std::optional<AudioQoS>& slot, const AudioQoS& q) {
  if (!slot) {
    slot = q;
    return;
  }
  slot->quality = std::min(slot->quality, q.quality);
}

template <>
void fold_weakest<ImageQoS>(std::optional<ImageQoS>& slot, const ImageQoS& q) {
  if (!slot) {
    slot = q;
    return;
  }
  slot->color = std::min(slot->color, q.color);
  slot->resolution = std::min(slot->resolution, q.resolution);
}

}  // namespace

UserOffer derive_user_offer(const OfferList& offers, std::size_t i) {
  UserOffer user;
  user.cost = offers.total_cost(i);
  for (std::size_t k = 0; k < offers.component_count(i); ++k) {
    std::visit(
        [&user](const auto& q) {
          using T = std::decay_t<decltype(q)>;
          if constexpr (std::is_same_v<T, VideoQoS>) {
            fold_weakest(user.video, q);
          } else if constexpr (std::is_same_v<T, AudioQoS>) {
            fold_weakest(user.audio, q);
          } else if constexpr (std::is_same_v<T, TextQoS>) {
            if (!user.text) user.text = q;
          } else {
            fold_weakest(user.image, q);
          }
        },
        offers.variant(i, k)->qos);
  }
  return user;
}

std::string UserOffer::describe() const {
  std::ostringstream os;
  bool first = true;
  auto sep = [&] {
    if (!first) os << ", ";
    first = false;
  };
  if (video) {
    sep();
    os << "video " << video->to_string();
  }
  if (audio) {
    sep();
    os << "audio " << audio->to_string();
  }
  if (text) {
    sep();
    os << "text " << text->to_string();
  }
  if (image) {
    sep();
    os << "image " << image->to_string();
  }
  sep();
  os << "at " << cost.to_string();
  return os.str();
}

}  // namespace qosnp
