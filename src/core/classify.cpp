#include "core/classify.hpp"

#include <algorithm>

namespace qosnp {

namespace {

/// The offer's QoS grade: every component's grade, and-ed.
MMProfile::Grade qos_satisfaction(const SystemOffer& offer, const MMProfile& profile) {
  MMProfile::Grade all;
  for (const OfferComponent& c : offer.components) {
    const MMProfile::Grade g = profile.grade(c.variant->qos);
    all.desired = all.desired && g.desired;
    all.tolerated = all.tolerated && g.tolerated;
  }
  return all;
}

}  // namespace

bool qos_matters(const MMProfile& profile, const ImportanceProfile& importance) {
  double total = 0.0;
  if (profile.video) {
    total += importance.qos_importance(MonomediaQoS{profile.video->desired});
  }
  if (profile.audio) {
    total += importance.qos_importance(MonomediaQoS{profile.audio->desired});
  }
  if (profile.text) {
    total += importance.qos_importance(MonomediaQoS{TextQoS{profile.text->desired}});
  }
  if (profile.image) {
    total += importance.qos_importance(MonomediaQoS{profile.image->desired});
  }
  return total > 0.0;
}

Sns compute_sns(const SystemOffer& offer, const MMProfile& profile,
                const ImportanceProfile& importance, ClassificationPolicy policy) {
  const bool cost_within = offer.total_cost() <= profile.cost.max_cost;

  if (policy.sns_rule == ClassificationPolicy::SnsRule::kImportanceWeighted) {
    const bool cost_cares = importance.cost_per_dollar > 0.0;
    if (cost_cares && !qos_matters(profile, importance)) {
      // The user cares only about cost: grade on the cost constraint alone.
      return cost_within ? Sns::kDesirable : Sns::kConstraint;
    }
  }

  const MMProfile::Grade s = qos_satisfaction(offer, profile);
  if (!s.tolerated) return Sns::kConstraint;
  if (s.desired && cost_within) return Sns::kDesirable;
  return Sns::kAcceptable;
}

double compute_oif(const SystemOffer& offer, const ImportanceProfile& importance) {
  double qos_sum = 0.0;
  for (const OfferComponent& c : offer.components) {
    qos_sum += importance.qos_importance(c.variant->qos);
    if (importance.server_bonus != 0.0 && importance.prefers_server(c.variant->server)) {
      qos_sum += importance.server_bonus;
    }
  }
  return qos_sum - importance.cost_importance(offer.total_cost());
}

bool satisfies_user(const OfferList& offers, std::size_t i, const MMProfile& profile) {
  if (offers.total_cost(i) > profile.cost.max_cost) return false;
  for (std::size_t k = 0; k < offers.component_count(i); ++k) {
    if (!profile.grade(offers.variant(i, k)->qos).tolerated) return false;
  }
  return true;
}

void classify_offers(std::vector<SystemOffer>& offers, const MMProfile& profile,
                     const ImportanceProfile& importance, ClassificationPolicy policy) {
  for (SystemOffer& offer : offers) {
    offer.sns = compute_sns(offer, profile, importance, policy);
    offer.oif = compute_oif(offer, importance);
  }

  auto variant_ids_less = [](const SystemOffer& a, const SystemOffer& b) {
    const std::size_t n = std::min(a.components.size(), b.components.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& va = a.components[i].variant->id;
      const auto& vb = b.components[i].variant->id;
      if (va != vb) return va < vb;
    }
    return a.components.size() < b.components.size();
  };
  std::sort(offers.begin(), offers.end(), [&](const SystemOffer& a, const SystemOffer& b) {
    if (a.sns != b.sns) return a.sns < b.sns;
    if (a.oif != b.oif) return a.oif > b.oif;
    if (a.total_cost() != b.total_cost()) return a.total_cost() < b.total_cost();
    return variant_ids_less(a, b);
  });
}

}  // namespace qosnp
