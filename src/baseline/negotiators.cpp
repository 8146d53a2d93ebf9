#include "baseline/negotiators.hpp"

#include <algorithm>

#include "qosmap/mapping.hpp"

namespace qosnp {

NegotiationResult EnumeratingNegotiator::negotiate(const NegotiationRequest& request) {
  auto feasible = static_check(request, catalog_->find(request.document));
  if (!feasible.ok()) return std::move(feasible.error());
  NegotiationResult outcome;
  auto offers = ordered_offers(feasible.value(), request.profile);
  if (!offers.ok()) {
    outcome.verdict = NegotiationStatus::kFailedWithoutOffer;
    outcome.problems.push_back(std::move(offers.error()));
    return outcome;
  }
  outcome.offers = std::move(offers.value());

  // Step 5 in one pass: the first offer, in the baseline's order, that the
  // servers and the transport accept.
  ResourceCommitter committer(*farm_, *transport_, retry_);
  bool saw_transient = false;
  for (std::size_t i = 0; i < outcome.offers.size(); ++i) {
    auto committed = committer.commit(request.client, outcome.offers.offer(i));
    if (committed.ok()) {
      outcome.committed_index = i;
      outcome.commitment = std::move(committed.value());
      break;
    }
    if (committed.error().transient) saw_transient = true;
    outcome.problems.push_back(committed.error().message);
  }
  outcome.commit_stats = committer.stats();
  settle_verdict(outcome, request.profile.mm, saw_transient);
  return outcome;
}

OfferList EnumeratingNegotiator::scored_offers(const FeasibleSet& feasible,
                                               const UserProfile& profile) const {
  OfferList list = enumerate_offers(feasible, profile.mm, cost_model_);
  for (SystemOffer& o : list.eager) {
    o.sns = compute_sns(o, profile.mm, profile.importance);
    o.oif = compute_oif(o, profile.importance);
  }
  return list;
}

Result<OfferList> CostOnlyNegotiator::ordered_offers(const FeasibleSet& feasible,
                                                     const UserProfile& profile) const {
  OfferList list = scored_offers(feasible, profile);
  std::sort(list.eager.begin(), list.eager.end(),
            [](const SystemOffer& a, const SystemOffer& b) {
              return a.total_cost() < b.total_cost();
            });
  return list;
}

Result<OfferList> QoSOnlyNegotiator::ordered_offers(const FeasibleSet& feasible,
                                                    const UserProfile& profile) const {
  OfferList list = scored_offers(feasible, profile);
  // Pure QoS ranking: the importance of the QoS alone (no cost term).
  auto qos_score = [&profile](const SystemOffer& o) {
    double sum = 0.0;
    for (const OfferComponent& c : o.components) {
      sum += profile.importance.qos_importance(c.variant->qos);
    }
    return sum;
  };
  std::sort(list.eager.begin(), list.eager.end(),
            [&](const SystemOffer& a, const SystemOffer& b) { return qos_score(a) > qos_score(b); });
  return list;
}

Result<OfferList> BasicNegotiator::ordered_offers(const FeasibleSet& feasible,
                                                  const UserProfile& profile) const {
  // Static component choice: for each monomedia the first variant that
  // satisfies the *desired* QoS — the component "a priori known to support
  // a specific QoS". No desired-satisfying variant -> reject outright.
  SystemOffer offer;
  std::vector<StreamRequirements> streams;
  for (std::size_t i = 0; i < feasible.monomedia.size(); ++i) {
    const Variant* chosen = nullptr;
    for (const Variant* v : feasible.variants[i]) {
      if (profile.mm.grade(v->qos).desired) {
        chosen = v;
        break;
      }
    }
    if (chosen == nullptr) {
      return Err("no variant of '" + feasible.monomedia[i]->id + "' supports the requested QoS");
    }
    OfferComponent c;
    c.monomedia = feasible.monomedia[i];
    c.variant = chosen;
    c.requirements = map_variant(*chosen, feasible.monomedia[i]->duration_s, profile.mm.time);
    streams.push_back(c.requirements);
    offer.components.push_back(c);
  }
  offer.cost = cost_model_.document_cost(feasible.document->copyright_cost, streams);
  offer.sns = compute_sns(offer, profile.mm, profile.importance);
  offer.oif = compute_oif(offer, profile.importance);

  OfferList list;
  list.document = feasible.document;
  list.total_combinations = 1;
  list.eager.push_back(std::move(offer));
  return list;
}

}  // namespace qosnp
