// Classification of system offers (paper Sec. 5): Step 3 computes the two
// classification parameters of every feasible offer — the static
// negotiation status (SNS) and the overall importance factor (OIF) — and
// Step 4 sorts the offers best-to-worst with SNS as the primary key and OIF
// as the secondary key.
//
// SNS grading (Sec. 5.2.1, reverse-engineered from the worked example):
//   DESIRABLE  — every requested medium satisfies the *desired* QoS and the
//                cost does not exceed the user's maximum;
//   ACCEPTABLE — every requested medium meets the *worst acceptable* QoS
//                (offer4 of the example costs $5 against a $4 maximum and is
//                still graded ACCEPTABLE: a cost overrun blocks DESIRABLE
//                but not ACCEPTABLE);
//   CONSTRAINT — some medium violates the worst acceptable QoS.
//
// The paper's third importance setting (Sec. 5.2.2 example (3): all QoS
// importances zero, "the cost is the main constraint") orders the
// ACCEPTABLE offer4 *last*, which contradicts a literal SNS-primary sort.
// The orderings of all three settings are reproduced exactly by the
// importance-weighted policy: when the user assigns zero importance to all
// QoS characteristics (and nonzero to cost), the SNS is graded on cost
// alone — a cost overrun then violates the constraint, and QoS shortfalls
// do not. The literal rule remains available as kPlain for ablation (E2
// prints both).
#pragma once

#include <cstddef>
#include <vector>

#include "core/offer.hpp"
#include "profile/profiles.hpp"

namespace qosnp {

struct ClassificationPolicy {
  enum class SnsRule {
    kPlain,               ///< literal Sec. 5.2.1 grading
    kImportanceWeighted,  ///< default; reproduces all three Sec. 5.2.2 orderings
  };
  SnsRule sns_rule = SnsRule::kImportanceWeighted;
};

/// Does the importance profile assign any weight to QoS characteristics of
/// the media this profile requests? (Drives the importance-weighted rule.)
bool qos_matters(const MMProfile& profile, const ImportanceProfile& importance);

/// Step 3a: static negotiation status of one offer.
Sns compute_sns(const SystemOffer& offer, const MMProfile& profile,
                const ImportanceProfile& importance,
                ClassificationPolicy policy = {});

/// Step 3b: overall importance factor of one offer:
///   OIF = sum of QoS importances of the offer's variants
///         - cost importance of the offer's total cost.
double compute_oif(const SystemOffer& offer, const ImportanceProfile& importance);

/// True when offer i of the list satisfies the user requirements in the
/// Step 5 sense (meets the worst-acceptable QoS of every requested medium
/// and stays within the maximum cost) — commitment of such an offer yields
/// SUCCEEDED, of any other offer FAILEDWITHOFFER. Read from the offer's key
/// and variants, so a stream-backed list need not materialise it.
bool satisfies_user(const OfferList& offers, std::size_t i, const MMProfile& profile);

/// Steps 3+4: fill sns/oif on every offer and sort best-to-worst
/// (SNS ascending, then OIF descending, then cheaper first, then by variant
/// ids so the order is deterministic).
void classify_offers(std::vector<SystemOffer>& offers, const MMProfile& profile,
                     const ImportanceProfile& importance, ClassificationPolicy policy = {});

}  // namespace qosnp
