// Shared textual image of a NegotiationResult, used by every differential
// suite (plan cache, population) to assert byte-identity of outcomes.
#pragma once

#include <iomanip>
#include <sstream>
#include <string>

#include "core/negotiation_result.hpp"

namespace qosnp::testing {

/// Exhaustive textual image of a NegotiationResult's procedure fields; two
/// results with equal signatures are byte-identical as far as any caller can
/// observe (doubles rendered at full precision).
inline std::string result_signature(const NegotiationResult& r) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "verdict=" << to_string(r.verdict) << '\n';
  os << "committed=" << r.committed_index << '\n';
  for (const std::string& p : r.problems) os << "problem=" << p << '\n';
  if (r.user_offer) {
    os << "user_offer=" << r.user_offer->describe() << " cost="
       << r.user_offer->cost.as_micros() << '\n';
  }
  os << "total=" << r.offers.total_combinations << " truncated=" << r.offers.truncated
     << " sns_ordered=" << r.offers.sns_ordered << '\n';
  for (std::size_t i = 0; i < r.offers.size(); ++i) {
    const SystemOffer o = r.offers.offer(i);
    os << "offer sns=" << to_string(o.sns) << " oif=" << o.oif
       << " cost=" << o.total_cost().as_micros();
    for (const OfferComponent& c : o.components) os << ' ' << c.variant->id;
    os << '\n';
  }
  os << "attempts=" << r.commit_stats.attempts << " retries=" << r.commit_stats.retries
     << " transient=" << r.commit_stats.transient_failures
     << " released=" << r.commit_stats.released_on_failure << '\n';
  return os.str();
}

}  // namespace qosnp::testing
