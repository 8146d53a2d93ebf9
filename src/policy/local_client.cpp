#include "policy/local_client.hpp"

#include <utility>

#include "core/negotiation_result.hpp"
#include "policy/preemption.hpp"
#include "util/log.hpp"

namespace qosnp {

NegotiationResult LocalClient::negotiate(NegotiationRequest request, double now_s) {
  NegotiationResult result =
      policy_ != nullptr ? policy_->negotiate(request) : manager_->negotiate(request);
  if (observer_) observer_(result);
  const bool keep = result.has_commitment() &&
                    (result.verdict == NegotiationStatus::kSucceeded || request.accept_degraded);
  if (keep) {
    auto opened = sessions_->open(request.client, request.profile, std::move(result), now_s,
                                  request.session_class);
    if (opened.ok()) {
      result.session_id = opened.value();
    } else {
      QOSNP_LOG_WARN("client", "session open failed: ", opened.error());
    }
  } else if (result.has_commitment()) {
    // A declined degraded offer: nothing stays reserved for a user who
    // walked away (the same rule the service applies).
    result.commitment.release();
  }
  result.offers = OfferList{};
  result.commitment = Commitment{};
  result.committed_index = SIZE_MAX;
  return result;
}

}  // namespace qosnp
