#include "policy/admission.hpp"

#include <utility>

#include "policy/preemption.hpp"
#include "util/log.hpp"

namespace qosnp {

NegotiationResult admit(QoSManager& manager, PolicyEngine* policy, SessionManager& sessions,
                        const NegotiationRequest& request, double now_s,
                        const AdmissionHooks& hooks) {
  NegotiationResult result =
      policy != nullptr ? policy->negotiate(request) : manager.negotiate(request);
  if (hooks.negotiated) hooks.negotiated(result);
  const bool keep = result.has_commitment() &&
                    (result.verdict == NegotiationStatus::kSucceeded || request.accept_degraded);
  if (keep) {
    ScopedSpan admission(request.trace, Stage::kAdmission);
    auto opened = sessions.open(request.client, request.profile, std::move(result), now_s,
                                request.session_class);
    if (opened.ok()) {
      result.session_id = opened.value();
      admission.annotate("session", result.session_id);
      if (hooks.opened) hooks.opened(result.session_id, admission);
    } else {
      admission.annotate("error", opened.error());
      QOSNP_LOG_WARN("admission", "session open failed: ", opened.error());
    }
  } else if (result.has_commitment()) {
    result.commitment.release();
  }
  result.offers = OfferList{};
  result.commitment = Commitment{};
  result.committed_index = SIZE_MAX;
  return result;
}

}  // namespace qosnp
