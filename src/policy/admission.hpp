// Step-6 admission: the one routine that turns a negotiated request into an
// opened session or released reservations, run by LocalClient (caller's
// thread and clock) and NegotiationService (a worker, the service clock;
// its counters and auto-confirmation ride on the hooks).
#pragma once

#include <functional>

#include "core/qos_manager.hpp"
#include "session/session.hpp"

namespace qosnp {

class PolicyEngine;

/// Caller hooks into admit(). Both run on the calling thread; either may be
/// empty.
struct AdmissionHooks {
  /// Sees the raw result, offer list and commitment still attached, before
  /// the keep rule.
  std::function<void(const NegotiationResult&)> negotiated;
  /// Runs right after a session opened, inside its kAdmission span.
  std::function<void(SessionId, ScopedSpan&)> opened;
};

/// Negotiate `request` through `policy` when set, else through `manager`
/// (Steps 1-5), then admit the result (Step 6). A committed offer is kept
/// when it SUCCEEDED, or when it is degraded and request.accept_degraded
/// says the user takes it: its session opens pending confirmation at `now_s`
/// in request.session_class, inside a kAdmission span on request.trace. A
/// declined degraded offer is released on the spot — nothing stays reserved
/// for a user who walked away. The result never carries the offer list or
/// the commitment: they belong to the opened session (result.session_id)
/// or were just released.
NegotiationResult admit(QoSManager& manager, PolicyEngine* policy, SessionManager& sessions,
                        const NegotiationRequest& request, double now_s,
                        const AdmissionHooks& hooks = {});

}  // namespace qosnp
