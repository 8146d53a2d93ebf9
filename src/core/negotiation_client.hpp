// NegotiationClient: the one caller-side seam onto the negotiation
// procedure. negotiate() runs Steps 1-5 and, on a kept offer, opens the
// session pending confirmation; Step 6 (confirm within the choicePeriod,
// abandon, or time out) belongs to whoever holds the result, against the
// SessionManager and clock this interface names. Population drives every
// implementation through it:
//
//   implementation       Steps 1-5 run              Step-6 sessions / clock
//   LocalClient          QoSManager (or its          the caller's SessionManager,
//   (policy/)            PolicyEngine), this thread  the caller's clock
//   NegotiationService   the worker pool             the service's SessionManager,
//   (service/)                                       service now_s()
//   ShardRouter          the home shard's workers    the federation's shared
//   (shard/)                                         SessionManager, shard 0 now_s()
//   RemoteClient         a qosnpd server, over QNP1  the host service's (see
//   (netio/)                                         remote_client.hpp)
//
// Same-seed request streams produce byte-identical procedure outcomes
// (tests/result_signature.hpp) through every implementation — the
// differential suites in tests/ hold the implementations to that.
#pragma once

#include "core/negotiation_request.hpp"
#include "core/negotiation_result.hpp"

namespace qosnp {

class SessionManager;
class PolicyEngine;

class NegotiationClient {
 public:
  virtual ~NegotiationClient() = default;

  /// Negotiate one request and block for the result. When an offer was
  /// committed and kept (SUCCEEDED, or FAILEDWITHOFFER with
  /// request.accept_degraded), the result carries the id of a session
  /// opened pending confirmation at session_now_s(now_s); a declined
  /// degraded offer is released before returning. The result never carries
  /// the offer list or commitment — they belong to the opened session.
  virtual NegotiationResult negotiate(NegotiationRequest request, double now_s) = 0;

  /// The SessionManager the opened sessions live on (Step 6 goes here).
  virtual SessionManager& sessions() = 0;

  /// Timestamp for SessionManager calls: the client's session time base may
  /// differ from the caller's clock (a service opens sessions against its
  /// own wall clock).
  virtual double session_now_s(double now_s) const { return now_s; }

  /// The preemption/upgrade engine negotiations run through, when the
  /// client is policy-enabled; the caller registers its victim/upgrade
  /// observers here and drives upgrade scans. nullptr = class-blind.
  virtual PolicyEngine* policy() { return nullptr; }
};

}  // namespace qosnp
