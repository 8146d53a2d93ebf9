// LocalClient: the in-process NegotiationClient. One call runs the whole
// admission routine (policy/admission.hpp) on the calling thread: Steps 1-5
// through QoSManager::negotiate, or PolicyEngine::negotiate when a
// preemption engine is attached, then the Step-6 admission the concurrent
// service applies too. Sessions are opened at the caller's clock.
#pragma once

#include <functional>
#include <utility>

#include "core/negotiation_client.hpp"
#include "core/qos_manager.hpp"
#include "policy/admission.hpp"
#include "session/session.hpp"

namespace qosnp {

class LocalClient final : public NegotiationClient {
 public:
  LocalClient(QoSManager& manager, SessionManager& sessions)
      : manager_(&manager), sessions_(&sessions) {}

  /// Route negotiations through a preemption/upgrade engine (which must
  /// wrap the same manager/sessions pair). nullptr restores the direct path.
  void set_policy(PolicyEngine* policy) { policy_ = policy; }

  /// Observe every raw NegotiationResult as produced by the manager, before
  /// admission strips the offers/commitment — the hook the differential
  /// suites use to compare against direct QoSManager::negotiate calls.
  void set_result_observer(std::function<void(const NegotiationResult&)> observer) {
    hooks_.negotiated = std::move(observer);
  }

  NegotiationResult negotiate(NegotiationRequest request, double now_s) override {
    return admit(*manager_, policy_, *sessions_, request, now_s, hooks_);
  }

  /// negotiate() with sessions opened at time 0.
  NegotiationResult submit(NegotiationRequest request) {
    return negotiate(std::move(request), 0.0);
  }

  SessionManager& sessions() override { return *sessions_; }
  PolicyEngine* policy() override { return policy_; }

 private:
  QoSManager* manager_;
  SessionManager* sessions_;
  PolicyEngine* policy_ = nullptr;
  AdmissionHooks hooks_;
};

}  // namespace qosnp
