// LocalClient: the in-process NegotiationClient. One call runs Steps 1-5
// directly (QoSManager::negotiate, or PolicyEngine::negotiate when a
// preemption engine is attached) on the calling thread and then performs
// the same Step-6 admission the concurrent service applies: a kept offer
// (SUCCEEDED, or FAILEDWITHOFFER with accept_degraded) opens a session
// pending confirmation; a declined degraded offer is released on the spot.
// The returned result is stripped of the offer list and commitment — they
// belong to the opened session. Sessions are opened at the caller's clock.
#pragma once

#include <functional>
#include <utility>

#include "core/negotiation_client.hpp"
#include "core/qos_manager.hpp"
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
    observer_ = std::move(observer);
  }

  NegotiationResult negotiate(NegotiationRequest request, double now_s) override;

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
  std::function<void(const NegotiationResult&)> observer_;
};

}  // namespace qosnp
