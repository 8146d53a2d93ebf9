// Class-differentiated admission policy: the "who wins under congestion"
// layer the 1996 paper leaves open. PolicyEngine wraps QoSManager::negotiate
// with a preemption step — when a higher-class request fails Step 5 with
// FAILEDTRYLATER, the engine may force strictly lower-class playing sessions
// down their own offer list (reusing the adaptation walk) or release them,
// then re-run the negotiation over the freed capacity — and an upgrade
// scanner that, when capacity frees, re-runs a playing session's strictly
// better offers and promotes it.
//
// Policy semantics (the invariants tests/policy_test.cpp asserts):
//   - victims are strictly lower class than the requester, never peers;
//   - a degraded victim's new offer is always a later (worse) entry of its
//     own offer list; a promoted session's new offer is always earlier;
//   - with the policy disabled, negotiate() is a pure pass-through to
//     QoSManager::negotiate — byte-identical results, no session touched.
//
// Victim order is deterministic: lowest class first, then newest session
// first (highest id — the session that arrived last loses first). Upgrade
// order is the opposite: highest class first, then oldest session first.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>

#include "core/qos_manager.hpp"
#include "obs/metrics.hpp"
#include "policy/session_class.hpp"
#include "session/session.hpp"

namespace qosnp {

struct PreemptionPolicy {
  /// Master switch. Off = negotiate() is a pass-through (byte-identical to
  /// QoSManager::negotiate) and run_upgrades() is a no-op.
  bool enabled = false;
  /// Most victims degraded/released for one request. A victim that fits no
  /// worse offer is released (aborted with kPreemptedAbortReason).
  int max_victims = 8;

  /// Throws std::invalid_argument on a non-positive victim bound.
  static PreemptionPolicy validated(PreemptionPolicy p);
};

/// Most sessions one upgrade scan tries to promote.
inline constexpr int kMaxUpgradesPerScan = 32;

enum class VictimAction { kDegraded, kReleased };

std::string_view to_string(VictimAction action);

/// One victim the policy acted on, reported to the victim observer. The
/// population simulation uses this to keep its per-class conservation laws
/// exact (a preempted session leaves the system outside the sim's own
/// lifecycle events).
struct VictimEvent {
  SessionId session = 0;
  SessionClass victim_class = SessionClass::kBestEffort;
  SessionClass for_class = SessionClass::kStandard;  ///< the requester's class
  VictimAction action = VictimAction::kDegraded;
  std::size_t old_offer = SIZE_MAX;
  std::size_t new_offer = SIZE_MAX;  ///< degraded only
};

/// One session the upgrade scanner promoted.
struct UpgradeEvent {
  SessionId session = 0;
  SessionClass session_class = SessionClass::kStandard;
  std::size_t old_offer = SIZE_MAX;
  std::size_t new_offer = SIZE_MAX;
};

/// Wraps a (QoSManager, SessionManager) pair with the class policy. Thread
/// safety matches the wrapped components: negotiate()/run_upgrades() may be
/// called concurrently (negotiating threads + an upgrade-scanning thread);
/// observers must not call back into the engine.
class PolicyEngine {
 public:
  PolicyEngine(QoSManager& manager, SessionManager& sessions, PreemptionPolicy policy = {},
               MetricsRegistry* metrics = nullptr);

  /// QoSManager::negotiate plus the preemption step. Always counts the
  /// request on the qosnp_class_* metrics; only a FAILEDTRYLATER verdict
  /// with the policy enabled and a requester above best-effort triggers
  /// preemption (best-effort never preempts anyone).
  NegotiationResult negotiate(const NegotiationRequest& request);

  /// One upgrade scan over the playing sessions; returns how many were
  /// promoted. Call when capacity may have freed (session completed,
  /// congestion cleared, periodic timer).
  std::size_t run_upgrades(TraceContext trace = {});

  void set_victim_observer(std::function<void(const VictimEvent&)> observer);
  void set_upgrade_observer(std::function<void(const UpgradeEvent&)> observer);

  const PreemptionPolicy& policy() const { return policy_; }
  QoSManager& manager() { return *manager_; }
  SessionManager& sessions() { return *sessions_; }

 private:
  /// Deterministic victim order for one requester class: strictly lower
  /// class only, lowest class first, then newest (highest id) first.
  std::vector<PlayingSession> victim_candidates(SessionClass for_class) const;

  void emit_victim(const VictimEvent& event);
  void emit_upgrade(const UpgradeEvent& event);

  QoSManager* manager_;
  SessionManager* sessions_;
  PreemptionPolicy policy_;
  MetricsRegistry* metrics_;

  std::mutex observer_mu_;
  std::function<void(const VictimEvent&)> victim_observer_;    // guarded by observer_mu_
  std::function<void(const UpgradeEvent&)> upgrade_observer_;  // guarded by observer_mu_

  // Per-class counter handles (nullptr when metrics are off), indexed by
  // SessionClass. Registered once at construction; increments are lock-free.
  std::array<Counter*, kSessionClassCount> requests_{};
  std::array<Counter*, kSessionClassCount> admitted_{};
  std::array<Counter*, kSessionClassCount> shed_{};
  std::array<Counter*, kSessionClassCount> preempt_admits_{};
  std::array<Counter*, kSessionClassCount> victims_degraded_{};
  std::array<Counter*, kSessionClassCount> victims_released_{};
  std::array<Counter*, kSessionClassCount> upgrades_{};
};

}  // namespace qosnp
