#include "policy/preemption.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"

namespace qosnp {

std::string_view to_string(VictimAction action) {
  switch (action) {
    case VictimAction::kDegraded: return "degraded";
    case VictimAction::kReleased: return "released";
  }
  return "?";
}

PreemptionPolicy PreemptionPolicy::validated(PreemptionPolicy p) {
  if (p.max_victims <= 0) {
    throw std::invalid_argument("PreemptionPolicy: max_victims must be positive");
  }
  return p;
}

PolicyEngine::PolicyEngine(QoSManager& manager, SessionManager& sessions, PreemptionPolicy policy,
                           MetricsRegistry* metrics)
    : manager_(&manager), sessions_(&sessions), policy_(PreemptionPolicy::validated(policy)),
      metrics_(metrics) {
  if (metrics_ == nullptr) return;
  for (std::size_t i = 0; i < kSessionClassCount; ++i) {
    const MetricLabels by_class = {{"class", std::string(to_string(static_cast<SessionClass>(i)))}};
    requests_[i] = &metrics_->counter("qosnp_class_requests_total", by_class,
                                      "Negotiations entering the policy engine, by class");
    admitted_[i] = &metrics_->counter("qosnp_class_admitted_total", by_class,
                                      "Negotiations leaving with a committed offer, by class");
    shed_[i] = &metrics_->counter("qosnp_class_shed_total", by_class,
                                  "Negotiations leaving without a committed offer, by class");
    preempt_admits_[i] =
        &metrics_->counter("qosnp_class_preempt_admits_total", by_class,
                           "Admissions that succeeded only after preempting victims, by class");
    victims_degraded_[i] =
        &metrics_->counter("qosnp_class_preempt_victims_total",
                           {{"class", std::string(to_string(static_cast<SessionClass>(i)))},
                            {"action", std::string(to_string(VictimAction::kDegraded))}},
                           "Sessions the policy acted on, by victim class and action");
    victims_released_[i] =
        &metrics_->counter("qosnp_class_preempt_victims_total",
                           {{"class", std::string(to_string(static_cast<SessionClass>(i)))},
                            {"action", std::string(to_string(VictimAction::kReleased))}},
                           "Sessions the policy acted on, by victim class and action");
    upgrades_[i] = &metrics_->counter("qosnp_class_upgrades_total", by_class,
                                      "Sessions the upgrade scanner promoted, by class");
  }
}

void PolicyEngine::set_victim_observer(std::function<void(const VictimEvent&)> observer) {
  std::lock_guard lk(observer_mu_);
  victim_observer_ = std::move(observer);
}

void PolicyEngine::set_upgrade_observer(std::function<void(const UpgradeEvent&)> observer) {
  std::lock_guard lk(observer_mu_);
  upgrade_observer_ = std::move(observer);
}

void PolicyEngine::emit_victim(const VictimEvent& event) {
  std::function<void(const VictimEvent&)> observer;
  {
    std::lock_guard lk(observer_mu_);
    observer = victim_observer_;
  }
  if (observer) observer(event);
}

void PolicyEngine::emit_upgrade(const UpgradeEvent& event) {
  std::function<void(const UpgradeEvent&)> observer;
  {
    std::lock_guard lk(observer_mu_);
    observer = upgrade_observer_;
  }
  if (observer) observer(event);
}

std::vector<PlayingSession> PolicyEngine::victim_candidates(SessionClass for_class) const {
  std::vector<PlayingSession> candidates = sessions_->playing_sessions_with_class();
  std::erase_if(candidates, [&](const PlayingSession& p) {
    return session_class_rank(p.session_class) >= session_class_rank(for_class);
  });
  // Lowest class loses first; within a class the newest session (highest
  // id) loses first — the longest-served sessions are disturbed last.
  std::sort(candidates.begin(), candidates.end(),
            [](const PlayingSession& a, const PlayingSession& b) {
              const int ra = session_class_rank(a.session_class);
              const int rb = session_class_rank(b.session_class);
              if (ra != rb) return ra < rb;
              return a.id > b.id;
            });
  return candidates;
}

NegotiationResult PolicyEngine::negotiate(const NegotiationRequest& request) {
  const auto cls = static_cast<std::size_t>(request.session_class);
  if (requests_[cls] != nullptr) requests_[cls]->inc();

  NegotiationResult result = manager_->negotiate(request);

  // Only a capacity failure is worth preempting for; permanent failures
  // (unknown document, incompatible client) cannot heal, and best-effort
  // requests never preempt anyone.
  const bool try_preempt = policy_.enabled &&
                           result.verdict == NegotiationStatus::kFailedTryLater &&
                           session_class_rank(request.session_class) >
                               session_class_rank(SessionClass::kBestEffort);
  if (try_preempt) {
    ScopedSpan span(request.trace, Stage::kPreemption);
    span.annotate("class", std::string(to_string(request.session_class)));
    // The candidate list is gathered once, so a victim another thread
    // finished meanwhile is skipped, never re-picked.
    const std::vector<PlayingSession> candidates = victim_candidates(request.session_class);
    int victims_used = 0;
    for (const PlayingSession& candidate : candidates) {
      if (victims_used >= policy_.max_victims) break;
      if (result.has_commitment()) break;
      TransitionResult victim = sessions_->preempt_degrade(candidate.id, span.context());
      if (!victim.moved && !victim.released) continue;  // no longer playing, try the next one
      ++victims_used;
      VictimEvent event;
      event.session = candidate.id;
      event.victim_class = candidate.session_class;
      event.for_class = request.session_class;
      event.action = victim.released ? VictimAction::kReleased : VictimAction::kDegraded;
      event.old_offer = victim.old_offer;
      event.new_offer = victim.new_offer;
      const auto vcls = static_cast<std::size_t>(candidate.session_class);
      if (victim.released) {
        if (victims_released_[vcls] != nullptr) victims_released_[vcls]->inc();
      } else {
        if (victims_degraded_[vcls] != nullptr) victims_degraded_[vcls]->inc();
      }
      emit_victim(event);
      // Something was freed (or at least shrunk): re-run the negotiation
      // over the new capacity. The plan cache keeps Steps 1-4 cheap.
      result = manager_->negotiate(request);
    }
    span.annotate("victims", static_cast<std::uint64_t>(victims_used));
    span.annotate("admitted", result.has_commitment() ? "true" : "false");
    if (result.has_commitment()) {
      if (preempt_admits_[cls] != nullptr) preempt_admits_[cls]->inc();
      QOSNP_LOG_INFO("policy", to_string(request.session_class), " request admitted after ",
                     victims_used, " victim(s)");
    }
  }

  if (result.has_commitment()) {
    if (admitted_[cls] != nullptr) admitted_[cls]->inc();
  } else {
    if (shed_[cls] != nullptr) shed_[cls]->inc();
  }
  return result;
}

std::size_t PolicyEngine::run_upgrades(TraceContext trace) {
  if (!policy_.enabled) return 0;
  std::vector<PlayingSession> candidates = sessions_->playing_sessions_with_class();
  std::erase_if(candidates, [](const PlayingSession& p) {
    return p.current_offer == 0 || p.current_offer == SIZE_MAX;  // already at its best offer
  });
  if (candidates.empty()) return 0;
  // Highest class first; within a class the oldest session (lowest id)
  // is promoted first — the mirror image of the victim order.
  std::sort(candidates.begin(), candidates.end(),
            [](const PlayingSession& a, const PlayingSession& b) {
              const int ra = session_class_rank(a.session_class);
              const int rb = session_class_rank(b.session_class);
              if (ra != rb) return ra > rb;
              return a.id < b.id;
            });

  ScopedSpan span(trace, Stage::kUpgrade);
  std::size_t promoted = 0;
  int attempts = 0;
  for (const PlayingSession& candidate : candidates) {
    if (attempts >= kMaxUpgradesPerScan) break;
    ++attempts;
    TransitionResult upgrade = sessions_->try_upgrade(candidate.id, span.context());
    if (!upgrade.moved) continue;
    ++promoted;
    UpgradeEvent event;
    event.session = candidate.id;
    event.session_class = candidate.session_class;
    event.old_offer = upgrade.old_offer;
    event.new_offer = upgrade.new_offer;
    const auto vcls = static_cast<std::size_t>(candidate.session_class);
    if (upgrades_[vcls] != nullptr) upgrades_[vcls]->inc();
    emit_upgrade(event);
  }
  span.annotate("attempts", static_cast<std::uint64_t>(attempts));
  span.annotate("promoted", static_cast<std::uint64_t>(promoted));
  return promoted;
}

}  // namespace qosnp
