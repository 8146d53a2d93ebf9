#include "session/session.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace qosnp {

std::string_view to_string(SessionState state) {
  switch (state) {
    case SessionState::kPendingConfirmation: return "pending-confirmation";
    case SessionState::kPlaying: return "playing";
    case SessionState::kCompleted: return "completed";
    case SessionState::kAborted: return "aborted";
  }
  return "?";
}

void SessionManager::index_commitment_locked(Session& s) {
  for (FlowId flow : s.commitment.flow_ids()) flow_index_[flow] = s.id;
}

void SessionManager::unindex_commitment_locked(Session& s) {
  for (FlowId flow : s.commitment.flow_ids()) flow_index_.erase(flow);
}

namespace {

SessionView view_of(const Session& s) {
  SessionView view;
  view.id = s.id;
  view.state = s.state;
  view.session_class = s.session_class;
  view.current_offer = s.current_offer;
  view.offer_count = s.offers.known_count();
  view.position_s = s.position_s;
  view.duration_s = s.duration_s;
  view.confirm_deadline_s = s.confirm_deadline_s;
  view.stats = s.stats;
  if (s.current_offer != SIZE_MAX) {
    view.user_offer = derive_user_offer(s.offers, s.current_offer);
  }
  return view;
}

}  // namespace

void SessionManager::finish_locked(std::unique_lock<std::mutex>& lk, SessionTable::iterator it,
                                   SessionState state, std::string reason) {
  // Only live sessions are in the table, so a finished session cannot be
  // finished (and counted) twice.
  Session& s = *it->second;
  unindex_commitment_locked(s);
  s.commitment.release();
  SessionView record = view_of(s);
  record.state = state;
  record.abort_reason = std::move(reason);
  finished_.emplace(s.id, std::move(record));
  released_total_ += 1;
  const auto dead = sessions_.extract(it);
  // The session is unreachable now: free it without holding up the table.
  lk.unlock();
}

std::string SessionManager::not_live_locked(SessionId id) const {
  auto done = finished_.find(id);
  if (done == finished_.end()) return "unknown session";
  return "session is " + std::string(to_string(done->second.state));
}

Result<SessionId> SessionManager::open(const ClientMachine& client, const UserProfile& profile,
                                       NegotiationResult&& result, double now_s,
                                       SessionClass session_class) {
  if (!result.has_commitment()) {
    return Err(std::string("negotiation result carries no committed offer"));
  }
  std::lock_guard lk(mu_);
  auto session = std::make_unique<Session>();
  session->id = next_id_++;
  session->client = client;
  session->profile = profile;
  session->session_class = session_class;
  session->offers = std::move(result.offers);
  session->current_offer = result.committed_index;
  session->tried.push_back(result.committed_index);
  session->commitment = std::move(result.commitment);
  session->state = SessionState::kPendingConfirmation;
  session->confirm_deadline_s = now_s + profile.mm.time.choice_period_s;
  session->duration_s = session->offers.document ? session->offers.document->duration_s() : 0.0;
  session->stats.charged = session->offers.total_cost(session->current_offer);
  session->stats.commit = result.commit_stats;
  index_commitment_locked(*session);
  const SessionId id = session->id;
  sessions_[id] = std::move(session);
  opened_total_ += 1;
  return id;
}

Result<bool> SessionManager::confirm(SessionId id, double now_s) {
  std::unique_lock lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return Err(not_live_locked(id));
  Session& s = *it->second;
  if (s.state != SessionState::kPendingConfirmation) {
    return Err("session is " + std::string(to_string(s.state)));
  }
  if (now_s > s.confirm_deadline_s) {
    // choicePeriod expired: the session is simply aborted and a new
    // negotiation is required (paper Sec. 8, information window).
    return finish_locked(
        lk, it, SessionState::kAborted, "choice period expired",
        Result<bool>(Err(std::string("choice period expired; resources de-allocated"))));
  }
  s.state = SessionState::kPlaying;
  return true;
}

bool SessionManager::reject(SessionId id) {
  std::unique_lock lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  if (it->second->state != SessionState::kPendingConfirmation) return false;
  return finish_locked(lk, it, SessionState::kAborted, "offer rejected by the user", true);
}

void SessionManager::advance(SessionId id, double dt_s) {
  std::unique_lock lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session& s = *it->second;
  if (s.state != SessionState::kPlaying) return;
  s.position_s = std::min(s.duration_s, s.position_s + dt_s);
  if (s.position_s >= s.duration_s) return finish_locked(lk, it, SessionState::kCompleted, "");
}

/// One kind of move along a session's own offer list: which offers its
/// Step-5 walk may commit, in which order it commits, and what a failed
/// walk does.
struct SessionManager::TransitionRule {
  enum class Window {
    kAllButCurrent,  ///< every offer except the current one (the paper's adaptation)
    kUntried,        ///< every offer never played by this session
    kWorse,          ///< offers indexed after the current one
    kBetter,         ///< offers indexed before it (end_index bounds the walk)
  };
  Window window = Window::kAllButCurrent;
  /// Reserve the new offer before releasing the current one. Off is
  /// break-before-make, whose failure must abort (nothing is held).
  bool make_before_break = false;
  int SessionStats::*moved = nullptr;  ///< the counter a success bumps
  const char* log_tag = "";
  /// A failed walk aborts the session with this reason (bumping `failed`
  /// when set); empty leaves it untouched, make-before-break only.
  std::string_view abort_reason;
  int SessionStats::*failed = nullptr;
};

void SessionManager::install_locked(Session& s, std::size_t index, Commitment&& commitment,
                                    int SessionStats::*counter) {
  unindex_commitment_locked(s);
  s.commitment = std::move(commitment);  // old reservations, if still held, release here
  s.current_offer = index;
  if (std::find(s.tried.begin(), s.tried.end(), index) == s.tried.end()) s.tried.push_back(index);
  index_commitment_locked(s);
  s.stats.*counter += 1;
  s.stats.interrupted_s += kTransitionLatencyS;
  s.stats.charged = s.offers.total_cost(s.current_offer);
}

TransitionResult SessionManager::transition(SessionId id, const TransitionRule& rule,
                                            TraceContext trace) {
  TransitionResult result;
  std::unique_lock lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    result.error = not_live_locked(id);
    return result;
  }
  Session& s = *it->second;
  if (s.state != SessionState::kPlaying) {
    result.error = "session is " + std::string(to_string(s.state));
    return result;
  }
  result.old_offer = s.current_offer;

  std::vector<std::size_t> exclude;
  std::size_t begin_index = 0;
  std::size_t end_index = SIZE_MAX;
  switch (rule.window) {
    case TransitionRule::Window::kAllButCurrent: exclude.push_back(s.current_offer); break;
    case TransitionRule::Window::kUntried: exclude = s.tried; break;
    case TransitionRule::Window::kWorse: begin_index = s.current_offer + 1; break;
    case TransitionRule::Window::kBetter:
      if (s.current_offer == 0) return result;  // already at the top
      end_index = s.current_offer;  // a lazy list never materialises past it
      break;
  }

  if (!rule.make_before_break) {
    // The paper's literal transition: stop (release) first, then re-run
    // Step 5 on the window.
    unindex_commitment_locked(s);
    s.commitment.release();
  }
  CommitAttempt attempt = manager_->commit_first(s.client, s.offers, s.profile.mm, exclude, trace,
                                                 s.session_class, begin_index, end_index);
  s.stats.commit.merge(attempt.stats);
  if (!attempt.ok()) {
    result.refusals = std::move(attempt.refusals);
    if (rule.abort_reason.empty()) return result;
    if (rule.failed != nullptr) s.stats.*rule.failed += 1;
    result.released = true;
    QOSNP_LOG_INFO(rule.log_tag, "session ", id, " released: ", rule.abort_reason);
    return finish_locked(lk, it, SessionState::kAborted, std::string(rule.abort_reason),
                         std::move(result));
  }

  install_locked(s, attempt.index, std::move(attempt.commitment), rule.moved);
  result.moved = true;
  result.new_offer = attempt.index;
  result.interruption_s = kTransitionLatencyS;
  QOSNP_LOG_INFO(rule.log_tag, "session ", id, " moved from offer ", result.old_offer, " to ",
                 result.new_offer, " at position ", s.position_s, "s");
  return result;
}

TransitionResult SessionManager::adapt(SessionId id, double /*now_s*/, TraceContext trace) {
  // The ordered set of system offers, except the one in difficulty (and,
  // under the stricter policy, every offer already tried).
  return transition(id,
                    {.window = policy_.exclude_all_tried ? TransitionRule::Window::kUntried
                                                         : TransitionRule::Window::kAllButCurrent,
                     .make_before_break = policy_.make_before_break,
                     .moved = &SessionStats::transitions,
                     .log_tag = "adapt",
                     .abort_reason = "no alternate configuration available",
                     .failed = &SessionStats::failed_adaptations},
                    trace);
}

TransitionResult SessionManager::preempt_degrade(SessionId id, TraceContext trace) {
  // Only offers strictly worse than the current one are eligible: the policy
  // invariant "a preempted victim's new offer is always a later entry in its
  // own offer list" is enforced structurally. Releasing first is the point
  // of preempting (the victim's resources are what the higher class needs).
  return transition(id,
                    {.window = TransitionRule::Window::kWorse,
                     .make_before_break = false,
                     .moved = &SessionStats::preempt_degrades,
                     .log_tag = "preempt",
                     .abort_reason = kPreemptedAbortReason},
                    trace);
}

TransitionResult SessionManager::try_upgrade(SessionId id, TraceContext trace) {
  return transition(id,
                    {.window = TransitionRule::Window::kBetter,
                     .make_before_break = true,
                     .moved = &SessionStats::upgrades,
                     .log_tag = "upgrade",
                     .abort_reason = {}},  // a failed upgrade leaves the session as it was
                    trace);
}

RenegotiationResult SessionManager::renegotiate(SessionId id, const UserProfile& new_profile,
                                                double /*now_s*/) {
  RenegotiationResult result;
  std::lock_guard lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    result.problems.push_back(not_live_locked(id));
    return result;
  }
  Session& s = *it->second;

  NegotiationRequest request = make_negotiation_request(s.client, s.offers.document, new_profile);
  request.session_class = s.session_class;
  NegotiationResult renegotiated = manager_->negotiate(request);
  result.status = renegotiated.verdict;
  result.problems = renegotiated.problems;
  s.stats.commit.merge(renegotiated.commit_stats);
  if (!renegotiated.has_commitment()) {
    // Nothing could be committed: the session keeps its current
    // configuration untouched (the old commitment was never released).
    if (renegotiated.user_offer) result.offer = renegotiated.user_offer;
    return result;
  }

  // A new offer list starts a new ladder.
  s.offers = std::move(renegotiated.offers);
  s.tried.clear();
  s.profile = new_profile;
  install_locked(s, renegotiated.committed_index, std::move(renegotiated.commitment),
                 &SessionStats::renegotiations);
  result.switched = true;
  result.offer = derive_user_offer(s.offers, s.current_offer);
  QOSNP_LOG_INFO("renegotiate", "session ", id, " switched to ", result.offer->describe());
  return result;
}

void SessionManager::complete(SessionId id) {
  std::unique_lock lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  return finish_locked(lk, it, SessionState::kCompleted, "");
}

void SessionManager::abort(SessionId id, const std::string& reason) {
  std::unique_lock lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  return finish_locked(lk, it, SessionState::kAborted, reason);
}

std::optional<SessionView> SessionManager::snapshot(SessionId id) const {
  std::lock_guard lk(mu_);
  if (auto it = sessions_.find(id); it != sessions_.end()) return view_of(*it->second);
  if (auto done = finished_.find(id); done != finished_.end()) return done->second;
  return std::nullopt;
}

std::size_t SessionManager::active_count() const {
  std::lock_guard lk(mu_);
  return sessions_.size();
}

std::size_t SessionManager::opened_total() const {
  std::lock_guard lk(mu_);
  return opened_total_;
}

std::size_t SessionManager::released_total() const {
  std::lock_guard lk(mu_);
  return released_total_;
}

std::size_t SessionManager::prune_finished() {
  std::lock_guard lk(mu_);
  const std::size_t dropped = finished_.size();
  finished_.clear();
  return dropped;
}

std::vector<SessionId> SessionManager::playing_sessions() const {
  std::lock_guard lk(mu_);
  std::vector<SessionId> out;
  for (const auto& [id, s] : sessions_) {
    if (s->state == SessionState::kPlaying) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PlayingSession> SessionManager::playing_sessions_with_class() const {
  std::lock_guard lk(mu_);
  std::vector<PlayingSession> out;
  for (const auto& [id, s] : sessions_) {
    if (s->state != SessionState::kPlaying) continue;
    out.push_back({id, s->session_class, s->current_offer});
  }
  std::sort(out.begin(), out.end(),
            [](const PlayingSession& a, const PlayingSession& b) { return a.id < b.id; });
  return out;
}

std::vector<SessionId> SessionManager::sessions_using_flow(FlowId flow) const {
  std::lock_guard lk(mu_);
  auto it = flow_index_.find(flow);
  if (it == flow_index_.end()) return {};
  return {it->second};
}

std::vector<SessionId> SessionManager::sessions_on_server(const ServerId& server) const {
  std::lock_guard lk(mu_);
  std::vector<SessionId> out;
  for (const auto& [id, s] : sessions_) {
    if (s->current_offer == SIZE_MAX) continue;
    for (std::size_t k = 0; k < s->offers.component_count(s->current_offer); ++k) {
      if (s->offers.variant(s->current_offer, k)->server == server) {
        out.push_back(id);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace qosnp
