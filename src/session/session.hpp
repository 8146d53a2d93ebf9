// Session management: Step 6 of the negotiation procedure (user
// confirmation within choicePeriod, resources de-allocated on timeout or
// rejection) and the adaptation procedure of paper Sec. 4 — on a QoS
// violation the QoS manager "considers the ordered set of system offers,
// except the current one (which is in difficulty), and executes Step 5",
// then transitions the playout: stop, note the current position, restart
// from that position on the alternate configuration. Adaptation, policy
// preemption and upgrade are that one procedure over different windows of
// the session's offer list (one private walk, one TransitionResult);
// renegotiation shares its install step.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/client_machine.hpp"
#include "core/qos_manager.hpp"
#include "profile/profiles.hpp"

namespace qosnp {

using SessionId = std::uint64_t;

enum class SessionState {
  kPendingConfirmation,  ///< resources reserved, awaiting the user (Step 6)
  kPlaying,
  kCompleted,
  kAborted,
};

std::string_view to_string(SessionState state);

/// Abort reason stamped by preempt_degrade when a victim could not be kept
/// on any worse offer; the population simulation keys its "preempted by
/// policy" (vs "adaptation failed") accounting off this exact string.
inline constexpr std::string_view kPreemptedAbortReason = "preempted by policy";

/// Fixed cost of one transition (stop + reposition + restart, the paper's
/// simple transition procedure), added to the session's interruption time.
inline constexpr double kTransitionLatencyS = 0.5;

struct SessionStats {
  int transitions = 0;  ///< successful adaptations
  int failed_adaptations = 0;
  int renegotiations = 0;  ///< successful user-driven renegotiations
  int preempt_degrades = 0;    ///< times the policy forced a worse offer
  int upgrades = 0;            ///< times the upgrade scanner promoted this session
  double interrupted_s = 0.0;  ///< total playout interruption
  Money charged;               ///< cost of the currently committed offer
  CommitStats commit;          ///< commitment effort over the session's life
};

/// One live delivery session (internal representation; move-only because it
/// owns the commitment). Only pending and playing sessions exist as Session:
/// finishing one keeps its SessionView and frees the rest.
struct Session {
  SessionId id = 0;
  ClientMachine client;
  UserProfile profile;
  SessionClass session_class = SessionClass::kStandard;
  OfferList offers;  ///< ordered; kept alive for adaptation
  std::size_t current_offer = SIZE_MAX;
  std::vector<std::size_t> tried;  ///< offer indices already used
  Commitment commitment;
  SessionState state = SessionState::kPendingConfirmation;
  double confirm_deadline_s = 0.0;
  double position_s = 0.0;  ///< current playout position
  double duration_s = 0.0;
  SessionStats stats;
};

/// Copyable snapshot exposed to callers; also the record a finished session
/// leaves behind until prune_finished().
struct SessionView {
  SessionId id = 0;
  SessionState state = SessionState::kAborted;
  SessionClass session_class = SessionClass::kStandard;
  std::size_t current_offer = SIZE_MAX;
  std::size_t offer_count = 0;
  double position_s = 0.0;
  double duration_s = 0.0;
  double confirm_deadline_s = 0.0;
  SessionStats stats;
  std::string abort_reason;
  std::optional<UserOffer> user_offer;
};

struct AdaptationPolicy {
  /// Make-before-break: reserve the alternate configuration before
  /// releasing the one in difficulty. The default (off) is the paper's
  /// literal stop-then-restart transition, which also frees the degraded
  /// link's capacity so a leaner variant can fit through it; on = the
  /// seamless variant, which can only adapt around (not through) an
  /// oversubscribed resource.
  bool make_before_break = false;
  /// Exclude every previously-tried offer, not just the current one (the
  /// paper excludes only the current offer).
  bool exclude_all_tried = false;
};

/// Outcome of one move of a playing session along its own offer list:
/// adapt, preempt_degrade and try_upgrade all return it. Exactly one of
/// moved/released is true on any change; both false means the session was
/// left untouched (not live or not playing, already at its best offer, or a
/// make-before-break walk found no offer that fits alongside).
struct TransitionResult {
  bool moved = false;     ///< the session now plays `new_offer`
  bool released = false;  ///< no offer in the window committed: session aborted
  std::size_t old_offer = SIZE_MAX;
  std::size_t new_offer = SIZE_MAX;  ///< moved only
  double interruption_s = 0.0;       ///< moved only: kTransitionLatencyS
  /// Why the session could not move: the guard's message when it was not
  /// live or not playing; otherwise empty.
  std::string error;
  /// The failed walk's refusals, unrendered: no production caller reads
  /// them.
  RefusalLog refusals;

  /// `error`, or else the walk's refusal lines.
  std::vector<std::string> errors() const {
    if (!error.empty()) return {error};
    std::vector<std::string> lines;
    refusals.render(lines);
    return lines;
  }
};

/// Outcome of a user-driven renegotiation of a live session.
struct RenegotiationResult {
  bool switched = false;  ///< the session now plays the new configuration
  NegotiationStatus status = NegotiationStatus::kFailedTryLater;
  std::optional<UserOffer> offer;  ///< the configuration now playing (on success)
  std::vector<std::string> problems;
};

/// Snapshot row of playing_sessions_with_class — what the policy engine
/// needs to pick preemption victims and upgrade candidates.
struct PlayingSession {
  SessionId id = 0;
  SessionClass session_class = SessionClass::kStandard;
  std::size_t current_offer = SIZE_MAX;
};

class SessionManager {
 public:
  SessionManager(QoSManager& manager, AdaptationPolicy policy = {})
      : manager_(&manager), policy_(policy) {}

  /// Admit the result of a successful negotiation (SUCCEEDED, or
  /// FAILEDWITHOFFER when the user opts into the degraded offer). Moves the
  /// offers and commitment out of `result` (the scalar fields stay valid).
  /// The session starts pending confirmation with deadline now +
  /// choicePeriod.
  Result<SessionId> open(const ClientMachine& client, const UserProfile& profile,
                         NegotiationResult&& result, double now_s,
                         SessionClass session_class = SessionClass::kStandard);

  /// Step 6: the user accepts the offer. Fails (and releases resources)
  /// when the choice period already expired.
  Result<bool> confirm(SessionId id, double now_s);
  /// Step 6: the user rejects the offer; resources are de-allocated.
  bool reject(SessionId id);

  /// Advance playout position; completes the session at its duration.
  void advance(SessionId id, double dt_s);

  /// The adaptation procedure, triggered by a QoS violation on the
  /// session's current configuration: Step 5 over every offer but the
  /// current one (every untried one under exclude_all_tried), in the
  /// policy's commit order. Releases (aborts) the session when no alternate
  /// configuration can be committed. An active `trace` gets the walk's
  /// spans.
  TransitionResult adapt(SessionId id, double now_s, TraceContext trace = {});

  /// User-driven renegotiation (paper Sec. 8: "the procedure can be used
  /// for negotiation, renegotiation, and adaptation with almost no
  /// modifications"): re-run the negotiation with a new profile against the
  /// session's document, and — if a configuration is committed —
  /// transition the playout to it from the current position. Uses
  /// make-before-break regardless of the adaptation policy: if nothing can
  /// be committed, the session keeps playing its current configuration.
  RenegotiationResult renegotiate(SessionId id, const UserProfile& new_profile, double now_s);

  /// Normal end / external abort.
  void complete(SessionId id);
  void abort(SessionId id, const std::string& reason);

  std::optional<SessionView> snapshot(SessionId id) const;
  std::size_t active_count() const;
  /// Lifetime accounting: sessions opened / finished (resources released)
  /// since construction. opened_total() == released_total() iff every
  /// session ever opened has reached a terminal state — the conservation law
  /// of the population lifecycle suite.
  std::size_t opened_total() const;
  std::size_t released_total() const;
  /// Drop the records finished (completed/aborted) sessions left behind,
  /// returning how many were dropped; snapshot() of a pruned id is nullopt.
  /// Live sessions are untouched and the lifetime counters keep counting
  /// pruned sessions. A finished session's offers, stream and plan seed are
  /// freed when it finishes; only its SessionView waits here, so long-running
  /// hosts call this periodically to keep memory tracking the live sessions.
  std::size_t prune_finished();
  /// Ids of sessions currently playing (sorted).
  std::vector<SessionId> playing_sessions() const;
  /// Playing sessions with their class and current offer index, sorted by
  /// id — the policy engine's candidate view for preemption and upgrade.
  std::vector<PlayingSession> playing_sessions_with_class() const;

  /// Policy-driven preemption of one playing victim: force it down its own
  /// offer list (Step 5 over the offers strictly worse than — i.e. indexed
  /// after — everything up to its current one). The walk is
  /// break-before-make (the victim's resources free up first, which is the
  /// whole point of preempting); failure to re-commit aborts the victim with
  /// kPreemptedAbortReason.
  TransitionResult preempt_degrade(SessionId id, TraceContext trace = {});

  /// Policy-driven upgrade of one playing session: re-run Step 5 over the
  /// offers strictly better than its current one, make-before-break. On
  /// success the session plays the better offer; on failure it is untouched.
  TransitionResult try_upgrade(SessionId id, TraceContext trace = {});

  /// Violation routing: which session holds a given transport flow.
  std::vector<SessionId> sessions_using_flow(FlowId flow) const;
  /// Which live sessions hold streams on a given (possibly failed) server.
  std::vector<SessionId> sessions_on_server(const ServerId& server) const;

 private:
  using SessionTable = std::unordered_map<SessionId, std::unique_ptr<Session>>;

  /// A transition's offer window, commit order and failure rule (defined
  /// in session.cpp, with one rule per public transition).
  struct TransitionRule;
  /// The live/playing guard, the walk over `rule`'s window and the install
  /// or failure rule: the one body of adapt, preempt_degrade and try_upgrade.
  TransitionResult transition(SessionId id, const TransitionRule& rule, TraceContext trace);
  /// The success half of every transition, renegotiate's included: swap in
  /// `commitment` for offer `index` (the old reservations, if still held,
  /// release here), re-index the flows, record the offer as tried, and charge
  /// one transition counted in `counter`.
  void install_locked(Session& s, std::size_t index, Commitment&& commitment,
                      int SessionStats::*counter);
  void index_commitment_locked(Session& s);
  void unindex_commitment_locked(Session& s);
  /// Step 6 de-allocation: releases the session's reservations, records its
  /// final view in finished_ and erases it from sessions_, then unlocks `lk`
  /// and frees the Session: its offer list, stream and plan seed pin, and
  /// its client and profile copies. `it`, every reference into the Session
  /// and the lock are gone afterwards, so callers write
  /// `return finish_locked(lk, it, ..., result)`: the caller's result is the
  /// return value, and nothing can run after the erase.
  void finish_locked(std::unique_lock<std::mutex>& lk, SessionTable::iterator it,
                     SessionState state, std::string reason);
  template <typename R>
  R finish_locked(std::unique_lock<std::mutex>& lk, SessionTable::iterator it,
                  SessionState state, std::string reason, R result) {
    finish_locked(lk, it, state, std::move(reason));
    return result;
  }
  /// Error text for an id with no live session.
  std::string not_live_locked(SessionId id) const;

  mutable std::mutex mu_;
  QoSManager* manager_;
  AdaptationPolicy policy_;
  SessionTable sessions_;  ///< live sessions only (pending or playing)
  std::unordered_map<SessionId, SessionView> finished_;  ///< until prune_finished()
  std::unordered_map<FlowId, SessionId> flow_index_;
  SessionId next_id_ = 1;
  std::size_t opened_total_ = 0;    ///< guarded by mu_
  std::size_t released_total_ = 0;  ///< guarded by mu_
};

}  // namespace qosnp
