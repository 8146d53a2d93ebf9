// Population-scale session-lifecycle simulation (ROADMAP item 2): instead
// of uniform open/closed-loop request firing, a *population* of client
// classes — each with its own Poisson arrival process, diurnal load-curve
// modulation, exponential think and abandonment times, hardware template and
// user profile — drives the complete paper lifecycle per simulated user:
//
//   negotiate (Steps 1-5)  ->  confirm within choicePeriod (Step 6)
//     or abandon / time out  ->  playout  ->  optional mid-stream QoS
//     violation -> adaptation down the remaining offer list  ->  release
//
// over src/sim's discrete-event queue. Every arrival ends in exactly one
// terminal state (admitted, shed, refused, abandoned) and every admitted
// session ends released (completed or preempt-released) — the conservation
// laws the population_test suite and bench_e18_population check on every
// replicate.
//
// Reproducibility: all per-user draws come from an RNG seeded purely by
// (seed, arrival index) and all per-class arrival draws from an RNG seeded
// by (seed, class index), so two same-seed runs produce byte-identical
// outcome counts (PopulationMetrics::signature()) regardless of wall-clock
// timing — including when driven through the concurrent NegotiationService,
// because the event loop holds at most one request in flight.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <unordered_map>

#include "client/client_machine.hpp"
#include "core/negotiation_client.hpp"
#include "core/negotiation_request.hpp"
#include "core/negotiation_result.hpp"
#include "policy/local_client.hpp"
#include "policy/preemption.hpp"
#include "profile/profiles.hpp"
#include "session/session.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace qosnp {

/// Raised-cosine day profile modulating a class's arrival rate:
/// factor(t) = 1 + amplitude * cos(2*pi*(t - peak_at_s)/period_s), so the
/// instantaneous rate swings between (1-amplitude) and (1+amplitude) times
/// the base rate with its maximum at peak_at_s. amplitude 0 = flat load.
struct DiurnalCurve {
  double period_s = 86'400.0;
  double amplitude = 0.0;  ///< in [0, 1]
  double peak_at_s = 0.0;  ///< time of the daily peak

  double factor(double t_s) const;
  double peak_factor() const { return 1.0 + amplitude; }
};

/// One class of the simulated population: who these users are (machine,
/// profile) and how they behave (arrival, patience, tolerance).
struct ClientClass {
  std::string name = "standard";
  /// Class hardware template; `machine.node` must name a client node of the
  /// topology the system under test runs on.
  ClientMachine machine;
  UserProfile profile;
  /// Admission class stamped on every request this class submits — who wins
  /// under congestion when the client runs a preemption policy.
  SessionClass session_class = SessionClass::kStandard;

  /// Base Poisson arrival rate, modulated by `diurnal`.
  double arrival_rate_per_s = 0.1;
  DiurnalCurve diurnal;

  /// Mean of the exponential think time between the offer arriving and the
  /// user's Step-6 confirmation.
  double mean_think_s = 5.0;
  /// Rate of the exponential abandonment timer racing the confirmation
  /// (the user walks away mid-choicePeriod). 0 = never abandons early.
  double abandon_rate_per_s = 0.0;
  /// Probability the user keeps a degraded (FAILEDWITHOFFER) offer.
  double accept_degraded_p = 1.0;
  /// Fraction of the document duration actually watched.
  double watch_fraction = 1.0;
  /// Poisson rate of mid-stream QoS violations while the session plays;
  /// each violation triggers the adaptation procedure.
  double violation_rate_per_s = 0.0;
};

/// The reference population of ROADMAP item 2: cheap-mobile (limited
/// hardware, thrifty profile, impatient), standard-desktop (typical), and
/// premium (demanding profile, full decoder set, walks away from degraded
/// offers). `machine.node` is left empty — attach each class to a topology
/// client node before running.
std::vector<ClientClass> standard_population();

/// Per-class outcome accounting. Terminal states partition the arrivals:
///   arrivals == admitted + shed + refused + abandoned
/// and the admitted sessions partition into the released states:
///   admitted == completed + preempt_released + policy_preempted
/// (preempt_released is "our own adaptation walk found no alternate offer";
/// policy_preempted is "a higher-class request took our resources").
struct ClassCounts {
  std::uint64_t arrivals = 0;

  std::uint64_t admitted = 0;   ///< confirmed within choicePeriod, played
  std::uint64_t shed = 0;       ///< FAILEDTRYLATER (overload or transient refusal)
  std::uint64_t refused = 0;    ///< no usable offer, or degraded offer declined
  std::uint64_t abandoned = 0;  ///< walked away (or timed out) during choicePeriod

  std::uint64_t confirm_timeouts = 0;  ///< subset of abandoned: choicePeriod expired

  std::uint64_t completed = 0;         ///< played to the end of the watch window
  std::uint64_t preempt_released = 0;  ///< released mid-stream (adaptation failed)
  std::uint64_t policy_preempted = 0;  ///< released mid-stream by the preemption policy

  std::uint64_t policy_degraded = 0;  ///< forced down the offer list (still played)
  std::uint64_t upgrades = 0;         ///< promoted to a better offer by the scanner

  std::uint64_t violations = 0;
  std::uint64_t adaptations = 0;
  std::uint64_t failed_adaptations = 0;
  double interruption_s = 0.0;  ///< summed adaptation transition time

  std::uint64_t released() const { return completed + preempt_released + policy_preempted; }
  bool conserved() const {
    return arrivals == admitted + shed + refused + abandoned && admitted == released() &&
           confirm_timeouts <= abandoned && violations == adaptations + failed_adaptations;
  }
  void add(const ClassCounts& other);
};

struct PopulationMetrics {
  std::vector<std::string> class_names;  ///< parallel to by_class
  std::vector<ClassCounts> by_class;

  ClassCounts totals() const;
  /// Every class conserved (see ClassCounts::conserved).
  bool conserved() const;
  /// Exhaustive textual image of the per-class outcome counts; two same-seed
  /// runs must produce byte-identical signatures.
  std::string signature() const;

  double shed_rate() const;
  double admission_rate() const;
  double adaptation_success_rate() const;
};

// perfbench/ names the population's client by these two spellings and is
// built unchanged against src/, so they stay as aliases of the real types.
using PopulationBackend = NegotiationClient;
using ManagerPopulationBackend = LocalClient;

/// The per-user random draws, consumed from the user's RNG in this fixed,
/// documented order: document, accept-degraded stance, think time,
/// abandonment time. The RNG is left positioned for the user's mid-stream
/// violation stream, so a caller holding (seed, arrival index) can replay
/// any user's entire behaviour exactly.
struct UserDraws {
  DocumentId document;
  bool accept_degraded = true;
  double think_s = 0.0;
  double abandon_s = 0.0;  ///< +infinity when the class never abandons early
};

UserDraws draw_user(const ClientClass& cls, Rng& rng, std::span<const DocumentId> documents);

/// The per-user RNG stream: same (seed, arrival index) => same draws, no
/// matter which class the arrival belongs to or what happened before it.
inline Rng user_rng(std::uint64_t seed, std::uint64_t arrival_index) {
  return Rng(seed + arrival_index * 0x9e3779b97f4a7c15ULL);
}

struct PopulationConfig {
  std::vector<ClientClass> classes;
  /// Arrivals stop at this simulation time; every lifecycle already started
  /// still runs to its terminal state before run() returns.
  double duration_s = 1'000.0;
  std::uint64_t seed = 1;
  /// Plan-cache policy stamped on every request.
  CacheUse cache = CacheUse::kDefault;
  /// Drop finished sessions from the SessionManager table every this many
  /// simulated seconds, keeping memory proportional to the *live* population
  /// instead of the total one. 0 disables pruning.
  double prune_interval_s = 50.0;
  /// Run PolicyEngine::run_upgrades every this many simulated seconds (on
  /// the deterministic event loop, not a wall-clock thread). 0 disables
  /// scanning; requires a policy-enabled client to have any effect.
  double upgrade_scan_interval_s = 0.0;
  /// Optional arrival hook (class index, simulation time) — load-curve
  /// histograms and the like.
  std::function<void(std::size_t, double)> arrival_observer;

  /// Throws std::invalid_argument when unusable (no classes, negative rates
  /// or durations, diurnal amplitude outside [0, 1], probabilities outside
  /// [0, 1]).
  static PopulationConfig validated(PopulationConfig config);
};

/// One population replicate: seeds the arrival processes, runs every
/// lifecycle to its terminal state through the client, and reports per-class
/// outcome counts. Constructing validates the config (throws
/// std::invalid_argument; documents must be non-empty).
class Population {
 public:
  Population(PopulationConfig config, NegotiationClient& client,
             std::vector<DocumentId> documents);

  /// Run the replicate to completion. Each call is an independent replicate
  /// of the same configuration (fresh clock, fresh arrival processes) —
  /// though against whatever state the client's system is in by then.
  PopulationMetrics run();

 private:
  void schedule_next_arrival(std::size_t class_index);
  void arrive(std::size_t class_index);
  void begin_playout(std::size_t class_index, SessionId session, Rng rng);
  void schedule_next_violation(std::size_t class_index, SessionId session, Rng rng,
                               double end_at_s);
  void finish_playout(std::size_t class_index, SessionId session, double watched_s);
  void schedule_prune();
  void schedule_upgrade_scan();
  bool keep_housekeeping() const;

  PopulationConfig config_;
  NegotiationClient* client_;
  std::vector<DocumentId> documents_;

  // Per-run state, reset at the top of run().
  EventQueue queue_;
  PopulationMetrics metrics_;
  std::vector<Rng> arrival_rngs_;  ///< one per class
  std::uint64_t next_arrival_index_ = 0;
  /// Periodic housekeeping events (prune, upgrade scan) currently scheduled;
  /// they must not count as pending work for each other's re-schedule check.
  std::size_t housekeeping_pending_ = 0;
  /// Class index of every session currently playing, maintained so policy
  /// victim/upgrade events (which arrive by session id, possibly after the
  /// session was pruned) can be attributed to the right ClassCounts row.
  std::unordered_map<SessionId, std::size_t> class_of_session_;
};

}  // namespace qosnp
