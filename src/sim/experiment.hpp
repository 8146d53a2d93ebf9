// Experiment driver: assembles the full simulated news-on-demand system —
// synthetic corpus + catalog, dumbbell network, media-server farm, client
// pool, a negotiator (smart or a baseline), session management — and runs a
// Poisson session workload with optional congestion / server-failure
// injection through the discrete-event engine. Every bench of E6-E10 is a
// parameter sweep over this driver.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "document/corpus.hpp"
#include "fault/fault_plan.hpp"
#include "session/session.hpp"
#include "sim/metrics.hpp"

namespace qosnp {

enum class Strategy { kSmart, kBasic, kCostOnly, kQoSOnly };

std::string_view to_string(Strategy strategy);

struct ExperimentConfig {
  CorpusConfig corpus;

  // Infrastructure.
  int num_clients = 16;
  std::int64_t access_bps = 20'000'000;
  std::int64_t backbone_bps = 150'000'000;
  /// Use the dual-backbone topology (a standby path the transport can
  /// route flows onto when the primary backbone is full or congested).
  bool dual_backbone = false;
  std::int64_t server_disk_bps = 120'000'000;

  /// Fraction of clients with a limited decoder set / modest screen (these
  /// clients exercise steps 1-2 failures).
  double limited_client_fraction = 0.0;

  // Workload.
  double arrival_rate_per_s = 0.1;  ///< Poisson session arrivals
  double sim_duration_s = 2'000.0;
  double confirm_delay_s = 2.0;       ///< user thinking time before OK
  double confirm_probability = 1.0;   ///< chance the user accepts the offer

  // Strategy under test.
  Strategy strategy = Strategy::kSmart;
  AdaptationPolicy adaptation;
  bool adaptation_enabled = true;
  /// Commitment retry policy (default: single attempt, no retries).
  RetryPolicy retry;

  /// Fault injection: wrap the farm and the transport in the decorators of
  /// src/fault, driven by `faults` (seeded there, independently of `seed`).
  bool fault_injection = false;
  FaultPlan faults;

  // Degradation injection.
  double congestion_rate_per_s = 0.0;  ///< Poisson congestion episodes
  double congestion_duration_s = 60.0;
  double congestion_severity = 0.5;  ///< fraction of link capacity lost
  double server_failure_rate_per_s = 0.0;
  double server_repair_s = 120.0;

  /// Profiles arriving users pick from (uniformly); empty = a built-in mix
  /// of demanding / typical / thrifty profiles.
  std::vector<UserProfile> profiles;

  std::uint64_t seed = 1;
};

/// The default profile mix: demanding (high QoS, high budget), typical
/// (TV quality, medium budget), thrifty (accepts degraded QoS, low budget).
std::vector<UserProfile> standard_profile_mix();

struct ExperimentResult {
  SimMetrics metrics;
  double duration_s = 0.0;
  std::string strategy;
};

ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace qosnp
