// Closed-/open-loop load generator for the negotiation service.
//
//   closed: `concurrency` synthetic clients each run submit -> wait for the
//           response -> (hold a committed session, then complete it) ->
//           next request. Offered load tracks service capacity —
//           the mode for throughput/latency scaling measurements.
//   open:   requests arrive on a Poisson process regardless of completions
//           (arrival_rate_per_s), the regime that drives the queue into
//           backpressure and exercises load shedding.
//
// Reproducibility: every request's random draws (document, profile, Step 6
// accept-degraded stance) come from an RNG seeded purely by (seed, request
// index) — the same trace is generated no matter which generator thread or
// worker carries the request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "service/negotiation_service.hpp"

namespace qosnp {

enum class ArrivalMode { kClosed, kOpen };

struct LoadConfig {
  ArrivalMode mode = ArrivalMode::kClosed;
  /// Closed loop: concurrent synthetic clients.
  std::size_t concurrency = 8;
  /// Total requests over the run.
  std::size_t requests = 1000;
  /// Open loop: Poisson arrival rate.
  double arrival_rate_per_s = 100.0;
  /// Closed loop: how long a committed session is held before the client
  /// completes it (0 = complete immediately, capacity returns at once).
  /// Open-loop sessions are completed at drain.
  double hold_ms = 0.0;
  /// Probability the user takes a degraded (FAILEDWITHOFFER) offer.
  double accept_degraded_p = 1.0;
  std::uint64_t seed = 1;
  std::vector<ClientMachine> clients;  ///< request i uses clients[i % size]
  std::vector<DocumentId> documents;   ///< drawn per request
  std::vector<UserProfile> profiles;   ///< drawn per request
};

struct LoadReport {
  ServiceReport service;
  std::size_t completed_sessions = 0;  ///< sessions the generator completed
  std::size_t live_sessions = 0;       ///< still active at drain (should be 0)
  double wall_s = 0.0;                 ///< generator wall time, submit to drain
  double throughput_rps = 0.0;         ///< responses per generator wall second
};

/// Drive `service` (which must be started) with the configured workload and
/// block until every request is resolved and every generator-opened session
/// is completed. clients/documents/profiles must be non-empty.
LoadReport run_load(NegotiationService& service, const LoadConfig& config);

}  // namespace qosnp
