// Experiment metrics: what the evaluation benches report. The paper's
// system-level claims are qualitative ("increases the availability of the
// system and the user satisfaction", Sec. 8); these counters quantify them.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "core/offer.hpp"
#include "util/money.hpp"

namespace qosnp {

struct SimMetrics {
  // Negotiation outcomes.
  std::size_t arrivals = 0;
  std::array<std::size_t, 5> by_status{};  ///< indexed by NegotiationStatus

  // Session lifecycle.
  std::size_t confirmed = 0;
  std::size_t confirm_timeouts = 0;
  std::size_t rejected_by_user = 0;
  std::size_t completed = 0;
  std::size_t aborted = 0;

  // Adaptation.
  std::size_t violations = 0;
  std::size_t adaptations = 0;
  std::size_t failed_adaptations = 0;
  double total_interruption_s = 0.0;

  // Commitment effort (retry layer; nonzero retries need a RetryPolicy with
  // max_attempts > 1, nonzero transient_failures need faults or contention).
  std::size_t commit_attempts = 0;
  std::size_t commit_retries = 0;
  std::size_t transient_failures = 0;
  std::size_t released_on_failure = 0;

  // Economics & load.
  Money revenue;  ///< charges of completed sessions
  double utilization_sum = 0.0;  ///< mean link utilisation samples
  std::size_t utilization_samples = 0;

  std::size_t count(NegotiationStatus status) const {
    return by_status[static_cast<std::size_t>(status)];
  }
  void record(NegotiationStatus status) {
    ++by_status[static_cast<std::size_t>(status)];
  }

  /// Blocking probability: requests turned away for lack of resources.
  double blocking_probability() const {
    return arrivals == 0
               ? 0.0
               : static_cast<double>(count(NegotiationStatus::kFailedTryLater)) /
                     static_cast<double>(arrivals);
  }
  /// Fraction of arrivals that were served with their full requirements.
  double satisfaction() const {
    return arrivals == 0 ? 0.0
                         : static_cast<double>(count(NegotiationStatus::kSucceeded)) /
                               static_cast<double>(arrivals);
  }
  /// Fraction of arrivals served at all (full or degraded offer).
  double service_rate() const {
    return arrivals == 0
               ? 0.0
               : static_cast<double>(count(NegotiationStatus::kSucceeded) +
                                     count(NegotiationStatus::kFailedWithOffer)) /
                     static_cast<double>(arrivals);
  }
  double adaptation_success_rate() const {
    const std::size_t attempts = adaptations + failed_adaptations;
    return attempts == 0 ? 1.0
                         : static_cast<double>(adaptations) / static_cast<double>(attempts);
  }
  double mean_utilization() const {
    return utilization_samples == 0 ? 0.0
                                    : utilization_sum / static_cast<double>(utilization_samples);
  }

  std::string summary() const;
};

}  // namespace qosnp
