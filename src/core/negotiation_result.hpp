// NegotiationResult: the one public result type of the negotiation
// pipeline. QoSManager::negotiate fills the procedure fields (verdict, user
// offer, offers, commitment, commit stats); the concurrent service layers
// the front-end fields on top (request id, shed reason, session id, queue
// and total latency, worker index, trace handle) and returns the same type
// — callers no longer stitch a manager outcome and a service response
// together. The pre-redesign per-layer result names are gone;
// scripts/check_no_deprecated.sh keeps them from creeping back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/commit.hpp"
#include "core/offer.hpp"
#include "obs/trace.hpp"

namespace qosnp {

/// Why the service resolved a request without running the procedure.
enum class ShedReason { kNone, kQueueFull, kDeadlineExpired };

inline std::string_view to_string(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone: return "none";
    case ShedReason::kQueueFull: return "queue-full";
    case ShedReason::kDeadlineExpired: return "deadline-expired";
  }
  return "?";
}

/// Everything one negotiation request produced. The negotiation results of
/// the paper are (status, user offer); the ordered offer list and the
/// commitment are carried along for Step 6 and the adaptation procedure,
/// and the service stamps its front-end fields before resolving the future.
/// Move-only (it owns the commitment).
struct NegotiationResult {
  // --- front-end (stamped by NegotiationService; defaults when the
  // QoSManager is driven directly) -----------------------------------------
  std::uint64_t request_id = 0;
  ShedReason shed = ShedReason::kNone;
  std::uint64_t session_id = 0;  ///< 0 when no session was opened
  /// Accept -> start of the procedure. Accept is the queue push for an
  /// in-process submit, the socket read that completed the frame on the wire.
  double queue_ms = 0.0;
  double total_ms = 0.0;         ///< accept -> response
  int worker = -1;               ///< worker or wire event-loop index; -1: shed at the queue edge
  /// Per-request trace, when the service ran with a TraceSink configured.
  std::shared_ptr<const NegotiationTrace> trace;

  // --- the procedure's results (paper Steps 1-6) ---------------------------
  NegotiationStatus verdict = NegotiationStatus::kFailedTryLater;
  std::optional<UserOffer> user_offer;
  std::vector<std::string> problems;

  OfferList offers;  ///< classified best-to-worst; kept for adaptation
  std::size_t committed_index = SIZE_MAX;
  Commitment commitment;
  /// Commitment effort over the whole Step-5 walk (all offers tried).
  CommitStats commit_stats;

  bool has_commitment() const { return committed_index != SIZE_MAX; }
};

}  // namespace qosnp
