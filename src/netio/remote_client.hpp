// RemoteClient: NegotiationClient across the wire. Wraps a WireClient and
// maps wire failures onto the paper's verdicts: a wire-level failure is, to
// the user, exactly the paper's "try later" — the service was unreachable,
// shedding, or the caller's own deadline expired — so it surfaces as a
// FAILEDTRYLATER result whose problem string carries the typed WireError
// (overloaded vs deadline-exceeded vs protocol error stay distinguishable).
//
// Step 6 (confirm / abandon / timeout) stays on the server-side
// SessionManager: protocol v1 carries negotiation, not session lifecycle,
// so this client holds a reference to the host service behind the wire
// server for its sessions, clock and policy engine. In a loopback
// deployment (the tests and benches) that is simply the co-hosted service.
// Carrying the lifecycle on the wire (ROADMAP item 5) removes the
// reference.
//
// A WireClient is not thread-safe, and neither is this adapter: one
// RemoteClient per submitting thread, the way a real client process would.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

#include "core/negotiation_client.hpp"
#include "netio/client.hpp"
#include "service/negotiation_service.hpp"

namespace qosnp {

class RemoteClient final : public NegotiationClient {
 public:
  /// `client` must be configured against `host`'s wire server. Throws
  /// std::invalid_argument when the host auto-confirms (its workers would
  /// take Step 6 themselves).
  RemoteClient(WireClient& client, NegotiationService& host) : client_(&client), host_(&host) {
    if (host.config().auto_confirm) {
      throw std::invalid_argument(
          "RemoteClient: the host service must run with auto_confirm=false "
          "(the caller drives Step 6 itself)");
    }
  }

  NegotiationResult negotiate(NegotiationRequest request, double /*now_s*/) override {
    auto response = client_->submit(request);
    if (response.ok()) return std::move(response.value());
    NegotiationResult failed;
    failed.request_id = request.id;
    failed.verdict = NegotiationStatus::kFailedTryLater;
    failed.problems.push_back("wire: " + response.error().to_text());
    return failed;
  }

  SessionManager& sessions() override { return host_->sessions(); }
  double session_now_s(double /*now_s*/) const override { return host_->now_s(); }
  PolicyEngine* policy() override { return host_->policy(); }

 private:
  WireClient* client_;
  NegotiationService* host_;
};

}  // namespace qosnp
