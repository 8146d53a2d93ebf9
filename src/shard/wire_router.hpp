// WireShardRouter: the federation reached over the wire — a client-side
// router in front of N qosnpd backends, one per shard, indexed in shard
// order (the deployment contract: backends[k] fronts the shard that
// ShardDirectory(shard_count=N) calls k). Routing uses the same pure
// consistent hash as the in-process ShardRouter, so this process computes
// the identical home shard with no registration traffic.
//
// Retry policy (the reason WireClient deadlines are typed): a response of
// kOverloaded — the backend shed the connection or request — is retried on
// the next shard in ring order, one hop at most; every other error,
// kDeadlineExceeded above all, fails fast. An expired deadline means
// the home shard may still be computing the answer — retrying it elsewhere
// would double-spend the reservation, and the other shard does not own the
// document anyway (it answers with a clean typed refusal, which is why the
// overload hop is safe: it degrades to an honest failure, never a wrong
// success).
//
// Not thread-safe (WireClient is connection-per-thread); give each
// submitting thread its own router, as with RemoteClient.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/negotiation_request.hpp"
#include "core/negotiation_result.hpp"
#include "netio/client.hpp"
#include "shard/directory.hpp"
#include "util/result.hpp"

namespace qosnp {

struct WireShardRouterConfig {
  /// One backend per shard, index = shard id.
  std::vector<WireClientConfig> backends;

  static WireShardRouterConfig validated(WireShardRouterConfig config);
};

/// Per-routing-decision counters (this router is single-threaded, so plain
/// integers tell the whole story).
struct WireRouteStats {
  std::vector<std::uint64_t> routed;  ///< submits first sent to shard k
  std::uint64_t overload_hops = 0;    ///< retries taken after kOverloaded
  std::uint64_t deadline_failures = 0;  ///< kDeadlineExceeded fast-failures
};

class WireShardRouter {
 public:
  explicit WireShardRouter(WireShardRouterConfig config);

  std::size_t shard_count() const { return clients_.size(); }
  std::size_t home_shard(const NegotiationRequest& request) const {
    return directory_.shard_of_request(request);
  }

  /// Route + submit, hopping to the next shard only on kOverloaded.
  Result<NegotiationResult, wire::WireError> submit(const NegotiationRequest& request,
                                                    double deadline_ms = 0.0);

  const WireRouteStats& stats() const { return stats_; }
  WireClient& client(std::size_t k) { return *clients_[k]; }

 private:
  WireShardRouterConfig config_;
  ShardDirectory directory_;
  std::vector<std::unique_ptr<WireClient>> clients_;
  WireRouteStats stats_;
};

}  // namespace qosnp
