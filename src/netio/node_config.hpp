// NodeConfig: one validated builder for everything a deployed negotiation
// node is configured with, collapsing the loose-struct sprawl that grew one
// subsystem at a time — ServiceConfig (worker pool), CachePolicy (plan
// cache) and WireServerConfig (TCP front-end). Each setter validates its
// field immediately and throws std::invalid_argument with a per-field
// message ("NodeConfig.workers: must be >= 1"), so a bad value is reported
// at the line that wrote it, not at some later use.
//
// The old structs stay as plain, fully-supported types — NodeConfig's
// finishers produce them, and the subsystems keep consuming them — but new
// code must build them through here: scripts/check_no_deprecated.sh bans
// direct construction of the loose structs in the sharding layer and the
// code that follows it.
//
// The plan cache is always on: every QoSManager keeps one, so a node only
// sizes it (cache_capacity); a request that must run Steps 1-4 afresh says
// so itself with CacheUse::kBypass.
//
//   auto node = NodeConfig{}
//                   .workers(8).queue_capacity(256).auto_confirm(false)
//                   .cache_capacity(4096)
//                   .listen_port(0).max_connections(128);
//   NegotiationService service(manager, sessions, node.service());
//   WireServer server(service, node.wire_server());
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/plan_cache.hpp"
#include "netio/server.hpp"
#include "service/negotiation_service.hpp"

namespace qosnp {

class NodeConfig {
 public:
  // --- service (worker pool) fields ---------------------------------------
  NodeConfig& workers(std::size_t n);
  NodeConfig& queue_capacity(std::size_t n);
  NodeConfig& deadline_ms(double ms);
  NodeConfig& simulated_rtt_ms(double ms);
  NodeConfig& auto_confirm(bool on);
  NodeConfig& metrics(MetricsRegistry* registry);
  NodeConfig& trace_sink(TraceSink* sink);

  // --- plan cache fields ---------------------------------------------------
  /// Kept for existing callers that switch the cache on; `false` is refused
  /// (there is no uncached node).
  NodeConfig& plan_cache_enabled(bool on);
  NodeConfig& cache_capacity(std::size_t n);

  // --- wire listener fields ------------------------------------------------
  NodeConfig& bind_address(std::string address);
  NodeConfig& listen_port(std::uint16_t port);
  NodeConfig& max_connections(std::size_t n);
  NodeConfig& max_frame_bytes(std::size_t n);
  NodeConfig& idle_timeout_ms(double ms);

  // --- finishers -----------------------------------------------------------
  /// The worker-pool configuration (revalidated as a whole on the way out).
  ServiceConfig service() const;
  /// The plan-cache policy.
  CachePolicy cache_policy() const;
  /// A fresh plan cache under cache_policy() — exactly what
  /// NegotiationConfig::plan_cache takes.
  std::shared_ptr<NegotiationPlanCache> make_plan_cache() const;
  /// The TCP front-end configuration.
  WireServerConfig wire_server() const;

 private:
  ServiceConfig service_;
  CachePolicy cache_;
  WireServerConfig wire_;
};

}  // namespace qosnp
