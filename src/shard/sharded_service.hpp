// The in-process sharded federation (ROADMAP item 2): N complete
// negotiation verticals — catalog partition, server farm, transport
// capacity, QoS manager with its own plan cache, concurrent service worker
// pool — behind one consistent-hash router.
//
//   ShardRouter    — routes each NegotiationRequest to its home shard
//                    (ShardDirectory::shard_of_request) and keeps the
//                    qosnp_shard_* balance counters; the federation's
//                    NegotiationClient. Thread-safe: routing is pure and the
//                    shard services are concurrent.
//   ShardedService — owns the verticals and the shared pieces: one
//                    ShardDirectory, the federated providers every shard
//                    commits through (cross-shard documents reserve on each
//                    owning shard via the FederatedCommitter), ONE shared
//                    SessionManager (sessions are global objects — Step 6,
//                    adaptation and preemption work across shards), and one
//                    MetricsRegistry so the qosnp_* conservation laws close
//                    globally over the whole federation.
//
// Catalog partitioning: add_document() stores each document on its home
// shard only; a shard's plan cache is invalidated by that shard's catalog
// epochs alone (per-shard caches, per-shard epochs).
//
// With one shard the federation degenerates exactly to the unsharded
// service — same reservation order, same refusal texts, same results
// byte-for-byte (tests/shard_test.cpp holds it to that over 500+ seeds).
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/negotiation_client.hpp"
#include "core/qos_manager.hpp"
#include "document/catalog.hpp"
#include "net/transport.hpp"
#include "netio/node_config.hpp"
#include "server/media_server.hpp"
#include "service/negotiation_service.hpp"
#include "session/session.hpp"
#include "shard/directory.hpp"
#include "shard/federation.hpp"
#include "shard/metrics.hpp"

namespace qosnp {

/// What one shard owns: its media servers and the transport topology they
/// (and every client node) attach to. Server ids and server *nodes* must be
/// unique across shards (the directory maps both to their owning shard);
/// client nodes should appear in every shard's topology so any shard can
/// terminate a flow at any client.
struct ShardSpec {
  std::vector<MediaServerConfig> servers;
  Topology topology;
};

/// Consistent-hash request router over the shard services. submit/
/// submit_async mirror NegotiationService's own surface, so anything that
/// can drive a service can drive the federation. As a NegotiationClient,
/// Step-6 sessions live on the SessionManager every shard shares, on shard
/// 0's clock (the shard services are constructed together).
class ShardRouter final : public NegotiationClient {
 public:
  ShardRouter(std::vector<NegotiationService*> shards, const ShardDirectory& directory,
              ShardMetrics& metrics)
      : shards_(std::move(shards)), directory_(&directory), metrics_(&metrics) {}

  std::size_t shard_count() const { return shards_.size(); }

  std::size_t home_shard(const NegotiationRequest& request) const {
    return directory_->shard_of_request(request);
  }

  void submit_async(NegotiationRequest request, NegotiationService::CompletionFn done);
  std::future<NegotiationResult> submit(NegotiationRequest request);

  /// Routed submit(), blocking for the result. Throws std::invalid_argument,
  /// before routing, when the shard services auto-confirm.
  NegotiationResult negotiate(NegotiationRequest request, double now_s) override;
  SessionManager& sessions() override { return shards_.front()->sessions(); }
  double session_now_s(double /*now_s*/) const override { return shards_.front()->now_s(); }

  NegotiationService& shard(std::size_t k) { return *shards_[k]; }

 private:
  std::vector<NegotiationService*> shards_;
  const ShardDirectory* directory_;
  ShardMetrics* metrics_;
};

class ShardedService {
 public:
  /// Assemble a federation of `specs.size()` shards. `node` configures
  /// every shard's worker pool and plan cache (one cache per shard);
  /// `negotiation` seeds each shard manager's NegotiationConfig (its
  /// plan_cache and committer_factory fields are overwritten per shard);
  /// `cost` is shared. Throws std::invalid_argument on an empty spec list
  /// or duplicate server/node ownership.
  explicit ShardedService(std::vector<ShardSpec> specs, const NodeConfig& node = {},
                          NegotiationConfig negotiation = {}, CostModel cost = {});
  ~ShardedService();

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  void start();
  void stop();

  /// Store a document on its home shard's catalog partition. Returns the
  /// catalog's validation problem list (empty = stored).
  std::vector<std::string> add_document(MultimediaDocument doc);
  std::size_t home_of(const DocumentId& id) const { return directory_.shard_of_document(id); }

  std::size_t shard_count() const { return services_.size(); }
  ShardRouter& router() { return *router_; }
  const ShardDirectory& directory() const { return directory_; }
  NegotiationService& service(std::size_t k) { return *services_[k]; }
  QoSManager& manager(std::size_t k) { return *managers_[k]; }
  Catalog& catalog(std::size_t k) { return *catalogs_[k]; }
  ServerFarm& farm(std::size_t k) { return *farms_[k]; }
  TransportService& transport(std::size_t k) { return *transports_[k]; }
  SessionManager& sessions() { return *sessions_; }
  MetricsRegistry& metrics() { return registry_; }
  ShardMetrics& shard_metrics() { return *shard_metrics_; }

  /// The global drain invariant: no live session anywhere, every shard's
  /// farm and transport back to zero reservations with consistent
  /// accounting, and the shard counters balanced.
  bool drained() const;

 private:
  ShardDirectory directory_;
  MetricsRegistry registry_;
  std::unique_ptr<ShardMetrics> shard_metrics_;
  std::vector<std::unique_ptr<Catalog>> catalogs_;
  std::vector<std::unique_ptr<ServerFarm>> farms_;
  std::vector<std::unique_ptr<TransportService>> transports_;
  std::unique_ptr<FederatedFarm> fed_farm_;
  std::unique_ptr<FederatedTransport> fed_transport_;
  std::vector<std::unique_ptr<QoSManager>> managers_;
  /// The shared SessionManager adapts/renegotiates through this home-less
  /// manager (commit walks only — it owns no catalog partition).
  Catalog federation_catalog_;
  std::unique_ptr<QoSManager> federation_manager_;
  std::unique_ptr<SessionManager> sessions_;
  std::vector<std::unique_ptr<NegotiationService>> services_;
  std::unique_ptr<ShardRouter> router_;
};

}  // namespace qosnp
