#include "shard/sharded_service.hpp"

#include <algorithm>
#include <stdexcept>

namespace qosnp {

void ShardRouter::submit_async(NegotiationRequest request,
                               NegotiationService::CompletionFn done) {
  metrics_->requests->inc();
  const std::size_t home = home_shard(request);
  metrics_->routed[home]->inc();
  Counter* responses = metrics_->responses[home];
  shards_[home]->submit_async(
      std::move(request), [responses, done = std::move(done)](NegotiationResult result) {
        responses->inc();
        done(std::move(result));
      });
}

std::future<NegotiationResult> ShardRouter::submit(NegotiationRequest request) {
  auto promise = std::make_shared<std::promise<NegotiationResult>>();
  std::future<NegotiationResult> future = promise->get_future();
  submit_async(std::move(request),
               [promise](NegotiationResult result) { promise->set_value(std::move(result)); });
  return future;
}

NegotiationResult ShardRouter::negotiate(NegotiationRequest request, double /*now_s*/) {
  if (std::any_of(shards_.begin(), shards_.end(),
                  [](const NegotiationService* shard) { return shard->config().auto_confirm; })) {
    throw std::invalid_argument(
        "ShardRouter::negotiate: the shard services must run with auto_confirm=false "
        "(the caller drives Step 6 itself)");
  }
  return submit(std::move(request)).get();
}

ShardedService::ShardedService(std::vector<ShardSpec> specs, const NodeConfig& node,
                               NegotiationConfig negotiation, CostModel cost)
    : directory_(specs.empty() ? 1 : specs.size()) {
  if (specs.empty()) {
    throw std::invalid_argument("ShardedService: at least one ShardSpec is required");
  }
  const std::size_t n = specs.size();
  shard_metrics_ = std::make_unique<ShardMetrics>(registry_, n);

  // Verticals first: each shard's catalog partition, farm and transport,
  // with every server (and the node it attaches to) registered to its
  // owning shard — the routing state the federated providers consult.
  std::vector<ServerProvider*> farm_ptrs;
  std::vector<TransportProvider*> transport_ptrs;
  for (std::size_t k = 0; k < n; ++k) {
    catalogs_.push_back(std::make_unique<Catalog>());
    farms_.push_back(std::make_unique<ServerFarm>());
    transports_.push_back(std::make_unique<TransportService>(std::move(specs[k].topology)));
    for (MediaServerConfig& server : specs[k].servers) {
      directory_.register_server(server.id, k);
      directory_.register_node(server.node, k);
      if (!farms_[k]->add(std::move(server))) {
        throw std::invalid_argument("ShardedService: duplicate server id within shard " +
                                    std::to_string(k));
      }
    }
    farm_ptrs.push_back(farms_[k].get());
    transport_ptrs.push_back(transports_[k].get());
  }
  fed_farm_ = std::make_unique<FederatedFarm>(directory_, std::move(farm_ptrs));
  fed_transport_ = std::make_unique<FederatedTransport>(directory_, std::move(transport_ptrs));

  // Per-shard managers commit through the federated providers (a shard's
  // documents may reference another shard's servers); each gets its own
  // plan cache, invalidated by its own catalog partition's epochs.
  for (std::size_t k = 0; k < n; ++k) {
    NegotiationConfig config = negotiation;
    config.plan_cache = node.make_plan_cache();
    config.committer_factory = [this, k](const RetryPolicy& retry, SessionClass session_class) {
      return std::make_unique<FederatedCommitter>(*fed_farm_, *fed_transport_, directory_, retry,
                                                  session_class, k, shard_metrics_.get());
    };
    managers_.push_back(
        std::make_unique<QoSManager>(*catalogs_[k], *fed_farm_, *fed_transport_, cost, config));
  }

  // One SessionManager across all shards: sessions are global objects, so
  // Step 6 and the adaptation procedure work no matter which shard admitted
  // them. Its walks run through a home-less federated committer over the
  // session's resolved document (never a catalog, so the empty federation
  // catalog is fine).
  NegotiationConfig federation_config = negotiation;
  federation_config.committer_factory = [this](const RetryPolicy& retry,
                                               SessionClass session_class) {
    return std::make_unique<FederatedCommitter>(*fed_farm_, *fed_transport_, directory_, retry,
                                                session_class, kNoHomeShard,
                                                shard_metrics_.get());
  };
  federation_manager_ = std::make_unique<QoSManager>(federation_catalog_, *fed_farm_,
                                                     *fed_transport_, cost, federation_config);
  sessions_ = std::make_unique<SessionManager>(*federation_manager_);

  // Every shard's worker pool records into the one shared registry, so the
  // per-verdict conservation laws close over the whole federation.
  NodeConfig shard_node = node;
  shard_node.metrics(&registry_);
  std::vector<NegotiationService*> service_ptrs;
  for (std::size_t k = 0; k < n; ++k) {
    services_.push_back(
        std::make_unique<NegotiationService>(*managers_[k], *sessions_, shard_node.service()));
    service_ptrs.push_back(services_[k].get());
  }
  router_ = std::make_unique<ShardRouter>(std::move(service_ptrs), directory_, *shard_metrics_);
}

ShardedService::~ShardedService() { stop(); }

void ShardedService::start() {
  for (auto& service : services_) service->start();
}

void ShardedService::stop() {
  for (auto& service : services_) service->stop();
}

std::vector<std::string> ShardedService::add_document(MultimediaDocument doc) {
  return catalogs_[directory_.shard_of_document(doc.id)]->add(std::move(doc));
}

bool ShardedService::drained() const {
  if (sessions_->active_count() != 0) return false;
  for (std::size_t k = 0; k < services_.size(); ++k) {
    for (const ServerId& id : farms_[k]->list()) {
      const ServerUsage usage = farms_[k]->find(id)->usage();
      if (usage.reserved_bps != 0 || usage.sessions != 0) return false;
    }
    if (transports_[k]->active_flows() != 0 || transports_[k]->total_reserved_bps() != 0 ||
        !transports_[k]->accounting_consistent()) {
      return false;
    }
  }
  return shard_metrics_->balanced();
}

}  // namespace qosnp
