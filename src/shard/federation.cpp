#include "shard/federation.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace qosnp {

Result<FlowId, Refusal> FederatedTransport::reserve(const NodeId& src, const NodeId& dst,
                                                    const StreamRequirements& req) {
  const auto shard = directory_->shard_of_node(src);
  if (!shard.has_value() || *shard >= transports_.size()) {
    // Matches the spirit of the transport's own "no route" refusal: a node
    // no shard owns can never carry a flow, and retrying will not help.
    return permanent_refusal("federation", "node '" + src + "' is owned by no shard");
  }
  auto flow = transports_[*shard]->reserve(src, dst, req);
  if (!flow.ok()) return Err(std::move(flow.error()));
  assert(flow.value() <= kLocalMask && "per-shard flow id overflows the shard tag");
  return tag(*shard, flow.value());
}

bool FederatedTransport::release(FlowId id) {
  const std::size_t shard = shard_of_flow(id);
  if (shard >= transports_.size()) return false;
  return transports_[shard]->release(local_flow(id));
}

Result<Commitment, Refusal> FederatedCommitter::commit_once(const ClientMachine& client,
                                                            const SystemOffer& offer,
                                                            CommitStats& stats) {
  // Group the offer's components by owning shard and walk shards in
  // ascending index order, original component order within a shard — the
  // deterministic federation order every peer agrees on. A component whose
  // server no shard owns is kept in the home group so the walk reaches it
  // exactly where the unsharded committer would (same refusal, same
  // rollback count) — with one shard the whole walk degenerates to the
  // base committer's component order.
  const std::size_t fallback = home_ != kNoHomeShard ? home_ : 0;
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (shard, component index)
  order.reserve(offer.components.size());
  for (std::size_t i = 0; i < offer.components.size(); ++i) {
    const auto shard = directory_->shard_of_server(offer.components[i].variant->server);
    order.emplace_back(shard.value_or(fallback), i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  Commitment commitment = begin_commitment(offer.components.size());
  std::size_t shards_touched = 0;
  std::size_t last_shard = kNoHomeShard;
  for (const auto& [shard, index] : order) {
    if (shard != last_shard) {
      ++shards_touched;
      last_shard = shard;
    }
    const OfferComponent& c = offer.components[index];
    const Resolved& at = resolve(client, *c.variant);
    StreamServer* server = at.server;
    if (server == nullptr) {
      if (metrics_ != nullptr && !commitment.empty()) metrics_->federated_rollbacks->inc();
      return permanent_refusal(c.variant->server,
                               "variant '" + c.variant->id + "' lives on unknown server");
    }
    StreamRequirements requirements = c.requirements;
    requirements.session_class = session_class();
    auto stream = server->admit(requirements);
    if (!stream.ok()) {
      stats.released_on_failure +=
          static_cast<int>(commitment.stream_count() + commitment.flow_count());
      if (metrics_ != nullptr && !commitment.empty()) metrics_->federated_rollbacks->inc();
      return Err(std::move(stream.error()));
    }
    attach_stream(commitment, server, stream.value());

    auto flow = transport().reserve_at(at.endpoints, requirements);
    if (!flow.ok()) {
      stats.released_on_failure +=
          static_cast<int>(commitment.stream_count() + commitment.flow_count());
      if (metrics_ != nullptr) metrics_->federated_rollbacks->inc();
      return Err(std::move(flow.error()));
    }
    attach_flow(commitment, &transport(), flow.value());
  }

  if (metrics_ != nullptr && shards_touched > 1) {
    if (home_ != kNoHomeShard) {
      metrics_->cross_commits[home_]->inc();
    } else {
      metrics_->cross_commits_adapt->inc();
    }
    if (home_ != kNoHomeShard) {
      for (const auto& [shard, index] : order) {
        if (shard != home_) metrics_->forwarded[shard]->inc();
      }
    }
  }
  return commitment;
}

}  // namespace qosnp
