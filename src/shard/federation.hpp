// The federation layer of the sharded negotiation system: how one shard's
// Step-5 commit walk reaches resources owned by *other* shards, without a
// single reservation ever leaking.
//
//   FederatedFarm       — ServerProvider routing find_server() to the
//                         owning shard's farm (ShardDirectory lookup).
//   FederatedTransport  — TransportProvider routing reserve() to the shard
//                         owning the flow's source (server) node. Returned
//                         FlowIds carry the owning shard in their top bits,
//                         so release() routes back arithmetically: no map,
//                         no lock, and a Commitment's RAII handles keep
//                         working unchanged across shard boundaries.
//   FederatedCommitter  — ResourceCommitter whose commit_once() walk groups
//                         an offer's components by owning shard and
//                         reserves shard-by-shard in ascending shard order
//                         (original component order within a shard). This
//                         generalises the src/domain multi-domain walk:
//                         refusal/rollback semantics, retry accounting and
//                         refusal texts are EXACTLY the base committer's —
//                         with one shard the walk degenerates to the
//                         identical reserve sequence, which is what makes
//                         ShardRouter(N=1) byte-identical to the
//                         unsharded service.
//
// See docs/SHARDING.md for the commit protocol and rollback ordering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/commit.hpp"
#include "net/transport.hpp"
#include "server/media_server.hpp"
#include "shard/directory.hpp"
#include "shard/metrics.hpp"

namespace qosnp {

/// Routes find_server() to the farm of the shard owning the server id.
class FederatedFarm final : public ServerProvider {
 public:
  FederatedFarm(const ShardDirectory& directory, std::vector<ServerProvider*> farms)
      : directory_(&directory), farms_(std::move(farms)) {}

  StreamServer* find_server(const ServerId& id) override {
    const auto shard = directory_->shard_of_server(id);
    if (!shard.has_value() || *shard >= farms_.size()) return nullptr;
    return farms_[*shard]->find_server(id);
  }

 private:
  const ShardDirectory* directory_;
  std::vector<ServerProvider*> farms_;
};

/// Routes reserve()/release() to the shard owning the source node, tagging
/// flow ids with the owning shard so release() needs no lookup state.
class FederatedTransport final : public TransportProvider {
 public:
  /// Shard index lives in the top 16 bits (offset by one so a tagged id is
  /// never confused with a raw per-shard id); 2^48 flows per shard before
  /// the tag would be clobbered — unreachable in any real deployment, and
  /// asserted against in reserve().
  static constexpr int kShardShift = 48;
  static constexpr FlowId kLocalMask = (FlowId{1} << kShardShift) - 1;

  static FlowId tag(std::size_t shard, FlowId local) {
    return (static_cast<FlowId>(shard + 1) << kShardShift) | local;
  }
  static std::size_t shard_of_flow(FlowId id) {
    return static_cast<std::size_t>(id >> kShardShift) - 1;
  }
  static FlowId local_flow(FlowId id) { return id & kLocalMask; }

  FederatedTransport(const ShardDirectory& directory, std::vector<TransportProvider*> transports)
      : directory_(&directory), transports_(std::move(transports)) {}

  Result<FlowId, Refusal> reserve(const NodeId& src, const NodeId& dst,
                                  const StreamRequirements& req) override;
  bool release(FlowId id) override;

 private:
  const ShardDirectory* directory_;
  std::vector<TransportProvider*> transports_;
};

/// Home shard value of a committer serving the shared SessionManager's
/// adaptation walks, which have no routed home.
inline constexpr std::size_t kNoHomeShard = SIZE_MAX;

class FederatedCommitter final : public ResourceCommitter {
 public:
  /// `home` is the shard whose manager runs the walk (kNoHomeShard for
  /// session adaptation); it only feeds the attribution metrics, never the
  /// reservation routing. `metrics` may be nullptr (tests building the
  /// federation pieces directly).
  FederatedCommitter(FederatedFarm& farm, FederatedTransport& transport,
                     const ShardDirectory& directory, RetryPolicy retry = {},
                     SessionClass session_class = SessionClass::kStandard,
                     std::size_t home = kNoHomeShard, ShardMetrics* metrics = nullptr)
      : ResourceCommitter(farm, transport, retry, session_class), directory_(&directory),
        home_(home), metrics_(metrics) {}

 protected:
  Result<Commitment, Refusal> commit_once(const ClientMachine& client, const SystemOffer& offer,
                                          CommitStats& stats) override;

 private:
  const ShardDirectory* directory_;
  std::size_t home_;
  ShardMetrics* metrics_;
};

}  // namespace qosnp
