// ShardDirectory: who owns what in a sharded federation of QoS managers.
//
// Two very different ownership questions are answered here:
//
//   * shard_of_document(id) — pure consistent hashing over a ring of
//     virtual nodes. It is a function of (key, shard_count, virtual_nodes)
//     ONLY — no registration, no state — so a wire-side router in another
//     process computes the identical home shard from the identical
//     parameters. The ring hashes with FNV-1a + a splitmix64 finalizer
//     (not std::hash) for the same reason: the mapping must be stable
//     across processes, compilers and runs.
//
//   * shard_of_server(id) / shard_of_node(id) — explicit registration maps
//     filled while the federation is assembled (each shard registers the
//     media servers it owns and the topology nodes those servers attach
//     to). The FederatedCommitter consults these to decide which shard's
//     farm/transport a reservation must land on.
//
// Registration happens strictly before concurrent use (assembly, then
// serving); lookups afterwards are read-only and lock-free.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/negotiation_request.hpp"
#include "document/model.hpp"
#include "net/topology.hpp"
#include "server/media_server.hpp"

namespace qosnp {

/// The ring hash: FNV-1a 64-bit finalized with splitmix64's avalanche pass
/// (bare FNV-1a leaves one-character-apart label families affinely
/// correlated, which skews the ring badly). Exposed so tests can predict
/// placements.
std::uint64_t shard_key_hash(std::string_view key);

class ShardDirectory {
 public:
  static constexpr std::size_t kDefaultVirtualNodes = 64;

  explicit ShardDirectory(std::size_t shard_count,
                          std::size_t virtual_nodes = kDefaultVirtualNodes);

  std::size_t shard_count() const { return shard_count_; }

  /// Home shard of an arbitrary catalog key: nearest virtual node clockwise
  /// on the ring. Pure — identical answers in every process sharing
  /// (shard_count, virtual_nodes).
  std::size_t shard_of_key(std::string_view key) const;
  std::size_t shard_of_document(const DocumentId& id) const { return shard_of_key(id); }
  /// Home shard of a request: its resolved document's id when the request
  /// skips the catalog, its catalog document id otherwise. Every router
  /// routes by this one key.
  std::size_t shard_of_request(const NegotiationRequest& request) const;

  /// Register ownership. Re-registering the same id on the same shard is
  /// idempotent; on a different shard it throws (split ownership of one
  /// server would break the federation's conservation laws).
  void register_server(const ServerId& id, std::size_t shard);
  void register_node(const NodeId& id, std::size_t shard);

  std::optional<std::size_t> shard_of_server(const ServerId& id) const;
  std::optional<std::size_t> shard_of_node(const NodeId& id) const;

 private:
  struct VirtualNode {
    std::uint64_t point;
    std::uint32_t shard;
  };

  std::size_t shard_count_;
  std::vector<VirtualNode> ring_;  ///< sorted by point
  std::unordered_map<ServerId, std::size_t> servers_;
  std::unordered_map<NodeId, std::size_t> nodes_;
};

}  // namespace qosnp
