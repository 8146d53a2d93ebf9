#include "shard/directory.hpp"

#include <algorithm>

namespace qosnp {

std::uint64_t shard_key_hash(std::string_view key) {
  // FNV-1a 64-bit, then a splitmix64 finalizer. The finalizer is load-
  // bearing: two strings differing at one position (the ring's own
  //   "shard-<s>#<v>" labels, or key families like "doc-<i>") come out of
  // bare FNV-1a as affine shifts of each other — every vnode of one shard
  // sits a constant offset from the matching vnode of another, which
  // collapses whole shards' ring arcs and routes nearly all keys to one or
  // two shards. The avalanche pass decorrelates them.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

ShardDirectory::ShardDirectory(std::size_t shard_count, std::size_t virtual_nodes)
    : shard_count_(shard_count) {
  if (shard_count == 0) throw std::invalid_argument("ShardDirectory: shard_count must be >= 1");
  if (virtual_nodes == 0) {
    throw std::invalid_argument("ShardDirectory: virtual_nodes must be >= 1");
  }
  ring_.reserve(shard_count * virtual_nodes);
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    for (std::size_t v = 0; v < virtual_nodes; ++v) {
      const std::string label =
          "shard-" + std::to_string(shard) + "#" + std::to_string(v);
      ring_.push_back({shard_key_hash(label), static_cast<std::uint32_t>(shard)});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const VirtualNode& a, const VirtualNode& b) {
    return a.point != b.point ? a.point < b.point : a.shard < b.shard;
  });
}

std::size_t ShardDirectory::shard_of_key(std::string_view key) const {
  const std::uint64_t h = shard_key_hash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const VirtualNode& node, std::uint64_t point) { return node.point < point; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->shard;
}

std::size_t ShardDirectory::shard_of_request(const NegotiationRequest& request) const {
  return shard_of_key(request.resolved != nullptr ? request.resolved->id : request.document);
}

void ShardDirectory::register_server(const ServerId& id, std::size_t shard) {
  if (shard >= shard_count_) {
    throw std::out_of_range("ShardDirectory: server '" + id + "' registered on shard " +
                            std::to_string(shard) + " of " + std::to_string(shard_count_));
  }
  auto [it, inserted] = servers_.emplace(id, shard);
  if (!inserted && it->second != shard) {
    throw std::invalid_argument("ShardDirectory: server '" + id + "' already owned by shard " +
                                std::to_string(it->second));
  }
}

void ShardDirectory::register_node(const NodeId& id, std::size_t shard) {
  if (shard >= shard_count_) {
    throw std::out_of_range("ShardDirectory: node '" + id + "' registered on shard " +
                            std::to_string(shard) + " of " + std::to_string(shard_count_));
  }
  auto [it, inserted] = nodes_.emplace(id, shard);
  if (!inserted && it->second != shard) {
    throw std::invalid_argument("ShardDirectory: node '" + id + "' already owned by shard " +
                                std::to_string(it->second));
  }
}

std::optional<std::size_t> ShardDirectory::shard_of_server(const ServerId& id) const {
  auto it = servers_.find(id);
  return it == servers_.end() ? std::nullopt : std::optional<std::size_t>(it->second);
}

std::optional<std::size_t> ShardDirectory::shard_of_node(const NodeId& id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? std::nullopt : std::optional<std::size_t>(it->second);
}

}  // namespace qosnp
