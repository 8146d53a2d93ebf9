// Network topology for the simulated transport system: nodes (client
// machines, server machines, switches) connected by capacity-annotated
// links. The 1996 prototype ran over an ATM testbed; the negotiation
// procedure only needs path selection plus per-link bandwidth accounting,
// which this model provides.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/result.hpp"

namespace qosnp {

using NodeId = std::string;

enum class NodeKind { kClient, kServer, kSwitch };

struct NetNode {
  NodeId id;
  NodeKind kind = NodeKind::kSwitch;
};

struct NetLink {
  NodeId a;
  NodeId b;
  std::int64_t capacity_bps = 0;
  double delay_ms = 1.0;
};

class Topology {
 public:
  /// Add a node; duplicate ids are rejected.
  bool add_node(NodeId id, NodeKind kind);
  /// Add a bidirectional link between existing nodes; returns its index.
  Result<std::size_t> add_link(const NodeId& a, const NodeId& b, std::int64_t capacity_bps,
                               double delay_ms = 1.0);

  /// Position of a node in nodes(), or nullopt for an unknown id.
  std::optional<std::size_t> node_index(const NodeId& id) const;
  std::optional<NodeKind> node_kind(const NodeId& id) const;
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  const NetLink& link(std::size_t i) const { return links_[i]; }
  const std::vector<NetNode>& nodes() const { return nodes_; }

  /// Minimum-delay path between two nodes as a sequence of link indices,
  /// optionally avoiding `excluded_links` (used by the transport service to
  /// route around full or congested links). Empty result for src == dst;
  /// error when no path exists.
  Result<std::vector<std::size_t>> shortest_path(
      const NodeId& src, const NodeId& dst,
      std::span<const std::size_t> excluded_links = {}) const;
  /// The same search between nodes given by their node_index().
  Result<std::vector<std::size_t>> shortest_path(
      std::size_t src, std::size_t dst, std::span<const std::size_t> excluded_links = {}) const;

  /// A classic evaluation shape: `clients` client nodes on one switch,
  /// `servers` server nodes on another, joined by a backbone link of
  /// `backbone_bps`. Access links get `access_bps`.
  static Topology dumbbell(int clients, int servers, std::int64_t access_bps,
                           std::int64_t backbone_bps);

  /// Like dumbbell, but with two parallel backbone links (the second
  /// slightly higher delay, so it is the standby path): gives the
  /// adaptation procedure a genuine alternate route.
  static Topology dual_backbone(int clients, int servers, std::int64_t access_bps,
                                std::int64_t backbone_bps);

 private:
  std::vector<NetNode> nodes_;
  std::vector<NetLink> links_;
  std::unordered_map<NodeId, std::size_t> index_;
  /// Per node index: (neighbor node index, link index).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adjacency_;
};

}  // namespace qosnp
