#include "net/topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace qosnp {

bool Topology::add_node(NodeId id, NodeKind kind) {
  if (index_.contains(id)) return false;
  index_[id] = nodes_.size();
  nodes_.push_back(NetNode{std::move(id), kind});
  adjacency_.emplace_back();
  return true;
}

Result<std::size_t> Topology::add_link(const NodeId& a, const NodeId& b,
                                       std::int64_t capacity_bps, double delay_ms) {
  const auto ai = node_index(a);
  const auto bi = node_index(b);
  if (!ai) return Err("unknown node '" + a + "'");
  if (!bi) return Err("unknown node '" + b + "'");
  if (a == b) return Err("self-link on '" + a + "'");
  if (capacity_bps <= 0) return Err("non-positive capacity");
  const std::size_t link_index = links_.size();
  links_.push_back(NetLink{a, b, capacity_bps, delay_ms});
  adjacency_[*ai].push_back({*bi, link_index});
  adjacency_[*bi].push_back({*ai, link_index});
  return link_index;
}

std::optional<std::size_t> Topology::node_index(const NodeId& id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::optional<NodeKind> Topology::node_kind(const NodeId& id) const {
  const auto i = node_index(id);
  if (!i) return std::nullopt;
  return nodes_[*i].kind;
}

Result<std::vector<std::size_t>> Topology::shortest_path(
    const NodeId& src, const NodeId& dst, std::span<const std::size_t> excluded_links) const {
  const auto si = node_index(src);
  const auto di = node_index(dst);
  if (!si) return Err("unknown node '" + src + "'");
  if (!di) return Err("unknown node '" + dst + "'");
  return shortest_path(*si, *di, excluded_links);
}

Result<std::vector<std::size_t>> Topology::shortest_path(
    std::size_t src, std::size_t dst, std::span<const std::size_t> excluded_links) const {
  if (src == dst) return std::vector<std::size_t>{};
  auto excluded = [&](std::size_t link) {
    return std::find(excluded_links.begin(), excluded_links.end(), link) !=
           excluded_links.end();
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes_.size(), kInf);
  std::vector<std::size_t> via_link(nodes_.size(), SIZE_MAX);
  std::vector<std::size_t> prev_node(nodes_.size(), SIZE_MAX);
  using Entry = std::pair<double, std::size_t>;  // (distance, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;

  dist[src] = 0.0;
  heap.push({0.0, src});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == dst) break;
    for (const auto& [v, link_index] : adjacency_[u]) {
      if (excluded(link_index)) continue;
      const double nd = d + links_[link_index].delay_ms;
      if (nd < dist[v]) {
        dist[v] = nd;
        via_link[v] = link_index;
        prev_node[v] = u;
        heap.push({nd, v});
      }
    }
  }
  if (dist[dst] == kInf) {
    return Err("no path from '" + nodes_[src].id + "' to '" + nodes_[dst].id + "'");
  }
  std::vector<std::size_t> path;
  for (std::size_t at = dst; at != src; at = prev_node[at]) {
    path.push_back(via_link[at]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Topology Topology::dumbbell(int clients, int servers, std::int64_t access_bps,
                            std::int64_t backbone_bps) {
  Topology t;
  t.add_node("switch-client", NodeKind::kSwitch);
  t.add_node("switch-server", NodeKind::kSwitch);
  (void)t.add_link("switch-client", "switch-server", backbone_bps, 5.0);
  for (int i = 0; i < clients; ++i) {
    const NodeId id = "client-" + std::to_string(i);
    t.add_node(id, NodeKind::kClient);
    (void)t.add_link(id, "switch-client", access_bps, 1.0);
  }
  for (int i = 0; i < servers; ++i) {
    const NodeId id = "server-node-" + std::to_string(i);
    t.add_node(id, NodeKind::kServer);
    (void)t.add_link(id, "switch-server", access_bps, 1.0);
  }
  return t;
}

Topology Topology::dual_backbone(int clients, int servers, std::int64_t access_bps,
                                 std::int64_t backbone_bps) {
  Topology t = dumbbell(clients, servers, access_bps, backbone_bps);
  // The standby backbone: same capacity, marginally higher delay so the
  // primary is preferred while it has room.
  (void)t.add_link("switch-client", "switch-server", backbone_bps, 6.0);
  return t;
}

}  // namespace qosnp
