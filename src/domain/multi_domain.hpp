// Multi-domain transport: hierarchical QoS negotiation across
// administrative domains ([Haf 95b], "A Hierarchical Negotiation for
// Distributed Multimedia Applications in a Multi-Domain Environment",
// cited by the paper as part of its negotiation framework). The end-to-end
// path from a media server to a client crosses several domains; each domain
// manages its own segment — aggregate capacity plus its own tariff — and
// answers a segment request with a segment offer (feasibility + price). The
// root negotiation composes the per-domain offers: it routes each flow
// through the domain graph minimising the summed segment tariffs (or the
// domain count, as an ablation), reserving capacity in every transited
// domain.
//
// Implements TransportProvider, so the entire negotiation procedure —
// QoSManager, baselines, sessions, adaptation — runs unchanged on top of a
// multi-domain world.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.hpp"
#include "net/transport.hpp"

namespace qosnp {

using DomainId = std::string;

struct DomainConfig {
  DomainId id;
  std::int64_t capacity_bps = 100'000'000;  ///< aggregate segment capacity
  CostTable tariff = CostTable::standard_network();
};

struct DomainUsage {
  std::int64_t capacity_bps = 0;
  std::int64_t effective_capacity_bps = 0;
  std::int64_t reserved_bps = 0;
  std::size_t flow_count = 0;
};

class MultiDomainTransport final : public TransportProvider {
 public:
  enum class RoutePolicy {
    kCheapest,       ///< minimise summed per-second segment tariffs
    kFewestDomains,  ///< minimise transited domain count (tariff-blind)
  };

  explicit MultiDomainTransport(std::vector<DomainConfig> domains,
                                RoutePolicy policy = RoutePolicy::kCheapest);

  /// Declare that two domains peer (traffic may cross between them).
  Result<bool> add_peering(const DomainId& a, const DomainId& b);
  /// Attach an end node (client or server machine) to its home domain.
  Result<bool> attach(const NodeId& node, const DomainId& domain);

  // TransportProvider:
  Result<FlowId, Refusal> reserve(const NodeId& src, const NodeId& dst,
                                  const StreamRequirements& req) override;
  bool release(FlowId id) override;

  /// Total per-second transit price of the best currently-feasible route
  /// (what the hierarchical negotiation quotes before committing).
  Result<Money> quote_per_second(const NodeId& src, const NodeId& dst,
                                 const StreamRequirements& req) const;

  /// Domains a flow transits, in order (empty when unknown).
  std::vector<DomainId> route_of(FlowId id) const;
  DomainUsage usage(const DomainId& domain) const;
  std::size_t active_flows() const;

  /// Congestion injection at domain granularity; returns the flows that no
  /// longer fit (newest first), as TransportService::degrade_link does.
  std::vector<FlowId> degrade_domain(const DomainId& domain, double lost_fraction);
  void restore_domain(const DomainId& domain);

 private:
  struct Domain {
    DomainConfig config;
    std::int64_t effective_capacity;
    std::int64_t reserved = 0;
    std::size_t flow_count = 0;
  };
  struct Flow {
    std::vector<std::size_t> route;  // domain indices
    std::int64_t rate = 0;
  };

  static std::int64_t rate_of(const StreamRequirements& req) {
    return req.guarantee == GuaranteeClass::kGuaranteed ? req.max_bit_rate_bps
                                                        : req.avg_bit_rate_bps;
  }

  /// Cheapest/shortest feasible domain route for `rate` (locked).
  Result<std::vector<std::size_t>> route_locked(const NodeId& src, const NodeId& dst,
                                                std::int64_t rate) const;
  std::optional<std::size_t> domain_index(const DomainId& id) const;

  mutable std::mutex mu_;
  RoutePolicy policy_;
  std::vector<Domain> domains_;
  std::unordered_map<DomainId, std::size_t> index_;
  std::vector<std::vector<std::size_t>> peers_;  // adjacency by domain index
  std::unordered_map<NodeId, std::size_t> attachments_;
  std::unordered_map<FlowId, Flow> flows_;
  FlowId next_id_ = 1;
};

}  // namespace qosnp
