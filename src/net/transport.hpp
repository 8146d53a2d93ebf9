// Transport service: the component the QoS manager asks "to reserve
// resources to support the QoS associated with the system offer" (paper
// Step 5). Admission control is per-link bandwidth accounting: a guaranteed
// flow reserves its peak bit rate on every link of its path, a best-effort
// flow its average rate; a reservation is admitted only if every link can
// carry it. Congestion injection shrinks a link's effective capacity and
// surfaces the flows that no longer fit — the QoS-violation signal the
// adaptation procedure reacts to.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/topology.hpp"
#include "qosmap/mapping.hpp"
#include "util/result.hpp"

namespace qosnp {

using FlowId = std::uint64_t;

/// Minimal transport surface the resource-commitment step needs: admit a
/// flow with given stream requirements, release it later. Implemented by
/// the single-authority TransportService below, by the multi-domain
/// transport (src/domain) where each domain manages its own segment, and by
/// the fault-injecting decorator (src/fault). Refusals are typed: transient
/// (links full right now) vs permanent (no route between the nodes).
class TransportProvider {
 public:
  virtual ~TransportProvider() = default;
  virtual Result<FlowId, Refusal> reserve(const NodeId& src, const NodeId& dst,
                                          const StreamRequirements& req) = 0;
  virtual bool release(FlowId id) = 0;
};

struct FlowInfo {
  FlowId id = 0;
  NodeId src;
  NodeId dst;
  std::vector<std::size_t> path;  ///< link indices
  std::int64_t reserved_bps = 0;
  GuaranteeClass guarantee = GuaranteeClass::kGuaranteed;
};

struct LinkUsage {
  std::int64_t capacity_bps = 0;
  std::int64_t effective_capacity_bps = 0;  ///< after congestion injection
  std::int64_t reserved_bps = 0;
  std::size_t flow_count = 0;
};

class TransportService final : public TransportProvider {
 public:
  /// How many times reserve() re-routes around a full link before rejecting.
  static constexpr int kMaxRouteRetries = 4;

  explicit TransportService(Topology topology);

  TransportService(const TransportService&) = delete;
  TransportService& operator=(const TransportService&) = delete;

  const Topology& topology() const { return topology_; }

  /// Admit a flow from src to dst with the given requirements. Reserves the
  /// peak rate (guaranteed) or average rate (best-effort) on each path link.
  Result<FlowId, Refusal> reserve(const NodeId& src, const NodeId& dst,
                                  const StreamRequirements& req) override;

  /// Release a flow's reservation. Returns false for unknown flows
  /// (double-release is harmless).
  bool release(FlowId id) override;

  std::optional<FlowInfo> flow(FlowId id) const;
  std::size_t active_flows() const;

  /// Congestion injection: set the fraction [0, 1) of a link's capacity
  /// lost to congestion. Returns flows that no longer fit on that link,
  /// worst-fit-last (most recently admitted victims first) — these are the
  /// QoS-violation notifications delivered to the QoS manager.
  std::vector<FlowId> degrade_link(std::size_t link_index, double lost_fraction);

  /// Clear congestion on a link.
  void restore_link(std::size_t link_index);

  LinkUsage link_usage(std::size_t link_index) const;

  /// Sum of reserved-rate x capacity ratios over links (mean utilisation).
  double mean_utilization() const;

  /// Recompute every link's ledger from the live flow table and compare it
  /// with the incremental accounting reserve()/release() maintain. The
  /// concurrency tests call this after hammering the service from many
  /// workers: any lost or double-counted update shows up as a mismatch.
  bool accounting_consistent() const;

  /// Sum of reserved bandwidth over all links (0 iff nothing is held, the
  /// drain invariant of the service tests).
  std::int64_t total_reserved_bps() const;

  /// Per-class admission headroom on every link: class C only fits while
  /// reserved + rate <= effective_capacity * (1 - headroom[C]). All-zero
  /// (the default) is class-blind admission. Validated on set.
  void set_class_headroom(ClassHeadroom headroom);

 private:
  std::vector<FlowId> overfull_victims_locked(std::size_t link_index);

  mutable std::mutex mu_;
  Topology topology_;
  /// Unexcluded shortest route per (src, dst) node-index pair, filled on
  /// first use: the topology never changes after construction, so Dijkstra
  /// only re-runs when reserve() excludes a full link. Keyed by index, so
  /// unknown node names (which arrive with requests) never enter it.
  std::unordered_map<std::uint64_t, Result<std::vector<std::size_t>>> routes_;  // guarded by mu_
  ClassHeadroom headroom_;                        // guarded by mu_
  std::vector<std::int64_t> reserved_;            // per link
  std::vector<std::int64_t> effective_capacity_;  // per link
  std::vector<std::size_t> link_flow_count_;      // per link
  std::unordered_map<FlowId, FlowInfo> flows_;
  FlowId next_id_ = 1;
};

/// RAII wrapper releasing a flow reservation unless dismissed.
class ScopedFlow {
 public:
  ScopedFlow() = default;
  ScopedFlow(TransportProvider* service, FlowId id) : service_(service), id_(id) {}
  ~ScopedFlow() { reset(); }

  ScopedFlow(ScopedFlow&& other) noexcept { *this = std::move(other); }
  ScopedFlow& operator=(ScopedFlow&& other) noexcept {
    if (this != &other) {
      reset();
      service_ = other.service_;
      id_ = other.id_;
      other.service_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }
  ScopedFlow(const ScopedFlow&) = delete;
  ScopedFlow& operator=(const ScopedFlow&) = delete;

  FlowId id() const { return id_; }
  bool valid() const { return service_ != nullptr; }

  /// Keep the reservation past this handle's lifetime (commit succeeded).
  FlowId dismiss() {
    service_ = nullptr;
    return id_;
  }

  void reset() {
    if (service_ != nullptr) service_->release(id_);
    service_ = nullptr;
    id_ = 0;
  }

 private:
  TransportProvider* service_ = nullptr;
  FlowId id_ = 0;
};

}  // namespace qosnp
