#include "net/transport.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/log.hpp"

namespace qosnp {

TransportService::TransportService(Topology topology) : topology_(std::move(topology)) {
  reserved_.assign(topology_.link_count(), 0);
  effective_capacity_.reserve(topology_.link_count());
  for (std::size_t i = 0; i < topology_.link_count(); ++i) {
    effective_capacity_.push_back(topology_.link(i).capacity_bps);
  }
  link_flow_count_.assign(topology_.link_count(), 0);
}

Result<FlowId, Refusal> TransportService::reserve(const NodeId& src, const NodeId& dst,
                                                  const StreamRequirements& req) {
  const std::int64_t rate = req.guarantee == GuaranteeClass::kGuaranteed ? req.max_bit_rate_bps
                                                                         : req.avg_bit_rate_bps;
  if (rate <= 0) return permanent_refusal("transport", "non-positive bit rate");

  // Route with admission-aware retries: when a link on the preferred path
  // lacks capacity, exclude it and re-route — in a multi-path topology the
  // flow takes the standby path instead of being rejected.
  std::lock_guard lk(mu_);
  const auto si = topology_.node_index(src);
  const auto di = topology_.node_index(dst);
  if (!si || !di) return permanent_refusal("transport", topology_.shortest_path(src, dst).error());
  const std::uint64_t key = (static_cast<std::uint64_t>(*si) << 32) | *di;
  auto memo = routes_.find(key);
  if (memo == routes_.end()) memo = routes_.emplace(key, topology_.shortest_path(*si, *di)).first;

  std::vector<std::size_t> excluded;
  std::optional<Result<std::vector<std::size_t>>> rerouted;
  for (int attempt = 0; attempt <= kMaxRouteRetries; ++attempt) {
    if (attempt > 0) rerouted.emplace(topology_.shortest_path(*si, *di, excluded));
    const Result<std::vector<std::size_t>>& path = attempt == 0 ? memo->second : *rerouted;
    if (!path.ok()) {
      // No route at all is permanent; a route that exists but is full
      // (a link excluded by a previous attempt) is a transient shortage.
      if (excluded.empty()) return permanent_refusal("transport", path.error());
      break;
    }
    // Headroom-differentiated admission: a class with headroom h only sees
    // capacity * (1 - h) of each link (h <= 0 keeps the class-blind path
    // free of any floating-point round-trip).
    const double h = headroom_.for_class(req.session_class);
    const std::size_t* bottleneck = nullptr;
    for (const std::size_t& link : path.value()) {
      const std::int64_t usable =
          h <= 0.0 ? effective_capacity_[link]
                   : static_cast<std::int64_t>(std::llround(
                         static_cast<double>(effective_capacity_[link]) * (1.0 - h)));
      if (reserved_[link] + rate > usable) {
        bottleneck = &link;
        break;
      }
    }
    if (bottleneck != nullptr) {
      excluded.push_back(*bottleneck);
      continue;
    }
    for (std::size_t link : path.value()) {
      reserved_[link] += rate;
      ++link_flow_count_[link];
    }
    FlowInfo info;
    info.id = next_id_++;
    info.src = src;
    info.dst = dst;
    info.path = path.value();
    info.reserved_bps = rate;
    info.guarantee = req.guarantee;
    const FlowId id = info.id;
    flows_[id] = std::move(info);
    QOSNP_LOG_DEBUG("transport", "reserved flow ", id, " ", src, "->", dst, " at ", rate,
                    " bps over ", flows_[id].path.size(), " links");
    return id;
  }
  // Every route tried was full: the refusal names the last bottleneck.
  const NetLink& full = topology_.link(excluded.back());
  return transient_refusal("transport", "insufficient bandwidth on link " +
                                            std::to_string(excluded.back()) + " (" + full.a +
                                            "<->" + full.b + ")");
}

bool TransportService::release(FlowId id) {
  std::lock_guard lk(mu_);
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  for (std::size_t link : it->second.path) {
    reserved_[link] -= it->second.reserved_bps;
    --link_flow_count_[link];
    // A negative ledger means an admit/release was lost or double-counted;
    // with all updates under mu_ this cannot happen — keep it checked.
    assert(reserved_[link] >= 0 && "link reservation went negative");
  }
  flows_.erase(it);
  return true;
}

std::optional<FlowInfo> TransportService::flow(FlowId id) const {
  std::lock_guard lk(mu_);
  auto it = flows_.find(id);
  if (it == flows_.end()) return std::nullopt;
  return it->second;
}

std::size_t TransportService::active_flows() const {
  std::lock_guard lk(mu_);
  return flows_.size();
}

std::vector<FlowId> TransportService::overfull_victims_locked(std::size_t link_index) {
  // Pick victims newest-first until the link fits again. Victims keep their
  // reservation (the adaptation procedure decides what to do); we only
  // report who is affected by the shortfall.
  std::vector<FlowId> on_link;
  for (const auto& [id, info] : flows_) {
    if (std::find(info.path.begin(), info.path.end(), link_index) != info.path.end()) {
      on_link.push_back(id);
    }
  }
  std::sort(on_link.begin(), on_link.end(), std::greater<>());
  std::int64_t excess = reserved_[link_index] - effective_capacity_[link_index];
  std::vector<FlowId> victims;
  for (FlowId id : on_link) {
    if (excess <= 0) break;
    victims.push_back(id);
    excess -= flows_[id].reserved_bps;
  }
  return victims;
}

std::vector<FlowId> TransportService::degrade_link(std::size_t link_index, double lost_fraction) {
  if (link_index >= topology_.link_count()) return {};
  lost_fraction = std::clamp(lost_fraction, 0.0, 0.999);
  std::lock_guard lk(mu_);
  effective_capacity_[link_index] = static_cast<std::int64_t>(
      std::llround(static_cast<double>(topology_.link(link_index).capacity_bps) *
                   (1.0 - lost_fraction)));
  return overfull_victims_locked(link_index);
}

void TransportService::restore_link(std::size_t link_index) {
  if (link_index >= topology_.link_count()) return;
  std::lock_guard lk(mu_);
  effective_capacity_[link_index] = topology_.link(link_index).capacity_bps;
}

bool TransportService::accounting_consistent() const {
  std::lock_guard lk(mu_);
  std::vector<std::int64_t> reserved(reserved_.size(), 0);
  std::vector<std::size_t> counts(link_flow_count_.size(), 0);
  for (const auto& [id, info] : flows_) {
    for (std::size_t link : info.path) {
      reserved[link] += info.reserved_bps;
      ++counts[link];
    }
  }
  return reserved == reserved_ && counts == link_flow_count_;
}

void TransportService::set_class_headroom(ClassHeadroom headroom) {
  headroom = ClassHeadroom::validated(headroom);
  std::lock_guard lk(mu_);
  headroom_ = headroom;
}

std::int64_t TransportService::total_reserved_bps() const {
  std::lock_guard lk(mu_);
  std::int64_t total = 0;
  for (std::int64_t r : reserved_) total += r;
  return total;
}

LinkUsage TransportService::link_usage(std::size_t link_index) const {
  std::lock_guard lk(mu_);
  LinkUsage usage;
  if (link_index >= topology_.link_count()) return usage;
  usage.capacity_bps = topology_.link(link_index).capacity_bps;
  usage.effective_capacity_bps = effective_capacity_[link_index];
  usage.reserved_bps = reserved_[link_index];
  usage.flow_count = link_flow_count_[link_index];
  return usage;
}

double TransportService::mean_utilization() const {
  std::lock_guard lk(mu_);
  if (reserved_.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < reserved_.size(); ++i) {
    sum += static_cast<double>(reserved_[i]) /
           static_cast<double>(topology_.link(i).capacity_bps);
  }
  return sum / static_cast<double>(reserved_.size());
}

}  // namespace qosnp
