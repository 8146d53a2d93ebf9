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

namespace {

std::int64_t reserved_rate(const StreamRequirements& req) {
  return req.guarantee == GuaranteeClass::kGuaranteed ? req.max_bit_rate_bps
                                                       : req.avg_bit_rate_bps;
}

}  // namespace

const Route& TransportService::route_locked(std::size_t src, std::size_t dst) {
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  auto memo = routes_.find(key);
  if (memo == routes_.end()) {
    Route route{src, dst};
    auto path = topology_.shortest_path(src, dst);
    if (path.ok()) {
      route.path = std::make_shared<const std::vector<std::size_t>>(std::move(path.value()));
    } else {
      route.path = Err(std::move(path.error()));
    }
    memo = routes_.emplace(key, std::move(route)).first;
  }
  return memo->second;
}

Result<FlowId, Refusal> TransportService::reserve(const NodeId& src, const NodeId& dst,
                                                  const StreamRequirements& req) {
  const std::int64_t rate = reserved_rate(req);
  if (rate <= 0) return permanent_refusal("transport", "non-positive bit rate");
  std::lock_guard lk(mu_);
  const auto si = topology_.node_index(src);
  const auto di = topology_.node_index(dst);
  if (!si || !di) return permanent_refusal("transport", topology_.shortest_path(src, dst).error());
  return reserve_locked(route_locked(*si, *di), rate, req);
}

FlowEndpoints TransportService::resolve(const NodeId& src, const NodeId& dst) {
  std::lock_guard lk(mu_);
  const auto si = topology_.node_index(src);
  const auto di = topology_.node_index(dst);
  if (!si || !di) return {&src, &dst};
  return {&src, &dst, &route_locked(*si, *di)};
}

Result<FlowId, Refusal> TransportService::reserve_at(const FlowEndpoints& at,
                                                     const StreamRequirements& req) {
  if (at.route == nullptr) return reserve(*at.src, *at.dst, req);
  const std::int64_t rate = reserved_rate(req);
  if (rate <= 0) return permanent_refusal("transport", "non-positive bit rate");
  std::lock_guard lk(mu_);
  return reserve_locked(*at.route, rate, req);
}

Result<FlowId, Refusal> TransportService::reserve_locked(const Route& route, std::int64_t rate,
                                                         const StreamRequirements& req) {
  // Route with admission-aware retries: when a link on the preferred path
  // lacks capacity, exclude it and re-route — in a multi-path topology the
  // flow takes the standby path instead of being rejected.
  std::vector<std::size_t> excluded;
  std::optional<Result<std::vector<std::size_t>>> rerouted;
  for (int attempt = 0; attempt <= kMaxRouteRetries; ++attempt) {
    const std::vector<std::size_t>* path = nullptr;
    if (attempt == 0) {
      // No route at all is permanent.
      if (!route.path.ok()) return permanent_refusal("transport", route.path.error());
      path = route.path.value().get();
    } else {
      // A route that exists but is full (a link excluded by a previous
      // attempt) is a transient shortage.
      rerouted.emplace(topology_.shortest_path(route.src, route.dst, excluded));
      if (!rerouted->ok()) break;
      path = &rerouted->value();
    }
    // Headroom-differentiated admission: a class with headroom h only sees
    // capacity * (1 - h) of each link (h <= 0 keeps the class-blind path
    // free of any floating-point round-trip).
    const double h = headroom_.for_class(req.session_class);
    const std::size_t* bottleneck = nullptr;
    for (const std::size_t& link : *path) {
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
    for (std::size_t link : *path) {
      reserved_[link] += rate;
      ++link_flow_count_[link];
    }
    const FlowId id = next_id_++;
    const std::size_t links = path->size();
    flows_.add(id, Flow{route.src, route.dst,
                        attempt == 0 ? route.path.value()
                                     : std::make_shared<const std::vector<std::size_t>>(
                                           std::move(rerouted->value())),
                        rate, req.guarantee});
    QOSNP_LOG_DEBUG("transport", "reserved flow ", id, " ", topology_.nodes()[route.src].id, "->",
                    topology_.nodes()[route.dst].id, " at ", rate, " bps over ",
                    links, " links");
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
  const Flow* flow = flows_.find(id);
  if (flow == nullptr) return false;
  for (std::size_t link : *flow->path) {
    reserved_[link] -= flow->reserved_bps;
    --link_flow_count_[link];
    // A negative ledger means an admit/release was lost or double-counted;
    // with all updates under mu_ this cannot happen — keep it checked.
    assert(reserved_[link] >= 0 && "link reservation went negative");
  }
  flows_.erase(id);
  return true;
}

std::optional<FlowInfo> TransportService::flow(FlowId id) const {
  std::lock_guard lk(mu_);
  const Flow* flow = flows_.find(id);
  if (flow == nullptr) return std::nullopt;
  return FlowInfo{id,
                  topology_.nodes()[flow->src].id,
                  topology_.nodes()[flow->dst].id,
                  *flow->path,
                  flow->reserved_bps,
                  flow->guarantee};
}

std::size_t TransportService::active_flows() const {
  std::lock_guard lk(mu_);
  return flows_.size();
}

std::vector<FlowId> TransportService::overfull_victims_locked(std::size_t link_index) {
  // Pick victims newest-first until the link fits again. Victims keep their
  // reservation (the adaptation procedure decides what to do); we only
  // report who is affected by the shortfall.
  std::int64_t excess = reserved_[link_index] - effective_capacity_[link_index];
  std::vector<FlowId> victims;
  flows_.for_each_newest_first([&](FlowId id, const Flow& flow) {
    if (excess <= 0) return false;
    if (std::find(flow.path->begin(), flow.path->end(), link_index) != flow.path->end()) {
      victims.push_back(id);
      excess -= flow.reserved_bps;
    }
    return true;
  });
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
  flows_.for_each([&](FlowId, const Flow& flow) {
    for (std::size_t link : *flow.path) {
      reserved[link] += flow.reserved_bps;
      ++counts[link];
    }
  });
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
