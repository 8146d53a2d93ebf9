#include "advance/planner.hpp"

#include <algorithm>
#include <cmath>

#include "util/log.hpp"

namespace qosnp {

FutureReservationPlanner::FutureReservationPlanner(
    const Topology& topology, const std::vector<MediaServerConfig>& servers, Config config)
    : topology_(&topology), config_(config) {
  for (const MediaServerConfig& s : servers) {
    server_calendars_[s.id] = std::make_unique<CapacityCalendar>(s.disk_bandwidth_bps);
    server_nodes_[s.id] = s.node;
  }
  link_calendars_.reserve(topology.link_count());
  for (std::size_t i = 0; i < topology.link_count(); ++i) {
    link_calendars_.push_back(
        std::make_unique<CapacityCalendar>(topology.link(i).capacity_bps));
  }
}

Result<std::vector<FutureReservationPlanner::Resource>> FutureReservationPlanner::resources_for(
    const ClientMachine& client, const SystemOffer& offer) const {
  std::vector<Resource> resources;
  for (const OfferComponent& c : offer.components) {
    auto server_it = server_calendars_.find(c.variant->server);
    if (server_it == server_calendars_.end()) {
      return Err("unknown server '" + c.variant->server + "'");
    }
    const std::int64_t rate = c.requirements.guarantee == GuaranteeClass::kGuaranteed
                                  ? c.requirements.max_bit_rate_bps
                                  : c.requirements.avg_bit_rate_bps;
    resources.push_back({server_it->second.get(), rate});
    auto path = topology_->shortest_path(server_nodes_.at(c.variant->server), client.node);
    if (!path.ok()) return Err(path.error());
    for (std::size_t link : path.value()) {
      resources.push_back({link_calendars_[link].get(), rate});
    }
  }
  return resources;
}

std::optional<double> FutureReservationPlanner::earliest_start(const ClientMachine& client,
                                                               const SystemOffer& offer,
                                                               double not_before_s,
                                                               double horizon_s) const {
  auto resources = resources_for(client, offer);
  if (!resources.ok()) return std::nullopt;
  double duration = 0.0;
  for (const OfferComponent& c : offer.components) {
    duration = std::max(duration, c.requirements.duration_s);
  }
  if (duration <= 0.0) return std::nullopt;

  // Fixpoint search: each resource proposes its earliest feasible start at
  // or after the current candidate; the candidate rises to the latest
  // proposal until every resource agrees (usage only changes at finitely
  // many instants, so this terminates or exceeds the horizon).
  double t = not_before_s;
  for (int round = 0; round < 1'000; ++round) {
    double latest = t;
    bool all_agree = true;
    for (const Resource& r : resources.value()) {
      auto fit = r.calendar->earliest_fit(r.rate_bps, duration, t, horizon_s);
      if (!fit) return std::nullopt;
      if (*fit > latest) {
        latest = *fit;
        all_agree = false;
      }
    }
    if (all_agree) return t;
    t = latest;
    if (t > horizon_s) return std::nullopt;
  }
  return std::nullopt;
}

Result<FuturePlan> FutureReservationPlanner::plan(const ClientMachine& client,
                                                  const OfferList& offers,
                                                  const MMProfile& profile,
                                                  double not_before_s) {
  const double horizon = not_before_s + config_.max_start_delay_s;
  std::string failure = "no offer fits within the booking horizon";

  for (int pass = 0; pass < 2; ++pass) {
    // Within a pass pick the earliest feasible start; classification rank
    // breaks ties (offers are already ordered best-to-worst).
    std::size_t best_index = SIZE_MAX;
    double best_start = horizon + 1.0;
    for (std::size_t i = 0; i < offers.size(); ++i) {
      if ((pass == 0) != satisfies_user(offers, i, profile)) continue;
      const SystemOffer offer = offers.offer(i);
      auto start = earliest_start(client, offer, not_before_s, horizon);
      if (!start) continue;
      if (*start < best_start) {
        best_start = *start;
        best_index = i;
      }
      if (*start <= not_before_s) break;  // cannot do better within this pass
    }
    if (best_index == SIZE_MAX) continue;

    const SystemOffer chosen = offers.offer(best_index);
    double duration = 0.0;
    for (const OfferComponent& c : chosen.components) {
      duration = std::max(duration, c.requirements.duration_s);
    }
    auto resources = resources_for(client, chosen);
    if (!resources.ok()) {
      failure = resources.error();
      continue;
    }
    std::vector<std::pair<CapacityCalendar*, BookingId>> bookings;
    bool ok = true;
    for (const Resource& r : resources.value()) {
      auto booked = r.calendar->book(r.rate_bps, best_start, best_start + duration);
      if (!booked.ok()) {
        failure = booked.error();
        ok = false;
        break;
      }
      bookings.push_back({r.calendar, booked.value()});
    }
    if (!ok) {
      for (auto& [calendar, id] : bookings) calendar->cancel(id);
      continue;
    }

    FuturePlan plan;
    plan.id = next_id_++;
    plan.offer_index = best_index;
    plan.start_s = best_start;
    plan.end_s = best_start + duration;
    plan.satisfies_user = satisfies_user(offers, best_index, profile);
    plan.offer = derive_user_offer(offers, best_index);
    plans_[plan.id] = std::move(bookings);
    QOSNP_LOG_INFO("advance", "planned offer ", best_index, " at t=", best_start, "s");
    return plan;
  }
  return Err(failure);
}

bool FutureReservationPlanner::cancel(PlanId id) {
  auto it = plans_.find(id);
  if (it == plans_.end()) return false;
  for (auto& [calendar, booking] : it->second) calendar->cancel(booking);
  plans_.erase(it);
  return true;
}

void FutureReservationPlanner::trim(double now_s) {
  for (auto& [_, calendar] : server_calendars_) calendar->trim(now_s);
  for (auto& calendar : link_calendars_) calendar->trim(now_s);
}

}  // namespace qosnp
