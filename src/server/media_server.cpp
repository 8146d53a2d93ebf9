#include "server/media_server.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "util/log.hpp"

namespace qosnp {

MediaServer::MediaServer(MediaServerConfig config)
    : config_(std::move(config)), effective_bandwidth_(config_.disk_bandwidth_bps) {
  config_.headroom = ClassHeadroom::validated(config_.headroom);
}

Result<StreamId, Refusal> MediaServer::admit(const StreamRequirements& req) {
  const std::int64_t rate = req.guarantee == GuaranteeClass::kGuaranteed ? req.max_bit_rate_bps
                                                                         : req.avg_bit_rate_bps;
  if (rate <= 0) return permanent_refusal(config_.id, "non-positive bit rate");
  std::lock_guard lk(mu_);
  if (failed_) return transient_refusal(config_.id, "server is down");
  if (static_cast<int>(streams_.size()) >= config_.max_sessions) {
    return transient_refusal(config_.id, "no free session slot");
  }
  // Headroom-differentiated admission: a class with headroom h only sees
  // capacity * (1 - h). The h <= 0 guard keeps the zero-headroom path free
  // of any double round-trip, hence byte-identical to class-blind admission.
  const double h = config_.headroom.for_class(req.session_class);
  const std::int64_t usable =
      h <= 0.0 ? effective_bandwidth_
               : static_cast<std::int64_t>(
                     std::llround(static_cast<double>(effective_bandwidth_) * (1.0 - h)));
  if (reserved_ + rate > usable) {
    return transient_refusal(config_.id, "insufficient disk bandwidth");
  }
  reserved_ += rate;
  const StreamId id = next_id_++;
  streams_.add(id, rate);
  QOSNP_LOG_DEBUG("server", config_.id, ": admitted stream ", id, " at ", rate, " bps");
  return id;
}

bool MediaServer::release(StreamId id) {
  std::lock_guard lk(mu_);
  const std::int64_t* rate = streams_.find(id);
  if (rate == nullptr) return false;
  reserved_ -= *rate;
  assert(reserved_ >= 0 && "disk bandwidth ledger went negative");
  streams_.erase(id);
  return true;
}

ServerUsage MediaServer::usage() const {
  std::lock_guard lk(mu_);
  ServerUsage u;
  u.disk_bandwidth_bps = config_.disk_bandwidth_bps;
  u.effective_bandwidth_bps = effective_bandwidth_;
  u.reserved_bps = reserved_;
  u.sessions = static_cast<int>(streams_.size());
  u.max_sessions = config_.max_sessions;
  u.failed = failed_;
  return u;
}

std::vector<StreamId> MediaServer::fail() {
  std::lock_guard lk(mu_);
  failed_ = true;
  std::vector<StreamId> affected;
  affected.reserve(streams_.size());
  streams_.for_each([&](StreamId id, std::int64_t) { affected.push_back(id); });
  return affected;
}

void MediaServer::recover() {
  std::lock_guard lk(mu_);
  failed_ = false;
}

bool MediaServer::failed() const {
  std::lock_guard lk(mu_);
  return failed_;
}

std::vector<StreamId> MediaServer::overfull_victims_locked() {
  std::int64_t excess = reserved_ - effective_bandwidth_;
  std::vector<StreamId> victims;
  streams_.for_each_newest_first([&](StreamId id, std::int64_t rate) {
    if (excess <= 0) return false;
    victims.push_back(id);
    excess -= rate;
    return true;
  });
  return victims;
}

std::vector<StreamId> MediaServer::degrade(double lost_fraction) {
  lost_fraction = std::clamp(lost_fraction, 0.0, 0.999);
  std::lock_guard lk(mu_);
  effective_bandwidth_ = static_cast<std::int64_t>(
      std::llround(static_cast<double>(config_.disk_bandwidth_bps) * (1.0 - lost_fraction)));
  return overfull_victims_locked();
}

void MediaServer::restore() {
  std::lock_guard lk(mu_);
  effective_bandwidth_ = config_.disk_bandwidth_bps;
}

bool ServerFarm::add(MediaServerConfig config) {
  std::lock_guard lk(mu_);
  if (servers_.contains(config.id)) return false;
  ServerId id = config.id;
  servers_[id] = std::make_unique<MediaServer>(std::move(config));
  return true;
}

MediaServer* ServerFarm::find(const ServerId& id) {
  std::lock_guard lk(mu_);
  auto it = servers_.find(id);
  return it == servers_.end() ? nullptr : it->second.get();
}

const MediaServer* ServerFarm::find(const ServerId& id) const {
  std::lock_guard lk(mu_);
  auto it = servers_.find(id);
  return it == servers_.end() ? nullptr : it->second.get();
}

std::vector<ServerId> ServerFarm::list() const {
  std::lock_guard lk(mu_);
  std::vector<ServerId> ids;
  ids.reserve(servers_.size());
  for (const auto& [id, _] : servers_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace qosnp
