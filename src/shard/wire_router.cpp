#include "shard/wire_router.hpp"

#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace qosnp {

namespace {
/// How many other shards an overloaded submit hops to before giving up.
constexpr int kOverloadRetries = 1;
}  // namespace

WireShardRouterConfig WireShardRouterConfig::validated(WireShardRouterConfig config) {
  if (config.backends.empty()) {
    throw std::invalid_argument("WireShardRouterConfig: at least one backend is required");
  }
  return config;
}

WireShardRouter::WireShardRouter(WireShardRouterConfig config)
    : config_(WireShardRouterConfig::validated(std::move(config))),
      directory_(config_.backends.size()) {
  clients_.reserve(config_.backends.size());
  for (const WireClientConfig& backend : config_.backends) {
    clients_.push_back(std::make_unique<WireClient>(backend));
  }
  stats_.routed.assign(clients_.size(), 0);
}

Result<NegotiationResult, wire::WireError> WireShardRouter::submit(
    const NegotiationRequest& request, double deadline_ms) {
  const std::size_t home = home_shard(request);
  ++stats_.routed[home];
  const int hops = std::min<int>(kOverloadRetries,
                                 static_cast<int>(clients_.size()) - 1);
  wire::WireError last{};
  for (int hop = 0; hop <= hops; ++hop) {
    const std::size_t shard = (home + static_cast<std::size_t>(hop)) % clients_.size();
    auto response = clients_[shard]->submit(request, deadline_ms);
    if (response.ok()) return std::move(response.value());
    last = response.error();
    if (last.code == wire::WireErrorCode::kDeadlineExceeded) {
      // The home shard may still resolve this request; retrying elsewhere
      // would double-spend it. Fail fast, typed.
      ++stats_.deadline_failures;
      return Err(std::move(last));
    }
    if (!last.try_later()) return Err(std::move(last));
    if (hop < hops) {
      ++stats_.overload_hops;
      QOSNP_LOG_DEBUG("shard", "shard ", shard, " overloaded, hopping to ",
                      (shard + 1) % clients_.size());
    }
  }
  return Err(std::move(last));
}

}  // namespace qosnp
