#include "netio/node_config.hpp"

#include <stdexcept>
#include <utility>

namespace qosnp {

namespace {

/// Per-field validation: the whole point of the builder is that the error
/// names the field that was set wrong, at the call that set it.
void require_field(bool ok, const char* field, const char* rule) {
  if (!ok) {
    throw std::invalid_argument(std::string("NodeConfig.") + field + ": " + rule);
  }
}

}  // namespace

NodeConfig& NodeConfig::workers(std::size_t n) {
  require_field(n >= 1, "workers", "must be >= 1");
  service_.workers = n;
  return *this;
}

NodeConfig& NodeConfig::queue_capacity(std::size_t n) {
  require_field(n >= 1, "queue_capacity", "must be >= 1");
  service_.queue_capacity = n;
  return *this;
}

NodeConfig& NodeConfig::deadline_ms(double ms) {
  require_field(ms >= 0.0, "deadline_ms", "must not be negative");
  service_.deadline_ms = ms;
  return *this;
}

NodeConfig& NodeConfig::simulated_rtt_ms(double ms) {
  require_field(ms >= 0.0, "simulated_rtt_ms", "must not be negative");
  service_.simulated_rtt_ms = ms;
  return *this;
}

NodeConfig& NodeConfig::auto_confirm(bool on) {
  service_.auto_confirm = on;
  return *this;
}

NodeConfig& NodeConfig::metrics(MetricsRegistry* registry) {
  service_.metrics = registry;
  wire_.metrics = registry;
  return *this;
}

NodeConfig& NodeConfig::trace_sink(TraceSink* sink) {
  service_.trace_sink = sink;
  return *this;
}

NodeConfig& NodeConfig::plan_cache_enabled(bool on) {
  cache_enabled_ = on;
  return *this;
}

NodeConfig& NodeConfig::cache_capacity(std::size_t n) {
  require_field(n >= 1, "cache_capacity", "must be >= 1");
  cache_.capacity = n;
  return *this;
}

NodeConfig& NodeConfig::bind_address(std::string address) {
  require_field(!address.empty(), "bind_address", "must not be empty");
  wire_.bind_address = std::move(address);
  return *this;
}

NodeConfig& NodeConfig::listen_port(std::uint16_t port) {
  wire_.port = port;  // 0 is valid: bind an ephemeral port
  return *this;
}

NodeConfig& NodeConfig::max_connections(std::size_t n) {
  require_field(n >= 1, "max_connections", "must be >= 1");
  wire_.max_connections = n;
  return *this;
}

NodeConfig& NodeConfig::max_frame_bytes(std::size_t n) {
  require_field(n >= wire::kMinMaxFrameBytes, "max_frame_bytes",
                "must fit at least one non-empty frame");
  wire_.max_frame_bytes = n;
  return *this;
}

NodeConfig& NodeConfig::idle_timeout_ms(double ms) {
  require_field(ms >= 0.0, "idle_timeout_ms", "must not be negative");
  wire_.idle_timeout_ms = ms;
  return *this;
}

ServiceConfig NodeConfig::service() const { return ServiceConfig::validated(service_); }

CachePolicy NodeConfig::cache_policy() const { return CachePolicy::validated(cache_); }

std::shared_ptr<NegotiationPlanCache> NodeConfig::make_plan_cache() const {
  return cache_enabled_ ? std::make_shared<NegotiationPlanCache>(cache_policy()) : nullptr;
}

WireServerConfig NodeConfig::wire_server() const { return WireServerConfig::validated(wire_); }

}  // namespace qosnp
