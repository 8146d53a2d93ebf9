// NodeConfig builder suite: every field validates at the setter that wrote
// it (per-field error messages), the finishers hand validated sub-configs to
// the subsystems, and the plan-cache switch produces exactly what
// NegotiationConfig::plan_cache takes. Written entirely through the builder
// — naming the loose structs here would trip scripts/check_no_deprecated.sh,
// by design.
#include "netio/node_config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace qosnp {
namespace {

/// The per-field contract: the exception message names the field and rule.
template <typename Set>
void expect_field_error(Set set, const std::string& expected) {
  try {
    set();
    FAIL() << "expected NodeConfig to reject the field, wanted: " << expected;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(NodeConfig, ServiceFieldsFlowThroughTheFinisher) {
  MetricsRegistry registry;
  const auto svc = NodeConfig{}
                       .workers(7)
                       .queue_capacity(33)
                       .deadline_ms(125.0)
                       .simulated_rtt_ms(2.5)
                       .auto_confirm(false)
                       .metrics(&registry)
                       .service();
  EXPECT_EQ(svc.workers, 7u);
  EXPECT_EQ(svc.queue_capacity, 33u);
  EXPECT_EQ(svc.deadline_ms, 125.0);
  EXPECT_EQ(svc.simulated_rtt_ms, 2.5);
  EXPECT_FALSE(svc.auto_confirm);
  EXPECT_EQ(svc.metrics, &registry);
}

TEST(NodeConfig, WireFieldsFlowThroughTheFinisher) {
  MetricsRegistry registry;
  const auto net = NodeConfig{}
                       .bind_address("0.0.0.0")
                       .listen_port(0)
                       .max_connections(12)
                       .max_frame_bytes(4096)
                       .idle_timeout_ms(250.0)
                       .metrics(&registry)
                       .wire_server();
  EXPECT_EQ(net.bind_address, "0.0.0.0");
  EXPECT_EQ(net.port, 0);
  EXPECT_EQ(net.max_connections, 12u);
  EXPECT_EQ(net.max_frame_bytes, 4096u);
  EXPECT_EQ(net.idle_timeout_ms, 250.0);
  EXPECT_EQ(net.metrics, &registry);
}

TEST(NodeConfig, SmallestAcceptedFrameLimitFlowsThroughTheFinisher) {
  const auto net = NodeConfig{}.max_frame_bytes(wire::kMinMaxFrameBytes).wire_server();
  EXPECT_EQ(net.max_frame_bytes, wire::kMinMaxFrameBytes);
}

TEST(NodeConfig, CacheFieldsFlowThroughTheFinisher) {
  const auto policy = NodeConfig{}.cache_capacity(99).cache_policy();
  EXPECT_EQ(policy.capacity, 99u);
}

TEST(NodeConfig, PlanCacheSwitchProducesTheCacheOrNothing) {
  EXPECT_EQ(NodeConfig{}.make_plan_cache(), nullptr);
  EXPECT_FALSE(NodeConfig{}.plan_cache_on());

  NodeConfig node;
  node.plan_cache_enabled(true).cache_capacity(8);
  EXPECT_TRUE(node.plan_cache_on());
  const auto cache = node.make_plan_cache();
  ASSERT_NE(cache, nullptr);
  // Two calls build two independent caches (one per shard, by design).
  EXPECT_NE(node.make_plan_cache(), cache);
}

TEST(NodeConfig, EveryBadFieldNamesItselfInTheError) {
  expect_field_error([] { NodeConfig{}.workers(0); }, "NodeConfig.workers: must be >= 1");
  expect_field_error([] { NodeConfig{}.queue_capacity(0); },
                     "NodeConfig.queue_capacity: must be >= 1");
  expect_field_error([] { NodeConfig{}.deadline_ms(-1.0); },
                     "NodeConfig.deadline_ms: must not be negative");
  expect_field_error([] { NodeConfig{}.simulated_rtt_ms(-0.5); },
                     "NodeConfig.simulated_rtt_ms: must not be negative");
  expect_field_error([] { NodeConfig{}.cache_capacity(0); },
                     "NodeConfig.cache_capacity: must be >= 1");
  expect_field_error([] { NodeConfig{}.bind_address(""); },
                     "NodeConfig.bind_address: must not be empty");
  expect_field_error([] { NodeConfig{}.max_connections(0); },
                     "NodeConfig.max_connections: must be >= 1");
  expect_field_error([] { NodeConfig{}.max_frame_bytes(8); },
                     "NodeConfig.max_frame_bytes: must fit at least one non-empty frame");
  // One below the wire layer's floor: rejected here, not later in wire_server().
  expect_field_error([] { NodeConfig{}.max_frame_bytes(wire::kMinMaxFrameBytes - 1); },
                     "NodeConfig.max_frame_bytes: must fit at least one non-empty frame");
  expect_field_error([] { NodeConfig{}.idle_timeout_ms(-10.0); },
                     "NodeConfig.idle_timeout_ms: must not be negative");
}

TEST(NodeConfig, RejectedValuesLeaveThePreviousValueStanding) {
  NodeConfig node;
  node.workers(5);
  EXPECT_THROW(node.workers(0), std::invalid_argument);
  EXPECT_EQ(node.service().workers, 5u);
}

TEST(NodeConfig, DefaultsMatchTheSubsystemDefaults) {
  // A default-built NodeConfig must behave exactly like default-built
  // sub-configs: same worker pool, same cache policy, same listener.
  const NodeConfig node;
  EXPECT_EQ(node.service().workers, 4u);
  EXPECT_EQ(node.service().queue_capacity, 64u);
  EXPECT_TRUE(node.service().auto_confirm);
  EXPECT_EQ(node.cache_policy().capacity, 1024u);
  EXPECT_EQ(node.wire_server().bind_address, "127.0.0.1");
  EXPECT_EQ(node.wire_server().max_connections, 256u);
}

}  // namespace
}  // namespace qosnp
