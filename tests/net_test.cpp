#include "net/topology.hpp"
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace qosnp {
namespace {

StreamRequirements stream(std::int64_t bps, GuaranteeClass g = GuaranteeClass::kGuaranteed) {
  StreamRequirements req;
  req.max_bit_rate_bps = bps;
  req.avg_bit_rate_bps = bps / 2 > 0 ? bps / 2 : bps;
  req.guarantee = g;
  req.duration_s = 60.0;
  return req;
}

Topology line3(std::int64_t cap) {
  Topology t;
  t.add_node("a", NodeKind::kClient);
  t.add_node("b", NodeKind::kSwitch);
  t.add_node("c", NodeKind::kServer);
  (void)t.add_link("a", "b", cap, 1.0);
  (void)t.add_link("b", "c", cap, 1.0);
  return t;
}

TEST(Topology, AddNodeRejectsDuplicates) {
  Topology t;
  EXPECT_TRUE(t.add_node("x", NodeKind::kClient));
  EXPECT_FALSE(t.add_node("x", NodeKind::kServer));
  EXPECT_EQ(t.node_kind("x"), NodeKind::kClient);
  EXPECT_FALSE(t.node_kind("y").has_value());
}

TEST(Topology, AddLinkValidation) {
  Topology t;
  t.add_node("x", NodeKind::kClient);
  t.add_node("y", NodeKind::kServer);
  EXPECT_FALSE(t.add_link("x", "ghost", 1000).ok());
  EXPECT_FALSE(t.add_link("x", "x", 1000).ok());
  EXPECT_FALSE(t.add_link("x", "y", 0).ok());
  EXPECT_TRUE(t.add_link("x", "y", 1000).ok());
  EXPECT_EQ(t.link_count(), 1u);
}

TEST(Topology, ShortestPathFollowsDelay) {
  Topology t;
  for (const char* n : {"s", "m1", "m2", "d"}) t.add_node(n, NodeKind::kSwitch);
  (void)t.add_link("s", "m1", 1000, 1.0);
  (void)t.add_link("m1", "d", 1000, 1.0);   // total 2ms
  (void)t.add_link("s", "m2", 1000, 10.0);
  (void)t.add_link("m2", "d", 1000, 10.0);  // total 20ms
  auto path = t.shortest_path("s", "d");
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path.value().size(), 2u);
  EXPECT_EQ(t.link(path.value()[0]).b, "m1");
}

TEST(Topology, ShortestPathErrors) {
  Topology t;
  t.add_node("a", NodeKind::kClient);
  t.add_node("b", NodeKind::kServer);
  EXPECT_FALSE(t.shortest_path("a", "ghost").ok());
  EXPECT_FALSE(t.shortest_path("a", "b").ok());  // disconnected
  auto self = t.shortest_path("a", "a");
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(self.value().empty());
}

TEST(Topology, DumbbellShape) {
  const Topology t = Topology::dumbbell(3, 2, 10'000'000, 100'000'000);
  EXPECT_EQ(t.node_count(), 2u + 3u + 2u);
  EXPECT_EQ(t.link_count(), 1u + 3u + 2u);
  auto path = t.shortest_path("client-0", "server-node-1");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value().size(), 3u);  // access + backbone + access
}

TEST(Transport, ReserveAndRelease) {
  TransportService transport(line3(10'000'000));
  auto flow = transport.reserve("a", "c", stream(4'000'000));
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(transport.active_flows(), 1u);
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 4'000'000);
  EXPECT_EQ(transport.link_usage(1).reserved_bps, 4'000'000);
  EXPECT_TRUE(transport.release(flow.value()));
  EXPECT_FALSE(transport.release(flow.value()));  // double release is safe
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 0);
  EXPECT_EQ(transport.active_flows(), 0u);
}

TEST(Transport, AdmissionControlRefusesOverflow) {
  TransportService transport(line3(10'000'000));
  ASSERT_TRUE(transport.reserve("a", "c", stream(6'000'000)).ok());
  EXPECT_FALSE(transport.reserve("a", "c", stream(6'000'000)).ok());
  // But a smaller flow still fits.
  EXPECT_TRUE(transport.reserve("a", "c", stream(4'000'000)).ok());
}

TEST(Transport, BestEffortReservesAverageRate) {
  TransportService transport(line3(10'000'000));
  auto flow = transport.reserve("a", "c", stream(8'000'000, GuaranteeClass::kBestEffort));
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 4'000'000);  // avg = max/2
}

TEST(Transport, ConservationUnderChurn) {
  TransportService transport(line3(100'000'000));
  std::vector<FlowId> flows;
  for (int i = 0; i < 20; ++i) {
    auto f = transport.reserve("a", "c", stream(1'000'000));
    ASSERT_TRUE(f.ok());
    flows.push_back(f.value());
  }
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 20'000'000);
  for (std::size_t i = 0; i < flows.size(); i += 2) transport.release(flows[i]);
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 10'000'000);
  for (std::size_t i = 1; i < flows.size(); i += 2) transport.release(flows[i]);
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 0);
}

TEST(Transport, RejectsUnroutableAndZeroRate) {
  TransportService transport(line3(1'000'000));
  EXPECT_FALSE(transport.reserve("a", "ghost", stream(1000)).ok());
  EXPECT_FALSE(transport.reserve("a", "c", stream(0)).ok());
}

TEST(Transport, DegradeReportsVictimsNewestFirst) {
  TransportService transport(line3(10'000'000));
  auto f1 = transport.reserve("a", "c", stream(4'000'000));
  auto f2 = transport.reserve("a", "c", stream(4'000'000));
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  // Halve link 0: 8 Mbit/s reserved vs 5 Mbit/s effective -> one victim
  // (the newest flow) suffices to fit again.
  const auto victims = transport.degrade_link(0, 0.5);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], f2.value());
  EXPECT_EQ(transport.link_usage(0).effective_capacity_bps, 5'000'000);
}

TEST(Transport, DegradeBlocksNewAdmissions) {
  TransportService transport(line3(10'000'000));
  transport.degrade_link(0, 0.9);
  EXPECT_FALSE(transport.reserve("a", "c", stream(2'000'000)).ok());
  transport.restore_link(0);
  EXPECT_TRUE(transport.reserve("a", "c", stream(2'000'000)).ok());
}

TEST(Transport, MeanUtilization) {
  TransportService transport(line3(10'000'000));
  EXPECT_DOUBLE_EQ(transport.mean_utilization(), 0.0);
  ASSERT_TRUE(transport.reserve("a", "c", stream(5'000'000)).ok());
  EXPECT_NEAR(transport.mean_utilization(), 0.5, 1e-9);
}

TEST(Topology, ShortestPathHonoursExclusions) {
  const Topology t = Topology::dual_backbone(1, 1, 10'000'000, 10'000'000);
  // Links 0 (primary) and the last one (standby) join the two switches.
  auto primary = t.shortest_path("switch-client", "switch-server");
  ASSERT_TRUE(primary.ok());
  ASSERT_EQ(primary.value().size(), 1u);
  const std::size_t primary_link = primary.value()[0];
  const std::size_t excluded[] = {primary_link};
  auto standby = t.shortest_path("switch-client", "switch-server", excluded);
  ASSERT_TRUE(standby.ok());
  ASSERT_EQ(standby.value().size(), 1u);
  EXPECT_NE(standby.value()[0], primary_link);
}

TEST(Topology, ExclusionCanDisconnect) {
  const Topology t = Topology::dumbbell(1, 1, 10'000'000, 10'000'000);
  const std::size_t excluded[] = {0};  // the only backbone
  EXPECT_FALSE(t.shortest_path("client-0", "server-node-0", excluded).ok());
}

TEST(Transport, ReroutesOntoStandbyBackbone) {
  TransportService transport(Topology::dual_backbone(1, 1, 100'000'000, 10'000'000));
  // Two 8 Mbit/s flows: the second cannot share the 10 Mbit/s primary
  // backbone, so it must take the standby one.
  auto f1 = transport.reserve("client-0", "server-node-0", stream(8'000'000));
  auto f2 = transport.reserve("client-0", "server-node-0", stream(8'000'000));
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok()) << f2.error();
  const auto p1 = transport.flow(f1.value())->path;
  const auto p2 = transport.flow(f2.value())->path;
  // The backbone link differs between the two paths.
  EXPECT_NE(p1, p2);
  // A third same-size flow finds no backbone with room.
  EXPECT_FALSE(transport.reserve("client-0", "server-node-0", stream(8'000'000)).ok());
}

TEST(Transport, ReroutesAroundCongestedLink) {
  TransportService transport(Topology::dual_backbone(1, 1, 100'000'000, 10'000'000));
  auto primary = transport.topology().shortest_path("switch-client", "switch-server");
  ASSERT_TRUE(primary.ok());
  transport.degrade_link(primary.value()[0], 0.95);
  auto f = transport.reserve("client-0", "server-node-0", stream(8'000'000));
  ASSERT_TRUE(f.ok()) << f.error();
}

TEST(Transport, SingleBackboneStillRejectsWhenFull) {
  TransportService transport(line3(10'000'000));
  ASSERT_TRUE(transport.reserve("a", "c", stream(8'000'000)).ok());
  auto second = transport.reserve("a", "c", stream(8'000'000));
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.error().message.find("insufficient bandwidth"), std::string::npos);
  EXPECT_TRUE(second.error().transient);
}

// --- Route memo: reserve() reuses the unexcluded route per (src, dst). -----

TEST(TransportRouteMemo, RepeatedReservationsStoreTheShortestPath) {
  for (const bool dual : {false, true}) {
    const Topology shape = dual ? Topology::dual_backbone(3, 2, 100'000'000, 1'000'000'000)
                                : Topology::dumbbell(3, 2, 100'000'000, 1'000'000'000);
    TransportService transport(shape);
    for (int round = 0; round < 3; ++round) {
      for (int c = 0; c < 3; ++c) {
        for (int s = 0; s < 2; ++s) {
          const NodeId client = "client-" + std::to_string(c);
          const NodeId server = "server-node-" + std::to_string(s);
          auto expected = shape.shortest_path(server, client);
          ASSERT_TRUE(expected.ok());
          auto f = transport.reserve(server, client, stream(1'000'000));
          ASSERT_TRUE(f.ok()) << f.error();
          EXPECT_EQ(transport.flow(f.value())->path, expected.value())
              << (dual ? "dual" : "dumbbell") << " round " << round << " " << server << "->"
              << client;
        }
      }
    }
    EXPECT_TRUE(transport.accounting_consistent());
  }
}

TEST(TransportRouteMemo, FullPrimaryStillReroutesOntoStandby) {
  const Topology shape = Topology::dual_backbone(1, 1, 100'000'000, 10'000'000);
  TransportService transport(shape);
  const auto primary = shape.shortest_path("server-node-0", "client-0");
  ASSERT_TRUE(primary.ok());
  const std::size_t backbone = shape.shortest_path("switch-client", "switch-server").value()[0];
  const std::size_t excluded[] = {backbone};
  const auto standby = shape.shortest_path("server-node-0", "client-0", excluded);
  ASSERT_TRUE(standby.ok());
  ASSERT_NE(primary.value(), standby.value());

  // The first flow warms the memo with the primary route and fills it.
  auto f1 = transport.reserve("server-node-0", "client-0", stream(8'000'000));
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(transport.flow(f1.value())->path, primary.value());
  auto f2 = transport.reserve("server-node-0", "client-0", stream(8'000'000));
  ASSERT_TRUE(f2.ok()) << f2.error();
  EXPECT_EQ(transport.flow(f2.value())->path, standby.value());
  // Both backbones full: the refusal names the last bottleneck tried.
  auto f3 = transport.reserve("server-node-0", "client-0", stream(8'000'000));
  ASSERT_FALSE(f3.ok());
  EXPECT_TRUE(f3.error().transient);
  EXPECT_EQ(f3.error().component, "transport");
  EXPECT_EQ(f3.error().message, "insufficient bandwidth on link " +
                                    std::to_string(standby.value()[1]) +
                                    " (switch-client<->switch-server)");
  // Freeing the primary sends the next flow back onto it.
  ASSERT_TRUE(transport.release(f1.value()));
  auto f4 = transport.reserve("server-node-0", "client-0", stream(8'000'000));
  ASSERT_TRUE(f4.ok()) << f4.error();
  EXPECT_EQ(transport.flow(f4.value())->path, primary.value());
  EXPECT_TRUE(transport.accounting_consistent());
}

TEST(TransportRouteMemo, RoutesFollowDegradeAndRestore) {
  const Topology shape = Topology::dual_backbone(1, 1, 100'000'000, 10'000'000);
  TransportService transport(shape);
  const auto primary = shape.shortest_path("server-node-0", "client-0");
  ASSERT_TRUE(primary.ok());
  auto warm = transport.reserve("server-node-0", "client-0", stream(1'000'000));
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(transport.release(warm.value()));

  const std::size_t backbone = shape.shortest_path("switch-client", "switch-server").value()[0];
  transport.degrade_link(backbone, 0.95);
  auto detour = transport.reserve("server-node-0", "client-0", stream(4'000'000));
  ASSERT_TRUE(detour.ok()) << detour.error();
  const std::vector<std::size_t> detour_path = transport.flow(detour.value())->path;
  EXPECT_NE(detour_path, primary.value());
  EXPECT_EQ(std::count(detour_path.begin(), detour_path.end(), backbone), 0);

  transport.restore_link(backbone);
  auto back = transport.reserve("server-node-0", "client-0", stream(4'000'000));
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(transport.flow(back.value())->path, primary.value());
  EXPECT_TRUE(transport.accounting_consistent());
}

TEST(TransportRouteMemo, UnknownNodesKeepTheirPermanentRefusal) {
  const Topology shape = Topology::dumbbell(1, 1, 10'000'000, 10'000'000);
  TransportService transport(shape);
  for (int round = 0; round < 2; ++round) {
    auto from_ghost = transport.reserve("ghost", "client-0", stream(1000));
    ASSERT_FALSE(from_ghost.ok());
    EXPECT_FALSE(from_ghost.error().transient);
    EXPECT_EQ(from_ghost.error().component, "transport");
    EXPECT_EQ(from_ghost.error().message, "unknown node 'ghost'");
    EXPECT_EQ(from_ghost.error().message, shape.shortest_path("ghost", "client-0").error());

    auto to_ghost = transport.reserve("server-node-0", "phantom", stream(1000));
    ASSERT_FALSE(to_ghost.ok());
    EXPECT_FALSE(to_ghost.error().transient);
    EXPECT_EQ(to_ghost.error().message, "unknown node 'phantom'");
  }
  EXPECT_EQ(transport.active_flows(), 0u);
}

TEST(ScopedFlow, ReleasesOnDestruction) {
  TransportService transport(line3(10'000'000));
  {
    auto f = transport.reserve("a", "c", stream(4'000'000));
    ASSERT_TRUE(f.ok());
    ScopedFlow scoped(&transport, f.value());
    EXPECT_EQ(transport.active_flows(), 1u);
  }
  EXPECT_EQ(transport.active_flows(), 0u);
}

TEST(ScopedFlow, DismissKeepsReservation) {
  TransportService transport(line3(10'000'000));
  FlowId id = 0;
  {
    auto f = transport.reserve("a", "c", stream(4'000'000));
    ASSERT_TRUE(f.ok());
    ScopedFlow scoped(&transport, f.value());
    id = scoped.dismiss();
  }
  EXPECT_EQ(transport.active_flows(), 1u);
  transport.release(id);
}

TEST(ScopedFlow, MoveTransfersOwnership) {
  TransportService transport(line3(10'000'000));
  auto f = transport.reserve("a", "c", stream(4'000'000));
  ASSERT_TRUE(f.ok());
  ScopedFlow a(&transport, f.value());
  ScopedFlow b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.reset();
  EXPECT_EQ(transport.active_flows(), 0u);
}

}  // namespace
}  // namespace qosnp
