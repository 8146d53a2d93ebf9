// Multi-domain hierarchical negotiation ([Haf 95b] extension).
#include "domain/multi_domain.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/qos_manager.hpp"
#include "test_system.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;

StreamRequirements stream(std::int64_t bps) {
  StreamRequirements req;
  req.max_bit_rate_bps = bps;
  req.avg_bit_rate_bps = bps;
  req.guarantee = GuaranteeClass::kGuaranteed;
  req.duration_s = 60.0;
  return req;
}

CostTable flat_tariff(Money per_second) {
  return CostTable{{{1'000'000'000, per_second}}};
}

/// client-domain -- {cheap-transit | pricey-transit} -- server-domain.
std::unique_ptr<MultiDomainTransport> diamond(MultiDomainTransport::RoutePolicy policy,
                                              std::int64_t cheap_capacity = 20'000'000) {
  std::vector<DomainConfig> domains = {
      {"client-domain", 1'000'000'000, flat_tariff(Money::micros(100))},
      {"cheap-transit", cheap_capacity, flat_tariff(Money::micros(500))},
      {"pricey-transit", 1'000'000'000, flat_tariff(Money::micros(5'000))},
      {"server-domain", 1'000'000'000, flat_tariff(Money::micros(100))},
  };
  auto net = std::make_unique<MultiDomainTransport>(std::move(domains), policy);
  EXPECT_TRUE(net->add_peering("client-domain", "cheap-transit").ok());
  EXPECT_TRUE(net->add_peering("client-domain", "pricey-transit").ok());
  EXPECT_TRUE(net->add_peering("cheap-transit", "server-domain").ok());
  EXPECT_TRUE(net->add_peering("pricey-transit", "server-domain").ok());
  EXPECT_TRUE(net->attach("client-0", "client-domain").ok());
  EXPECT_TRUE(net->attach("server-node-0", "server-domain").ok());
  EXPECT_TRUE(net->attach("server-node-1", "server-domain").ok());
  return net;
}

TEST(MultiDomain, ConfigurationValidation) {
  MultiDomainTransport net({{"a", 1'000, flat_tariff(Money::micros(1))}});
  EXPECT_FALSE(net.add_peering("a", "ghost").ok());
  EXPECT_FALSE(net.add_peering("a", "a").ok());
  EXPECT_FALSE(net.attach("n", "ghost").ok());
  EXPECT_FALSE(net.reserve("n", "m", stream(100)).ok());  // unattached nodes
}

TEST(MultiDomain, CheapestPolicyPrefersCheapTransit) {
  auto netp = diamond(MultiDomainTransport::RoutePolicy::kCheapest);
  MultiDomainTransport& net = *netp;
  auto flow = net.reserve("client-0", "server-node-0", stream(5'000'000));
  ASSERT_TRUE(flow.ok()) << flow.error();
  const auto route = net.route_of(flow.value());
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(route[1], "cheap-transit");
}

TEST(MultiDomain, OverflowsToPriceyTransitWhenCheapIsFull) {
  auto netp =
      diamond(MultiDomainTransport::RoutePolicy::kCheapest, /*cheap_capacity=*/8'000'000);
  MultiDomainTransport& net = *netp;
  auto f1 = net.reserve("client-0", "server-node-0", stream(5'000'000));
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(net.route_of(f1.value())[1], "cheap-transit");
  auto f2 = net.reserve("client-0", "server-node-0", stream(5'000'000));
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(net.route_of(f2.value())[1], "pricey-transit");
  // Releasing the first flow frees the cheap transit again.
  net.release(f1.value());
  auto f3 = net.reserve("client-0", "server-node-0", stream(5'000'000));
  ASSERT_TRUE(f3.ok());
  EXPECT_EQ(net.route_of(f3.value())[1], "cheap-transit");
}

TEST(MultiDomain, QuoteSumsSegmentTariffs) {
  auto netp = diamond(MultiDomainTransport::RoutePolicy::kCheapest);
  MultiDomainTransport& net = *netp;
  auto quote = net.quote_per_second("client-0", "server-node-0", stream(5'000'000));
  ASSERT_TRUE(quote.ok());
  // client (100) + cheap transit (500) + server (100) micro-$/s.
  EXPECT_EQ(quote.value(), Money::micros(700));
}

TEST(MultiDomain, QuoteRisesWhenTrafficShiftsToPriceyRoute) {
  auto netp =
      diamond(MultiDomainTransport::RoutePolicy::kCheapest, /*cheap_capacity=*/8'000'000);
  MultiDomainTransport& net = *netp;
  auto before = net.quote_per_second("client-0", "server-node-0", stream(5'000'000));
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(net.reserve("client-0", "server-node-0", stream(5'000'000)).ok());
  auto after = net.quote_per_second("client-0", "server-node-0", stream(5'000'000));
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.value(), before.value());
}

TEST(MultiDomain, FewestDomainsPolicyIgnoresTariffs) {
  // Both transits are one domain, so under kFewestDomains either may be
  // picked; make the cheap one *longer* (client->extra->cheap->server) so
  // the policies diverge deterministically.
  std::vector<DomainConfig> domains = {
      {"client-domain", 1'000'000'000, flat_tariff(Money::micros(100))},
      {"extra", 1'000'000'000, flat_tariff(Money::micros(50))},
      {"cheap-transit", 1'000'000'000, flat_tariff(Money::micros(50))},
      {"pricey-transit", 1'000'000'000, flat_tariff(Money::micros(5'000))},
      {"server-domain", 1'000'000'000, flat_tariff(Money::micros(100))},
  };
  for (const auto policy : {MultiDomainTransport::RoutePolicy::kCheapest,
                            MultiDomainTransport::RoutePolicy::kFewestDomains}) {
    MultiDomainTransport net(domains, policy);
    ASSERT_TRUE(net.add_peering("client-domain", "extra").ok());
    ASSERT_TRUE(net.add_peering("extra", "cheap-transit").ok());
    ASSERT_TRUE(net.add_peering("cheap-transit", "server-domain").ok());
    ASSERT_TRUE(net.add_peering("client-domain", "pricey-transit").ok());
    ASSERT_TRUE(net.add_peering("pricey-transit", "server-domain").ok());
    ASSERT_TRUE(net.attach("client-0", "client-domain").ok());
    ASSERT_TRUE(net.attach("server-node-0", "server-domain").ok());
    auto flow = net.reserve("client-0", "server-node-0", stream(1'000'000));
    ASSERT_TRUE(flow.ok());
    const auto route = net.route_of(flow.value());
    if (policy == MultiDomainTransport::RoutePolicy::kCheapest) {
      EXPECT_EQ(route.size(), 4u);  // the cheap detour
    } else {
      EXPECT_EQ(route.size(), 3u);  // the short pricey route
    }
  }
}

TEST(MultiDomain, ConservationAndRelease) {
  auto netp = diamond(MultiDomainTransport::RoutePolicy::kCheapest);
  MultiDomainTransport& net = *netp;
  auto flow = net.reserve("client-0", "server-node-0", stream(5'000'000));
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(net.usage("client-domain").reserved_bps, 5'000'000);
  EXPECT_EQ(net.usage("cheap-transit").reserved_bps, 5'000'000);
  EXPECT_EQ(net.usage("pricey-transit").reserved_bps, 0);
  EXPECT_TRUE(net.release(flow.value()));
  EXPECT_FALSE(net.release(flow.value()));
  EXPECT_EQ(net.usage("client-domain").reserved_bps, 0);
  EXPECT_EQ(net.usage("cheap-transit").reserved_bps, 0);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(MultiDomain, DegradeDomainReportsVictims) {
  auto netp = diamond(MultiDomainTransport::RoutePolicy::kCheapest);
  MultiDomainTransport& net = *netp;
  auto f1 = net.reserve("client-0", "server-node-0", stream(8'000'000));
  auto f2 = net.reserve("client-0", "server-node-0", stream(8'000'000));
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  const auto victims = net.degrade_domain("cheap-transit", 0.5);  // 20M -> 10M
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], f2.value());
  net.restore_domain("cheap-transit");
  EXPECT_EQ(net.usage("cheap-transit").effective_capacity_bps, 20'000'000);
}

TEST(MultiDomain, FullNegotiationRunsAcrossDomains) {
  // The whole QoS negotiation procedure on top of the multi-domain
  // transport: same catalog/servers/client as the integration fixture.
  TestSystem sys;  // we only borrow catalog, farm, client
  auto netp = diamond(MultiDomainTransport::RoutePolicy::kCheapest,
                                     /*cheap_capacity=*/200'000'000);
  MultiDomainTransport& net = *netp;
  QoSManager manager(sys.catalog, sys.farm, net);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kSucceeded);
  ASSERT_TRUE(outcome.has_commitment());
  EXPECT_GT(net.active_flows(), 0u);
  outcome.commitment.release();
  EXPECT_EQ(net.active_flows(), 0u);
}

}  // namespace
}  // namespace qosnp
