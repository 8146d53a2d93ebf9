// Deterministic failure scenarios against the fault-injection layer
// (src/fault) and the retrying committer: transient refusals recovered by
// retry, permanent failures skipping to the next offer, total outage
// yielding FAILEDTRYLATER, and the RAII leak check — everything admitted
// through a decorator is released through it, under any fault plan.
#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/classify.hpp"
#include "core/commit.hpp"
#include "core/enumerate.hpp"
#include "core/qos_manager.hpp"
#include "test_system.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;

OfferList enumerate_for(TestSystem& sys, const UserProfile& profile) {
  auto doc = sys.catalog.find("article");
  auto feasible = compatible_variants(doc, sys.client, profile.mm);
  EXPECT_TRUE(feasible.ok());
  OfferList list = enumerate_offers(feasible.value(), profile.mm, CostModel{});
  classify_offers(list.eager, profile.mm, profile.importance);
  return list;
}

/// First offer whose components all live on server-a (exists: the article
/// has a full ladder on each server).
const SystemOffer* all_on_server_a(const OfferList& list) {
  for (const SystemOffer& o : list.eager) {
    bool all_a = true;
    for (const auto& c : o.components) all_a &= c.variant->server == "server-a";
    if (all_a) return &o;
  }
  return nullptr;
}

std::int64_t total_server_reserved(TestSystem& sys) {
  std::int64_t total = 0;
  for (const auto& id : sys.farm.list()) total += sys.farm.find(id)->usage().reserved_bps;
  return total;
}

TEST(Fault, OutageIsRecoveredByRetry) {
  // server-a refuses its first two admission events (a short outage); with
  // retries the third attempt lands. Without retries the same plan fails.
  FaultPlan plan;
  plan.per_server["server-a"].outage_after_events = 0;
  plan.per_server["server-a"].outage_length_events = 2;

  const UserProfile profile = TestSystem::tolerant_profile();
  {
    TestSystem sys;
    FaultyServerFarm faulty(sys.farm, plan);
    OfferList list = enumerate_for(sys, profile);
    const SystemOffer* offer = all_on_server_a(list);
    ASSERT_NE(offer, nullptr);
    RetryPolicy retry;
    retry.max_attempts = 4;
    ResourceCommitter committer(faulty, *sys.transport, retry);
    auto commitment = committer.commit(sys.client, *offer);
    ASSERT_TRUE(commitment.ok()) << commitment.error();
    EXPECT_EQ(commitment.value().stats().attempts, 3);
    EXPECT_EQ(commitment.value().stats().retries, 2);
    EXPECT_EQ(commitment.value().stats().transient_failures, 2);
    EXPECT_EQ(faulty.server_stats("server-a").outage_refusals, 2);
  }
  {
    TestSystem sys;
    FaultyServerFarm faulty(sys.farm, plan);
    OfferList list = enumerate_for(sys, profile);
    const SystemOffer* offer = all_on_server_a(list);
    ASSERT_NE(offer, nullptr);
    ResourceCommitter committer(faulty, *sys.transport);  // no retries
    auto commitment = committer.commit(sys.client, *offer);
    ASSERT_FALSE(commitment.ok());
    EXPECT_TRUE(commitment.error().transient);
  }
}

TEST(Fault, PermanentFailureSkipsToNextOfferWithoutRetrying) {
  // The best video variant points at a server that does not exist: the walk
  // must burn exactly one attempt on it (no retries — it can never heal)
  // and commit the next offer.
  TestSystem sys;
  MultimediaDocument doc = TestSystem::news_article();
  doc.id = "half-ghost";
  doc.monomedia[0].variants[0].server = "server-ghost";   // video/hi
  doc.monomedia[0].variants[1].server = "server-ghost";   // video/hi-b (same QoS)
  sys.catalog.add(doc);

  NegotiationConfig config;
  config.retry.max_attempts = 5;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{}, config);
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "half-ghost", profile));
  ASSERT_TRUE(outcome.has_commitment());
  const SystemOffer committed = outcome.offers.offer(outcome.committed_index);
  for (const auto& c : committed.components) {
    EXPECT_NE(c.variant->server, "server-ghost");
  }
  EXPECT_GE(outcome.commit_stats.permanent_failures, 1);
  EXPECT_EQ(outcome.commit_stats.retries, 0);  // nothing transient happened
}

TEST(Fault, TotalOutageYieldsFailedTryLater) {
  // Every server admission refuses transiently: retries exhaust on every
  // offer and the negotiation honestly reports FAILEDTRYLATER — and leaves
  // no reservation behind.
  TestSystem sys;
  FaultPlan plan;
  plan.server_defaults.transient_failure_p = 1.0;
  FaultyServerFarm faulty_farm(sys.farm, plan);
  FaultyTransportProvider faulty_transport(*sys.transport, plan);

  NegotiationConfig config;
  config.retry.max_attempts = 3;
  QoSManager manager(sys.catalog, faulty_farm, faulty_transport, CostModel{}, config);
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedTryLater);
  EXPECT_FALSE(outcome.has_commitment());
  EXPECT_GT(outcome.commit_stats.transient_failures, 0);
  EXPECT_GT(outcome.commit_stats.retries, 0);
  EXPECT_EQ(sys.transport->active_flows(), 0u);
  EXPECT_EQ(total_server_reserved(sys), 0);
  EXPECT_EQ(faulty_farm.stats().admitted, 0);
}

TEST(Fault, NothingLeaksUnderFlakyFaults) {
  // Probabilistic refusals plus flaky releases on both surfaces: after every
  // commitment is released, each decorator must have seen exactly as many
  // releases as admissions, and the real components must be back to zero.
  TestSystem sys;
  FaultPlan plan;
  plan.seed = 97;
  plan.server_defaults.transient_failure_p = 0.3;
  plan.server_defaults.flaky_release_p = 0.5;
  plan.transport_defaults.transient_failure_p = 0.2;
  plan.transport_defaults.flaky_release_p = 0.3;
  FaultyServerFarm faulty_farm(sys.farm, plan);
  FaultyTransportProvider faulty_transport(*sys.transport, plan);

  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  RetryPolicy retry;
  retry.max_attempts = 3;
  {
    std::vector<Commitment> held;
    ResourceCommitter committer(faulty_farm, faulty_transport, retry);
    for (int round = 0; round < 12; ++round) {
      auto c = committer.commit(sys.client, list.eager[round % list.eager.size()]);
      if (c.ok()) held.push_back(std::move(c.value()));
    }
    EXPECT_GT(held.size(), 0u);  // some rounds survive a 30% fault rate
  }  // RAII releases everything held

  const FaultStats farm_stats = faulty_farm.stats();
  EXPECT_GT(farm_stats.admitted, 0);
  EXPECT_EQ(farm_stats.admitted, farm_stats.released);
  for (const auto& id : sys.farm.list()) {
    const FaultStats per_server = faulty_farm.server_stats(id);
    EXPECT_EQ(per_server.admitted, per_server.released) << id;
    EXPECT_EQ(sys.farm.find(id)->usage().reserved_bps, 0) << id;
    EXPECT_EQ(sys.farm.find(id)->usage().sessions, 0) << id;
  }
  const FaultStats net_stats = faulty_transport.stats();
  EXPECT_EQ(net_stats.admitted, net_stats.released);
  EXPECT_EQ(sys.transport->active_flows(), 0u);
  for (std::size_t i = 0; i < sys.transport->topology().link_count(); ++i) {
    EXPECT_EQ(sys.transport->link_usage(i).reserved_bps, 0) << "link " << i;
  }
}

TEST(Fault, LatencySpikesAreRecordedNotFatal) {
  TestSystem sys;
  FaultPlan plan;
  plan.server_defaults.latency_spike_p = 1.0;
  plan.server_defaults.latency_spike_ms = 25.0;
  FaultyServerFarm faulty(sys.farm, plan);
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  ResourceCommitter committer(faulty, *sys.transport);
  auto commitment = committer.commit(sys.client, list.eager[0]);
  ASSERT_TRUE(commitment.ok()) << commitment.error();
  const FaultStats stats = faulty.stats();
  EXPECT_EQ(stats.latency_spikes, 3);  // one per admitted component
  EXPECT_DOUBLE_EQ(stats.injected_latency_ms, 75.0);
}

TEST(Fault, RetriesBeatNoRetriesUnderTwentyPercentFaults) {
  // The ISSUE acceptance criterion: under a seeded 20% transient-failure
  // plan, RetryPolicy{max_attempts=3} commits strictly more offers than
  // retries-disabled, and the seeded run is bit-reproducible.
  const UserProfile profile = TestSystem::tolerant_profile();
  auto run = [&](int max_attempts) {
    std::vector<bool> outcomes;
    int successes = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      TestSystem sys;
      FaultPlan plan;
      plan.seed = seed;
      plan.server_defaults.transient_failure_p = 0.2;
      plan.transport_defaults.transient_failure_p = 0.2;
      FaultyServerFarm faulty_farm(sys.farm, plan);
      FaultyTransportProvider faulty_transport(*sys.transport, plan);
      OfferList list = enumerate_for(sys, profile);
      RetryPolicy retry;
      retry.max_attempts = max_attempts;
      ResourceCommitter committer(faulty_farm, faulty_transport, retry);
      auto c = committer.commit(sys.client, list.eager[0]);
      outcomes.push_back(c.ok());
      if (c.ok()) ++successes;
    }
    return std::pair{successes, outcomes};
  };

  const auto [with_retries, pattern_a] = run(3);
  const auto [without_retries, pattern_b] = run(1);
  EXPECT_GT(with_retries, without_retries);

  // Same seeds, same policy -> identical per-seed outcomes.
  const auto [with_retries_again, pattern_a_again] = run(3);
  EXPECT_EQ(with_retries, with_retries_again);
  EXPECT_EQ(pattern_a, pattern_a_again);
}

TEST(Fault, SameSeedSameNegotiationTwice) {
  const UserProfile profile = TestSystem::tolerant_profile();
  auto negotiate_once = [&] {
    TestSystem sys;
    FaultPlan plan;
    plan.seed = 1234;
    plan.server_defaults.transient_failure_p = 0.35;
    plan.transport_defaults.transient_failure_p = 0.15;
    FaultyServerFarm faulty_farm(sys.farm, plan);
    FaultyTransportProvider faulty_transport(*sys.transport, plan);
    NegotiationConfig config;
    config.retry.max_attempts = 3;
    QoSManager manager(sys.catalog, faulty_farm, faulty_transport, CostModel{}, config);
    NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
    return std::tuple{outcome.verdict, outcome.committed_index, outcome.commit_stats.attempts,
                      outcome.commit_stats.retries, outcome.commit_stats.transient_failures};
  };
  EXPECT_EQ(negotiate_once(), negotiate_once());
}

}  // namespace
}  // namespace qosnp
