// RetryPolicy unit behaviour: the deterministic backoff schedule, jitter
// bounds, the per-offer deadline, and — most importantly — that the default
// zero-retry configuration reproduces the historical first-refusal-moves-on
// commitment bit for bit.
#include "core/commit.hpp"

#include <gtest/gtest.h>

#include "core/classify.hpp"
#include "core/enumerate.hpp"
#include "fault/fault_injector.hpp"
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

TEST(RetryPolicy, BackoffScheduleIsMonotoneAndCapped) {
  RetryPolicy policy;
  policy.base_backoff_ms = 5.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 200.0;
  double prev = 0.0;
  for (int k = 0; k < 32; ++k) {
    const double b = policy.backoff_ms(k);
    EXPECT_GE(b, prev) << "retry " << k;
    EXPECT_LE(b, policy.max_backoff_ms) << "retry " << k;
    prev = b;
  }
  EXPECT_DOUBLE_EQ(policy.backoff_ms(0), 5.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(1), 10.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(2), 20.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(10), 200.0);  // capped
}

TEST(RetryPolicy, JitterStaysWithinBounds) {
  RetryPolicy policy;
  policy.base_backoff_ms = 8.0;
  policy.backoff_multiplier = 3.0;
  policy.max_backoff_ms = 1'000.0;
  policy.jitter = 0.25;
  Rng rng(42);
  for (int k = 0; k < 8; ++k) {
    const double b = policy.backoff_ms(k);
    for (int draw = 0; draw < 200; ++draw) {
      const double j = policy.jittered_backoff_ms(k, rng);
      EXPECT_GE(j, b * 0.75) << "retry " << k;
      EXPECT_LE(j, b * 1.25) << "retry " << k;
    }
  }
}

TEST(RetryPolicy, ZeroJitterIsExactlyTheSchedule) {
  RetryPolicy policy;
  policy.jitter = 0.0;
  Rng rng(7);
  for (int k = 0; k < 8; ++k) {
    EXPECT_DOUBLE_EQ(policy.jittered_backoff_ms(k, rng), policy.backoff_ms(k));
  }
}

TEST(RetryPolicy, DeadlineCutsTheAttemptLoop) {
  // Every admission is transiently refused, so only the deadline (not the
  // attempt cap) stops the loop: delays 10 + 20 fit the 35 ms budget, the
  // next delay (40) would not.
  TestSystem sys;
  FaultPlan plan;
  plan.server_defaults.transient_failure_p = 1.0;
  FaultyServerFarm faulty(sys.farm, plan);

  RetryPolicy retry;
  retry.max_attempts = 100;
  retry.base_backoff_ms = 10.0;
  retry.backoff_multiplier = 2.0;
  retry.jitter = 0.0;
  retry.deadline_ms = 35.0;

  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  ResourceCommitter committer(faulty, *sys.transport, retry);
  auto commitment = committer.commit(sys.client, list.eager[0]);
  ASSERT_FALSE(commitment.ok());
  EXPECT_TRUE(commitment.error().transient);
  EXPECT_EQ(committer.stats().attempts, 3);
  EXPECT_EQ(committer.stats().retries, 2);
  EXPECT_DOUBLE_EQ(committer.stats().backoff_ms, 30.0);
}

TEST(RetryPolicy, ZeroRetryConfigReproducesSingleShotBitForBit) {
  // A max_attempts=1 policy — whatever its backoff parameters — must walk
  // the offers exactly as the historical committer did: same per-offer
  // verdicts, same error messages, same counters, same residual usage.
  const UserProfile profile = TestSystem::tolerant_profile();
  // Starve the system so some offers fail and the walk actually matters.
  TestSystem sys_a(/*access_bps=*/3'000'000, /*backbone_bps=*/3'000'000);
  TestSystem sys_b(/*access_bps=*/3'000'000, /*backbone_bps=*/3'000'000);
  OfferList list_a = enumerate_for(sys_a, profile);
  OfferList list_b = enumerate_for(sys_b, profile);
  ASSERT_EQ(list_a.eager.size(), list_b.eager.size());

  ResourceCommitter plain(sys_a.farm, *sys_a.transport);  // default policy
  RetryPolicy weird;
  weird.max_attempts = 1;  // no retries, whatever else says
  weird.base_backoff_ms = 999.0;
  weird.backoff_multiplier = 17.0;
  weird.jitter = 0.9;
  weird.deadline_ms = 0.001;
  weird.seed = 0xdeadULL;
  ResourceCommitter configured(sys_b.farm, *sys_b.transport, weird);

  for (std::size_t i = 0; i < list_a.eager.size(); ++i) {
    auto a = plain.commit(sys_a.client, list_a.eager[i]);
    auto b = configured.commit(sys_b.client, list_b.eager[i]);
    ASSERT_EQ(a.ok(), b.ok()) << "offer " << i;
    if (a.ok()) {
      EXPECT_EQ(a.value().stream_count(), b.value().stream_count());
      EXPECT_EQ(a.value().flow_count(), b.value().flow_count());
      a.value().release();
      b.value().release();
    } else {
      EXPECT_EQ(a.error().message, b.error().message) << "offer " << i;
      EXPECT_EQ(a.error().transient, b.error().transient) << "offer " << i;
    }
  }
  EXPECT_EQ(plain.stats().attempts, configured.stats().attempts);
  EXPECT_EQ(plain.stats().retries, 0);
  EXPECT_EQ(configured.stats().retries, 0);
  EXPECT_EQ(plain.stats().transient_failures, configured.stats().transient_failures);
  EXPECT_EQ(plain.stats().released_on_failure, configured.stats().released_on_failure);
  EXPECT_DOUBLE_EQ(configured.stats().backoff_ms, 0.0);  // never backed off
  EXPECT_EQ(sys_a.transport->active_flows(), sys_b.transport->active_flows());
}

TEST(RetryPolicy, SuccessOnFirstTryCostsOneAttempt) {
  TestSystem sys;
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  RetryPolicy retry;
  retry.max_attempts = 5;
  ResourceCommitter committer(sys.farm, *sys.transport, retry);
  auto commitment = committer.commit(sys.client, list.eager[0]);
  ASSERT_TRUE(commitment.ok());
  EXPECT_EQ(commitment.value().stats().attempts, 1);
  EXPECT_EQ(commitment.value().stats().retries, 0);
  EXPECT_DOUBLE_EQ(commitment.value().stats().backoff_ms, 0.0);
}

TEST(RetryPolicy, PermanentRefusalNeverRetries) {
  TestSystem sys;
  const UserProfile profile = TestSystem::tolerant_profile();
  MultimediaDocument doc = TestSystem::news_article();
  doc.id = "ghost-doc";
  for (auto& m : doc.monomedia) {
    for (auto& v : m.variants) v.server = "server-ghost";
  }
  sys.catalog.add(doc);
  auto feasible = compatible_variants(sys.catalog.find("ghost-doc"), sys.client, profile.mm);
  ASSERT_TRUE(feasible.ok());
  OfferList list = enumerate_offers(feasible.value(), profile.mm, CostModel{});
  RetryPolicy retry;
  retry.max_attempts = 10;
  ResourceCommitter committer(sys.farm, *sys.transport, retry);
  auto commitment = committer.commit(sys.client, list.eager[0]);
  ASSERT_FALSE(commitment.ok());
  EXPECT_FALSE(commitment.error().transient);
  EXPECT_EQ(committer.stats().attempts, 1);
  EXPECT_EQ(committer.stats().retries, 0);
  EXPECT_EQ(committer.stats().permanent_failures, 1);
}

}  // namespace
}  // namespace qosnp
