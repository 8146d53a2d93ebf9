// RetryPolicy unit behaviour: the fixed backoff schedule, jitter bounds,
// and — most importantly — that a one-attempt configuration reproduces the
// historical first-refusal-moves-on commitment bit for bit.
#include "core/commit.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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
  double prev = 0.0;
  for (int k = 0; k < 32; ++k) {
    const double b = RetryPolicy::backoff_ms(k);
    EXPECT_GE(b, prev) << "retry " << k;
    EXPECT_LE(b, RetryPolicy::kMaxBackoffMs) << "retry " << k;
    prev = b;
  }
  EXPECT_DOUBLE_EQ(RetryPolicy::backoff_ms(0), 5.0);
  EXPECT_DOUBLE_EQ(RetryPolicy::backoff_ms(1), 10.0);
  EXPECT_DOUBLE_EQ(RetryPolicy::backoff_ms(2), 20.0);
  EXPECT_DOUBLE_EQ(RetryPolicy::backoff_ms(6), 320.0);
  EXPECT_DOUBLE_EQ(RetryPolicy::backoff_ms(7), 500.0);  // capped
  EXPECT_DOUBLE_EQ(RetryPolicy::backoff_ms(31), 500.0);
}

TEST(RetryPolicy, JitterStaysWithinBoundsAndVaries) {
  Rng rng(42);
  for (int k = 0; k < 10; ++k) {
    const double b = RetryPolicy::backoff_ms(k);
    double lo = b * 2.0;
    double hi = 0.0;
    for (int draw = 0; draw < 200; ++draw) {
      const double j = RetryPolicy::jittered_backoff_ms(k, rng);
      EXPECT_GE(j, b * (1.0 - RetryPolicy::kJitter)) << "retry " << k;
      EXPECT_LE(j, b * (1.0 + RetryPolicy::kJitter)) << "retry " << k;
      lo = std::min(lo, j);
      hi = std::max(hi, j);
    }
    EXPECT_LT(lo, b) << "retry " << k;  // the jitter is drawn, not fixed
    EXPECT_GT(hi, b) << "retry " << k;
  }
}

TEST(RetryPolicy, RetriedCommitWaitsTheJitteredSchedule) {
  // Every admission is transiently refused, so the attempt cap stops the
  // loop, and the committer waits exactly the seeded draws of the schedule.
  TestSystem sys;
  FaultPlan plan;
  plan.server_defaults.transient_failure_p = 1.0;
  FaultyServerFarm faulty(sys.farm, plan);

  RetryPolicy retry;
  retry.max_attempts = 4;
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  ResourceCommitter committer(faulty, *sys.transport, retry);
  auto commitment = committer.commit(sys.client, list.eager[0]);
  ASSERT_FALSE(commitment.ok());
  EXPECT_TRUE(commitment.error().transient);
  EXPECT_EQ(committer.stats().attempts, 4);
  EXPECT_EQ(committer.stats().retries, 3);

  Rng rng(RetryPolicy::kJitterSeed);
  double expected = 0.0;
  for (int k = 0; k < 3; ++k) expected += RetryPolicy::jittered_backoff_ms(k, rng);
  EXPECT_DOUBLE_EQ(committer.stats().backoff_ms, expected);
  EXPECT_GE(committer.stats().backoff_ms, 0.9 * (5.0 + 10.0 + 20.0));
  EXPECT_LE(committer.stats().backoff_ms, 1.1 * (5.0 + 10.0 + 20.0));
}

TEST(RetryPolicy, ZeroRetryConfigReproducesSingleShotBitForBit) {
  // A policy allowing at most one attempt (a non-positive cap counts as
  // one) must walk the offers exactly as the historical committer did: same
  // per-offer verdicts, same error messages, same counters, same residual
  // usage.
  const UserProfile profile = TestSystem::tolerant_profile();
  // Starve the system so some offers fail and the walk actually matters.
  TestSystem sys_a(/*access_bps=*/3'000'000, /*backbone_bps=*/3'000'000);
  TestSystem sys_b(/*access_bps=*/3'000'000, /*backbone_bps=*/3'000'000);
  OfferList list_a = enumerate_for(sys_a, profile);
  OfferList list_b = enumerate_for(sys_b, profile);
  ASSERT_EQ(list_a.eager.size(), list_b.eager.size());

  ResourceCommitter plain(sys_a.farm, *sys_a.transport);  // default policy
  RetryPolicy weird;
  weird.max_attempts = 0;
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
