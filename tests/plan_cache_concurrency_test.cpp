// One NegotiationPlanCache shared by a full worker pool, hammered while the
// catalog churns underneath it. Meant to run under tsan: the interesting
// failures here are shard-lock races and torn LRU state, not wrong verdicts.
// After the storm the cache's conservation law must still hold exactly and
// the service-side metrics mirror must agree with the internal counters.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/plan_cache.hpp"
#include "service/negotiation_service.hpp"
#include "test_service.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;
using testing::TestSystem;

TEST(PlanCacheConcurrency, SharedCacheSurvivesWorkerStormWithCatalogChurn) {
  NegotiationConfig negotiation;
  // Tiny capacity on purpose (one plan per shard): constant eviction
  // traffic, so every code path of the shard runs under fire.
  auto cache = std::make_shared<NegotiationPlanCache>(CachePolicy{/*capacity=*/8});
  negotiation.plan_cache = cache;
  ServiceSystem sys(16, 1'000'000'000, 10'000'000'000, 10'000'000'000, 100'000,
                    std::move(negotiation));

  ServiceConfig config;
  config.workers = 8;
  config.queue_capacity = 4096;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  // Churn thread: re-adds the document (a new object -> stale drops) while
  // the workers replay plans that pin older objects.
  std::atomic<bool> churning{true};
  std::thread churn([&] {
    while (churning.load(std::memory_order_relaxed)) {
      sys.catalog.add(TestSystem::news_article());
      std::this_thread::yield();
    }
  });

  const UserProfile profiles[2] = {TestSystem::tolerant_profile(), [] {
                                     UserProfile p = TestSystem::tolerant_profile();
                                     p.mm.audio.reset();
                                     return p;
                                   }()};
  constexpr int kRequests = 600;
  std::vector<std::future<NegotiationResult>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    NegotiationRequest request = make_negotiation_request(
        sys.clients[static_cast<std::size_t>(i) % sys.clients.size()], "article",
        profiles[i % 2]);
    request.id = static_cast<std::uint64_t>(i) + 1;
    if (i % 17 == 0) request.cache = CacheUse::kRefresh;
    if (i % 23 == 0) request.cache = CacheUse::kBypass;
    futures.push_back(service.submit(std::move(request)));
  }
  std::size_t resolved = 0;
  for (auto& f : futures) {
    NegotiationResult resp = f.get();
    ++resolved;
    if (resp.session_id != 0) sys.sessions->complete(resp.session_id);
  }
  churning.store(false, std::memory_order_relaxed);
  churn.join();
  service.stop();

  EXPECT_EQ(resolved, static_cast<std::size_t>(kRequests));
  EXPECT_TRUE(sys.drained());

  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_LE(stats.stale, stats.misses);
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_GT(stats.stores, 0u);
  EXPECT_LE(cache->size(), cache->policy().capacity);

  // The service bound the manager's cache into its registry at construction;
  // after the drain both sides must report the same totals.
  EXPECT_EQ(service.metrics().counter_value("qosnp_plan_cache_hits"), stats.hits);
  EXPECT_EQ(service.metrics().counter_value("qosnp_plan_cache_misses"), stats.misses);
  EXPECT_EQ(service.metrics().counter_value("qosnp_plan_cache_stale"), stats.stale);
  EXPECT_EQ(service.metrics().counter_value("qosnp_plan_cache_evictions"), stats.evictions);
}

TEST(PlanCacheConcurrency, TwoServicesShareOneCacheAndOneRegistry) {
  NegotiationConfig negotiation;
  auto cache = std::make_shared<NegotiationPlanCache>();
  negotiation.plan_cache = cache;
  ServiceSystem sys(8, 1'000'000'000, 10'000'000'000, 10'000'000'000, 100'000,
                    std::move(negotiation));

  MetricsRegistry shared_registry;
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 512;
  config.metrics = &shared_registry;
  // Both services bind the same cache into the same external registry; the
  // second bind must be a no-op (no double catch-up of prior counts).
  NegotiationService a(*sys.manager, *sys.sessions, config);
  NegotiationService b(*sys.manager, *sys.sessions, config);
  a.start();
  b.start();

  std::vector<std::future<NegotiationResult>> futures;
  for (int i = 0; i < 120; ++i) {
    NegotiationRequest request = make_negotiation_request(
        sys.clients[static_cast<std::size_t>(i) % sys.clients.size()], "article",
        TestSystem::tolerant_profile());
    request.id = static_cast<std::uint64_t>(i) + 1;
    futures.push_back((i % 2 == 0 ? a : b).submit(std::move(request)));
  }
  for (auto& f : futures) {
    NegotiationResult resp = f.get();
    if (resp.session_id != 0) sys.sessions->complete(resp.session_id);
  }
  a.stop();
  b.stop();
  EXPECT_TRUE(sys.drained());

  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, 120u);
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(shared_registry.counter_value("qosnp_plan_cache_hits"), stats.hits);
  EXPECT_EQ(shared_registry.counter_value("qosnp_plan_cache_misses"), stats.misses);
}

}  // namespace
}  // namespace qosnp
