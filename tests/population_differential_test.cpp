// Differential property: a simulated user's negotiation outcome is
// byte-identical to calling QoSManager::negotiate directly with the same
// request. Per seed, twin systems are built (same corpus, same hardware);
// the population runs on one, observing the raw result of its first arrival
// (indexed_rng(seed, 0) makes that user's request reconstructible), and the
// reconstructed request is negotiated directly on the other. 200+ seeded
// corpora, with the plan cache cold, pre-warmed (hit path), and bypassed —
// the cache must be invisible, and the population layer must add nothing to
// the procedure's observable outcome.
#include "sim/population.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/plan_cache.hpp"
#include "document/corpus.hpp"
#include "result_signature.hpp"
#include "test_service.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;
using testing::result_signature;

struct TwinSystems {
  ServiceSystem population_sys;
  ServiceSystem direct_sys;
  std::vector<DocumentId> documents;

  TwinSystems(std::uint64_t seed, NegotiationConfig population_negotiation)
      : population_sys(2, 1'000'000'000, 10'000'000'000, 10'000'000'000, 100'000,
                       std::move(population_negotiation)),
        direct_sys(2) {
    CorpusConfig corpus;
    corpus.seed = seed;
    corpus.num_documents = 4;
    corpus.min_duration_s = 30.0;
    corpus.max_duration_s = 120.0;
    for (auto& doc : generate_corpus(corpus)) {
      population_sys.catalog.add(MultimediaDocument{doc});
      direct_sys.catalog.add(std::move(doc));
    }
    documents = population_sys.catalog.list();
  }
};

/// One single-class population over `seed`, capturing the raw result the
/// client observed for arrival index 0 (before admission strips it).
/// Returns nullopt when the replicate produced no arrivals at all.
std::optional<std::string> observed_first_result(ServiceSystem& sys,
                                                 const std::vector<DocumentId>& documents,
                                                 const ClientClass& cls, std::uint64_t seed,
                                                 CacheUse cache) {
  PopulationConfig config;
  config.classes = {cls};
  config.duration_s = 30.0;  // rate 0.5/s: P(no arrival) = e^-15
  config.seed = seed;
  config.cache = cache;

  LocalClient client(*sys.manager, *sys.sessions);
  std::optional<std::string> first;
  client.set_result_observer([&](const NegotiationResult& r) {
    if (!first) first = result_signature(r);
  });
  Population population(config, client, documents);
  const PopulationMetrics metrics = population.run();
  EXPECT_TRUE(metrics.conserved()) << metrics.signature();
  return first;
}

/// The request the population builds for arrival index 0, reconstructed from
/// the documented draw order of indexed_rng(seed, 0).
NegotiationRequest reconstruct_first_request(const ClientClass& cls, std::uint64_t seed,
                                             const std::vector<DocumentId>& documents) {
  Rng rng = indexed_rng(seed, 0);
  const UserDraws draws = draw_user(cls, rng, documents);
  NegotiationRequest request = make_negotiation_request(cls.machine, draws.document, cls.profile);
  request.id = 1;
  request.accept_degraded = draws.accept_degraded;
  return request;
}

ClientClass desktop_class(const std::string& node) {
  std::vector<ClientClass> population = standard_population();
  ClientClass cls = std::move(population[1]);  // standard-desktop
  cls.machine.node = node;
  cls.arrival_rate_per_s = 0.5;
  return cls;
}

TEST(PopulationDifferential, FirstUserMatchesDirectNegotiationAcross200SeededCorpora) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    // Variant 1: plan cache configured and cold (kDefault stores the plan).
    NegotiationConfig cached;
    cached.plan_cache = std::make_shared<NegotiationPlanCache>();
    {
      TwinSystems twins(seed, cached);
      const ClientClass cls = desktop_class(twins.population_sys.clients[0].node);
      const NegotiationRequest request =
          reconstruct_first_request(cls, seed, twins.documents);
      const auto observed = observed_first_result(twins.population_sys, twins.documents, cls,
                                                  seed, CacheUse::kDefault);
      if (!observed) continue;
      NegotiationResult direct = twins.direct_sys.manager->negotiate(request);
      EXPECT_EQ(*observed, result_signature(direct)) << "seed " << seed << " (cache cold)";
      direct.commitment.release();
      ++compared;
    }

    // Variant 2: the population's first request hits a pre-warmed cache.
    NegotiationConfig warmed;
    warmed.plan_cache = std::make_shared<NegotiationPlanCache>();
    {
      TwinSystems twins(seed, warmed);
      const ClientClass cls = desktop_class(twins.population_sys.clients[0].node);
      const NegotiationRequest request =
          reconstruct_first_request(cls, seed, twins.documents);
      // Warm the plan cache with the exact request, then release the
      // commitment so the population starts from pristine resources.
      NegotiationResult warm = twins.population_sys.manager->negotiate(request);
      warm.commitment.release();
      EXPECT_EQ(twins.population_sys.manager->plan_cache()->stats().misses, 1u);
      const auto observed = observed_first_result(twins.population_sys, twins.documents, cls,
                                                  seed, CacheUse::kDefault);
      if (!observed) continue;
      EXPECT_GE(twins.population_sys.manager->plan_cache()->stats().hits, 1u);
      NegotiationResult direct = twins.direct_sys.manager->negotiate(request);
      EXPECT_EQ(*observed, result_signature(direct)) << "seed " << seed << " (cache warm)";
      direct.commitment.release();
      ++compared;
    }

    // Variant 3: cache configured but bypassed per request.
    NegotiationConfig bypassed;
    bypassed.plan_cache = std::make_shared<NegotiationPlanCache>();
    {
      TwinSystems twins(seed, bypassed);
      const ClientClass cls = desktop_class(twins.population_sys.clients[0].node);
      const NegotiationRequest request =
          reconstruct_first_request(cls, seed, twins.documents);
      const auto observed = observed_first_result(twins.population_sys, twins.documents, cls,
                                                  seed, CacheUse::kBypass);
      if (!observed) continue;
      NegotiationResult direct = twins.direct_sys.manager->negotiate(request);
      EXPECT_EQ(*observed, result_signature(direct)) << "seed " << seed << " (cache bypassed)";
      direct.commitment.release();
      ++compared;
    }
  }
  // 70 seeds x 3 cache variants, minus the (practically nonexistent)
  // zero-arrival replicates.
  EXPECT_GE(compared, 200u);
}

}  // namespace
}  // namespace qosnp
