// NegotiationPlanCache: the cross-request plan cache must be invisible in
// every result. The differential property suite runs twin systems — one
// manager cache-enabled, one cache-off — over 1000+ seeded (corpus, profile)
// cases including repeated requests (cache hits), document re-adds (a new
// document object under the same id) and a flapping-server fault plan, and
// asserts the two sides produce byte-identical NegotiationResults; two
// catalogs sharing one cache never alias. Plus the cache's own unit surface:
// keying, LRU eviction, stale drops, stats conservation, CacheUse semantics,
// the shared config-validation path and the metrics mirror.
#include "core/plan_cache.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/qos_manager.hpp"
#include "document/corpus.hpp"
#include "fault/fault_injector.hpp"
#include "result_signature.hpp"
#include "service/negotiation_service.hpp"
#include "session/session.hpp"
#include "test_system.hpp"
#include "util/rng.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;
using testing::result_signature;

/// Same randomised profile space as the offer-stream differential suite.
UserProfile random_profile(Rng& rng) {
  UserProfile p = TestSystem::tolerant_profile();
  static const VideoQoS video_points[] = {
      VideoQoS{ColorDepth::kBlackWhite, 10, 320}, VideoQoS{ColorDepth::kGray, 15, 320},
      VideoQoS{ColorDepth::kColor, 25, 640}, VideoQoS{ColorDepth::kSuperColor, 30, 1280}};
  p.mm.video->desired = video_points[1 + rng.below(3)];
  p.mm.video->worst = video_points[rng.below(4)];
  if (rng.chance(0.3)) {
    p.mm.audio.reset();
  } else {
    p.mm.audio->desired = AudioQoS{rng.chance(0.5) ? AudioQuality::kCD : AudioQuality::kRadio};
    p.mm.audio->worst = AudioQoS{rng.chance(0.8) ? AudioQuality::kTelephone : AudioQuality::kRadio};
  }
  if (rng.chance(0.3)) {
    p.mm.text.reset();
  } else if (rng.chance(0.3)) {
    p.mm.text->acceptable.clear();
  }
  p.mm.cost.max_cost = Money::cents(50 + 25 * static_cast<std::int64_t>(rng.below(160)));
  if (rng.chance(0.3)) p.importance.cost_per_dollar = rng.uniform(0.1, 2.0);
  if (rng.chance(0.25)) {
    p.importance.preferred_servers = {"server-b"};
    p.importance.server_bonus = rng.uniform(0.1, 1.0);
  }
  return p;
}

NegotiationConfig cached_config(EnumerationStrategy strategy,
                                std::shared_ptr<NegotiationPlanCache> cache) {
  NegotiationConfig config;
  config.enumeration.strategy = strategy;
  config.plan_cache = std::move(cache);
  return config;
}

/// A cache holding one plan, stored for document "article", `client` and
/// `profile` under the default enumeration config and cost model (no pinned
/// document), probed by lookups that differ from those in one value each.
struct KeyProbe {
  NegotiationPlanCache cache;
  std::shared_ptr<const NegotiationPlan> plan = std::make_shared<NegotiationPlan>();

  KeyProbe(const ClientMachine& client, const UserProfile& profile) {
    cache.store("article", client, profile, EnumerationConfig{}, CostModel{}, plan);
  }
  bool hits(const DocumentId& document, const ClientMachine& client, const UserProfile& profile,
            const EnumerationConfig& enumeration = {}, const CostModel& cost_model = {}) {
    return cache.lookup(document, client, profile, enumeration, cost_model, nullptr) == plan;
  }
};

// --- The tentpole guarantee: cached == uncached, everywhere. ---------------

TEST(PlanCacheDifferential, CachedResultsMatchUncachedAcrossSeededCorpora) {
  std::size_t compared = 0;
  std::uint64_t total_hits = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    TestSystem cached_sys;
    TestSystem plain_sys;
    CorpusConfig corpus;
    corpus.seed = seed;
    corpus.num_documents = 3;
    corpus.servers = {"server-a", "server-b"};
    for (auto& doc : generate_corpus(corpus)) {
      cached_sys.catalog.add(MultimediaDocument{doc});
      plain_sys.catalog.add(std::move(doc));
    }
    const EnumerationStrategy strategy =
        seed % 2 == 0 ? EnumerationStrategy::kEager : EnumerationStrategy::kBestFirst;
    auto cache = std::make_shared<NegotiationPlanCache>();
    QoSManager cached(cached_sys.catalog, cached_sys.farm, *cached_sys.transport, CostModel{},
                      cached_config(strategy, cache));
    QoSManager plain(plain_sys.catalog, plain_sys.farm, *plain_sys.transport, CostModel{},
                     cached_config(strategy, nullptr));
    Rng rng(seed * 2654435761ULL);
    // Keep every result (and so its commitment) alive for the whole seed:
    // farm and transport state then evolve identically on both sides.
    std::vector<NegotiationResult> keep_cached, keep_plain;
    for (const DocumentId& id : cached_sys.catalog.list()) {
      // The same (document, profile) pair is negotiated repeatedly: the
      // first request builds and stores the plan, later ones replay it while
      // Step 5 sees progressively fuller servers.
      const UserProfile repeat_profile = random_profile(rng);
      for (int rep = 0; rep < 7; ++rep) {
        const UserProfile profile = rep % 2 == 0 ? repeat_profile : random_profile(rng);
        if (rep == 5) {
          // Re-add mid-sequence: both catalogs store a new document object,
          // the cached side must drop its now-stale plan, and parity must
          // hold.
          auto doc = cached_sys.catalog.find(id);
          cached_sys.catalog.add(MultimediaDocument{*doc});
          plain_sys.catalog.add(MultimediaDocument{*doc});
        }
        NegotiationResult a =
            cached.negotiate(make_negotiation_request(cached_sys.client, id, profile));
        NegotiationResult b =
            plain.negotiate(make_negotiation_request(plain_sys.client, id, profile));
        EXPECT_EQ(result_signature(a), result_signature(b))
            << "seed " << seed << " doc " << id << " rep " << rep;
        ++compared;
        keep_cached.push_back(std::move(a));
        keep_plain.push_back(std::move(b));
      }
    }
    const PlanCacheStats stats = cache->stats();
    EXPECT_EQ(stats.lookups, stats.hits + stats.misses) << "seed " << seed;
    EXPECT_LE(stats.stale, stats.misses) << "seed " << seed;
    total_hits += stats.hits;
  }
  EXPECT_GE(compared, 1000u);
  EXPECT_GT(total_hits, 0u);  // the suite exercised real replays, not just misses
}

TEST(PlanCacheDifferential, ParityHoldsUnderFlappingServers) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TestSystem cached_sys;
    TestSystem plain_sys;
    FaultPlan plan;
    plan.seed = seed;
    plan.server_defaults.transient_failure_p = 0.35;  // flapping servers
    plan.per_server["server-b"] = FaultSpec{};
    plan.per_server["server-b"].outage_after_events = 10;
    plan.per_server["server-b"].outage_length_events = 20;
    FaultyServerFarm cached_farm(cached_sys.farm, plan);
    FaultyServerFarm plain_farm(plain_sys.farm, plan);

    auto cache = std::make_shared<NegotiationPlanCache>();
    QoSManager cached(cached_sys.catalog, cached_farm, *cached_sys.transport, CostModel{},
                      cached_config(EnumerationStrategy::kBestFirst, cache));
    QoSManager plain(plain_sys.catalog, plain_farm, *plain_sys.transport, CostModel{},
                     cached_config(EnumerationStrategy::kBestFirst, nullptr));
    Rng rng(seed);
    std::vector<NegotiationResult> keep_cached, keep_plain;
    const UserProfile repeat_profile = random_profile(rng);
    for (int rep = 0; rep < 12; ++rep) {
      const UserProfile profile = rep % 3 == 0 ? repeat_profile : random_profile(rng);
      NegotiationResult a =
          cached.negotiate(make_negotiation_request(cached_sys.client, "article", profile));
      NegotiationResult b =
          plain.negotiate(make_negotiation_request(plain_sys.client, "article", profile));
      EXPECT_EQ(result_signature(a), result_signature(b)) << "seed " << seed << " rep " << rep;
      ++compared;
      keep_cached.push_back(std::move(a));
      keep_plain.push_back(std::move(b));
    }
    // Identical request sequences must have drawn identical injected faults:
    // the cached side's Step 5 is the same walk, not a shortcut around it.
    EXPECT_EQ(cached_farm.stats().injected_refusals, plain_farm.stats().injected_refusals);
    EXPECT_EQ(cached_farm.stats().outage_refusals, plain_farm.stats().outage_refusals);
    EXPECT_GT(cache->stats().hits, 0u);
  }
  EXPECT_GE(compared, 96u);
}

// --- A hit starts from the plan's first offer. -----------------------------

/// Every offer `list` can reach, fetched to the end, as one text line each:
/// the record's key bit for bit and its variant pointers.
std::vector<std::string> drained_records(OfferList& list) {
  while (list.fetch_next()) {
  }
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const StreamedOffer o = list.streamed(i);
    std::ostringstream os;
    os << to_string(o.record.sns) << ' ' << std::hexfloat << o.record.oif << ' '
       << o.record.cost.as_micros() << ' ' << o.record.tolerated;
    for (const VariantMemo* m : o.row) os << ' ' << m->variant;
    lines.push_back(os.str());
  }
  return lines;
}

// The work a hit skips, counted rather than timed (E17 times it): under
// either strategy a hit's trace holds one plan-cache span saying hit=true
// and no Steps 1-4 span, and a hit committing offer 0 constructs no stream.
TEST(PlanCacheHead, AHitCommittingTheFirstOfferSpawnsNoStream) {
  for (const EnumerationStrategy strategy :
       {EnumerationStrategy::kBestFirst, EnumerationStrategy::kEager}) {
    SCOPED_TRACE(strategy == EnumerationStrategy::kEager ? "eager" : "best-first");
    TestSystem cached_sys;
    TestSystem plain_sys;
    QoSManager cached(cached_sys.catalog, cached_sys.farm, *cached_sys.transport, CostModel{},
                      cached_config(strategy, std::make_shared<NegotiationPlanCache>()));
    QoSManager plain(plain_sys.catalog, plain_sys.farm, *plain_sys.transport, CostModel{},
                     cached_config(strategy, nullptr));
    const UserProfile profile = TestSystem::tolerant_profile();
    std::vector<NegotiationResult> keep;
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      NegotiationTrace trace(rep + 1);
      const std::uint64_t streams_before = OfferStream::constructed();
      keep.push_back(cached.negotiate(make_negotiation_request(cached_sys.client, "article",
                                                               profile, TraceContext(&trace))));
      const std::uint64_t streams = OfferStream::constructed() - streams_before;
      keep.push_back(plain.negotiate(make_negotiation_request(plain_sys.client, "article",
                                                              profile)));
      const NegotiationResult& a = keep[keep.size() - 2];
      const NegotiationResult& b = keep.back();
      EXPECT_EQ(result_signature(a), result_signature(b)) << "rep " << rep;
      EXPECT_EQ(a.offers.known_count(), b.offers.known_count()) << "rep " << rep;
      ASSERT_EQ(a.committed_index, 0u);

      const bool hit = rep == 1;
      ASSERT_EQ(trace.count(Stage::kPlanCache), 1u) << "rep " << rep;
      EXPECT_EQ(trace.find(Stage::kPlanCache)->attr("hit"), hit ? "true" : "false");
      for (const Stage stage : {Stage::kLocalCheck, Stage::kCompatibility, Stage::kEnumeration}) {
        EXPECT_EQ(trace.count(stage), hit ? 0u : 1u) << to_string(stage) << " rep " << rep;
      }
      const bool miss_streams = !hit && strategy == EnumerationStrategy::kBestFirst;
      EXPECT_EQ(streams, miss_streams ? 1u : 0u) << "rep " << rep;
    }
    EXPECT_EQ(cached.plan_cache()->stats().hits, 1u);
    // The hit read its first offer off the plan.
    EXPECT_EQ(keep[2].offers.stream(), nullptr);
    if (strategy == EnumerationStrategy::kBestFirst) {
      EXPECT_NE(keep[0].offers.stream(), nullptr);  // the miss walked a stream
      EXPECT_EQ(keep[2].offers.size(), 1u);
    }
  }
}

TEST(PlanCacheHead, HitsReadingPastTheFirstOfferMatchAFreshStream) {
  // Small servers and every result kept alive: repeated requests for one
  // (document, profile) fill the farm, so later hits walk past the plan's
  // first offer and spawn their stream.
  std::size_t hits_past_head = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    TestSystem sys(50'000'000, 200'000'000, 100'000'000, /*server_sessions=*/6);
    CorpusConfig corpus;
    corpus.seed = seed;
    corpus.num_documents = 2;
    corpus.servers = {"server-a", "server-b"};
    for (auto& doc : generate_corpus(corpus)) sys.catalog.add(std::move(doc));
    NegotiationConfig config = cached_config(EnumerationStrategy::kBestFirst,
                                             std::make_shared<NegotiationPlanCache>());
    config.enumeration.max_offers = 1 + seed % 40;  // some lists are capped
    QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{}, config);
    Rng rng(seed);
    std::vector<NegotiationResult> keep;
    for (const DocumentId& id : sys.catalog.list()) {
      const UserProfile profile = random_profile(rng);
      const auto document = sys.catalog.find(id);
      auto feasible = compatible_variants(document, sys.client, profile.mm);
      if (!feasible.ok()) continue;
      const auto seed_of_doc =
          make_offer_stream_seed(std::move(feasible.value()), profile.mm, profile.importance,
                                 CostModel{});
      OfferList fresh(document, seed_of_doc, config.enumeration.max_offers);
      const std::size_t known = fresh.known_count();
      const bool truncated = fresh.truncated;
      const std::vector<std::string> expected = drained_records(fresh);
      for (int rep = 0; rep < 8; ++rep) {
        NegotiationResult r = manager.negotiate(make_negotiation_request(sys.client, id, profile));
        EXPECT_EQ(r.offers.known_count(), known) << "seed " << seed << " rep " << rep;
        EXPECT_EQ(r.offers.truncated, truncated) << "seed " << seed << " rep " << rep;
        if (rep > 0 && r.offers.size() > 1) ++hits_past_head;
        OfferList offers = r.offers;  // shares the prefix and the stream
        EXPECT_EQ(drained_records(offers), expected) << "seed " << seed << " rep " << rep;
        keep.push_back(std::move(r));
      }
    }
    const PlanCacheStats stats = manager.plan_cache()->stats();
    EXPECT_EQ(stats.lookups, stats.hits + stats.misses) << "seed " << seed;
  }
  EXPECT_GT(hits_past_head, 10u);
}

TEST(PlanCacheHead, AdaptingAHitMatchesAnUncachedSession) {
  TestSystem cached_sys;
  TestSystem plain_sys;
  QoSManager cached(cached_sys.catalog, cached_sys.farm, *cached_sys.transport, CostModel{},
                    cached_config(EnumerationStrategy::kBestFirst,
                                  std::make_shared<NegotiationPlanCache>()));
  QoSManager plain(plain_sys.catalog, plain_sys.farm, *plain_sys.transport, CostModel{},
                   cached_config(EnumerationStrategy::kBestFirst, nullptr));
  const UserProfile profile = TestSystem::tolerant_profile();
  // The first request of each side is released before the second, which
  // is a hit on the cached side.
  (void)cached.negotiate(make_negotiation_request(cached_sys.client, "article", profile));
  (void)plain.negotiate(make_negotiation_request(plain_sys.client, "article", profile));
  NegotiationResult a =
      cached.negotiate(make_negotiation_request(cached_sys.client, "article", profile));
  NegotiationResult b =
      plain.negotiate(make_negotiation_request(plain_sys.client, "article", profile));
  ASSERT_EQ(cached.plan_cache()->stats().hits, 1u);
  ASSERT_EQ(a.offers.stream(), nullptr);
  ASSERT_EQ(result_signature(a), result_signature(b));

  const AdaptationPolicy policy{.make_before_break = false, .exclude_all_tried = true};
  SessionManager cached_sessions(cached, policy);
  SessionManager plain_sessions(plain, policy);
  auto ca = cached_sessions.open(cached_sys.client, profile, std::move(a), 0.0);
  auto pa = plain_sessions.open(plain_sys.client, profile, std::move(b), 0.0);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(cached_sessions.confirm(ca.value(), 1.0).ok());
  ASSERT_TRUE(plain_sessions.confirm(pa.value(), 1.0).ok());
  // March both down the whole ladder: the cached session's first adaptation
  // spawns its stream past the plan's first offer.
  std::size_t moves = 0;
  for (int step = 0;; ++step) {
    ASSERT_LT(step, 64) << "ladder march did not terminate";
    const TransitionResult rc = cached_sessions.adapt(ca.value(), 5.0 + step);
    const TransitionResult rp = plain_sessions.adapt(pa.value(), 5.0 + step);
    EXPECT_EQ(rc.moved, rp.moved) << "step " << step;
    EXPECT_EQ(rc.new_offer, rp.new_offer) << "step " << step;
    EXPECT_EQ(rc.errors(), rp.errors()) << "step " << step;
    if (!rc.moved || !rp.moved) break;
    ++moves;
  }
  EXPECT_GT(moves, 2u);
  EXPECT_EQ(cached_sessions.snapshot(ca.value())->state, SessionState::kAborted);
  EXPECT_EQ(plain_sessions.snapshot(pa.value())->state, SessionState::kAborted);
}

TEST(PlanCacheHead, ClientsDifferingOnlyByNameAndNodeShareOnePlan) {
  TestSystem cached_sys;
  TestSystem plain_sys;
  for (TestSystem* sys : {&cached_sys, &plain_sys}) {
    sys->transport = std::make_unique<TransportService>(
        Topology::dumbbell(2, 2, 50'000'000, 200'000'000));
  }
  auto cache = std::make_shared<NegotiationPlanCache>();
  QoSManager cached(cached_sys.catalog, cached_sys.farm, *cached_sys.transport, CostModel{},
                    cached_config(EnumerationStrategy::kBestFirst, cache));
  QoSManager plain(plain_sys.catalog, plain_sys.farm, *plain_sys.transport, CostModel{},
                   cached_config(EnumerationStrategy::kBestFirst, nullptr));
  ClientMachine other = cached_sys.client;
  other.name = "client-1";
  other.node = "client-1";
  const UserProfile profile = TestSystem::tolerant_profile();
  EXPECT_TRUE(KeyProbe(cached_sys.client, profile).hits("article", other, profile));
  std::vector<NegotiationResult> keep;
  for (const ClientMachine* client : {&cached_sys.client, &other}) {
    keep.push_back(cached.negotiate(make_negotiation_request(*client, "article", profile)));
    keep.push_back(plain.negotiate(make_negotiation_request(*client, "article", profile)));
    const NegotiationResult& a = keep[keep.size() - 2];
    const NegotiationResult& b = keep.back();
    EXPECT_EQ(result_signature(a), result_signature(b)) << client->name;
    EXPECT_EQ(a.offers.known_count(), b.offers.known_count()) << client->name;
    ASSERT_TRUE(a.has_commitment()) << client->name;
    EXPECT_EQ(a.commitment.flow_count(), b.commitment.flow_count()) << client->name;
  }
  EXPECT_EQ(cached_sys.transport->total_reserved_bps(), plain_sys.transport->total_reserved_bps());
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache->size(), 1u);
}

TEST(PlanCacheHead, StepTwoTextNamesTheAskingClient) {
  TestSystem cached_sys;
  TestSystem plain_sys;
  auto cache = std::make_shared<NegotiationPlanCache>();
  QoSManager cached(cached_sys.catalog, cached_sys.farm, *cached_sys.transport, CostModel{},
                    cached_config(EnumerationStrategy::kBestFirst, cache));
  QoSManager plain(plain_sys.catalog, plain_sys.farm, *plain_sys.transport, CostModel{},
                   cached_config(EnumerationStrategy::kBestFirst, nullptr));
  // No video decoder: Step 2 finds no decodable variant of the video.
  ClientMachine first = cached_sys.client;
  first.decoders = {CodingFormat::kPCM, CodingFormat::kPlainText};
  ClientMachine second = first;
  second.name = "client-1";
  const UserProfile profile = TestSystem::tolerant_profile();
  for (const ClientMachine* client : {&first, &second, &first}) {
    const NegotiationResult a =
        cached.negotiate(make_negotiation_request(*client, "article", profile));
    const NegotiationResult b =
        plain.negotiate(make_negotiation_request(*client, "article", profile));
    EXPECT_EQ(result_signature(a), result_signature(b)) << client->name;
    EXPECT_EQ(a.verdict, NegotiationStatus::kFailedWithoutOffer);
    ASSERT_EQ(a.problems.size(), 1u);
    EXPECT_NE(a.problems[0].find("client '" + client->name + "'"), std::string::npos)
        << a.problems[0];
  }
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.stores, 0u);
}

// --- Cache-unit surface. ---------------------------------------------------

TEST(PlanCache, HitsReplayStaleDropsAndConservation) {
  TestSystem sys;
  auto cache = std::make_shared<NegotiationPlanCache>();
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{},
                     cached_config(EnumerationStrategy::kBestFirst, cache));
  const UserProfile profile = TestSystem::tolerant_profile();

  std::vector<NegotiationResult> keep;
  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));
  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));
  PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(cache->size(), 1u);

  // Re-adding the document stores a new object: the cached plan is stale.
  sys.catalog.add(TestSystem::news_article());
  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));
  stats = cache->stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.stale, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  for (NegotiationResult& r : keep) {
    EXPECT_EQ(r.verdict, NegotiationStatus::kSucceeded);
  }
}

TEST(PlanCache, BypassSkipsAndRefreshOverwrites) {
  TestSystem sys;
  auto cache = std::make_shared<NegotiationPlanCache>();
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{},
                     cached_config(EnumerationStrategy::kBestFirst, cache));
  const UserProfile profile = TestSystem::tolerant_profile();

  NegotiationRequest bypass = make_negotiation_request(sys.client, "article", profile);
  bypass.cache = CacheUse::kBypass;
  std::vector<NegotiationResult> keep;
  keep.push_back(manager.negotiate(bypass));
  EXPECT_EQ(cache->stats().lookups, 0u);
  EXPECT_EQ(cache->size(), 0u);

  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));
  EXPECT_EQ(cache->stats().stores, 1u);

  NegotiationRequest refresh = make_negotiation_request(sys.client, "article", profile);
  refresh.cache = CacheUse::kRefresh;
  keep.push_back(manager.negotiate(refresh));
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, 1u);  // refresh performs no lookup
  EXPECT_EQ(stats.stores, 2u);   // but recomputes and overwrites
  EXPECT_EQ(cache->size(), 1u);
}

TEST(PlanCache, LruEvictsLeastRecentlyUsedWithinCapacity) {
  // Two plans per shard, and three document ids that hash to the same shard.
  NegotiationPlanCache cache(CachePolicy{/*capacity=*/2 * kPlanCacheShards});
  const ClientMachine client;
  const UserProfile profile = TestSystem::tolerant_profile();
  std::vector<DocumentId> ids;
  for (int i = 0; ids.size() < 3; ++i) {
    const DocumentId id = std::to_string(i);
    if (plan_hash(id, client, profile.mm, EnumerationConfig{}) % kPlanCacheShards == 0) {
      ids.push_back(id);
    }
  }
  const DocumentId &a = ids[0], &b = ids[1], &c = ids[2];
  auto plan = std::make_shared<NegotiationPlan>();
  const auto store = [&](const DocumentId& id) {
    cache.store(id, client, profile, EnumerationConfig{}, CostModel{}, plan);
  };
  const auto lookup = [&](const DocumentId& id) {
    return cache.lookup(id, client, profile, EnumerationConfig{}, CostModel{}, nullptr);
  };
  store(a);
  store(b);
  EXPECT_NE(lookup(a), nullptr);  // a is now most recent
  store(c);                       // evicts b
  EXPECT_EQ(lookup(b), nullptr);
  EXPECT_NE(lookup(a), nullptr);
  EXPECT_NE(lookup(c), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);  // counters survive clear()
}

TEST(PlanCache, KeyCoversInputsButNotProfileName) {
  TestSystem sys;
  UserProfile profile = TestSystem::tolerant_profile();
  profile.importance.preferred_servers = {"server-a"};
  profile.importance.server_bonus = 0.5;
  KeyProbe base(sys.client, profile);
  EXPECT_TRUE(base.hits("article", sys.client, profile));

  UserProfile renamed = profile;
  renamed.name = "completely-different-name";
  EXPECT_TRUE(base.hits("article", sys.client, renamed));

  UserProfile cheaper = profile;
  cheaper.mm.cost.max_cost = Money::cents(1);
  EXPECT_FALSE(base.hits("article", sys.client, cheaper));

  ClientMachine smaller = sys.client;
  smaller.screen = ScreenSpec{640, 480, ColorDepth::kGray};
  EXPECT_FALSE(base.hits("article", smaller, profile));

  EXPECT_FALSE(base.hits("other-article", sys.client, profile));

  EnumerationConfig fewer_offers;
  fewer_offers.max_offers = 7;
  EXPECT_FALSE(base.hits("article", sys.client, profile, fewer_offers));
  EnumerationConfig eager;
  eager.strategy = EnumerationStrategy::kEager;
  EXPECT_FALSE(base.hits("article", sys.client, profile, eager));
  const CostModel full_price(CostTable::standard_network(), CostTable::standard_server(), 1.0);
  EXPECT_FALSE(base.hits("article", sys.client, profile, EnumerationConfig{}, full_price));

  // One importance input apart never shares a plan: one media weight, one
  // frame-rate anchor, one preferred server.
  UserProfile audio_first = profile;
  audio_first.importance.media_weight[static_cast<std::size_t>(MediaKind::kAudio)] = 4.0;
  UserProfile steeper = profile;
  ASSERT_FALSE(steeper.importance.frame_rate.empty());
  const auto [rate, weight] = steeper.importance.frame_rate.anchors().back();
  steeper.importance.frame_rate.set_anchor(rate, weight * 4.0 + 1.0);
  UserProfile prefers_b = profile;
  prefers_b.importance.preferred_servers = {"server-b"};
  for (const UserProfile* variant : {&audio_first, &steeper, &prefers_b}) {
    EXPECT_FALSE(base.hits("article", sys.client, *variant));

    // Through one cached manager the two requests are two misses, and each
    // result equals its uncached twin's.
    TestSystem cached_sys;
    TestSystem plain_sys;
    auto cache = std::make_shared<NegotiationPlanCache>();
    QoSManager cached(cached_sys.catalog, cached_sys.farm, *cached_sys.transport, CostModel{},
                      cached_config(EnumerationStrategy::kBestFirst, cache));
    QoSManager plain(plain_sys.catalog, plain_sys.farm, *plain_sys.transport, CostModel{},
                     cached_config(EnumerationStrategy::kBestFirst, nullptr));
    std::vector<NegotiationResult> keep;
    const UserProfile* const requests[] = {&profile, variant};
    for (const UserProfile* p : requests) {
      keep.push_back(cached.negotiate(make_negotiation_request(cached_sys.client, "article", *p)));
      keep.push_back(plain.negotiate(make_negotiation_request(plain_sys.client, "article", *p)));
      EXPECT_EQ(result_signature(keep[keep.size() - 2]), result_signature(keep.back()));
    }
    EXPECT_EQ(cache->stats().misses, 2u);
    EXPECT_EQ(cache->stats().hits, 0u);
  }

  // The key names the document by id only; its content is checked at
  // lookup. A plan stored for a trimmed "article" is never returned for the
  // original, and is returned for the trimmed object it pins.
  const auto original = std::make_shared<const MultimediaDocument>(TestSystem::news_article());
  MultimediaDocument trimmed_doc = *original;
  trimmed_doc.monomedia.pop_back();
  const auto trimmed = std::make_shared<const MultimediaDocument>(std::move(trimmed_doc));
  auto trimmed_plan = std::make_shared<NegotiationPlan>();
  trimmed_plan->document = trimmed;
  NegotiationPlanCache cache;
  const auto store = [&] {
    cache.store("article", sys.client, profile, EnumerationConfig{}, CostModel{}, trimmed_plan);
  };
  const auto lookup = [&](const MultimediaDocument* current) {
    return cache.lookup("article", sys.client, profile, EnumerationConfig{}, CostModel{},
                        current);
  };
  store();
  EXPECT_EQ(lookup(original.get()), nullptr);
  EXPECT_EQ(cache.stats().stale, 1u);
  store();
  EXPECT_EQ(lookup(trimmed.get()), trimmed_plan);
}

TEST(PlanCache, ValuesOutsideTheHashAreToldApartByEquality) {
  // Two profiles that differ only in values the hash leaves out share a
  // hash: each misses once, then hits its own plan.
  TestSystem sys;
  const UserProfile first = TestSystem::tolerant_profile();
  UserProfile second = first;
  second.importance.cost_per_dollar = first.importance.cost_per_dollar + 1.0;
  second.mm.time.delivery_time_s = first.mm.time.delivery_time_s * 2.0;
  ASSERT_EQ(plan_hash("article", sys.client, first.mm, EnumerationConfig{}),
            plan_hash("article", sys.client, second.mm, EnumerationConfig{}));

  NegotiationPlanCache cache;
  const auto lookup = [&](const UserProfile& p) {
    return cache.lookup("article", sys.client, p, EnumerationConfig{}, CostModel{}, nullptr);
  };
  const auto store = [&](const UserProfile& p, std::shared_ptr<const NegotiationPlan> plan) {
    cache.store("article", sys.client, p, EnumerationConfig{}, CostModel{}, std::move(plan));
  };
  const auto first_plan = std::make_shared<const NegotiationPlan>();
  const auto second_plan = std::make_shared<const NegotiationPlan>();
  EXPECT_EQ(lookup(first), nullptr);
  store(first, first_plan);
  EXPECT_EQ(lookup(second), nullptr);
  store(second, second_plan);
  EXPECT_EQ(lookup(first), first_plan);
  EXPECT_EQ(lookup(second), second_plan);
  EXPECT_EQ(cache.size(), 2u);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);

  // Equality is ==, so a weight of -0 is the weight +0: both rank every
  // offer alike, and they share a plan.
  UserProfile negative_zero = first;
  negative_zero.importance.cost_per_dollar = 0.0;
  store(negative_zero, first_plan);
  negative_zero.importance.cost_per_dollar = -0.0;
  EXPECT_EQ(lookup(negative_zero), first_plan);

  // Through a manager the two profiles are two misses and then two hits,
  // each result equal to its uncached twin's.
  TestSystem cached_sys;
  TestSystem plain_sys;
  auto shared = std::make_shared<NegotiationPlanCache>();
  QoSManager cached(cached_sys.catalog, cached_sys.farm, *cached_sys.transport, CostModel{},
                    cached_config(EnumerationStrategy::kBestFirst, shared));
  QoSManager plain(plain_sys.catalog, plain_sys.farm, *plain_sys.transport, CostModel{},
                   cached_config(EnumerationStrategy::kBestFirst, nullptr));
  const UserProfile* const requests[] = {&first, &second, &first, &second};
  for (const UserProfile* p : requests) {
    const NegotiationResult a =
        cached.negotiate(make_negotiation_request(cached_sys.client, "article", *p));
    const NegotiationResult b =
        plain.negotiate(make_negotiation_request(plain_sys.client, "article", *p));
    EXPECT_EQ(result_signature(a), result_signature(b));
  }
  stats = shared->stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(shared->size(), 2u);
}

TEST(PlanCache, CatalogsSharingOneCacheNeverAlias) {
  // Two catalogs both hold "article"; the second's lacks its video, which
  // every profile here asks for. Their managers share one cache and their
  // requests interleave under equal keys.
  MultimediaDocument trimmed = TestSystem::news_article();
  trimmed.monomedia.erase(trimmed.monomedia.begin());
  TestSystem full_sys, full_plain_sys, trimmed_sys, trimmed_plain_sys;
  for (TestSystem* sys : {&trimmed_sys, &trimmed_plain_sys}) {
    ASSERT_TRUE(sys->catalog.add(MultimediaDocument{trimmed}).empty());
  }
  auto cache = std::make_shared<NegotiationPlanCache>();
  QoSManager full(full_sys.catalog, full_sys.farm, *full_sys.transport, CostModel{},
                  cached_config(EnumerationStrategy::kBestFirst, cache));
  QoSManager full_plain(full_plain_sys.catalog, full_plain_sys.farm, *full_plain_sys.transport,
                        CostModel{}, cached_config(EnumerationStrategy::kBestFirst, nullptr));
  QoSManager cut(trimmed_sys.catalog, trimmed_sys.farm, *trimmed_sys.transport, CostModel{},
                 cached_config(EnumerationStrategy::kBestFirst, cache));
  QoSManager cut_plain(trimmed_plain_sys.catalog, trimmed_plain_sys.farm,
                       *trimmed_plain_sys.transport, CostModel{},
                       cached_config(EnumerationStrategy::kBestFirst, nullptr));

  Rng rng(7);
  const UserProfile repeat_profile = TestSystem::tolerant_profile();
  std::vector<NegotiationResult> keep;
  for (int rep = 0; rep < 12; ++rep) {
    const UserProfile profile = rep % 3 == 2 ? random_profile(rng) : repeat_profile;
    // Some rounds ask the same catalog twice in a row, so real hits occur.
    for (int turn = 0; turn < (rep % 4 == 0 ? 2 : 1); ++turn) {
      NegotiationResult a = full.negotiate(make_negotiation_request(full_sys.client, "article",
                                                                    profile));
      NegotiationResult b = full_plain.negotiate(
          make_negotiation_request(full_plain_sys.client, "article", profile));
      EXPECT_EQ(result_signature(a), result_signature(b)) << "full rep " << rep;
      keep.push_back(std::move(a));
      keep.push_back(std::move(b));
    }
    NegotiationResult c =
        cut.negotiate(make_negotiation_request(trimmed_sys.client, "article", profile));
    NegotiationResult d = cut_plain.negotiate(
        make_negotiation_request(trimmed_plain_sys.client, "article", profile));
    EXPECT_EQ(result_signature(c), result_signature(d)) << "trimmed rep " << rep;
    EXPECT_NE(result_signature(c), result_signature(keep.back())) << "rep " << rep;
    keep.push_back(std::move(c));
    keep.push_back(std::move(d));
  }
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_LE(stats.stale, stats.misses);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.stale, 0u);
}

TEST(PlanCache, ValidationSharesOnePathWithServiceConfig) {
  EXPECT_THROW((void)CachePolicy::validated(CachePolicy{0}), std::invalid_argument);
  EXPECT_THROW((void)NegotiationPlanCache(CachePolicy{0}), std::invalid_argument);
  const CachePolicy ok = CachePolicy::validated(CachePolicy{64});
  EXPECT_EQ(ok.capacity, 64u);

  ServiceConfig bad_workers;
  bad_workers.workers = 0;
  EXPECT_THROW((void)ServiceConfig::validated(bad_workers), std::invalid_argument);
  ServiceConfig bad_deadline;
  bad_deadline.deadline_ms = -1.0;
  try {
    (void)ServiceConfig::validated(bad_deadline);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "ServiceConfig: deadline_ms must not be negative");
  }
}

TEST(PlanCache, BindMetricsMirrorsCountersIntoRegistry) {
  TestSystem sys;
  auto cache = std::make_shared<NegotiationPlanCache>();
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{},
                     cached_config(EnumerationStrategy::kBestFirst, cache));
  const UserProfile profile = TestSystem::tolerant_profile();

  // Pre-bind traffic must be carried over at bind time (catch-up add).
  std::vector<NegotiationResult> keep;
  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));

  MetricsRegistry registry;
  cache->bind_metrics(registry);
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_misses"), 1u);
  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_hits"), 1u);
  cache->bind_metrics(registry);  // re-bind of the same registry: no double count
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_hits"), 1u);
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_misses"), cache->stats().misses);
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_stale"), cache->stats().stale);
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_evictions"), cache->stats().evictions);
}

}  // namespace
}  // namespace qosnp
