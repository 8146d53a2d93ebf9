// Heap-allocation counts of the Step-5 walk, read from a counting global
// operator new that this test binary installs (counts, not timings, so the
// check is exact on any host).
//
// A walk over a stream-backed offer list keeps each consumed offer as a
// compact record in pooled vectors. Once it has learned a nogood (a refused
// prefix), it continues on a private fork of the list's stream that skips
// the prefix's whole sub-space without scoring it, and a failed walk counts
// the offers it skipped instead of visiting them. So a failed walk's
// allocations do not grow with the number of offers its nogoods refuse, and
// it scores fewer stream states than a walk that visits every offer. The
// walk's refusal lines are built only when read, with one allocation each.
// A walk that commits at its first try builds only its list's stream, and a
// plan-cache hit that commits its plan's first offer builds none; the hit's
// lookup allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/enumerate.hpp"
#include "core/qos_manager.hpp"
#include "obs/trace.hpp"
#include "test_system.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qosnp {
namespace {

using testing::TestSystem;

/// Allocations made while `fn` runs.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

/// A document of one video variant on server-a and `audio_variants` audio
/// variants on server-b: `audio_variants` offers, all sharing their first
/// component.
MultimediaDocument wide_document(int audio_variants) {
  MultimediaDocument doc;
  doc.id = "wide";
  doc.copyright_cost = Money::cents(10);
  const double duration = 60.0;
  Monomedia video;
  video.id = "wide/video";
  video.kind = MediaKind::kVideo;
  video.duration_s = duration;
  video.variants = {make_video_variant("wide/video/only", VideoQoS{ColorDepth::kColor, 25, 640},
                                       CodingFormat::kMPEG1, duration, "server-a")};
  doc.monomedia.push_back(std::move(video));
  Monomedia audio;
  audio.id = "wide/audio";
  audio.kind = MediaKind::kAudio;
  audio.duration_s = duration;
  for (int k = 0; k < audio_variants; ++k) {
    audio.variants.push_back(make_audio_variant("wide/audio/" + std::to_string(k),
                                                AudioQuality::kTelephone, CodingFormat::kADPCM,
                                                duration, "server-b"));
  }
  doc.monomedia.push_back(std::move(audio));
  return doc;
}

struct WalkCount {
  std::size_t allocations = 0;
  int attempts = 0;
  bool committed = true;
  RefusalLog refusals;
  std::size_t consumed = 0;        ///< offers the list holds after the walk
  std::size_t shared_states = 0;   ///< states its list's stream scored
  std::size_t pruned_states = 0;   ///< states the walk's fork scored
  std::size_t oracle_states = 0;   ///< states a stream yielding every offer scores
};

/// One Step-5 walk over a fresh stream-backed list of the wide document,
/// with server-a out of capacity: the first offer is refused at its video
/// component, and every later offer shares that refused prefix, so the
/// walk's one nogood refuses the N - 1 others.
WalkCount congested_walk(int offers) {
  TestSystem sys;
  auto document = std::make_shared<const MultimediaDocument>(wide_document(offers));
  sys.farm.find("server-a")->degrade(0.9999);
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  const UserProfile profile = TestSystem::tolerant_profile();
  auto feasible = compatible_variants(document, sys.client, profile.mm);
  EXPECT_TRUE(feasible.ok());
  auto seed = make_offer_stream_seed(std::move(feasible.value()), profile.mm, profile.importance,
                                     CostModel{});

  OfferList list(document, seed, 100'000);
  NegotiationTrace trace(1);
  WalkCount count;
  count.allocations = allocations_during([&] {
    CommitAttempt attempt = manager.commit_first(sys.client, list, profile.mm);
    count.attempts = attempt.stats.attempts;
    count.committed = attempt.ok();
    count.refusals = std::move(attempt.refusals);
  });
  // The same walk, traced, over a fresh list: what its streams scored.
  OfferList traced(document, seed, 100'000);
  manager.commit_first(sys.client, traced, profile.mm, {}, TraceContext(&trace));
  count.consumed = traced.size();
  count.shared_states = traced.stream() ? traced.stream()->states_generated() : 0;
  const Span* walk = trace.find(Stage::kCommitWalk);
  EXPECT_NE(walk, nullptr);
  if (walk != nullptr && walk->has_attr("pruned_states")) {
    count.pruned_states = std::stoul(std::string(walk->attr("pruned_states")));
  }
  OfferStream every(seed, 100'000);
  while (every.next()) {
  }
  count.oracle_states = every.states_generated();
  return count;
}

TEST(StepFiveAllocations, FailedWalkAllocationsDoNotGrowWithPrunedOffers) {
  const WalkCount small = congested_walk(1'000);
  const WalkCount large = congested_walk(4'000);
  ASSERT_FALSE(small.committed);
  ASSERT_FALSE(large.committed);
  // Every offer is accounted once: one real refusal, the rest refused by
  // its nogood without a commit.
  EXPECT_EQ(small.attempts, 1'000);
  EXPECT_EQ(large.attempts, 4'000);
  ASSERT_EQ(small.refusals.entries.size(), 1u);
  EXPECT_EQ(small.refusals.entries[0].refused, 999u);
  EXPECT_EQ(large.refusals.entries[0].refused, 3'999u);
  // Four times the pruned sub-space costs not one allocation more.
  EXPECT_LT(small.allocations, 100u) << "999 pruned offers";
  EXPECT_LE(large.allocations, small.allocations) << "3,999 pruned offers";
}

TEST(StepFiveAllocations, RefusalLinesAreBuiltOnlyWhenReadWithOneAllocationEach) {
  const WalkCount walk = congested_walk(1'000);
  ASSERT_EQ(walk.refusals.entries.size(), 1u);  // one real refusal, one nogood
  ASSERT_EQ(walk.refusals.entries[0].refused, 999u);
  std::vector<std::string> lines;
  const std::size_t allocations = allocations_during([&] { walk.refusals.render(lines); });
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("offer wide/video/only|wide/audio/", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1], "prefix wide/video/only: 999 more offers refused");
  // The vector once, then one per line (each is longer than the small-string
  // buffer).
  EXPECT_EQ(allocations, lines.size() + 1);
}

// The pruned walk stops at the consumed prefix and scores almost nothing
// past it; a walk visiting every offer scores a state per offer.
TEST(StepFiveStreamWork, PrunedWalkScoresFewerStatesThanAWalkOverEveryOffer) {
  const WalkCount walk = congested_walk(1'000);
  ASSERT_FALSE(walk.committed);
  EXPECT_EQ(walk.consumed, 1u);
  EXPECT_GE(walk.oracle_states, 1'000u);
  EXPECT_LT(walk.shared_states + walk.pruned_states, walk.oracle_states);
  EXPECT_LE(walk.shared_states + walk.pruned_states, 4u);
}

// A walk that commits at its first real try learns no nogood: it builds its
// list's stream and no fork (the plan-cache miss path). A cache hit that
// commits its plan's first offer builds no stream at all.
TEST(StepFiveStreamWork, FirstTryCommitBuildsOneStreamAndACacheHitNone) {
  TestSystem sys;
  NegotiationConfig config;
  config.plan_cache = std::make_shared<NegotiationPlanCache>();
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{}, std::move(config));
  const NegotiationRequest request =
      make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile());
  const std::uint64_t before_miss = OfferStream::constructed();
  const NegotiationResult miss = manager.negotiate(request);
  ASSERT_EQ(miss.committed_index, 0u);
  EXPECT_EQ(OfferStream::constructed() - before_miss, 1u);

  const std::uint64_t before_hit = OfferStream::constructed();
  const NegotiationResult hit = manager.negotiate(request);
  ASSERT_EQ(manager.plan_cache()->stats().hits, 1u);
  ASSERT_EQ(hit.committed_index, 0u);
  EXPECT_EQ(OfferStream::constructed() - before_hit, 0u);
}

// A plan-cache lookup compares the request's own values with the stored
// ones in place: a hit builds no key and allocates nothing.
TEST(CacheHitAllocations, AHitsLookupAllocatesNothing) {
  TestSystem sys;
  NegotiationConfig config;
  config.plan_cache = std::make_shared<NegotiationPlanCache>();
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{}, std::move(config));
  const NegotiationRequest request =
      make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile());
  const NegotiationResult miss = manager.negotiate(request);
  ASSERT_TRUE(miss.has_commitment());
  const std::shared_ptr<const MultimediaDocument> document = sys.catalog.find("article");

  std::shared_ptr<const NegotiationPlan> plan;
  const std::size_t allocations = allocations_during([&] {
    plan = manager.plan_cache()->lookup(request.document, request.client, request.profile,
                                        manager.config().enumeration, manager.cost_model(),
                                        document.get());
  });
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(manager.plan_cache()->stats().hits, 1u);
  EXPECT_EQ(allocations, 0u);
}

// A plan-cache hit whose walk commits the first offer replays Steps 1-4 and
// reads that offer off the plan: it spawns no OfferStream, and its lookup
// builds no key. What is left is the result and its offer list, the
// commitment's handles and the committer: 21 allocations on this fixture.
TEST(CacheHitAllocations, AHitCommittingTheFirstOfferBuildsNoStream) {
  TestSystem sys;
  NegotiationConfig config;
  config.plan_cache = std::make_shared<NegotiationPlanCache>();
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{}, std::move(config));
  const NegotiationRequest request =
      make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile());
  const NegotiationResult miss = manager.negotiate(request);
  ASSERT_EQ(miss.committed_index, 0u);

  NegotiationResult hit;
  const std::size_t allocations = allocations_during([&] { hit = manager.negotiate(request); });
  ASSERT_EQ(manager.plan_cache()->stats().hits, 1u);
  ASSERT_EQ(hit.committed_index, 0u);
  EXPECT_EQ(hit.offers.stream(), nullptr);
  EXPECT_LE(allocations, 21u);
}

}  // namespace
}  // namespace qosnp
