// Heap-allocation counts of the Step-5 walk, read from a counting global
// operator new that this test binary installs (counts, not timings, so the
// check is exact on any host).
//
// A walk over a stream-backed offer list keeps each consumed offer as a
// compact record in pooled vectors and answers an offer whose refused
// prefix it already met from its nogood memo. Such a replayed offer must
// cost no allocation of its own: a walk that replays N offers allocates
// O(log N) times, for pool growth, not O(N). The walk's refusal lines are
// built only when read, with one allocation each. A plan-cache hit that
// commits its plan's first offer spawns no offer stream.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/enumerate.hpp"
#include "core/qos_manager.hpp"
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
};

/// One Step-5 walk over a fresh stream-backed list of the wide document,
/// with server-a out of capacity: the first offer is refused at its video
/// component, and every later offer shares that refused prefix, so the
/// walk replays N - 1 refusals from its memo.
WalkCount congested_walk(int offers) {
  TestSystem sys;
  auto document = std::make_shared<const MultimediaDocument>(wide_document(offers));
  sys.farm.find("server-a")->degrade(0.9999);
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  const UserProfile profile = TestSystem::tolerant_profile();
  auto feasible = compatible_variants(document, sys.client, profile.mm);
  EXPECT_TRUE(feasible.ok());
  auto seed = make_offer_stream_seed(std::move(feasible.value()), profile.mm, profile.importance,
                                     CostModel{}, ClassificationPolicy{});

  OfferList list(document, seed, 100'000);
  WalkCount count;
  count.allocations = allocations_during([&] {
    CommitAttempt attempt = manager.commit_first(sys.client, list, profile.mm);
    count.attempts = attempt.stats.attempts;
    count.committed = attempt.ok();
    count.refusals = std::move(attempt.refusals);
  });
  return count;
}

TEST(StepFiveAllocations, ReplayedOffersAllocateOnlyForPoolGrowth) {
  const WalkCount small = congested_walk(1'000);
  const WalkCount large = congested_walk(4'000);
  ASSERT_FALSE(small.committed);
  ASSERT_FALSE(large.committed);
  // Every offer was examined once: one real refusal, the rest replayed.
  EXPECT_EQ(small.attempts, 1'000);
  EXPECT_EQ(large.attempts, 4'000);
  // Pool growth is logarithmic: four times the offers add two doublings to
  // each pooled vector, not 3,000 allocations.
  EXPECT_LT(small.allocations, 200u) << "1,000 replayed offers";
  EXPECT_LT(large.allocations, small.allocations + 40) << "4,000 replayed offers";
}

TEST(StepFiveAllocations, RefusalLinesAreBuiltOnlyWhenReadWithOneAllocationEach) {
  const WalkCount walk = congested_walk(1'000);
  ASSERT_EQ(walk.refusals.refused.size(), 1'000u);
  ASSERT_EQ(walk.refusals.refusals.size(), 1u);  // one real refusal, replayed 999 times
  std::vector<std::string> lines;
  const std::size_t allocations = allocations_during([&] { walk.refusals.render(lines); });
  ASSERT_EQ(lines.size(), 1'000u);
  EXPECT_EQ(lines[0].rfind("offer 0: ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[999].rfind("offer 999: ", 0), 0u) << lines[999];
  // The vector once, then one per line (each is longer than the small-string
  // buffer).
  EXPECT_EQ(allocations, lines.size() + 1);
}

// A plan-cache hit whose walk commits the first offer replays Steps 1-4 and
// reads that offer off the plan: it spawns no OfferStream. What is left is
// the key, the result and its offer list, the commitment's handles and the
// committer. Measured on this fixture: 47 allocations while every hit
// spawned a stream, 22 now.
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
  EXPECT_LE(allocations, 22u);
}

}  // namespace
}  // namespace qosnp
