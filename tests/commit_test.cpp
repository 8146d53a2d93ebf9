#include "core/commit.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/classify.hpp"
#include "core/enumerate.hpp"
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

std::int64_t total_server_reserved(TestSystem& sys) {
  std::int64_t total = 0;
  for (const auto& id : sys.farm.list()) total += sys.farm.find(id)->usage().reserved_bps;
  return total;
}

TEST(Commit, ReservesOneStreamAndFlowPerComponent) {
  TestSystem sys;
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  ResourceCommitter committer(sys.farm, *sys.transport);
  auto commitment = committer.commit(sys.client, list.eager[0]);
  ASSERT_TRUE(commitment.ok()) << commitment.error();
  EXPECT_EQ(commitment.value().stream_count(), 3u);
  EXPECT_EQ(commitment.value().flow_count(), 3u);
  EXPECT_EQ(sys.transport->active_flows(), 3u);
  EXPECT_GT(total_server_reserved(sys), 0);
}

TEST(Commit, DestructionReleasesEverything) {
  TestSystem sys;
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  {
    ResourceCommitter committer(sys.farm, *sys.transport);
    auto commitment = committer.commit(sys.client, list.eager[0]);
    ASSERT_TRUE(commitment.ok());
  }
  EXPECT_EQ(sys.transport->active_flows(), 0u);
  EXPECT_EQ(total_server_reserved(sys), 0);
}

TEST(Commit, ExplicitReleaseWorks) {
  TestSystem sys;
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  ResourceCommitter committer(sys.farm, *sys.transport);
  auto commitment = committer.commit(sys.client, list.eager[0]);
  ASSERT_TRUE(commitment.ok());
  commitment.value().release();
  EXPECT_TRUE(commitment.value().empty());
  EXPECT_EQ(sys.transport->active_flows(), 0u);
  EXPECT_EQ(total_server_reserved(sys), 0);
}

TEST(Commit, FailedServerRollsBackAtomically) {
  TestSystem sys;
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  // Find an offer using both servers, then fail one of them: nothing may
  // remain reserved after the failed commit.
  const SystemOffer* mixed = nullptr;
  for (const SystemOffer& o : list.eager) {
    bool a = false;
    bool b = false;
    for (const auto& c : o.components) {
      a |= c.variant->server == "server-a";
      b |= c.variant->server == "server-b";
    }
    if (a && b) {
      mixed = &o;
      break;
    }
  }
  ASSERT_NE(mixed, nullptr);
  sys.farm.find("server-b")->fail();
  ResourceCommitter committer(sys.farm, *sys.transport);
  auto commitment = committer.commit(sys.client, *mixed);
  EXPECT_FALSE(commitment.ok());
  EXPECT_EQ(sys.transport->active_flows(), 0u);
  EXPECT_EQ(total_server_reserved(sys), 0);
}

TEST(Commit, InsufficientNetworkRollsBackServerStreams) {
  TestSystem sys(/*access_bps=*/100'000);  // starved client access link
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  ResourceCommitter committer(sys.farm, *sys.transport);
  auto commitment = committer.commit(sys.client, list.eager[0]);
  EXPECT_FALSE(commitment.ok());
  EXPECT_EQ(total_server_reserved(sys), 0);
  EXPECT_EQ(sys.transport->active_flows(), 0u);
}

TEST(Commit, UnknownServerFailsCleanly) {
  TestSystem sys;
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  // Point a variant at a server that does not exist.
  MultimediaDocument doc = TestSystem::news_article();
  doc.id = "ghost-doc";
  for (auto& m : doc.monomedia) {
    for (auto& v : m.variants) v.server = "server-ghost";
  }
  sys.catalog.add(doc);
  auto ghost = sys.catalog.find("ghost-doc");
  auto feasible = compatible_variants(ghost, sys.client, profile.mm);
  ASSERT_TRUE(feasible.ok());
  OfferList ghost_list = enumerate_offers(feasible.value(), profile.mm, CostModel{});
  ResourceCommitter committer(sys.farm, *sys.transport);
  auto commitment = committer.commit(sys.client, ghost_list.eager[0]);
  ASSERT_FALSE(commitment.ok());
  EXPECT_EQ(commitment.error().component, "server-ghost");
  EXPECT_NE(commitment.error().describe().find("server-ghost"), std::string::npos);
  EXPECT_FALSE(commitment.error().transient);
}

TEST(Commit, CommitmentIdsAreQueryable) {
  TestSystem sys;
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  ResourceCommitter committer(sys.farm, *sys.transport);
  auto commitment = committer.commit(sys.client, list.eager[0]);
  ASSERT_TRUE(commitment.ok());
  EXPECT_EQ(commitment.value().flow_ids().size(), 3u);
  EXPECT_EQ(commitment.value().stream_ids().size(), 3u);
  for (FlowId flow : commitment.value().flow_ids()) {
    EXPECT_TRUE(sys.transport->flow(flow).has_value());
  }
}

TEST(Commit, ConcurrentCommitsNeverOversubscribe) {
  // Hammer a small system from many threads; invariant: reserved <= capacity
  // on every link and server at all times, and all successful commitments
  // release cleanly.
  TestSystem sys(/*access_bps=*/20'000'000, /*backbone_bps=*/30'000'000,
                 /*server_bps=*/25'000'000, /*server_sessions=*/8);
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList list = enumerate_for(sys, profile);
  std::atomic<int> successes{0};
  {
    // 8 threads run the 64 commits, commit t on thread t % 8.
    std::vector<std::thread> workers;
    for (int w = 0; w < 8; ++w) {
      workers.emplace_back([&, w] {
        for (int t = w; t < 64; t += 8) {
          ResourceCommitter committer(sys.farm, *sys.transport);
          auto c = committer.commit(sys.client, list.eager[t % list.eager.size()]);
          if (c.ok()) successes.fetch_add(1);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  EXPECT_EQ(sys.transport->active_flows(), 0u);
  EXPECT_EQ(total_server_reserved(sys), 0);
  EXPECT_GT(successes.load(), 0);
}

}  // namespace
}  // namespace qosnp
