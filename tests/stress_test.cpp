// Randomised stress: drive the full stack (negotiation, confirmation,
// playout, adaptation, renegotiation, congestion, server failure/recovery,
// catalog churn) with random operations and check the global invariants
// after every step:
//   * conservation — on every link and server, 0 <= reserved <= capacity;
//   * no leaks — when every session has finished, nothing stays reserved;
//   * session states only move forward (no resurrection).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "fault/fault_injector.hpp"
#include "session/session.hpp"
#include "sim/experiment.hpp"
#include "test_system.hpp"
#include "util/rng.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;

class StressRun {
 public:
  explicit StressRun(std::uint64_t seed)
      : rng_(seed), manager_(sys_.catalog, sys_.farm, *sys_.transport), sessions_(manager_) {
    // Extra documents so negotiations vary.
    CorpusConfig corpus;
    corpus.num_documents = 6;
    corpus.seed = seed;
    corpus.servers = {"server-a", "server-b"};
    for (auto& doc : generate_corpus(corpus)) sys_.catalog.add(std::move(doc));
    doc_ids_ = sys_.catalog.list();
    profiles_ = standard_profile_mix();
  }

  void step() {
    now_ += rng_.uniform(0.1, 5.0);
    switch (rng_.below(9)) {
      case 0:
      case 1: negotiate(); break;
      case 2: confirm_or_reject(); break;
      case 3: advance(); break;
      case 4: adapt(); break;
      case 5: renegotiate(); break;
      case 6: toggle_congestion(); break;
      case 7: toggle_server(); break;
      case 8: finish_one(); break;
    }
    check_invariants();
  }

  void drain() {
    // Finish everything and verify no reservation leaks.
    for (auto& [id, _] : states_) {
      sessions_.abort(id, "drain");
    }
    for (std::size_t i = 0; i < sys_.transport->topology().link_count(); ++i) {
      sys_.transport->restore_link(i);
    }
    EXPECT_EQ(sys_.transport->active_flows(), 0u);
    for (const auto& server : sys_.farm.list()) {
      EXPECT_EQ(sys_.farm.find(server)->usage().reserved_bps, 0) << server;
      EXPECT_EQ(sys_.farm.find(server)->usage().sessions, 0) << server;
    }
  }

 private:
  void negotiate() {
    const DocumentId& doc = doc_ids_[rng_.below(doc_ids_.size())];
    const UserProfile& profile = profiles_[rng_.below(profiles_.size())];
    NegotiationResult outcome = manager_.negotiate(make_negotiation_request(sys_.client, doc, profile));
    // The report renderer must handle every outcome without crashing.
    EXPECT_FALSE(render_information_window(outcome).empty());
    if (outcome.has_commitment()) {
      auto opened = sessions_.open(sys_.client, profile, std::move(outcome), now_);
      ASSERT_TRUE(opened.ok());
      states_[opened.value()] = SessionState::kPendingConfirmation;
    }
  }

  void confirm_or_reject() {
    for (auto& [id, state] : states_) {
      if (state != SessionState::kPendingConfirmation) continue;
      if (rng_.chance(0.8)) {
        auto ok = sessions_.confirm(id, now_);
        state = ok.ok() ? SessionState::kPlaying : SessionState::kAborted;
      } else {
        sessions_.reject(id);
        state = SessionState::kAborted;
      }
      return;
    }
  }

  void advance() {
    for (auto& [id, state] : states_) {
      if (state != SessionState::kPlaying) continue;
      sessions_.advance(id, rng_.uniform(1.0, 60.0));
      auto view = sessions_.snapshot(id);
      if (view && view->state == SessionState::kCompleted) state = SessionState::kCompleted;
      return;
    }
  }

  void adapt() {
    for (auto& [id, state] : states_) {
      if (state != SessionState::kPlaying) continue;
      sessions_.adapt(id, now_);
      sync_state(id, state);
      return;
    }
  }

  void renegotiate() {
    for (auto& [id, state] : states_) {
      if (state != SessionState::kPlaying) continue;
      const UserProfile& profile = profiles_[rng_.below(profiles_.size())];
      sessions_.renegotiate(id, profile, now_);  // either way the session survives
      return;
    }
  }

  void toggle_congestion() {
    const std::size_t link = rng_.below(sys_.transport->topology().link_count());
    if (rng_.chance(0.5)) {
      const auto victims = sys_.transport->degrade_link(link, rng_.uniform(0.3, 0.95));
      for (FlowId flow : victims) {
        for (SessionId id : sessions_.sessions_using_flow(flow)) {
          sessions_.adapt(id, now_);
          auto it = states_.find(id);
          if (it != states_.end()) sync_state(id, it->second);
        }
      }
    } else {
      sys_.transport->restore_link(link);
    }
  }

  void toggle_server() {
    const auto servers = sys_.farm.list();
    MediaServer* server = sys_.farm.find(servers[rng_.below(servers.size())]);
    if (server->failed()) {
      server->recover();
    } else if (rng_.chance(0.3)) {
      const auto affected = sessions_.sessions_on_server(server->id());
      server->fail();
      for (SessionId id : affected) {
        sessions_.adapt(id, now_);
        auto it = states_.find(id);
        if (it != states_.end()) sync_state(id, it->second);
      }
    }
  }

  void finish_one() {
    for (auto& [id, state] : states_) {
      if (state == SessionState::kPlaying) {
        sessions_.complete(id);
        state = SessionState::kCompleted;
        return;
      }
    }
  }

  void sync_state(SessionId id, SessionState& state) {
    auto view = sessions_.snapshot(id);
    if (view) state = view->state;
  }

  void check_invariants() {
    for (std::size_t i = 0; i < sys_.transport->topology().link_count(); ++i) {
      const LinkUsage usage = sys_.transport->link_usage(i);
      EXPECT_GE(usage.reserved_bps, 0) << "link " << i;
      EXPECT_LE(usage.reserved_bps, usage.capacity_bps) << "link " << i;
    }
    for (const auto& id : sys_.farm.list()) {
      const ServerUsage usage = sys_.farm.find(id)->usage();
      EXPECT_GE(usage.reserved_bps, 0) << id;
      EXPECT_LE(usage.reserved_bps, usage.disk_bandwidth_bps) << id;
      EXPECT_GE(usage.sessions, 0) << id;
      EXPECT_LE(usage.sessions, usage.max_sessions) << id;
    }
    // Finished sessions stay finished.
    for (const auto& [id, state] : states_) {
      auto view = sessions_.snapshot(id);
      ASSERT_TRUE(view.has_value());
      if (state == SessionState::kCompleted) {
        EXPECT_EQ(view->state, SessionState::kCompleted);
      }
      if (state == SessionState::kAborted) {
        EXPECT_EQ(view->state, SessionState::kAborted);
      }
    }
  }

  TestSystem sys_;
  Rng rng_;
  QoSManager manager_;
  SessionManager sessions_;
  std::vector<DocumentId> doc_ids_;
  std::vector<UserProfile> profiles_;
  std::map<SessionId, SessionState> states_;
  double now_ = 0.0;
};

class StressSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressSweep, InvariantsHoldUnderRandomOperations) {
  StressRun run(GetParam());
  for (int i = 0; i < 400; ++i) {
    run.step();
    if (::testing::Test::HasFatalFailure()) return;
  }
  run.drain();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSweep, ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(FaultStress, ConcurrentCommitsUnderFaultsNeverLeak) {
  // Hammer a faulty system from the shared thread pool: probabilistic
  // refusals on servers and routes, retrying committers in every worker.
  // Invariants: no crash, nothing over-reserved while running, and once all
  // commitments are dropped nothing stays reserved — on the real components
  // and on the decorators' admitted/released ledgers alike.
  TestSystem sys(/*access_bps=*/20'000'000, /*backbone_bps=*/30'000'000,
                 /*server_bps=*/25'000'000, /*server_sessions=*/8);
  FaultPlan plan;
  plan.seed = 2024;
  plan.server_defaults.transient_failure_p = 0.25;
  plan.server_defaults.flaky_release_p = 0.25;
  plan.transport_defaults.transient_failure_p = 0.15;
  FaultyServerFarm faulty_farm(sys.farm, plan);
  FaultyTransportProvider faulty_transport(*sys.transport, plan);

  const UserProfile profile = TestSystem::tolerant_profile();
  auto doc = sys.catalog.find("article");
  auto feasible = compatible_variants(doc, sys.client, profile.mm);
  ASSERT_TRUE(feasible.ok());
  OfferList list = enumerate_offers(feasible.value(), profile.mm, CostModel{});

  std::atomic<int> successes{0};
  {
    // 8 threads run the 64 commits, commit t on thread t % 8.
    std::vector<std::thread> workers;
    for (int w = 0; w < 8; ++w) {
      workers.emplace_back([&, w] {
        for (int t = w; t < 64; t += 8) {
          RetryPolicy retry;
          retry.max_attempts = 3;
          ResourceCommitter committer(faulty_farm, faulty_transport, retry);
          auto c = committer.commit(sys.client, list.eager[t % list.eager.size()]);
          if (c.ok()) successes.fetch_add(1);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  EXPECT_GT(successes.load(), 0);
  EXPECT_EQ(sys.transport->active_flows(), 0u);
  for (const auto& id : sys.farm.list()) {
    EXPECT_EQ(sys.farm.find(id)->usage().reserved_bps, 0) << id;
    EXPECT_EQ(sys.farm.find(id)->usage().sessions, 0) << id;
  }
  const FaultStats farm_stats = faulty_farm.stats();
  EXPECT_EQ(farm_stats.admitted, farm_stats.released);
  const FaultStats net_stats = faulty_transport.stats();
  EXPECT_EQ(net_stats.admitted, net_stats.released);
}

TEST(FaultStress, SequentialFaultedRunIsSeedStable) {
  // The same plan and the same request order must produce the same outcome
  // pattern and the same decorator ledgers, run twice.
  const UserProfile profile = TestSystem::tolerant_profile();
  auto run = [&] {
    TestSystem sys(/*access_bps=*/20'000'000, /*backbone_bps=*/30'000'000,
                   /*server_bps=*/25'000'000, /*server_sessions=*/8);
    FaultPlan plan;
    plan.seed = 777;
    plan.server_defaults.transient_failure_p = 0.25;
    plan.transport_defaults.transient_failure_p = 0.15;
    FaultyServerFarm faulty_farm(sys.farm, plan);
    FaultyTransportProvider faulty_transport(*sys.transport, plan);
    auto doc = sys.catalog.find("article");
    auto feasible = compatible_variants(doc, sys.client, profile.mm);
    EXPECT_TRUE(feasible.ok());
    OfferList list = enumerate_offers(feasible.value(), profile.mm, CostModel{});
    RetryPolicy retry;
    retry.max_attempts = 3;
    ResourceCommitter committer(faulty_farm, faulty_transport, retry);
    std::vector<bool> pattern;
    for (int t = 0; t < 48; ++t) {
      auto c = committer.commit(sys.client, list.eager[t % list.eager.size()]);
      pattern.push_back(c.ok());  // commitment (if any) releases right away
    }
    const FaultStats farm_stats = faulty_farm.stats();
    EXPECT_EQ(farm_stats.admitted, farm_stats.released);
    return std::tuple{pattern, committer.stats().attempts, committer.stats().retries,
                      committer.stats().transient_failures, farm_stats.injected_refusals,
                      faulty_transport.stats().injected_refusals};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace qosnp
