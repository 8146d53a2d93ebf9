// Concurrency suite for the policy layer (tsan-runnable, label
// "concurrency"): concurrent admits, preemptions and upgrade scans through a
// bare PolicyEngine hammered from many threads must never double-release a
// victim, and the transport's link accounting must be exactly consistent
// once everything drains.
#include "policy/preemption.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "session/session.hpp"
#include "test_service.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;
using testing::TestSystem;

NegotiationRequest class_request(const ClientMachine& client, SessionClass cls,
                                 std::uint64_t id) {
  NegotiationRequest request =
      make_negotiation_request(client, "article", TestSystem::tolerant_profile());
  request.id = id;
  request.session_class = cls;
  request.accept_degraded = true;
  return request;
}

SessionClass class_for(std::uint64_t n) {
  switch (n % 3) {
    case 0: return SessionClass::kBestEffort;
    case 1: return SessionClass::kStandard;
    default: return SessionClass::kPremium;
  }
}

/// Every victim the policy released must be released exactly once: a session
/// id may appear at most once with action kReleased, and a released victim
/// must never show up as degraded afterwards (it is gone).
void assert_no_double_release(const std::vector<VictimEvent>& events) {
  std::map<SessionId, int> released;
  for (const VictimEvent& e : events) {
    if (e.action == VictimAction::kReleased) released[e.session] += 1;
  }
  for (const auto& [session, count] : released) {
    EXPECT_EQ(count, 1) << "session " << session << " released " << count << " times";
  }
}

// ---------------------------------------------------------------------------
// Bare-engine torture: negotiating threads (all classes), a dedicated
// upgrade-scanning thread, and a completer thread churning capacity — every
// shared structure (session table, farm, transport, metrics, observers) hit
// concurrently.
TEST(PolicyConcurrency, BareEngineTortureDrainsConsistently) {
  ServiceSystem sys(8, /*access_bps=*/1'000'000'000, /*backbone_bps=*/10'000'000'000,
                    /*server_bps=*/25'000'000, /*server_sessions=*/256);
  MetricsRegistry metrics;
  PreemptionPolicy policy;
  policy.enabled = true;
  PolicyEngine engine(*sys.manager, *sys.sessions, policy, &metrics);

  std::mutex events_mu;
  std::vector<VictimEvent> events;
  engine.set_victim_observer([&](const VictimEvent& e) {
    std::lock_guard lk(events_mu);
    events.push_back(e);
  });

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> next_id{1};

  std::vector<std::thread> negotiators;
  for (int t = 0; t < 3; ++t) {
    negotiators.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const std::uint64_t id = next_id.fetch_add(1);
        NegotiationRequest request = class_request(
            sys.clients[static_cast<std::size_t>(t) % sys.clients.size()], class_for(id), id);
        NegotiationResult result = engine.negotiate(request);
        if (result.has_commitment()) {
          auto opened = sys.sessions->open(request.client, request.profile, std::move(result),
                                           /*now_s=*/0.0, request.session_class);
          if (opened.ok()) (void)sys.sessions->confirm(opened.value(), /*now_s=*/0.5);
        }
      }
    });
  }

  std::thread scanner([&] {
    while (!stop.load()) (void)engine.run_upgrades();
  });
  std::thread completer([&] {
    std::uint64_t n = 0;
    while (!stop.load()) {
      const std::vector<SessionId> playing = sys.sessions->playing_sessions();
      if (!playing.empty()) sys.sessions->complete(playing[n++ % playing.size()]);
    }
  });

  for (std::thread& t : negotiators) t.join();
  stop.store(true);
  scanner.join();
  completer.join();

  assert_no_double_release(events);

  for (SessionId id : sys.sessions->playing_sessions()) sys.sessions->complete(id);
  ASSERT_TRUE(sys.drained()) << "torture run left reservations behind";
  EXPECT_TRUE(sys.transport->accounting_consistent());
  EXPECT_EQ(sys.sessions->opened_total(), sys.sessions->released_total());

  // Released victims must also be gone from the table's point of view:
  // their terminal state is kAborted with the policy's abort reason.
  for (const VictimEvent& e : events) {
    if (e.action != VictimAction::kReleased) continue;
    const auto view = sys.sessions->snapshot(e.session);
    if (!view.has_value()) continue;  // pruned is fine
    EXPECT_EQ(view->state, SessionState::kAborted);
    EXPECT_EQ(view->abort_reason, kPreemptedAbortReason);
  }
}

}  // namespace
}  // namespace qosnp
