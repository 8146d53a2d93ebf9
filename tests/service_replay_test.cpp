// Reproducibility and conservation of the concurrent service.
//
// Determinism: every request's random draws come from indexed_rng(seed,
// index), so a single-worker single-client closed loop is a fully
// deterministic function of (seed, trace) — two fresh systems must produce
// the identical outcome mix and shed count.
//
// Conservation (N workers): exact outcomes depend on interleaving, but the
// ledgers may not — while the run is live every server/link reservation must
// stay inside [0, capacity], and at drain admits - releases = live sessions
// and every budget returns to zero.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "service/load_gen.hpp"
#include "test_service.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;
using testing::TestSystem;

UserProfile stingy_profile() {
  // Feasible on resources, unacceptable on cost: ends FAILEDWITHOFFER, so
  // the per-request accept_degraded draw decides whether a session opens.
  UserProfile p = TestSystem::tolerant_profile();
  p.name = "stingy";
  p.mm.cost.max_cost = Money::cents(1);
  return p;
}

LoadConfig replay_config(const ServiceSystem& sys) {
  LoadConfig load;
  load.mode = ArrivalMode::kClosed;
  load.concurrency = 1;
  load.requests = 120;
  load.seed = 7;
  load.accept_degraded_p = 0.5;
  load.clients = {sys.clients.front()};
  load.documents = {"article"};
  load.profiles = {TestSystem::tolerant_profile(), stingy_profile()};
  return load;
}

struct ReplayOutcome {
  std::array<std::size_t, 5> by_status{};
  std::size_t shed = 0;
  std::size_t opened = 0;
  std::size_t completed = 0;
};

ReplayOutcome run_replay() {
  ServiceSystem sys(/*num_clients=*/1);
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();
  const LoadReport report = run_load(service, replay_config(sys));
  service.stop();
  EXPECT_EQ(report.live_sessions, 0u);
  EXPECT_TRUE(sys.drained());
  ReplayOutcome out;
  out.by_status = report.service.by_status;
  out.shed = report.service.shed_queue_full + report.service.shed_deadline;
  out.opened = report.service.sessions_opened;
  out.completed = report.completed_sessions;
  return out;
}

TEST(ServiceReplay, SameSeedAndTraceGiveIdenticalOutcomeMix) {
  const ReplayOutcome first = run_replay();
  const ReplayOutcome second = run_replay();
  EXPECT_EQ(first.by_status, second.by_status);
  EXPECT_EQ(first.shed, second.shed);
  EXPECT_EQ(first.opened, second.opened);
  EXPECT_EQ(first.completed, second.completed);

  // Sanity: the 50/50 stingy draw actually exercised both verdicts.
  EXPECT_GT(first.by_status[static_cast<std::size_t>(NegotiationStatus::kSucceeded)], 0u);
  EXPECT_GT(first.by_status[static_cast<std::size_t>(NegotiationStatus::kFailedWithOffer)], 0u);
  std::size_t total = 0;
  for (std::size_t n : first.by_status) total += n;
  EXPECT_EQ(total, 120u);
}

TEST(ServiceReplay, DifferentSeedsChangeTheMixButNotTheAccounting) {
  ServiceSystem sys(/*num_clients=*/1);
  ServiceConfig config;
  config.workers = 1;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();
  LoadConfig load = replay_config(sys);
  load.seed = 999;
  const LoadReport report = run_load(service, load);
  service.stop();
  EXPECT_EQ(report.service.processed + report.service.shed_queue_full, load.requests);
  EXPECT_EQ(report.service.sessions_opened, report.completed_sessions + report.live_sessions);
  EXPECT_TRUE(sys.drained());
}

TEST(ServiceReplay, MultiWorkerRunNeverBreaksConservation) {
  ServiceSystem sys(/*num_clients=*/16);
  ServiceConfig config;
  config.workers = 8;
  config.queue_capacity = 32;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  // Live sampler: while 8 workers commit and the generator completes
  // sessions, every ledger must stay inside [0, capacity].
  std::atomic<bool> stop_sampler{false};
  std::thread sampler([&] {
    while (!stop_sampler.load(std::memory_order_acquire)) {
      for (const ServerId& id : sys.farm.list()) {
        const ServerUsage u = sys.farm.find(id)->usage();
        EXPECT_GE(u.reserved_bps, 0);
        EXPECT_LE(u.reserved_bps, u.effective_bandwidth_bps);
        EXPECT_GE(u.sessions, 0);
        EXPECT_LE(u.sessions, u.max_sessions);
      }
      for (std::size_t l = 0; l < sys.transport->topology().link_count(); ++l) {
        const LinkUsage u = sys.transport->link_usage(l);
        EXPECT_GE(u.reserved_bps, 0);
        EXPECT_LE(u.reserved_bps, u.capacity_bps);
      }
      std::this_thread::yield();
    }
  });

  LoadConfig load;
  load.mode = ArrivalMode::kClosed;
  load.concurrency = 16;
  load.requests = 400;
  load.seed = 42;
  load.hold_ms = 1.0;
  load.accept_degraded_p = 0.5;
  load.clients = sys.clients;
  load.documents = {"article"};
  load.profiles = {TestSystem::tolerant_profile(), stingy_profile()};
  const LoadReport report = run_load(service, load);
  service.stop();
  stop_sampler.store(true, std::memory_order_release);
  sampler.join();

  // Every request resolved exactly once.
  EXPECT_EQ(report.service.submitted, 400u);
  EXPECT_EQ(report.service.processed + report.service.shed_queue_full, 400u);
  // admits - releases = live sessions; the generator completed them all.
  EXPECT_EQ(report.service.sessions_opened, report.completed_sessions + report.live_sessions);
  EXPECT_EQ(report.live_sessions, 0u);
  // Drain: budgets back to zero everywhere, recomputed ledger agrees.
  EXPECT_TRUE(sys.drained());
}

}  // namespace
}  // namespace qosnp
