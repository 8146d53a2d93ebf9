// NegotiationService behaviour: concurrent requests through the bounded
// queue and worker pool run the full Step 1-5 pipeline against the shared
// farm/transport, overload is shed with FAILEDTRYLATER (queue full or
// deadline expired), every submitted request gets exactly one response, and
// nothing stays reserved once the opened sessions are completed.
#include "service/negotiation_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "policy/local_client.hpp"
#include "test_service.hpp"
#include "util/log.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;
using testing::TestSystem;

NegotiationRequest make_request(const ServiceSystem& sys, std::uint64_t id,
                            const UserProfile& profile) {
  NegotiationRequest req;
  req.id = id;
  req.client = sys.clients[id % sys.clients.size()];
  req.document = "article";
  req.profile = profile;
  return req;
}

TEST(NegotiationService, LogLinesNameTheWorkerAndRequest) {
  ServiceSystem sys;
  ServiceConfig config;
  config.workers = 1;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  std::ostringstream captured;
  std::streambuf* const saved = std::clog.rdbuf(captured.rdbuf());
  const LogLevel saved_level = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kDebug);
  service.start();
  const NegotiationResult resp =
      service.submit(make_request(sys, 7, TestSystem::tolerant_profile())).get();
  service.stop();
  Logger::instance().set_level(saved_level);
  std::clog.rdbuf(saved);

  ASSERT_NE(resp.session_id, 0u);
  sys.sessions->complete(resp.session_id);
  // The committer logs the commit from inside the request's scope.
  EXPECT_NE(captured.str().find("(w0/r7) commit: committed offer"), std::string::npos)
      << captured.str();
}

TEST(NegotiationService, ConcurrentRequestsAllServedOnRichFarm) {
  ServiceSystem sys;
  ServiceConfig config;
  config.workers = 4;
  config.queue_capacity = 128;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  const UserProfile profile = TestSystem::tolerant_profile();
  std::vector<std::future<NegotiationResult>> futures;
  for (std::uint64_t i = 0; i < 64; ++i) {
    futures.push_back(service.submit(make_request(sys, i, profile)));
  }
  std::vector<SessionId> opened;
  for (auto& f : futures) {
    const NegotiationResult resp = f.get();
    EXPECT_EQ(resp.verdict, NegotiationStatus::kSucceeded);
    EXPECT_EQ(resp.shed, ShedReason::kNone);
    ASSERT_NE(resp.session_id, 0u);
    EXPECT_GE(resp.worker, 0);
    EXPECT_LE(resp.queue_ms, resp.total_ms);
    opened.push_back(resp.session_id);
    // Auto-confirmed: the session is playing.
    const auto view = sys.sessions->snapshot(resp.session_id);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->state, SessionState::kPlaying);
  }
  service.stop();

  const ServiceReport report = service.report();
  EXPECT_EQ(report.submitted, 64u);
  EXPECT_EQ(report.processed, 64u);
  EXPECT_EQ(report.shed_queue_full, 0u);
  EXPECT_EQ(report.sessions_opened, 64u);
  EXPECT_EQ(report.sessions_confirmed, 64u);
  EXPECT_EQ(report.count(NegotiationStatus::kSucceeded), 64u);
  EXPECT_EQ(report.latency.count(), 64u);

  // admits - releases = live sessions, then drain to zero.
  EXPECT_EQ(sys.sessions->active_count(), opened.size());
  for (SessionId id : opened) sys.sessions->complete(id);
  EXPECT_TRUE(sys.drained());
}

TEST(NegotiationService, FullQueueShedsWithFailedTryLater) {
  ServiceSystem sys;
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.simulated_rtt_ms = 5.0;  // keep the single worker busy
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  const UserProfile profile = TestSystem::tolerant_profile();
  std::vector<std::future<NegotiationResult>> futures;
  for (std::uint64_t i = 0; i < 32; ++i) {
    futures.push_back(service.submit(make_request(sys, i, profile)));
  }
  std::size_t shed = 0;
  std::size_t served = 0;
  for (auto& f : futures) {
    const NegotiationResult resp = f.get();
    if (resp.shed == ShedReason::kQueueFull) {
      ++shed;
      EXPECT_EQ(resp.verdict, NegotiationStatus::kFailedTryLater);
      EXPECT_EQ(resp.session_id, 0u);
      EXPECT_EQ(resp.worker, -1);
    } else {
      ++served;
      if (resp.session_id != 0) sys.sessions->complete(resp.session_id);
    }
  }
  service.stop();

  // A 32-deep burst against capacity 2 + one busy worker must shed.
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(shed + served, 32u);
  const ServiceReport report = service.report();
  EXPECT_EQ(report.shed_queue_full, shed);
  EXPECT_EQ(report.processed, served);
  EXPECT_LE(report.queue_high_water, config.queue_capacity);
  EXPECT_EQ(report.count(NegotiationStatus::kFailedTryLater), shed);
  EXPECT_TRUE(sys.drained());
}

TEST(NegotiationService, QueueDeadlineShedsAgedRequests) {
  ServiceSystem sys;
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  config.deadline_ms = 1.0;
  config.simulated_rtt_ms = 10.0;  // each served request stalls the queue past the deadline
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  const UserProfile profile = TestSystem::tolerant_profile();
  std::vector<std::future<NegotiationResult>> futures;
  for (std::uint64_t i = 0; i < 8; ++i) {
    futures.push_back(service.submit(make_request(sys, i, profile)));
  }
  std::size_t expired = 0;
  for (auto& f : futures) {
    const NegotiationResult resp = f.get();
    if (resp.shed == ShedReason::kDeadlineExpired) {
      ++expired;
      EXPECT_EQ(resp.verdict, NegotiationStatus::kFailedTryLater);
      EXPECT_EQ(resp.session_id, 0u);
      EXPECT_GT(resp.queue_ms, config.deadline_ms);
    } else if (resp.session_id != 0) {
      sys.sessions->complete(resp.session_id);
    }
  }
  service.stop();
  EXPECT_GT(expired, 0u);
  EXPECT_EQ(service.report().shed_deadline, expired);
  EXPECT_TRUE(sys.drained());
}

TEST(NegotiationService, DeclinedDegradedOfferReleasesItsCommitment) {
  // Both in-process clients run the same Step-6 admission; hold each to it.
  for (const bool via_service : {true, false}) {
    SCOPED_TRACE(via_service ? "NegotiationService" : "LocalClient");
    ServiceSystem sys;
    ServiceConfig config;
    config.workers = 2;
    NegotiationService service(*sys.manager, *sys.sessions, config);
    LocalClient local(*sys.manager, *sys.sessions);
    service.start();
    auto negotiate = [&](NegotiationRequest request) {
      return via_service ? service.submit(std::move(request)).get()
                         : local.negotiate(std::move(request), 0.0);
    };

    // A one-cent budget makes every offer unacceptable on cost, so the
    // procedure ends FAILEDWITHOFFER with a real commitment behind the offer.
    UserProfile stingy = TestSystem::tolerant_profile();
    stingy.mm.cost.max_cost = Money::cents(1);

    NegotiationRequest declined = make_request(sys, 1, stingy);
    declined.accept_degraded = false;
    const NegotiationResult declined_resp = negotiate(std::move(declined));
    EXPECT_EQ(declined_resp.verdict, NegotiationStatus::kFailedWithOffer);
    EXPECT_EQ(declined_resp.session_id, 0u);
    // Step 6 decline: the commitment was released immediately.
    EXPECT_TRUE(sys.drained());

    NegotiationRequest accepted = make_request(sys, 2, stingy);
    accepted.accept_degraded = true;
    const NegotiationResult accepted_resp = negotiate(std::move(accepted));
    EXPECT_EQ(accepted_resp.verdict, NegotiationStatus::kFailedWithOffer);
    ASSERT_NE(accepted_resp.session_id, 0u);
    EXPECT_EQ(sys.sessions->active_count(), 1u);

    service.stop();
    sys.sessions->complete(accepted_resp.session_id);
    EXPECT_TRUE(sys.drained());
  }
}

TEST(NegotiationService, StopDrainsTheBacklogBeforeJoining) {
  ServiceSystem sys;
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.simulated_rtt_ms = 2.0;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  const UserProfile profile = TestSystem::tolerant_profile();
  std::vector<std::future<NegotiationResult>> futures;
  for (std::uint64_t i = 0; i < 24; ++i) {
    futures.push_back(service.submit(make_request(sys, i, profile)));
  }
  service.stop();  // must resolve every accepted request, not abandon it

  std::size_t answered = 0;
  for (auto& f : futures) {
    const NegotiationResult resp = f.get();  // would throw on a broken promise
    ++answered;
    if (resp.session_id != 0) sys.sessions->complete(resp.session_id);
  }
  EXPECT_EQ(answered, 24u);
  EXPECT_TRUE(sys.drained());

  // Submissions after stop() are shed, not lost.
  const NegotiationResult late = service.submit(make_request(sys, 99, profile)).get();
  EXPECT_EQ(late.verdict, NegotiationStatus::kFailedTryLater);
  EXPECT_EQ(late.shed, ShedReason::kQueueFull);
}

TEST(NegotiationService, ReportAccountsForEverySubmission) {
  ServiceSystem sys;
  ServiceConfig config;
  config.workers = 3;
  config.queue_capacity = 4;
  config.simulated_rtt_ms = 1.0;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  const UserProfile profile = TestSystem::tolerant_profile();
  std::vector<std::future<NegotiationResult>> futures;
  for (std::uint64_t i = 0; i < 40; ++i) {
    futures.push_back(service.submit(make_request(sys, i, profile)));
  }
  for (auto& f : futures) {
    const NegotiationResult resp = f.get();
    if (resp.session_id != 0) sys.sessions->complete(resp.session_id);
  }
  service.stop();

  const ServiceReport report = service.report();
  EXPECT_EQ(report.submitted, 40u);
  EXPECT_EQ(report.processed + report.shed_queue_full, 40u);
  std::size_t by_status_total = 0;
  for (std::size_t n : report.by_status) by_status_total += n;
  EXPECT_EQ(by_status_total, 40u);

  EXPECT_EQ(report.accepted + report.shed_queue_full, 40u);
  EXPECT_LE(report.latency.quantile_ms(0.50), report.latency.quantile_ms(0.95));
  EXPECT_LE(report.latency.quantile_ms(0.95), report.latency.quantile_ms(0.99));
  EXPECT_GE(report.shed_rate(), 0.0);
  EXPECT_DOUBLE_EQ(report.shed_rate(),
                   static_cast<double>(report.shed_queue_full + report.shed_deadline) / 40.0);
  EXPECT_TRUE(sys.drained());
}

TEST(NegotiationService, SubmitAsyncInvokesCallbackOnceWithTheResult) {
  ServiceSystem sys;
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  const UserProfile profile = TestSystem::tolerant_profile();
  constexpr std::uint64_t kRequests = 16;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<NegotiationResult> results;
  std::atomic<int> calls{0};
  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<bool> on_submitter_thread{false};
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    service.submit_async(make_request(sys, i, profile), [&](NegotiationResult result) {
      ++calls;
      if (std::this_thread::get_id() == submitter) on_submitter_thread = true;
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(std::move(result));
      cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return results.size() == kRequests; }));
  }
  service.stop();

  EXPECT_EQ(calls.load(), static_cast<int>(kRequests));
  // Nothing was shed (deep queue), so every callback ran on a worker.
  EXPECT_FALSE(on_submitter_thread.load());
  for (const NegotiationResult& resp : results) {
    EXPECT_EQ(resp.verdict, NegotiationStatus::kSucceeded);
    EXPECT_EQ(resp.shed, ShedReason::kNone);
    EXPECT_GE(resp.worker, 0);
    if (resp.session_id != 0) sys.sessions->complete(resp.session_id);
  }
  EXPECT_TRUE(sys.drained());
}

TEST(NegotiationService, SubmitAsyncShedRunsCallbackOnSubmitterThread) {
  ServiceSystem sys;
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.simulated_rtt_ms = 20.0;  // keep the single worker busy
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  const UserProfile profile = TestSystem::tolerant_profile();
  const std::thread::id submitter = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable cv;
  std::size_t answered = 0;
  std::size_t shed_on_this_thread = 0;
  std::vector<SessionId> opened;
  constexpr std::uint64_t kBurst = 24;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    service.submit_async(make_request(sys, i, profile), [&](NegotiationResult result) {
      const bool inline_shed = std::this_thread::get_id() == submitter;
      std::lock_guard<std::mutex> lock(mu);
      if (result.shed == ShedReason::kQueueFull) {
        EXPECT_TRUE(inline_shed);  // queue-edge sheds resolve on the submitter
        EXPECT_EQ(result.verdict, NegotiationStatus::kFailedTryLater);
        EXPECT_EQ(result.worker, -1);
        ++shed_on_this_thread;
      } else if (result.session_id != 0) {
        opened.push_back(result.session_id);
      }
      ++answered;
      cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(30), [&] { return answered == kBurst; }));
  }
  service.stop();

  // A 24-deep burst against capacity 1 + one slow worker must shed inline.
  EXPECT_GT(shed_on_this_thread, 0u);
  EXPECT_EQ(service.report().shed_queue_full, shed_on_this_thread);
  for (SessionId id : opened) sys.sessions->complete(id);
  EXPECT_TRUE(sys.drained());
}

}  // namespace
}  // namespace qosnp
