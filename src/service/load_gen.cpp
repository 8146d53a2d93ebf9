#include "service/load_gen.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace qosnp {

namespace {

NegotiationRequest make_request(const LoadConfig& config, std::uint64_t index) {
  Rng rng = indexed_rng(config.seed, index);
  NegotiationRequest req;
  req.id = index + 1;
  req.client = config.clients[index % config.clients.size()];
  req.document = config.documents[rng.below(config.documents.size())];
  req.profile = config.profiles[rng.below(config.profiles.size())];
  req.accept_degraded = rng.chance(config.accept_degraded_p);
  return req;
}

void sleep_ms(double ms) {
  if (ms > 0.0) std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

LoadReport run_load(NegotiationService& service, const LoadConfig& config) {
  LoadReport report;
  if (config.clients.empty() || config.documents.empty() || config.profiles.empty() ||
      config.requests == 0) {
    QOSNP_LOG_WARN("loadgen", "empty workload: nothing to drive");
    return report;
  }

  Stopwatch wall;
  std::atomic<std::size_t> completed_sessions{0};

  if (config.mode == ArrivalMode::kClosed) {
    // Closed loop: `concurrency` clients, each waiting for its own response
    // before the next submission. Request indices are claimed atomically so
    // the trace (per-request draws) is identical for any concurrency.
    std::atomic<std::uint64_t> next{0};
    auto client_loop = [&] {
      for (;;) {
        const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= config.requests) return;
        NegotiationResult resp = service.submit(make_request(config, i)).get();
        if (resp.session_id != 0) {
          sleep_ms(config.hold_ms);
          service.sessions().complete(resp.session_id);
          completed_sessions.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    std::vector<std::thread> clients;
    clients.reserve(config.concurrency);
    for (std::size_t c = 0; c < std::max<std::size_t>(1, config.concurrency); ++c) {
      clients.emplace_back(client_loop);
    }
    for (auto& t : clients) t.join();
  } else {
    // Open loop: submit on the Poisson arrival trace without waiting for
    // responses; collect afterwards. Sessions are completed at drain, so a
    // fast arrival burst genuinely accumulates held capacity and backlog.
    Rng arrivals(config.seed ^ 0xa5e1a5e1a5e1a5e1ULL);
    std::vector<std::future<NegotiationResult>> futures;
    futures.reserve(config.requests);
    for (std::uint64_t i = 0; i < config.requests; ++i) {
      futures.push_back(service.submit(make_request(config, i)));
      if (config.arrival_rate_per_s > 0.0 && i + 1 < config.requests) {
        sleep_ms(arrivals.exponential(config.arrival_rate_per_s) * 1e3);
      }
    }
    for (auto& f : futures) {
      NegotiationResult resp = f.get();
      if (resp.session_id != 0) {
        service.sessions().complete(resp.session_id);
        completed_sessions.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  report.wall_s = wall.elapsed_seconds();
  report.completed_sessions = completed_sessions.load();
  report.live_sessions = service.sessions().active_count();
  report.throughput_rps =
      report.wall_s > 0.0 ? static_cast<double>(config.requests) / report.wall_s : 0.0;
  report.service = service.report();
  return report;
}

}  // namespace qosnp
