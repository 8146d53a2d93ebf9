// E19 — wire-protocol overhead: what does putting a real TCP front-end in
// front of the negotiation service cost per request?
//
// Twin measurements over the same stack (8 workers, shared farm/transport,
// the news-article document):
//   in-process — NegotiationService::submit(request).get(), the baseline
//                every previous bench used;
//   loopback   — the same requests encoded to wire frames, sent through a
//                WireClient to a qosnpd WireServer on 127.0.0.1, decoded
//                and run to completion on the event loop that read them,
//                and the result sent back over the socket.
// Both phases run the same per-request simulated RTT so the service-side
// work is identical; the p50 delta is the pure wire tax (framing + CRC32C
// + syscalls + event-loop marshalling).
//
// Self-checks (non-zero exit on failure):
//   - loopback p50 < 2x in-process p50 (the wire tax must not dominate);
//   - every loopback verdict equals its in-process twin's verdict;
//   - qosnp_net_* conservation laws balance after the server drains;
//   - the shared system drains (no leaked sessions or reservations).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "netio/client.hpp"
#include "netio/server.hpp"
#include "service/negotiation_service.hpp"
#include "test_service.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace qosnp;
using namespace qosnp::bench;
using qosnp::testing::ServiceSystem;
using qosnp::testing::TestSystem;

constexpr std::size_t kWorkers = 8;
constexpr double kRttMs = 0.5;
constexpr std::size_t kWarmup = 32;
constexpr std::size_t kRequests = 320;

struct PhaseResult {
  std::vector<double> latencies_ms;
  std::vector<NegotiationStatus> verdicts;
  double wall_s = 0.0;
};

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = std::min(values.size() - 1,
                                   static_cast<std::size_t>(p * static_cast<double>(values.size())));
  return values[idx];
}

NegotiationRequest nth_request(ServiceSystem& sys, std::size_t i) {
  return make_negotiation_request(sys.clients[i % sys.clients.size()], "article",
                                  TestSystem::tolerant_profile());
}

/// Release the session a resolved request opened, so both phases run
/// against an empty farm and the drain invariant holds at the end.
void release(ServiceSystem& sys, const NegotiationResult& result) {
  if (result.session_id != 0) sys.sessions->complete(result.session_id);
}

PhaseResult run_in_process(ServiceSystem& sys, NegotiationService& service) {
  PhaseResult out;
  for (std::size_t i = 0; i < kWarmup; ++i) {
    release(sys, service.submit(nth_request(sys, i)).get());
  }
  Stopwatch wall;
  for (std::size_t i = 0; i < kRequests; ++i) {
    Stopwatch one;
    NegotiationResult result = service.submit(nth_request(sys, i)).get();
    out.latencies_ms.push_back(one.elapsed_ms());
    out.verdicts.push_back(result.verdict);
    release(sys, result);
  }
  out.wall_s = wall.elapsed_seconds();
  return out;
}

PhaseResult run_loopback(ServiceSystem& sys, WireServer& server) {
  WireClientConfig config;
  config.port = server.port();
  config.deadline_ms = 30'000.0;
  WireClient client(config);

  PhaseResult out;
  for (std::size_t i = 0; i < kWarmup; ++i) {
    auto r = client.submit(nth_request(sys, i));
    if (r.ok()) release(sys, r.value());
  }
  Stopwatch wall;
  for (std::size_t i = 0; i < kRequests; ++i) {
    Stopwatch one;
    auto r = client.submit(nth_request(sys, i));
    out.latencies_ms.push_back(one.elapsed_ms());
    if (!r.ok()) {
      std::cerr << "loopback submit failed: " << r.error().to_text() << '\n';
      out.verdicts.push_back(NegotiationStatus::kFailedTryLater);
      continue;
    }
    out.verdicts.push_back(r.value().verdict);
    release(sys, r.value());
  }
  out.wall_s = wall.elapsed_seconds();
  return out;
}

}  // namespace

int main() {
  print_title("E19: wire-protocol overhead (loopback qosnpd vs in-process submit)");

  ServiceSystem sys(/*num_clients=*/16);
  ServiceConfig config;
  config.workers = kWorkers;
  config.queue_capacity = 256;
  config.simulated_rtt_ms = kRttMs;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  PhaseResult inproc = run_in_process(sys, service);

  WireServer server(service);
  server.start();
  PhaseResult loopback = run_loopback(sys, server);
  server.stop();

  service.stop();
  const bool net_balanced = server.net().balanced();
  const bool drained = sys.drained();

  const double inproc_p50 = percentile(inproc.latencies_ms, 0.50);
  const double loop_p50 = percentile(loopback.latencies_ms, 0.50);
  const double inproc_p99 = percentile(inproc.latencies_ms, 0.99);
  const double loop_p99 = percentile(loopback.latencies_ms, 0.99);
  const double tax_us = (loop_p50 - inproc_p50) * 1000.0;

  std::size_t verdict_mismatches = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (inproc.verdicts[i] != loopback.verdicts[i]) ++verdict_mismatches;
  }

  print_section("Per-request latency (" + std::to_string(kRequests) +
                " sequential requests, simulated RTT " + fmt(kRttMs, 1) + "ms, " +
                std::to_string(kWorkers) + " workers)");
  Table table({"path", "p50 ms", "p99 ms", "wall s"});
  table.row({"in-process submit", fmt(inproc_p50), fmt(inproc_p99), fmt(inproc.wall_s, 2)});
  table.row({"loopback wire", fmt(loop_p50), fmt(loop_p99), fmt(loopback.wall_s, 2)});
  table.print();
  std::cout << "\n  wire tax at p50: " << fmt(tax_us, 1) << " us  ("
            << fmt(loop_p50 / inproc_p50, 2) << "x)\n";

  print_section("Self-checks");
  const bool overhead_ok = loop_p50 < 2.0 * inproc_p50;
  const bool verdicts_ok = verdict_mismatches == 0;
  Table checks({"check", "verdict"});
  checks.row({"loopback p50 < 2x in-process p50", check(overhead_ok)});
  checks.row({"loopback verdicts == in-process verdicts", check(verdicts_ok)});
  checks.row({"qosnp_net_* conservation laws balanced", check(net_balanced)});
  checks.row({"system drained (sessions, farm, transport)", check(drained)});
  checks.print();

  return (overhead_ok && verdicts_ok && net_balanced && drained) ? 0 : 1;
}
