// wire_hot: an open loop over QNP1 loopback into an in-process WireServer +
// NegotiationService. One thread drives two connections with the public
// wire codec at a fixed rate well under saturation; the small catalog keeps
// every (client, document, profile) combination in the plan cache after
// warm-up, so the weight sits on wire, netio, the service queue hand-off and
// the cache-hit path. QNP1 has no RELEASE frame, so each returned session is
// completed through the server's SessionManager as soon as it arrives.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/qos_manager.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "measure.hpp"
#include "netio/node_config.hpp"
#include "result_signature.hpp"
#include "netio/server.hpp"
#include "service/negotiation_service.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace qosnp;

namespace {

constexpr double kRatePerS = 2000.0;
constexpr int kConnections = 2;
constexpr std::size_t kWorkers = 2;
constexpr int kDocuments = 6;
constexpr int kClients = 4;
constexpr int kWarmupRounds = 20;  ///< pipelined passes over every combination
constexpr double kDrainTimeoutS = 30.0;
constexpr int kSetups = 5;  ///< set-ups per untraced run; setup_s is their median
constexpr std::size_t kOpsPerCpuWindow = 500;  ///< a quarter second of offered load
/// The small catalog is fixed: six seed-drawn documents would move frame
/// sizes and cost per request between seeds. The seed drives the mix.
constexpr std::uint64_t kCorpusSeed = 42;

/// The generated inputs: the catalog documents and the request stream (an
/// index into the combination table per request).
struct Inputs {
  std::vector<MultimediaDocument> documents;
  std::vector<NegotiationRequest> combos;
  std::vector<std::uint32_t> mix;
};

Inputs make_inputs(std::uint64_t seed, std::size_t requests) {
  Inputs in;
  CorpusConfig corpus;
  corpus.seed = kCorpusSeed;
  corpus.num_documents = kDocuments;
  corpus.servers = {"server-a", "server-b"};
  in.documents = generate_corpus(corpus);
  for (const MultimediaDocument& doc : in.documents) {
    for (int c = 0; c < kClients; ++c) {
      for (const UserProfile& profile : tolerant_profiles()) {
        in.combos.push_back(make_negotiation_request(full_client("client-" + std::to_string(c)),
                                                     doc.id, profile));
      }
    }
  }
  Rng rng(seed ^ 0x77697265ULL);
  in.mix.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    in.mix.push_back(static_cast<std::uint32_t>(rng.below(in.combos.size())));
  }
  return in;
}

NegotiationRequest request_at(const Inputs& in, std::size_t i) {
  NegotiationRequest request = in.combos[in.mix[i]];
  request.id = i + 1;
  return request;
}

Topology topology() { return Topology::dumbbell(kClients, 2, 10'000'000'000, 100'000'000'000); }

std::vector<MediaServerConfig> servers() {
  return {roomy_server("server-a", "server-node-0"), roomy_server("server-b", "server-node-1")};
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the wire server failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

bool write_all(int fd, const wire::Bytes& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

/// The system under test: catalog, farm, transport, manager with plan
/// cache, session table, worker pool, wire server, client connections.
struct Stack {
  Catalog catalog;
  std::unique_ptr<TransportService> transport;
  ServerFarm farm;
  std::unique_ptr<QoSManager> manager;
  std::unique_ptr<SessionManager> sessions;
  std::unique_ptr<NegotiationService> service;
  std::unique_ptr<WireServer> server;
  std::array<int, kConnections> fds{-1, -1};
  std::array<wire::FrameAssembler, kConnections> assemblers;
  std::vector<std::uint8_t> rx = std::vector<std::uint8_t>(65536);  ///< socket read buffer

  ~Stack() {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    if (server) server->stop();
    if (service) service->stop();
  }
};

/// Everything the measured loop observed about one request.
struct Observed {
  std::optional<NegotiationResult> result;
  double send_us = 0.0;  ///< since the loop's time origin
  double recv_us = 0.0;
  bool error_frame = false;
};

struct LoopStats {
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::vector<double> complete_us;
  std::uint64_t request_bytes = 0;
  std::uint64_t result_bytes = 0;
  std::uint64_t results = 0;
  double late_max_ms = 0.0;
};

/// Pump every readable connection: reassemble frames, decode results,
/// complete the sessions they opened.
void pump(Stack& stack, std::vector<Observed>& seen, LoopStats& stats, Clock::time_point origin,
          int timeout_ns) {
  std::array<pollfd, kConnections> pfds{};
  for (int c = 0; c < kConnections; ++c) pfds[c] = pollfd{stack.fds[c], POLLIN, 0};
  timespec ts{timeout_ns / 1'000'000'000, timeout_ns % 1'000'000'000};
  if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return;
  for (int c = 0; c < kConnections; ++c) {
    if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    for (;;) {
      const ssize_t n = ::recv(stack.fds[c], stack.rx.data(), stack.rx.size(), 0);
      if (n <= 0) break;
      stack.assemblers[c].feed(stack.rx.data(), static_cast<std::size_t>(n));
    }
    for (;;) {
      wire::FrameAssembler::Next next = stack.assemblers[c].next();
      if (!next.frame) break;
      const auto now = Clock::now();
      const std::size_t i = static_cast<std::size_t>(next.frame->seq - 1);
      if (i >= seen.size() || seen[i].result || seen[i].error_frame) continue;
      seen[i].recv_us = us_between(origin, now);
      stats.results += 1;
      if (next.frame->type != wire::FrameType::kResult) {
        seen[i].error_frame = true;
        continue;
      }
      stats.result_bytes += next.frame->payload.size() + wire::kHeaderBytes + wire::kTrailerBytes;
      auto decoded = wire::decode_result_payload(next.frame->payload);
      const auto decoded_at = Clock::now();
      stats.decode_us.push_back(us_between(now, decoded_at));
      if (!decoded.ok()) {
        seen[i].error_frame = true;
        continue;
      }
      if (decoded.value().session_id != 0) {
        stack.sessions->complete(decoded.value().session_id);
        stats.complete_us.push_back(us_between(decoded_at, Clock::now()));
      }
      seen[i].result = std::move(decoded.value());
    }
  }
}

/// Send request `i` on its connection, stamping the send time.
bool send_request(Stack& stack, const Inputs& in, std::size_t i, std::vector<Observed>& seen,
                  LoopStats& stats, Clock::time_point origin) {
  const NegotiationRequest request = request_at(in, i);
  const auto start = Clock::now();
  auto frame = wire::encode_request_frame(request, i + 1);
  stats.encode_us.push_back(us_between(start, Clock::now()));
  if (!frame.ok()) return false;
  stats.request_bytes += frame.value().size();
  seen[i].send_us = us_between(origin, start);
  return write_all(stack.fds[i % kConnections], frame.value());
}

SetupTimes build(Stack& stack, const Inputs& in, TraceSink* sink) {
  SetupTimes t;
  auto mark = Clock::now();
  for (MultimediaDocument doc : in.documents) {
    if (!stack.catalog.add(std::move(doc)).empty()) throw std::runtime_error("document rejected");
  }
  t.catalog_s = seconds_since(mark);

  mark = Clock::now();
  stack.transport = std::make_unique<TransportService>(topology());
  for (const MediaServerConfig& server : servers()) stack.farm.add(server);
  NodeConfig node = NodeConfig{}
                        .workers(kWorkers)
                        .queue_capacity(4096)
                        .plan_cache_enabled(true)
                        .trace_sink(sink);
  NegotiationConfig negotiation;
  negotiation.plan_cache = node.make_plan_cache();
  stack.manager = std::make_unique<QoSManager>(stack.catalog, stack.farm, *stack.transport,
                                               CostModel{}, std::move(negotiation));
  stack.sessions = std::make_unique<SessionManager>(*stack.manager);
  stack.service = std::make_unique<NegotiationService>(*stack.manager, *stack.sessions,
                                                       node.service());
  stack.service->start();
  stack.server = std::make_unique<WireServer>(*stack.service, node.wire_server());
  stack.server->start();
  for (int c = 0; c < kConnections; ++c) stack.fds[c] = connect_loopback(stack.server->port());
  t.stack_s = seconds_since(mark);

  // Warm-up: pipelined passes over every combination (one pass in flight
  // at a time), so the measured phase finds every plan cached.
  mark = Clock::now();
  Inputs warm;
  warm.combos = in.combos;
  for (int round = 0; round < kWarmupRounds; ++round) {
    for (std::uint32_t c = 0; c < in.combos.size(); ++c) warm.mix.push_back(c);
  }
  std::vector<Observed> seen(warm.mix.size());
  LoopStats stats;
  for (std::size_t begin = 0; begin < warm.mix.size(); begin += in.combos.size()) {
    const std::size_t end = begin + in.combos.size();
    for (std::size_t i = begin; i < end; ++i) {
      if (!send_request(stack, warm, i, seen, stats, mark)) throw std::runtime_error("warm-up send");
    }
    while (stats.results < end) {
      if (seconds_since(mark) > kDrainTimeoutS) throw std::runtime_error("warm-up timed out");
      pump(stack, seen, stats, mark, 100'000'000);
    }
  }
  for (const Observed& o : seen) {
    if (!o.result) throw std::runtime_error("warm-up request failed");
  }
  t.warmup_s = seconds_since(mark);
  return t;
}

struct PhaseOut {
  SetupTimes setup;
  double setup_median_s = 0.0;
  std::vector<Observed> seen;
  LoopStats stats;
  CpuWindows windows{kOpsPerCpuWindow};
  double rss_mb = 0.0;
  std::uint64_t retained = 0;
  bool net_balanced = false;
  bool drained = false;
  PlanCacheStats cache;
  SpanStats::Samples spans;
};

PhaseOut run_phase(const Inputs& in, std::size_t requests, int setups, bool traced) {
  PhaseOut out;
  SpanStats span_stats;
  TraceSink* sink = traced ? &span_stats : nullptr;

  // Rehearsal set-ups (built, warmed, torn down) give setup_s a median.
  std::vector<double> setup_s;
  for (int r = 1; r < setups; ++r) {
    Stack rehearsal;
    setup_s.push_back(setup_at_reference_speed(build(rehearsal, in, sink).total()));
  }
  Stack stack;
  out.setup = build(stack, in, sink);
  setup_s.push_back(setup_at_reference_speed(out.setup.total()));
  out.setup_median_s = median(setup_s);
  span_stats.take();  // warm-up spans are not part of the measurement
  const PlanCacheStats cache_before = stack.manager->plan_cache()->stats();

  out.seen.resize(requests);
  out.stats.encode_us.reserve(requests);
  out.stats.decode_us.reserve(requests);
  out.stats.complete_us.reserve(requests);
  const double interval_ns = 1e9 / kRatePerS;
  CpuWindows& windows = out.windows;
  windows.resume();
  const auto origin = Clock::now();
  auto due = [&](std::size_t i) {
    return origin + std::chrono::nanoseconds(static_cast<std::int64_t>(static_cast<double>(i) * interval_ns));
  };
  std::size_t next = 0;
  bool send_failed = false;
  while (out.stats.results < requests) {
    const auto now = Clock::now();
    if (next < requests && !send_failed && now >= due(next)) {
      out.stats.late_max_ms =
          std::max(out.stats.late_max_ms, us_between(due(next), now) / 1e3);
      send_failed = !send_request(stack, in, next, out.seen, out.stats, origin);
      windows.tick();
      ++next;
      continue;
    }
    if (next >= requests || send_failed) {
      if (seconds_since(origin) > static_cast<double>(requests) / kRatePerS + kDrainTimeoutS) break;
      pump(stack, out.seen, out.stats, origin, 10'000'000);
      if (send_failed) break;
      continue;
    }
    const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(due(next) - now).count();
    pump(stack, out.seen, out.stats, origin, static_cast<int>(std::max<std::int64_t>(wait, 0)));
  }
  out.rss_mb = peak_rss_mb();
  const PlanCacheStats cache_after = stack.manager->plan_cache()->stats();
  out.cache.lookups = cache_after.lookups - cache_before.lookups;
  out.cache.hits = cache_after.hits - cache_before.hits;
  out.cache.evictions = cache_after.evictions - cache_before.evictions;
  out.spans = span_stats.take();

  for (int& fd : stack.fds) {
    ::close(fd);
    fd = -1;
  }
  stack.server->stop();
  stack.service->stop();
  out.net_balanced = stack.server->net().balanced();
  out.retained = stack.sessions->prune_finished();
  out.drained = drained(stack.farm, *stack.transport, *stack.sessions);
  return out;
}

}  // namespace

Report run_wire_hot(const Args& args) {
  const std::size_t requests = static_cast<std::size_t>(kRatePerS * args.seconds);
  const Inputs in = make_inputs(args.seed, requests);

  const PhaseOut run = run_phase(in, requests, args.trace ? 1 : kSetups, false);
  std::optional<PhaseOut> traced;
  if (args.trace) traced = run_phase(in, requests, 1, true);

  Report report;
  report.attempted = requests;
  bool ref_drained = false;
  const std::vector<std::string> reference = local_reference(
      in.documents, servers(), topology(), [&in](std::size_t i) { return request_at(in, i); },
      requests, ref_drained);
  std::uint64_t ok = 0;
  std::uint64_t admitted = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t attempts = 0;
  std::vector<double> latency_us;
  std::vector<double> rtt_us;
  std::vector<double> overhead_us;
  std::vector<double> queue_us;
  std::vector<double> process_us;
  std::vector<double> service_us;
  latency_us.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const Observed& o = run.seen[i];
    if (!o.result || o.result->shed != ShedReason::kNone) continue;
    if (testing::result_signature(*o.result) != reference[i]) {
      ++mismatches;
      continue;
    }
    ++ok;
    if (o.result->session_id != 0) ++admitted;
    attempts += static_cast<std::uint64_t>(o.result->commit_stats.attempts);
    const double due_us = static_cast<double>(i) * 1e6 / kRatePerS;
    latency_us.push_back(o.recv_us - due_us);
    rtt_us.push_back(o.recv_us - o.send_us);
    overhead_us.push_back(o.recv_us - o.send_us - o.result->total_ms * 1e3);
    queue_us.push_back(o.result->queue_ms * 1e3);
    process_us.push_back((o.result->total_ms - o.result->queue_ms) * 1e3);
    service_us.push_back(o.result->total_ms * 1e3);
  }
  report.failed = requests - ok;
  report.check(ok == requests, "wire_hot: " + std::to_string(requests - ok) +
                                   " requests unanswered, shed or mismatched (" +
                                   std::to_string(mismatches) + " signature mismatches)");
  report.check(run.net_balanced, "wire_hot: qosnp_net_* conservation laws do not balance");
  report.check(run.drained, "wire_hot: system not drained after the run");
  report.check(ref_drained, "wire_hot: reference system not drained");
  if (traced) {
    report.check(traced->net_balanced && traced->drained, "wire_hot: traced run not drained");
  }

  if (!args.trace) {
    report.add("setup_s", run.setup_median_s, "s");
    report.add("cpu_us_per_op", run.windows.ref_us_per_op(), "us");
    report.add("procedure_p50_us", run.windows.ref_median(process_us), "us");
    report.add("ok_ratio", static_cast<double>(ok) / static_cast<double>(requests), "ratio");
    report.add("admitted_ratio", static_cast<double>(admitted) / static_cast<double>(requests),
               "ratio");
    report.add("peak_rss_mb", run.rss_mb, "MB");
    return report;
  }

  const PhaseOut& t = *traced;
  const double ops = static_cast<double>(requests);
  report.add("wire.request_frame_bytes", static_cast<double>(run.stats.request_bytes) / ops, "bytes");
  report.add("wire.result_frame_bytes",
             static_cast<double>(run.stats.result_bytes) / static_cast<double>(run.stats.results),
             "bytes");
  report.add("wire.encode_request_us", median(run.stats.encode_us), "us");
  report.add("wire.decode_result_us", median(run.stats.decode_us), "us");
  report.add("netio.overhead_us", median(overhead_us), "us");
  report.add("netio.rtt_p99_us", quantile(rtt_us, 0.99), "us");
  report.add("netio.generator_late_max_ms", run.stats.late_max_ms, "ms");
  report.add("service.queue_wait_us_p50", median(queue_us), "us");
  report.add("service.queue_wait_us_p99", quantile(queue_us, 0.99), "us");
  report.add("procedure.p99_us", quantile(process_us, 0.99), "us");
  report.add("client.latency_p50_us", median(latency_us), "us");
  report.add("client.latency_p99_us", quantile(latency_us, 0.99), "us");
  report.add("service.latency_p99_us", quantile(service_us, 0.99), "us");
  report.add("plan_cache.hit_ratio",
             run.cache.lookups == 0 ? 0.0
                                    : static_cast<double>(run.cache.hits) /
                                          static_cast<double>(run.cache.lookups),
             "ratio");
  report.add("plan_cache.evictions_per_op", static_cast<double>(run.cache.evictions) / ops, "ratio");
  report.add("commit.attempts_per_op", static_cast<double>(attempts) / ops, "ratio");
  report.add("session.complete_us", median(run.stats.complete_us), "us");
  report.add("session.retained_finished", static_cast<double>(run.retained), "count");
  report.add("setup.catalog_s", run.setup.catalog_s, "s");
  report.add("setup.stack_s", run.setup.stack_s, "s");
  report.add("setup.warmup_s", run.setup.warmup_s, "s");
  report.add("obs.trace_overhead_ratio", t.windows.ref_us_per_op() / run.windows.ref_us_per_op(),
             "ratio");
  add_span_metrics(report, t.spans);
  return report;
}

}  // namespace perfbench
