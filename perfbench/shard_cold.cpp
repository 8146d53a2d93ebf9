// shard_cold: an open loop through ShardRouter::submit_async into an
// in-process ShardedService of 3 shards x 1 worker. The catalog holds
// thousands of generated documents whose variants are spread over every
// shard's server, so most plans miss the per-shard plan caches (which then
// evict) and many commitments cross shards through the FederatedCommitter.
// The weight sits on Steps 1-4, the miss/evict side of the plan cache,
// shard routing and federated commits; the wire is bypassed.
#include <algorithm>
#include <atomic>
#include <optional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/qos_manager.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "measure.hpp"
#include "netio/node_config.hpp"
#include "result_signature.hpp"
#include "shard/sharded_service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace qosnp;

namespace {

constexpr double kRatePerS = 2000.0;
constexpr std::size_t kShards = 3;
constexpr int kDocuments = 3000;
constexpr int kClients = 4;
constexpr std::size_t kWarmupRequests = 4096;
constexpr int kSetups = 5;  ///< set-ups per untraced run; setup_s is their median
constexpr double kDrainTimeoutS = 30.0;
/// Catalog and warm-up stream are fixed so that set-up does the same work
/// on every run; the seed drives the measured request stream.
constexpr std::uint64_t kCorpusSeed = 42;
constexpr std::uint64_t kWarmupSeed = 0x7761726d;
constexpr std::size_t kOpsPerCpuWindow = 500;  ///< a quarter second of offered load

struct Inputs {
  std::vector<MultimediaDocument> documents;
  std::vector<ClientMachine> clients;
  std::vector<UserProfile> profiles;
  std::vector<NegotiationRequest> stream;  ///< the measured requests, in order
  std::vector<NegotiationRequest> warmup;
};

std::vector<NegotiationRequest> make_stream(const Inputs& in, Rng& rng, std::size_t n) {
  std::vector<NegotiationRequest> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    NegotiationRequest request = make_negotiation_request(
        in.clients[rng.below(in.clients.size())],
        in.documents[rng.below(in.documents.size())].id, in.profiles[rng.below(in.profiles.size())]);
    request.id = i + 1;
    out.push_back(std::move(request));
  }
  return out;
}

Inputs make_inputs(std::uint64_t seed, std::size_t requests) {
  Inputs in;
  CorpusConfig corpus;
  corpus.seed = kCorpusSeed;
  corpus.num_documents = kDocuments;
  corpus.servers.clear();
  for (std::size_t k = 0; k < kShards; ++k) corpus.servers.push_back("srv-" + std::to_string(k));
  in.documents = generate_corpus(corpus);
  for (int c = 0; c < kClients; ++c) in.clients.push_back(full_client("client-" + std::to_string(c)));
  in.profiles = tolerant_profiles();
  Rng warm_rng(kWarmupSeed);
  in.warmup = make_stream(in, warm_rng, kWarmupRequests);
  Rng rng(seed ^ 0x73686172ULL);
  in.stream = make_stream(in, rng, requests);
  return in;
}

Topology topology() { return Topology::dumbbell(kClients, kShards, 10'000'000'000, 100'000'000'000); }

/// One server per shard: srv-k on server-node-k.
std::vector<MediaServerConfig> servers() {
  std::vector<MediaServerConfig> out;
  for (std::size_t k = 0; k < kShards; ++k) {
    out.push_back(roomy_server("srv-" + std::to_string(k), "server-node-" + std::to_string(k)));
  }
  return out;
}

/// Build the federation: catalog partitions, then verticals + worker pools,
/// then a pipelined warm-up that fills every shard's plan cache.
SetupTimes build(std::unique_ptr<ShardedService>& cluster, const Inputs& in, TraceSink* sink) {
  SetupTimes t;
  auto mark = Clock::now();
  std::vector<ShardSpec> specs(kShards);
  const std::vector<MediaServerConfig> all = servers();
  for (std::size_t k = 0; k < kShards; ++k) {
    specs[k].servers.push_back(all[k]);
    specs[k].topology = topology();
  }
  cluster = std::make_unique<ShardedService>(
      std::move(specs),
      NodeConfig{}.workers(1).queue_capacity(8192).plan_cache_enabled(true).trace_sink(sink));
  t.stack_s = seconds_since(mark);

  mark = Clock::now();
  for (MultimediaDocument doc : in.documents) {
    if (!cluster->add_document(std::move(doc)).empty()) throw std::runtime_error("document rejected");
  }
  t.catalog_s = seconds_since(mark);

  mark = Clock::now();
  cluster->start();
  t.stack_s += seconds_since(mark);

  // Warm-up: the whole warm-up stream in flight at once (CPU-bound, not
  // paced by round trips), filling every shard's plan cache.
  mark = Clock::now();
  std::atomic<std::size_t> answered{0};
  std::atomic<std::size_t> admitted{0};
  SessionManager& sessions = cluster->sessions();
  for (const NegotiationRequest& request : in.warmup) {
    cluster->router().submit_async(request, [&](NegotiationResult r) {
      if (r.session_id != 0) {
        sessions.complete(r.session_id);
        admitted.fetch_add(1, std::memory_order_relaxed);
      }
      answered.fetch_add(1, std::memory_order_release);
    });
  }
  while (answered.load(std::memory_order_acquire) < in.warmup.size()) {
    if (seconds_since(mark) > kDrainTimeoutS) {
      cluster->stop();  // resolves every pending callback before its captures go
      throw std::runtime_error("warm-up timed out");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (admitted.load() != in.warmup.size()) throw std::runtime_error("warm-up request not admitted");
  t.warmup_s = seconds_since(mark);
  return t;
}

struct Slot {
  NegotiationResult result;
  double done_us = 0.0;  ///< since the loop's time origin
  double complete_us = -1.0;
};

struct ShardCounts {
  std::uint64_t requests = 0;
  std::vector<std::uint64_t> routed;
  std::uint64_t cross = 0;
  std::uint64_t rollbacks = 0;

  static ShardCounts of(const ShardMetrics& m) {
    ShardCounts c;
    c.requests = m.requests->value();
    for (const Counter* r : m.routed) c.routed.push_back(r->value());
    for (const Counter* x : m.cross_commits) c.cross += x->value();
    c.rollbacks = m.federated_rollbacks->value();
    return c;
  }
};

PlanCacheStats cache_totals(ShardedService& cluster) {
  PlanCacheStats total;
  for (std::size_t k = 0; k < cluster.shard_count(); ++k) {
    const PlanCacheStats s = cluster.manager(k).plan_cache()->stats();
    total.lookups += s.lookups;
    total.hits += s.hits;
    total.evictions += s.evictions;
  }
  return total;
}

struct PhaseOut {
  SetupTimes setup;
  double setup_median_s = 0.0;
  std::vector<Slot> slots;
  CpuWindows windows{kOpsPerCpuWindow};
  double rss_mb = 0.0;
  double late_max_ms = 0.0;
  bool finished = false;
  bool drained = false;
  bool balanced = false;
  std::uint64_t retained = 0;
  ShardCounts shard_before, shard_after;
  PlanCacheStats cache_before, cache_after;
  SpanStats::Samples spans;
};

PhaseOut run_phase(const Inputs& in, int setups, bool traced) {
  PhaseOut out;
  SpanStats span_stats;
  TraceSink* sink = traced ? &span_stats : nullptr;
  std::vector<double> setup_s;
  for (int r = 1; r < setups; ++r) {
    std::unique_ptr<ShardedService> rehearsal;
    setup_s.push_back(setup_at_reference_speed(build(rehearsal, in, sink).total()));
    rehearsal->stop();
  }
  std::unique_ptr<ShardedService> cluster;
  out.setup = build(cluster, in, sink);
  setup_s.push_back(setup_at_reference_speed(out.setup.total()));
  out.setup_median_s = median(setup_s);
  span_stats.take();
  out.shard_before = ShardCounts::of(cluster->shard_metrics());
  out.cache_before = cache_totals(*cluster);

  const std::size_t n = in.stream.size();
  out.slots.resize(n);
  std::atomic<std::size_t> done{0};
  SessionManager& sessions = cluster->sessions();
  const double interval_ns = 1e9 / kRatePerS;
  CpuWindows& windows = out.windows;
  windows.resume();
  const auto origin = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto due =
        origin + std::chrono::nanoseconds(static_cast<std::int64_t>(static_cast<double>(i) * interval_ns));
    std::this_thread::sleep_until(due);
    out.late_max_ms = std::max(out.late_max_ms, us_between(due, Clock::now()) / 1e3);
    Slot* slot = &out.slots[i];
    cluster->router().submit_async(in.stream[i], [slot, &sessions, &done, origin](NegotiationResult r) {
      const auto at = Clock::now();
      slot->done_us = us_between(origin, at);
      if (r.session_id != 0) {
        sessions.complete(r.session_id);
        slot->complete_us = us_between(at, Clock::now());
      }
      slot->result = std::move(r);
      done.fetch_add(1, std::memory_order_release);
    });
    windows.tick();
  }
  while (done.load(std::memory_order_acquire) < n &&
         seconds_since(origin) < static_cast<double>(n) / kRatePerS + kDrainTimeoutS) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  out.rss_mb = peak_rss_mb();
  out.finished = done.load(std::memory_order_acquire) == n;
  out.spans = span_stats.take();
  out.shard_after = ShardCounts::of(cluster->shard_metrics());
  out.cache_after = cache_totals(*cluster);
  cluster->stop();
  out.balanced = cluster->shard_metrics().balanced();
  out.retained = sessions.prune_finished();
  out.drained = cluster->drained();
  return out;
}

}  // namespace

Report run_shard_cold(const Args& args) {
  const std::size_t requests = static_cast<std::size_t>(kRatePerS * args.seconds);
  const Inputs in = make_inputs(args.seed, requests);
  const PhaseOut run = run_phase(in, args.trace ? 1 : kSetups, false);
  std::optional<PhaseOut> traced;
  if (args.trace) traced = run_phase(in, 1, true);

  Report report;
  report.attempted = requests;
  bool ref_drained = false;
  const std::vector<std::string> reference = local_reference(
      in.documents, servers(), topology(), [&in](std::size_t i) { return in.stream[i]; }, requests,
      ref_drained);
  std::uint64_t ok = 0;
  std::uint64_t admitted = 0;
  std::uint64_t attempts = 0;
  std::vector<double> latency_us, queue_us, process_us, service_us, complete_us;
  latency_us.reserve(requests);
  for (std::size_t i = 0; i < requests && run.finished; ++i) {
    const Slot& s = run.slots[i];
    if (s.result.shed != ShedReason::kNone) continue;
    if (testing::result_signature(s.result) != reference[i]) continue;
    ++ok;
    if (s.result.session_id != 0) ++admitted;
    attempts += static_cast<std::uint64_t>(s.result.commit_stats.attempts);
    latency_us.push_back(s.done_us - static_cast<double>(i) * 1e6 / kRatePerS);
    queue_us.push_back(s.result.queue_ms * 1e3);
    process_us.push_back((s.result.total_ms - s.result.queue_ms) * 1e3);
    service_us.push_back(s.result.total_ms * 1e3);
    if (s.complete_us >= 0.0) complete_us.push_back(s.complete_us);
  }
  report.failed = requests - ok;
  report.check(run.finished, "shard_cold: not every request resolved");
  report.check(ok == requests, "shard_cold: " + std::to_string(requests - ok) +
                                   " requests shed or mismatched against the reference");
  report.check(run.balanced, "shard_cold: qosnp_shard_* balance law violated");
  report.check(run.drained, "shard_cold: federation not drained after the run");
  report.check(ref_drained, "shard_cold: reference system not drained");
  if (traced) {
    report.check(traced->finished && traced->balanced && traced->drained,
                 "shard_cold: traced run not drained");
  }

  const double ops = static_cast<double>(requests);
  if (!args.trace) {
    report.add("setup_s", run.setup_median_s, "s");
    report.add("cpu_us_per_op", run.windows.ref_us_per_op(), "us");
    report.add("procedure_p50_us", run.windows.ref_median(process_us), "us");
    report.add("ok_ratio", static_cast<double>(ok) / ops, "ratio");
    report.add("admitted_ratio", static_cast<double>(admitted) / ops, "ratio");
    report.add("peak_rss_mb", run.rss_mb, "MB");
    return report;
  }

  const PhaseOut& t = *traced;
  report.add("service.queue_wait_us_p50", median(queue_us), "us");
  report.add("service.queue_wait_us_p99", quantile(queue_us, 0.99), "us");
  report.add("procedure.p99_us", quantile(process_us, 0.99), "us");
  report.add("client.latency_p50_us", median(latency_us), "us");
  report.add("client.latency_p99_us", quantile(latency_us, 0.99), "us");
  report.add("service.latency_p99_us", quantile(service_us, 0.99), "us");
  report.add("netio.generator_late_max_ms", run.late_max_ms, "ms");
  const ShardCounts& a = run.shard_before;
  const ShardCounts& b = run.shard_after;
  std::uint64_t routed_max = 0;
  for (std::size_t k = 0; k < b.routed.size(); ++k) routed_max = std::max(routed_max, b.routed[k] - a.routed[k]);
  report.add("shard.cross_shard_ratio", static_cast<double>(b.cross - a.cross) / ops, "ratio");
  report.add("shard.routed_imbalance",
             static_cast<double>(routed_max) * static_cast<double>(kShards) / ops, "ratio");
  report.add("shard.federated_rollbacks", static_cast<double>(b.rollbacks - a.rollbacks), "count");
  const std::uint64_t lookups = run.cache_after.lookups - run.cache_before.lookups;
  report.add("plan_cache.hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(run.cache_after.hits - run.cache_before.hits) /
                                static_cast<double>(lookups),
             "ratio");
  report.add("plan_cache.evictions_per_op",
             static_cast<double>(run.cache_after.evictions - run.cache_before.evictions) / ops, "ratio");
  report.add("commit.attempts_per_op", static_cast<double>(attempts) / ops, "ratio");
  report.add("session.complete_us", median(complete_us), "us");
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
