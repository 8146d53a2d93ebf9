// Observability layer: per-request traces, the metrics registry, trace
// sinks, and their wiring through the QoS manager and the service.
//
// The property tests pin the trace contract — one span per executed stage,
// child spans reference earlier parents, timestamps are monotone, the ring
// sink never exceeds its capacity — and the conservation law the registry
// must obey: every submitted request resolves into exactly one per-verdict
// response counter increment, sheds included.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_sink.hpp"
#include "policy/local_client.hpp"
#include "test_service.hpp"
#include "test_system.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;
using testing::TestSystem;

// --- MetricsRegistry ------------------------------------------------------

TEST(Metrics, CounterAccumulatesAcrossShards) {
  Counter c;
  for (int i = 0; i < 1000; ++i) c.inc();
  c.add(500);
  EXPECT_EQ(c.value(), 1500u);
}

TEST(Metrics, GaugeSetAddAndMax) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
  g.update_max(7);
  EXPECT_EQ(g.value(), 12);  // never lowers
  g.update_max(40);
  EXPECT_EQ(g.value(), 40);
}

TEST(Metrics, RegistryReturnsStableHandles) {
  MetricsRegistry registry;
  Counter& a = registry.counter("requests", {{"verdict", "SUCCEEDED"}});
  Counter& b = registry.counter("requests", {{"verdict", "SUCCEEDED"}});
  Counter& other = registry.counter("requests", {{"verdict", "FAILEDTRYLATER"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.add(3);
  EXPECT_EQ(registry.counter_value("requests", {{"verdict", "SUCCEEDED"}}), 3u);
  EXPECT_EQ(registry.counter_value("requests", {{"verdict", "FAILEDTRYLATER"}}), 0u);
  EXPECT_EQ(registry.counter_value("never-registered"), 0u);
}

TEST(Metrics, ExposeRendersPrometheusText) {
  MetricsRegistry registry;
  registry.counter("qosnp_requests_total", {}, "Requests submitted").add(7);
  registry.gauge("qosnp_queue_depth", {}, "Live queue depth").set(4);
  registry.counter("qosnp_responses_total", {{"verdict", "SUCCEEDED"}}).add(5);
  registry.histogram("qosnp_latency_ms", {}, "Latency").record(3.0);
  const std::string text = registry.expose();
  EXPECT_NE(text.find("# HELP qosnp_requests_total Requests submitted"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qosnp_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("qosnp_requests_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qosnp_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("qosnp_queue_depth 4"), std::string::npos);
  EXPECT_NE(text.find("qosnp_responses_total{verdict=\"SUCCEEDED\"} 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qosnp_latency_ms summary"), std::string::npos);
  EXPECT_NE(text.find("qosnp_latency_ms_count 1"), std::string::npos);
}

// --- NegotiationTrace -----------------------------------------------------

TEST(Trace, SpansNestAndTimestampsAreMonotone) {
  NegotiationTrace trace(42);
  const SpanId root = trace.begin_span(Stage::kCommitWalk);
  const SpanId child = trace.begin_span(Stage::kCommitAttempt, root);
  trace.annotate(child, "offer", std::uint64_t{0});
  trace.end_span(child);
  trace.end_span(root);
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[1].parent, root);
  EXPECT_TRUE(trace.spans()[0].closed());
  EXPECT_TRUE(trace.spans()[1].closed());
  EXPECT_LE(trace.spans()[0].start_ms, trace.spans()[1].start_ms);
  EXPECT_LE(trace.spans()[1].end_ms, trace.spans()[0].end_ms);
  EXPECT_EQ(trace.spans()[1].attr("offer"), "0");
  EXPECT_EQ(trace.count(Stage::kCommitAttempt), 1u);
}

TEST(Trace, InactiveContextIsANoOp) {
  TraceContext ctx;  // no trace attached
  EXPECT_FALSE(ctx.active());
  ctx.annotate("key", "value");  // must not crash
  ScopedSpan span(ctx, Stage::kLocalCheck);
  EXPECT_FALSE(span.active());
  span.annotate("key", 1.0);
}

TEST(Trace, JsonRenderingEscapesAndListsSpans) {
  NegotiationTrace trace(7);
  trace.set_verdict("SUCCEEDED");
  const SpanId s = trace.begin_span(Stage::kLocalCheck);
  trace.annotate(s, "note", "quote \" and \\ back");
  trace.end_span(s);
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"request_id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"SUCCEEDED\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"local-check\""), std::string::npos);
  EXPECT_NE(json.find("quote \\\" and \\\\ back"), std::string::npos);
}

// A traced negotiation driven directly through the QoSManager records the
// full Step 1-5 span ladder.
TEST(Trace, ManagerRecordsOneSpanPerExecutedStage) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationTrace trace(1);
  NegotiationResult result = manager.negotiate(make_negotiation_request(sys.client, "article",
                                               TestSystem::tolerant_profile(),
                                               TraceContext(&trace)));
  ASSERT_EQ(result.verdict, NegotiationStatus::kSucceeded);
  EXPECT_EQ(trace.count(Stage::kLocalCheck), 1u);
  EXPECT_EQ(trace.count(Stage::kCompatibility), 1u);
  EXPECT_EQ(trace.count(Stage::kEnumeration), 1u);
  EXPECT_EQ(trace.count(Stage::kCommitWalk), 1u);
  EXPECT_GE(trace.count(Stage::kCommitAttempt), 1u);
  for (const Span& span : trace.spans()) EXPECT_TRUE(span.closed());
  // Exactly one attempt committed, and every attempt nests under the walk.
  std::size_t committed = 0;
  for (const Span& span : trace.spans()) {
    if (span.stage != Stage::kCommitAttempt) continue;
    if (span.attr("result") == "committed") ++committed;
    ASSERT_NE(span.parent, kNoSpan);
    EXPECT_EQ(trace.spans()[span.parent].stage, Stage::kCommitWalk);
  }
  EXPECT_EQ(committed, 1u);
}

// LocalClient runs the service's admission routine, so a traced request
// records the Step-6 admission span naming the opened session.
TEST(Trace, LocalClientRecordsItsAdmission) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  SessionManager sessions(manager);
  LocalClient client(manager, sessions);
  NegotiationTrace trace(1);
  const NegotiationResult result = client.negotiate(
      make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile(),
                               TraceContext(&trace)),
      0.0);
  ASSERT_NE(result.session_id, 0u);
  const Span* admission = trace.find(Stage::kAdmission);
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->attr("session"), std::to_string(result.session_id));
  EXPECT_FALSE(admission->has_attr("confirmed"));  // Step 6 is the caller's
  sessions.complete(result.session_id);
}

// With every server down, the refusal component is attributed end-to-end:
// the failed commit-attempt span names who refused and how often we tried.
TEST(Trace, FailedCommitAttemptsNameTheRefusingComponent) {
  TestSystem sys;
  sys.farm.find("server-a")->fail();
  sys.farm.find("server-b")->fail();
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationTrace trace(2);
  NegotiationResult result = manager.negotiate(make_negotiation_request(sys.client, "article",
                                               TestSystem::tolerant_profile(),
                                               TraceContext(&trace)));
  ASSERT_EQ(result.verdict, NegotiationStatus::kFailedTryLater);
  ASSERT_GE(trace.count(Stage::kCommitAttempt), 1u);
  for (const Span& span : trace.spans()) {
    if (span.stage != Stage::kCommitAttempt) continue;
    EXPECT_EQ(span.attr("result"), "refused");
    EXPECT_FALSE(span.attr("component").empty());
    EXPECT_FALSE(span.attr("attempts").empty());
  }
  sys.farm.find("server-a")->recover();
  sys.farm.find("server-b")->recover();
}

// --- Trace sinks ----------------------------------------------------------

std::shared_ptr<const NegotiationTrace> make_trace(std::uint64_t id) {
  auto t = std::make_shared<NegotiationTrace>(id);
  t->end_span(t->begin_span(Stage::kLocalCheck));
  return t;
}

TEST(TraceSinks, RingBufferNeverExceedsCapacity) {
  RingBufferSink ring(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ring.record(make_trace(i));
    EXPECT_LE(ring.size(), 4u);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  const auto held = ring.snapshot();
  ASSERT_EQ(held.size(), 4u);
  // Oldest first: traces 7..10 survive.
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i]->request_id(), 7 + i);
  }
  EXPECT_NE(ring.find(10), nullptr);
  EXPECT_EQ(ring.find(3), nullptr);  // evicted
}

TEST(TraceSinks, JsonlFileSinkWritesOneLinePerTrace) {
  const std::string path = ::testing::TempDir() + "qosnp_traces_test.jsonl";
  std::remove(path.c_str());
  {
    JsonlFileSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.record(make_trace(1));
    sink.record(make_trace(2));
    sink.flush();
    EXPECT_EQ(sink.written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"request_id\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

// --- ServiceConfig validation ---------------------------------------------

TEST(ServiceValidation, RejectsZeroWorkers) {
  ServiceSystem sys(1);
  ServiceConfig config;
  config.workers = 0;
  EXPECT_THROW(NegotiationService(*sys.manager, *sys.sessions, config), std::invalid_argument);
}

TEST(ServiceValidation, RejectsZeroQueueCapacity) {
  ServiceSystem sys(1);
  ServiceConfig config;
  config.queue_capacity = 0;
  EXPECT_THROW(NegotiationService(*sys.manager, *sys.sessions, config), std::invalid_argument);
}

TEST(ServiceValidation, RejectsNegativeDeadline) {
  ServiceSystem sys(1);
  ServiceConfig config;
  config.deadline_ms = -1.0;
  EXPECT_THROW(NegotiationService(*sys.manager, *sys.sessions, config), std::invalid_argument);
}

TEST(ServiceValidation, RejectsNegativeRtt) {
  ServiceSystem sys(1);
  ServiceConfig config;
  config.simulated_rtt_ms = -0.5;
  EXPECT_THROW(NegotiationService(*sys.manager, *sys.sessions, config), std::invalid_argument);
}

// --- Service wiring: trace completeness + metrics conservation ------------

// Every trace a traced service records satisfies the structural contract:
// exactly one queue-wait span, one span per executed pipeline stage, child
// spans reference earlier spans, every span closed, timestamps monotone.
TEST(ServiceObservability, TracesAreCompleteAndWellFormed) {
  ServiceSystem sys(4);
  RingBufferSink ring(64);
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 32;
  config.trace_sink = &ring;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();
  std::vector<std::future<NegotiationResult>> futures;
  const std::size_t kRequests = 40;
  for (std::size_t i = 0; i < kRequests; ++i) {
    NegotiationRequest req;
    req.id = i + 1;
    req.client = sys.clients[i % sys.clients.size()];
    req.document = "article";
    req.profile = TestSystem::tolerant_profile();
    futures.push_back(service.submit(std::move(req)));
  }
  for (auto& f : futures) {
    NegotiationResult resp = f.get();
    ASSERT_NE(resp.trace, nullptr);
    EXPECT_EQ(resp.trace->request_id(), resp.request_id);
    EXPECT_EQ(resp.trace->verdict(), to_string(resp.verdict));
    if (resp.session_id != 0) sys.sessions->complete(resp.session_id);
  }
  service.stop();
  EXPECT_TRUE(sys.drained());

  EXPECT_EQ(ring.total_recorded(), kRequests);
  for (const auto& trace : ring.snapshot()) {
    EXPECT_EQ(trace->count(Stage::kQueueWait), 1u);
    if (trace->shed() == "none") {
      EXPECT_EQ(trace->count(Stage::kLocalCheck), 1u);
      EXPECT_EQ(trace->count(Stage::kCompatibility), 1u);
      EXPECT_EQ(trace->count(Stage::kEnumeration), 1u);
      EXPECT_EQ(trace->count(Stage::kCommitWalk), 1u);
    }
    if (trace->verdict() == "SUCCEEDED") {
      EXPECT_GE(trace->count(Stage::kCommitAttempt), 1u);
      EXPECT_EQ(trace->count(Stage::kAdmission), 1u);
    }
    for (std::size_t i = 0; i < trace->spans().size(); ++i) {
      const Span& span = trace->spans()[i];
      EXPECT_TRUE(span.closed());
      EXPECT_LE(span.start_ms, span.end_ms);
      if (span.parent != kNoSpan) {
        EXPECT_LT(span.parent, i);  // parents begin before their children
      }
      if (i > 0) {
        EXPECT_LE(trace->spans()[i - 1].start_ms, span.start_ms);
      }
    }
  }
}

// Conservation: every submitted request — processed or shed at either edge —
// lands in exactly one per-verdict counter, so the verdict counters sum to
// the submitted count.
TEST(ServiceObservability, VerdictCountersConserveSubmissions) {
  ServiceSystem sys(8);
  MetricsRegistry registry;
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 2;  // force queue-full sheds
  config.simulated_rtt_ms = 1.0;
  config.metrics = &registry;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();
  std::vector<std::future<NegotiationResult>> futures;
  const std::size_t kRequests = 120;
  for (std::size_t i = 0; i < kRequests; ++i) {
    NegotiationRequest req;
    req.id = i + 1;
    req.client = sys.clients[i % sys.clients.size()];
    req.document = "article";
    req.profile = TestSystem::tolerant_profile();
    futures.push_back(service.submit(std::move(req)));
  }
  for (auto& f : futures) {
    NegotiationResult resp = f.get();
    if (resp.session_id != 0) sys.sessions->complete(resp.session_id);
  }
  service.stop();
  EXPECT_TRUE(sys.drained());

  const ServiceReport report = service.report();
  EXPECT_EQ(report.submitted, kRequests);
  std::size_t resolved = 0;
  for (std::size_t v : report.by_status) resolved += v;
  EXPECT_EQ(resolved, kRequests);
  // The same law straight off the registry (what expose() would publish).
  std::size_t from_registry = 0;
  for (std::size_t i = 0; i < report.by_status.size(); ++i) {
    const auto status = static_cast<NegotiationStatus>(i);
    from_registry += registry.counter_value(
        "qosnp_responses_total", {{"verdict", std::string(to_string(status))}});
  }
  EXPECT_EQ(from_registry, kRequests);
  EXPECT_EQ(registry.counter_value("qosnp_requests_total"), kRequests);
  EXPECT_GT(report.shed_queue_full, 0u);  // the tiny queue really shed
  const std::string text = registry.expose();
  EXPECT_NE(text.find("qosnp_responses_total{verdict=\"SUCCEEDED\"}"), std::string::npos);
}

// Untraced service responses carry no trace handle, and the service's own
// registry still counts (metrics are always on).
TEST(ServiceObservability, TracingOffMeansNoTraceHandle) {
  ServiceSystem sys(2);
  NegotiationService service(*sys.manager, *sys.sessions, ServiceConfig{});
  service.start();
  NegotiationRequest req;
  req.id = 1;
  req.client = sys.clients[0];
  req.document = "article";
  req.profile = TestSystem::tolerant_profile();
  NegotiationResult resp = service.submit(std::move(req)).get();
  EXPECT_EQ(resp.trace, nullptr);
  EXPECT_EQ(resp.verdict, NegotiationStatus::kSucceeded);
  if (resp.session_id != 0) sys.sessions->complete(resp.session_id);
  service.stop();
  EXPECT_TRUE(sys.drained());
  EXPECT_EQ(service.metrics().counter_value("qosnp_requests_total"), 1u);
  EXPECT_EQ(service.metrics().counter_value("qosnp_traces_recorded_total"), 0u);
}

}  // namespace
}  // namespace qosnp
