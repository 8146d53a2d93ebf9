// Concurrent negotiation service: the front-end that turns the paper's
// one-request-at-a-time QoS manager into a traffic-serving system. Session
// requests enter through a bounded MPMC queue and a fixed worker pool runs
// the full procedure per request — Steps 1-5 (QoSManager, which commits
// through ResourceCommitter against the *shared* ServerFarm and
// TransportService) and Step 6 admission into the shared SessionManager.
// Every request resolves to one NegotiationResult carrying the verdict,
// shed reason, session id, latency figures and (when a TraceSink is
// configured) the per-request trace.
//
// Overload policy: when the queue is full (backpressure) or a request's
// queueing deadline expires before a worker picks it up, the request is
// rejected with FAILEDTRYLATER — the paper's "try later" verdict, produced
// here by load shedding as well as by transient resource refusals. Every
// submitted request always gets a response.
//
// Observability: the service records everything into a MetricsRegistry
// (its own by default, or an external one via ServiceConfig::metrics) —
// per-verdict response counters, shed counters by reason, session and
// commit-effort counters, latency histograms. report() is a snapshot of
// that registry; metrics().expose() renders the Prometheus-style text form.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/negotiation_client.hpp"
#include "core/negotiation_result.hpp"
#include "core/qos_manager.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "service/bounded_queue.hpp"
#include "session/session.hpp"
#include "sim/metrics.hpp"
#include "util/stopwatch.hpp"

namespace qosnp {

class PolicyEngine;

struct ServiceConfig {
  std::size_t workers = 4;
  std::size_t queue_capacity = 64;
  /// Per-request budget, in milliseconds, from acceptance into the queue to
  /// the start of processing; a request still queued past it is shed with
  /// FAILEDTRYLATER. 0 disables the deadline. A positive
  /// NegotiationRequest::deadline_ms overrides this per request.
  double deadline_ms = 0.0;
  /// Simulated remote round-trip stall per processed request, modelling the
  /// catalog/server/transport message exchanges the distributed prototype
  /// paid off-CPU. Makes the service latency-bound like its real
  /// counterpart, so worker-pool speedups are measurable on any core count.
  /// 0 = no stall.
  double simulated_rtt_ms = 0.0;
  /// Auto-confirm committed sessions (the Step 6 accept) as the worker's
  /// last act; off = the caller drives confirm()/reject() itself.
  bool auto_confirm = true;
  /// Record metrics into this registry instead of the service's own
  /// (aggregating several services, or exposing one registry for the whole
  /// process). Not owned; must outlive the service.
  MetricsRegistry* metrics = nullptr;
  /// When set, every resolved request builds a NegotiationTrace (one span
  /// per executed stage) that is recorded here and attached to the
  /// response. Not owned; must outlive the service. nullptr = no tracing.
  TraceSink* trace_sink = nullptr;
  /// Class-differentiated admission: workers negotiate through this engine
  /// (preemption on congestion) instead of the bare manager. Must wrap the
  /// same QoSManager/SessionManager pair the service runs on. Not owned;
  /// must outlive the service. nullptr = class-blind (byte-identical to the
  /// pre-policy service).
  PolicyEngine* policy = nullptr;
  /// Period of the background upgrade scanner (PolicyEngine::run_upgrades);
  /// 0 disables it. Requires `policy`.
  double upgrade_scan_interval_ms = 0.0;

  /// Throws std::invalid_argument when the config is unusable (zero
  /// workers, zero queue capacity, negative deadline or RTT). Shares the
  /// require_config() validation path with CachePolicy.
  static ServiceConfig validated(ServiceConfig config);
};

/// Aggregated service-level snapshot, assembled from the metrics registry.
/// `by_status` covers every resolved request, sheds included (they count as
/// FAILEDTRYLATER).
struct ServiceReport {
  std::size_t submitted = 0;
  std::size_t accepted = 0;   ///< made it into the queue
  std::size_t processed = 0;  ///< resolved by a worker (deadline sheds included)
  std::size_t shed_queue_full = 0;
  std::size_t shed_deadline = 0;
  std::array<std::size_t, 5> by_status{};  ///< indexed by NegotiationStatus
  std::size_t sessions_opened = 0;
  std::size_t sessions_confirmed = 0;
  std::size_t queue_high_water = 0;
  double wall_s = 0.0;  ///< start() -> stop() (or report time while running)
  LatencyHistogram latency;

  std::size_t count(NegotiationStatus status) const {
    return by_status[static_cast<std::size_t>(status)];
  }
  double shed_rate() const {
    return submitted == 0 ? 0.0
                          : static_cast<double>(shed_queue_full + shed_deadline) /
                                static_cast<double>(submitted);
  }
  double throughput_rps() const {
    return wall_s <= 0.0 ? 0.0 : static_cast<double>(processed) / wall_s;
  }

  /// Export onto the simulation metrics surface the benches report.
  SimMetrics to_sim_metrics() const;
  std::string summary() const;
};

class NegotiationService final : public NegotiationClient {
 public:
  /// Throws std::invalid_argument when the config is unusable (zero
  /// workers, zero queue capacity, negative deadline or RTT) — a service
  /// that silently "fixed" those would lie about the load it was asked to
  /// carry.
  NegotiationService(QoSManager& manager, SessionManager& sessions, ServiceConfig config = {});
  ~NegotiationService();

  NegotiationService(const NegotiationService&) = delete;
  NegotiationService& operator=(const NegotiationService&) = delete;

  void start();
  /// Close the queue, let the workers drain the backlog, join them. Every
  /// request accepted before stop() still gets a real response.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Completion callback of submit_async. Runs on the resolving thread: a
  /// worker thread normally, the submitter's own thread when the request is
  /// shed at the queue edge. It must not block (it would stall a worker)
  /// and must not call back into the service synchronously.
  using CompletionFn = std::function<void(NegotiationResult)>;

  /// Hand a request to the service; `done` is invoked exactly once with the
  /// response. This is the primitive the network front-end builds on — an
  /// event loop parks no thread per in-flight request. A full (or closed)
  /// queue invokes `done` immediately (on this thread) with
  /// FAILEDTRYLATER/kQueueFull. The resolved result does not carry the
  /// offer list or the commitment — those belong to the opened session
  /// (result.session_id) or were released before resolution. request.trace
  /// is replaced by the service's own per-request trace when a TraceSink is
  /// configured.
  void submit_async(NegotiationRequest request, CompletionFn done);

  /// Future-returning wrapper over submit_async; same guarantees.
  std::future<NegotiationResult> submit(NegotiationRequest request);

  /// NegotiationClient: submit() and block for the result, leaving Step 6
  /// to the caller. Throws std::invalid_argument, before submitting, when
  /// the service auto-confirms (its workers would take Step 6 themselves).
  NegotiationResult negotiate(NegotiationRequest request, double now_s) override;

  std::size_t queue_depth() const { return queue_.size(); }
  /// Service clock: seconds since construction (the time base sessions are
  /// opened/confirmed against).
  double now_s() const { return clock_.elapsed_seconds(); }

  /// Metrics snapshot assembled from the registry. Exact once the service
  /// is stopped; a live snapshot may straddle in-flight requests.
  ServiceReport report() const;

  /// The registry this service records into (own or external).
  MetricsRegistry& metrics() { return *metrics_; }
  const MetricsRegistry& metrics() const { return *metrics_; }

  SessionManager& sessions() override { return *sessions_; }
  /// Sessions open on the service clock, not the caller's.
  double session_now_s(double /*now_s*/) const override { return now_s(); }
  PolicyEngine* policy() override { return config_.policy; }

  /// The validated configuration the service runs with.
  const ServiceConfig& config() const { return config_; }

 private:
  struct Item {
    NegotiationRequest request;
    CompletionFn done;
    double accepted_ms = 0.0;
    /// Present only when the service traces (ServiceConfig::trace_sink).
    std::shared_ptr<NegotiationTrace> trace;
    SpanId queue_span = kNoSpan;
  };

  void worker_loop(std::size_t index);
  void upgrade_scan_loop();
  NegotiationResult process(Item& item, std::size_t worker_index);
  /// Stamp the verdict on the trace, hand it to the sink, attach it to the
  /// result. No-op when the item carries no trace.
  void finish_trace(Item& item, NegotiationResult& result);
  void count_response(const NegotiationResult& result);

  QoSManager* manager_;
  SessionManager* sessions_;
  ServiceConfig config_;
  MetricsRegistry own_metrics_;
  MetricsRegistry* metrics_;
  Stopwatch clock_;
  BoundedQueue<Item> queue_;
  std::vector<std::thread> workers_;
  std::thread upgrade_scanner_;
  std::mutex scanner_mu_;
  std::condition_variable scanner_cv_;
  bool scanner_stop_ = false;  ///< guarded by scanner_mu_
  std::atomic<bool> running_{false};
  double started_ms_ = 0.0;  ///< written by start()/stop() only
  double stopped_ms_ = 0.0;

  // Registry handles, registered once at construction (stable addresses).
  Counter* requests_total_;
  Counter* processed_total_;
  std::array<Counter*, 5> responses_by_verdict_;
  Counter* shed_queue_full_total_;
  Counter* shed_deadline_total_;
  Counter* sessions_opened_total_;
  Counter* sessions_confirmed_total_;
  Counter* commit_attempts_total_;
  Counter* commit_retries_total_;
  Counter* traces_recorded_total_;
  Gauge* queue_high_water_;
  HistogramMetric* latency_ms_;
  HistogramMetric* queue_wait_ms_;
};

}  // namespace qosnp
