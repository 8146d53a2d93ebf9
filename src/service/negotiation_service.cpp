#include "service/negotiation_service.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"
#include "util/validate.hpp"

namespace qosnp {

std::string ServiceReport::summary() const {
  std::ostringstream os;
  os << "submitted=" << submitted << " processed=" << processed
     << " shed-queue=" << shed_queue_full << " shed-deadline=" << shed_deadline
     << " opened=" << sessions_opened << " confirmed=" << sessions_confirmed
     << " queue-high-water=" << queue_high_water << " throughput="
     << throughput_rps() << "/s p50=" << latency.quantile_ms(0.50)
     << "ms p95=" << latency.quantile_ms(0.95) << "ms p99=" << latency.quantile_ms(0.99)
     << "ms";
  return os.str();
}

ServiceConfig ServiceConfig::validated(ServiceConfig config) {
  require_config(config.workers > 0, "ServiceConfig", "workers must be at least 1");
  require_config(config.queue_capacity > 0, "ServiceConfig", "queue_capacity must be at least 1");
  require_config(config.deadline_ms >= 0.0, "ServiceConfig", "deadline_ms must not be negative");
  require_config(config.simulated_rtt_ms >= 0.0, "ServiceConfig",
                 "simulated_rtt_ms must not be negative");
  return config;
}

NegotiationService::NegotiationService(QoSManager& manager, SessionManager& sessions,
                                       ServiceConfig config)
    : manager_(&manager),
      sessions_(&sessions),
      config_(ServiceConfig::validated(std::move(config))),
      metrics_(config_.metrics != nullptr ? config_.metrics : &own_metrics_),
      queue_(config_.queue_capacity) {
  requests_total_ =
      &metrics_->counter("qosnp_requests_total", {}, "Requests submitted to the service");
  processed_total_ = &metrics_->counter("qosnp_processed_total", {},
                                        "Requests resolved by a worker (deadline sheds included)");
  for (std::size_t i = 0; i < responses_by_verdict_.size(); ++i) {
    const auto status = static_cast<NegotiationStatus>(i);
    responses_by_verdict_[i] =
        &metrics_->counter("qosnp_responses_total",
                           {{"verdict", std::string(to_string(status))}},
                           "Resolved responses by final verdict (sheds count as FAILEDTRYLATER)");
  }
  shed_queue_full_total_ =
      &metrics_->counter("qosnp_shed_total", {{"reason", std::string(to_string(ShedReason::kQueueFull))}},
                         "Requests shed without running the procedure, by reason");
  shed_deadline_total_ =
      &metrics_->counter("qosnp_shed_total",
                         {{"reason", std::string(to_string(ShedReason::kDeadlineExpired))}},
                         "Requests shed without running the procedure, by reason");
  sessions_opened_total_ =
      &metrics_->counter("qosnp_sessions_opened_total", {}, "Sessions admitted (Step 6 open)");
  sessions_confirmed_total_ = &metrics_->counter("qosnp_sessions_confirmed_total", {},
                                                 "Sessions confirmed within the choice period");
  commit_attempts_total_ = &metrics_->counter(
      "qosnp_commit_attempts_total", {}, "Offer-level commit attempts over all Step-5 walks");
  commit_retries_total_ = &metrics_->counter("qosnp_commit_retries_total", {},
                                             "Commit attempts beyond the first, per offer");
  traces_recorded_total_ =
      &metrics_->counter("qosnp_traces_recorded_total", {}, "Traces handed to the sink");
  queue_high_water_ =
      &metrics_->gauge("qosnp_queue_high_water", {}, "Deepest queue backlog observed");
  latency_ms_ = &metrics_->histogram("qosnp_request_latency_ms", {},
                                     "Accept-to-response latency in milliseconds");
  queue_wait_ms_ = &metrics_->histogram("qosnp_queue_wait_ms", {},
                                        "Accept-to-pickup queue wait in milliseconds");
  admission_hooks_.opened = [this](SessionId id, ScopedSpan& admission) {
    sessions_opened_total_->inc();
    if (config_.auto_confirm && sessions_->confirm(id, now_s()).ok()) {
      sessions_confirmed_total_->inc();
      admission.annotate("confirmed", "true");
    }
  };
  // The manager's plan cache gets its counters mirrored into the same
  // registry the service reports from (last binding service wins).
  manager_->plan_cache()->bind_metrics(*metrics_);
}

NegotiationService::~NegotiationService() { stop(); }

void NegotiationService::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  started_ms_ = clock_.elapsed_ms();
  stopped_ms_ = 0.0;
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  QOSNP_LOG_INFO("service", "started ", config_.workers, " workers, queue capacity ",
                 queue_.capacity());
}

void NegotiationService::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  queue_.close();
  for (auto& w : workers_) w.join();
  workers_.clear();
  stopped_ms_ = clock_.elapsed_ms();
  QOSNP_LOG_INFO("service", "stopped; ", requests_total_->value(), " requests submitted");
}

void NegotiationService::finish_trace(Item& item, NegotiationResult& result) {
  if (!item.trace) return;
  item.trace->end_span(item.queue_span);
  item.trace->set_verdict(std::string(to_string(result.verdict)));
  item.trace->set_shed(std::string(to_string(result.shed)));
  std::shared_ptr<const NegotiationTrace> done = std::move(item.trace);
  config_.trace_sink->record(done);
  traces_recorded_total_->inc();
  result.trace = std::move(done);
}

void NegotiationService::count_response(const NegotiationResult& result) {
  responses_by_verdict_[static_cast<std::size_t>(result.verdict)]->inc();
}

NegotiationService::Item NegotiationService::accept(NegotiationRequest request,
                                                    double accepted_ms) {
  requests_total_->inc();
  Item item;
  item.accepted_ms = accepted_ms;
  item.request = std::move(request);
  if (config_.trace_sink != nullptr) {
    // The wait began at accepted_ms: on the wire, the socket read before
    // the frame's decode. The trace is born then, so its queue-wait span
    // covers the interval queue_ms measures.
    item.trace = std::make_shared<NegotiationTrace>(item.request.id, clock_.at_ms(accepted_ms));
    item.queue_span = item.trace->begin_span_at(Stage::kQueueWait, 0.0);
  }
  return item;
}

NegotiationResult NegotiationService::shed_at_edge(Item& item) {
  // Load shedding at the queue edge: the bounded queue is full (or the
  // service is not accepting). FAILEDTRYLATER is the honest verdict — the
  // overload is transient by definition.
  shed_queue_full_total_->inc();
  NegotiationResult shed;
  shed.request_id = item.request.id;
  shed.verdict = NegotiationStatus::kFailedTryLater;
  shed.shed = ShedReason::kQueueFull;
  shed.total_ms = clock_.elapsed_ms() - item.accepted_ms;
  count_response(shed);
  QOSNP_LOG_DEBUG("service", "shed request ", item.request.id, " at the queue edge");
  finish_trace(item, shed);
  return shed;
}

void NegotiationService::submit_async(NegotiationRequest request, CompletionFn done) {
  Item item = accept(std::move(request), clock_.elapsed_ms());
  item.done = std::move(done);
  if (!running_.load(std::memory_order_acquire) || !queue_.try_push(std::move(item))) {
    item.done(shed_at_edge(item));
  }
}

NegotiationResult NegotiationService::serve(NegotiationRequest request, std::size_t worker,
                                            double received_s) {
  Item item = accept(std::move(request), received_s * 1e3);
  if (!running_.load(std::memory_order_acquire)) return shed_at_edge(item);
  return process(item, worker);
}

std::future<NegotiationResult> NegotiationService::submit(NegotiationRequest request) {
  auto promise = std::make_shared<std::promise<NegotiationResult>>();
  std::future<NegotiationResult> future = promise->get_future();
  submit_async(std::move(request),
               [promise](NegotiationResult result) { promise->set_value(std::move(result)); });
  return future;
}

NegotiationResult NegotiationService::negotiate(NegotiationRequest request, double /*now_s*/) {
  if (config_.auto_confirm) {
    throw std::invalid_argument(
        "NegotiationService::negotiate: the service must run with auto_confirm=false "
        "(the caller drives Step 6 itself)");
  }
  return submit(std::move(request)).get();
}

void NegotiationService::worker_loop(std::size_t index) {
  std::string tag = "w";
  tag += std::to_string(index);
  set_log_tag(std::move(tag));
  while (auto item = queue_.pop()) {
    NegotiationResult response = process(*item, index);
    item->done(std::move(response));
  }
  set_log_tag("");
}

NegotiationResult NegotiationService::process(Item& item, std::size_t worker_index) {
  ScopedLogRequest log_request(item.request.id);
  const double queue_ms = clock_.elapsed_ms() - item.accepted_ms;
  if (item.trace) item.trace->end_span(item.queue_span);
  queue_wait_ms_->record(queue_ms);

  NegotiationResult response;
  const double deadline_ms =
      item.request.deadline_ms > 0.0 ? item.request.deadline_ms : config_.deadline_ms;
  if (deadline_ms > 0.0 && queue_ms > deadline_ms) {
    // The request aged out while queued: rejecting it now is cheaper than
    // negotiating for a client that has given up (and sheds queueing delay
    // for everyone behind it).
    response.verdict = NegotiationStatus::kFailedTryLater;
    response.shed = ShedReason::kDeadlineExpired;
    shed_deadline_total_->inc();
    QOSNP_LOG_DEBUG("service", "deadline expired after ", queue_ms, "ms in queue");
  } else {
    if (config_.simulated_rtt_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(config_.simulated_rtt_ms));
    }
    // The service owns per-request tracing: its trace (or none) replaces
    // whatever context the submitter put on the request.
    item.request.trace = TraceContext(item.trace.get());
    response = admit(*manager_, /*policy=*/nullptr, *sessions_, item.request, now_s(),
                     admission_hooks_);
    commit_attempts_total_->add(static_cast<std::uint64_t>(response.commit_stats.attempts));
    commit_retries_total_->add(static_cast<std::uint64_t>(response.commit_stats.retries));
  }

  response.request_id = item.request.id;
  response.worker = static_cast<int>(worker_index);
  response.queue_ms = queue_ms;
  processed_total_->inc();
  response.total_ms = clock_.elapsed_ms() - item.accepted_ms;
  latency_ms_->record(response.total_ms);
  count_response(response);
  finish_trace(item, response);
  return response;
}

ServiceReport NegotiationService::report() const {
  ServiceReport r;
  r.submitted = requests_total_->value();
  r.shed_queue_full = shed_queue_full_total_->value();
  r.accepted = r.submitted - r.shed_queue_full;
  r.processed = processed_total_->value();
  r.shed_deadline = shed_deadline_total_->value();
  for (std::size_t i = 0; i < r.by_status.size(); ++i) {
    r.by_status[i] = responses_by_verdict_[i]->value();
  }
  r.sessions_opened = sessions_opened_total_->value();
  r.sessions_confirmed = sessions_confirmed_total_->value();
  r.latency = latency_ms_->merged();
  r.queue_high_water = queue_.high_water();
  queue_high_water_->update_max(static_cast<std::int64_t>(r.queue_high_water));
  const double end_ms = stopped_ms_ > 0.0 ? stopped_ms_ : clock_.elapsed_ms();
  r.wall_s = (end_ms - started_ms_) / 1e3;
  return r;
}

}  // namespace qosnp
