#include "service/negotiation_service.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "policy/preemption.hpp"
#include "util/log.hpp"
#include "util/validate.hpp"

namespace qosnp {

SimMetrics ServiceReport::to_sim_metrics() const {
  SimMetrics m;
  m.arrivals = submitted;
  for (std::size_t i = 0; i < by_status.size(); ++i) m.by_status[i] = by_status[i];
  m.confirmed = sessions_confirmed;
  m.negotiation_ms_total = latency.sum_ms();
  m.service_requests = submitted;
  m.shed_queue_full = shed_queue_full;
  m.shed_deadline = shed_deadline;
  m.queue_high_water = queue_high_water;
  m.latency_p50_ms = latency.quantile_ms(0.50);
  m.latency_p95_ms = latency.quantile_ms(0.95);
  m.latency_p99_ms = latency.quantile_ms(0.99);
  m.service_throughput_rps = throughput_rps();
  return m;
}

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
  require_config(config.upgrade_scan_interval_ms >= 0.0, "ServiceConfig",
                 "upgrade_scan_interval_ms must not be negative");
  require_config(config.upgrade_scan_interval_ms == 0.0 || config.policy != nullptr,
                 "ServiceConfig", "upgrade_scan_interval_ms requires a policy engine");
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
  // A cache-enabled manager gets its counters mirrored into the same
  // registry the service reports from (last binding service wins).
  if (auto* cache = manager_->plan_cache()) cache->bind_metrics(*metrics_);
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
  if (config_.policy != nullptr && config_.upgrade_scan_interval_ms > 0.0) {
    {
      std::lock_guard lk(scanner_mu_);
      scanner_stop_ = false;
    }
    upgrade_scanner_ = std::thread([this] { upgrade_scan_loop(); });
  }
  QOSNP_LOG_INFO("service", "started ", config_.workers, " workers, queue capacity ",
                 queue_.capacity());
}

void NegotiationService::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  queue_.close();
  for (auto& w : workers_) w.join();
  workers_.clear();
  if (upgrade_scanner_.joinable()) {
    {
      std::lock_guard lk(scanner_mu_);
      scanner_stop_ = true;
    }
    scanner_cv_.notify_all();
    upgrade_scanner_.join();
  }
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

void NegotiationService::submit_async(NegotiationRequest request, CompletionFn done) {
  requests_total_->inc();
  Item item;
  item.accepted_ms = clock_.elapsed_ms();
  item.request = std::move(request);
  item.done = std::move(done);
  if (config_.trace_sink != nullptr) {
    item.trace = std::make_shared<NegotiationTrace>(item.request.id);
    item.queue_span = item.trace->begin_span(Stage::kQueueWait);
  }
  if (!running_.load(std::memory_order_acquire) || !queue_.try_push(std::move(item))) {
    // Load shedding at the queue edge: the bounded queue is full (or the
    // service is not accepting). FAILEDTRYLATER is the honest verdict —
    // the overload is transient by definition.
    shed_queue_full_total_->inc();
    NegotiationResult shed;
    shed.request_id = item.request.id;
    shed.verdict = NegotiationStatus::kFailedTryLater;
    shed.shed = ShedReason::kQueueFull;
    shed.total_ms = clock_.elapsed_ms() - item.accepted_ms;
    count_response(shed);
    QOSNP_LOG_DEBUG("service", "shed request ", item.request.id, " at the queue edge");
    finish_trace(item, shed);
    item.done(std::move(shed));
  }
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

void NegotiationService::upgrade_scan_loop() {
  set_log_tag("upgrade-scan");
  const auto interval =
      std::chrono::duration<double, std::milli>(config_.upgrade_scan_interval_ms);
  std::unique_lock lk(scanner_mu_);
  while (!scanner_stop_) {
    if (scanner_cv_.wait_for(lk, interval, [this] { return scanner_stop_; })) break;
    lk.unlock();
    const std::size_t promoted = config_.policy->run_upgrades();
    if (promoted > 0) QOSNP_LOG_DEBUG("service", "upgrade scan promoted ", promoted);
    lk.lock();
  }
  set_log_tag("");
}

void NegotiationService::worker_loop(std::size_t index) {
  set_log_tag("w" + std::to_string(index));
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
    const TraceContext ctx(item.trace.get());
    // The service owns per-request tracing: its trace (or none) replaces
    // whatever context the submitter put on the request.
    item.request.trace = ctx;
    response = config_.policy != nullptr ? config_.policy->negotiate(item.request)
                                         : manager_->negotiate(item.request);
    commit_attempts_total_->add(static_cast<std::uint64_t>(response.commit_stats.attempts));
    commit_retries_total_->add(static_cast<std::uint64_t>(response.commit_stats.retries));
    const bool take = response.has_commitment() &&
                      (response.verdict == NegotiationStatus::kSucceeded ||
                       item.request.accept_degraded);
    if (take) {
      ScopedSpan admission(ctx, Stage::kAdmission);
      auto opened = sessions_->open(item.request.client, item.request.profile,
                                    std::move(response), now_s(), item.request.session_class);
      if (opened.ok()) {
        sessions_opened_total_->inc();
        response.session_id = opened.value();
        admission.annotate("session", response.session_id);
        if (config_.auto_confirm) {
          if (sessions_->confirm(response.session_id, now_s()).ok()) {
            sessions_confirmed_total_->inc();
            admission.annotate("confirmed", "true");
          }
        }
      } else {
        admission.annotate("error", opened.error());
        QOSNP_LOG_WARN("service", "session open failed: ", opened.error());
      }
    } else if (response.has_commitment()) {
      // A declined degraded offer: release the reservations right here —
      // nothing stays reserved for a user who walked away.
      response.commitment.release();
    }
    // The resolved future carries no offer list or commitment: they belong
    // to the opened session (response.session_id) or were just released.
    response.offers = OfferList{};
    response.commitment = Commitment{};
    response.committed_index = SIZE_MAX;
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
