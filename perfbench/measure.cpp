#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "core/qos_manager.hpp"
#include "document/catalog.hpp"
#include "policy/local_client.hpp"
#include "result_signature.hpp"

namespace perfbench {

using namespace qosnp;

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double reference_kernel_us() {
  timespec t0{};
  timespec t1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  std::unordered_map<std::uint64_t, std::string> table;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 12'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[x % 2048] = std::string(24 + (x >> 60), static_cast<char>('a' + x % 26));
    const auto it = table.find((x >> 20) % 2048);
    if (it != table.end() && (x & 3) == 0) table.erase(it);
  }
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  // The size check keeps the work observable, so it cannot be elided.
  if (table.size() > 2048) std::abort();
  return static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e6 +
         static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-3;
}

void CpuWindows::resume() { resumed_at_s_ = process_cpu_s(); }

void CpuWindows::pause() { window_cpu_us_ += (process_cpu_s() - resumed_at_s_) * 1e6; }

void CpuWindows::tick() {
  if (++ops_ < ops_per_window_) return;
  pause();
  const double kernel_us = reference_kernel_us();
  ref_us_per_op_.push_back(window_cpu_us_ / static_cast<double>(ops_) * kReferenceKernelUs /
                           kernel_us);
  kernel_us_.push_back(kernel_us);
  window_cpu_us_ = 0.0;
  ops_ = 0;
  resume();
}

double CpuWindows::ref_us_per_op() const { return median(ref_us_per_op_); }

double CpuWindows::ref_median(const std::vector<double>& per_op_us) const {
  std::vector<double> per_window;
  for (std::size_t w = 0; w < kernel_us_.size(); ++w) {
    const std::size_t begin = w * ops_per_window_;
    const std::size_t end = begin + ops_per_window_;
    if (end > per_op_us.size()) break;
    per_window.push_back(median(std::vector<double>(per_op_us.begin() + static_cast<std::ptrdiff_t>(begin),
                                                    per_op_us.begin() + static_cast<std::ptrdiff_t>(end))) *
                         kReferenceKernelUs / kernel_us_[w]);
  }
  return median(std::move(per_window));
}

double CpuWindows::kernel_s() const {
  double total = 0.0;
  for (double us : kernel_us_) total += us;
  return total * 1e-6;
}

double setup_at_reference_speed(double seconds) {
  std::vector<double> kernel_us;
  for (int i = 0; i < 3; ++i) kernel_us.push_back(reference_kernel_us());
  return seconds * kReferenceKernelUs / median(std::move(kernel_us));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  const std::size_t idx = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(idx), values.end());
  return values[idx];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

// --- SpanStats ---------------------------------------------------------------

void SpanStats::record(std::shared_ptr<const NegotiationTrace> trace) {
  if (trace) add(*trace);
}

void SpanStats::add(const NegotiationTrace& trace) {
  const std::vector<Span>& spans = trace.spans();
  auto dur_us = [](const Span& s) { return s.closed() ? (s.end_ms - s.start_ms) * 1e3 : 0.0; };

  std::lock_guard lock(mu_);
  double steps12 = 0.0;
  bool saw_steps12 = false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    switch (s.stage) {
      case Stage::kPlanCache: samples_.plan_cache_us.push_back(dur_us(s)); break;
      case Stage::kLocalCheck:
      case Stage::kCompatibility:
        steps12 += dur_us(s);
        saw_steps12 = true;
        break;
      case Stage::kEnumeration: {
        samples_.enumerate_us.push_back(dur_us(s));
        const std::string_view known = s.attr("known_offers");
        if (!known.empty()) samples_.known_offers.push_back(std::stod(std::string(known)));
        break;
      }
      case Stage::kCommitWalk: {
        double children = 0.0;
        for (const Span& c : spans) {
          if (c.parent == i && c.stage == Stage::kCommitAttempt) children += dur_us(c);
        }
        samples_.walk_self_us.push_back(dur_us(s) - children);
        break;
      }
      case Stage::kCommitAttempt:
        samples_.attempts += 1;
        if (s.attr("result") == "refused") samples_.refused_attempts += 1;
        break;
      case Stage::kAdmission: samples_.admission_us.push_back(dur_us(s)); break;
      case Stage::kPreemption: samples_.preemption_us.push_back(dur_us(s)); break;
      default: break;
    }
  }
  if (saw_steps12) samples_.steps12_us.push_back(steps12);
}

SpanStats::Samples SpanStats::take() {
  std::lock_guard lock(mu_);
  Samples out = std::move(samples_);
  samples_ = Samples{};
  return out;
}

void add_span_metrics(Report& report, const SpanStats::Samples& s) {
  report.add("plan_cache.lookup_us", median(s.plan_cache_us), "us");
  report.add("steps12.us", median(s.steps12_us), "us");
  report.add("enumerate.us_p50", median(s.enumerate_us), "us");
  report.add("enumerate.us_p99", quantile(s.enumerate_us, 0.99), "us");
  report.add("enumerate.known_offers", mean(s.known_offers), "count");
  report.add("commit.walk_self_us_p50", median(s.walk_self_us), "us");
  report.add("commit.walk_self_us_p99", quantile(s.walk_self_us, 0.99), "us");
  report.add("commit.refused_attempt_ratio",
             s.attempts == 0 ? 0.0
                             : static_cast<double>(s.refused_attempts) /
                                   static_cast<double>(s.attempts),
             "ratio");
  report.add("session.admission_us", median(s.admission_us), "us");
  report.add("policy.preemption_us", median(s.preemption_us), "us");
}

// --- Report ------------------------------------------------------------------

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": " << number(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

// --- shared stack pieces -----------------------------------------------------

ClientMachine full_client(const std::string& node) {
  ClientMachine c;
  c.name = node;
  c.node = node;
  c.screen = ScreenSpec{1920, 1080, ColorDepth::kSuperColor};
  c.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2, CodingFormat::kMJPEG,
                CodingFormat::kH261,      CodingFormat::kPCM,   CodingFormat::kADPCM,
                CodingFormat::kMPEGAudio, CodingFormat::kPlainText, CodingFormat::kHTML,
                CodingFormat::kJPEG,      CodingFormat::kGIF,   CodingFormat::kTIFF};
  c.max_audio = AudioQuality::kCD;
  return c;
}

std::vector<UserProfile> tolerant_profiles() {
  UserProfile wide = default_user_profile();
  wide.name = "bench-wide";
  wide.mm.video->worst = VideoQoS{ColorDepth::kBlackWhite, 1, 1};
  wide.mm.audio->worst = AudioQoS{AudioQuality::kTelephone};
  wide.mm.image->worst = ImageQoS{ColorDepth::kBlackWhite, 1};
  wide.mm.text->acceptable = {Language::kFrench, Language::kGerman, Language::kSpanish};
  wide.mm.cost.max_cost = Money::dollars(50);

  UserProfile video_first = wide;
  video_first.name = "bench-video-first";
  video_first.mm.image.reset();
  video_first.mm.video->desired = VideoQoS{ColorDepth::kSuperColor, 30, 1280};
  video_first.mm.cost.max_cost = Money::dollars(20);
  return {wide, video_first};
}

MediaServerConfig roomy_server(const std::string& id, const std::string& node) {
  MediaServerConfig config;
  config.id = id;
  config.node = node;
  config.disk_bandwidth_bps = 1'000'000'000'000;
  config.max_sessions = 1'000'000;
  return config;
}

bool drained(const ServerFarm& farm, const TransportService& transport,
             const SessionManager& sessions) {
  for (const ServerId& id : farm.list()) {
    const ServerUsage usage = farm.find(id)->usage();
    if (usage.reserved_bps != 0 || usage.sessions != 0) return false;
  }
  return sessions.active_count() == 0 && transport.active_flows() == 0 &&
         transport.total_reserved_bps() == 0 && transport.accounting_consistent();
}

std::vector<std::string> local_reference(const std::vector<MultimediaDocument>& documents,
                                         const std::vector<MediaServerConfig>& servers,
                                         Topology topology,
                                         const std::function<NegotiationRequest(std::size_t)>& request_at,
                                         std::size_t requests, bool& drained_ok) {
  Catalog catalog;
  for (MultimediaDocument doc : documents) catalog.add(std::move(doc));
  TransportService transport(std::move(topology));
  ServerFarm farm;
  for (const MediaServerConfig& server : servers) farm.add(server);
  QoSManager manager(catalog, farm, transport);
  SessionManager sessions(manager);
  LocalClient client(manager, sessions);
  std::vector<std::string> out;
  out.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    NegotiationResult r = client.submit(request_at(i));
    out.push_back(testing::result_signature(r));
    if (r.session_id != 0) sessions.complete(r.session_id);
  }
  sessions.prune_finished();
  drained_ok = drained(farm, transport, sessions);
  return out;
}

}  // namespace perfbench
