// E16 — Concurrent negotiation service (extension; the paper's prototype
// negotiated one session at a time). A worker pool runs the full Step 1-5
// procedure per request against the shared farm/transport behind a bounded
// request queue. Each request pays a simulated remote round-trip
// (simulated_rtt_ms) for the catalog/server/transport message exchanges the
// distributed prototype paid off-CPU, so the service is latency-bound and
// worker-pool speedups are measurable on any core count.
//
// Self-checks (non-zero exit on failure):
//   1. Closed loop on a capacity-rich farm: 8 workers sustain >= 4x the
//      single-worker throughput.
//   2. Open-loop overload against a small queue sheds with FAILEDTRYLATER
//      (shed rate > 0) and still resolves every submission exactly once.
//   3. Conservation at drain after every run: no live sessions, all server
//      and link budgets back to zero, recomputed transport ledger matches.
//   4. Tracing overhead: with a RingBufferSink attached, the median paired
//      difference in CPU time per request over interleaved untraced/traced
//      batches stays within 5% of the untraced CPU time per request.
//   5. Refusal attribution under faults: every FAILEDTRYLATER /
//      FAILEDWITHOFFER trace from a faulted run names the refusing
//      component and the attempt count on its refused commit spans.
#include "service/load_gen.hpp"

#include <algorithm>
#include <atomic>
#include <thread>


#include "bench_util.hpp"
#include "fault/fault_injector.hpp"
#include "obs/trace_sink.hpp"
#include "test_service.hpp"

namespace {

using namespace qosnp;
using namespace qosnp::bench;
using qosnp::testing::ServiceSystem;
using qosnp::testing::TestSystem;

constexpr double kRttMs = 5.0;
constexpr std::size_t kRequests = 240;

struct RunResult {
  LoadReport load;
  bool drained = false;
  bool accounted = false;
};

RunResult run_closed(std::size_t workers) {
  ServiceSystem sys(/*num_clients=*/16);
  ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = 64;
  config.simulated_rtt_ms = kRttMs;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  LoadConfig load;
  load.mode = ArrivalMode::kClosed;
  load.concurrency = 16;
  load.requests = kRequests;
  load.seed = 5;
  load.clients = sys.clients;
  load.documents = {"article"};
  load.profiles = {TestSystem::tolerant_profile()};

  RunResult result;
  result.load = run_load(service, load);
  service.stop();
  result.drained = sys.drained();
  result.accounted = result.load.service.processed + result.load.service.shed_queue_full ==
                     result.load.service.submitted;
  return result;
}

RunResult run_open_overload() {
  ServiceSystem sys(/*num_clients=*/16);
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.simulated_rtt_ms = kRttMs;  // capacity ~= 2/0.005 = 400 rps
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  LoadConfig load;
  load.mode = ArrivalMode::kOpen;
  load.arrival_rate_per_s = 2'000.0;  // ~5x the service capacity
  load.requests = 300;
  load.seed = 11;
  load.clients = sys.clients;
  load.documents = {"article"};
  load.profiles = {TestSystem::tolerant_profile()};

  RunResult result;
  result.load = run_load(service, load);
  service.stop();
  result.drained = sys.drained();
  result.accounted = result.load.service.processed + result.load.service.shed_queue_full ==
                     result.load.service.submitted;
  return result;
}

// Closed loop of `requests` submissions from `concurrency` client threads;
// every opened session is completed as soon as its response arrives.
void run_closed_loop(NegotiationService& service, ServiceSystem& sys, const DocumentId& document,
                     std::size_t requests, std::size_t concurrency) {
  std::atomic<std::uint64_t> next{0};
  auto client_loop = [&] {
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests) return;
      NegotiationRequest req;
      req.id = i + 1;
      req.client = sys.clients[i % sys.clients.size()];
      req.document = document;
      req.profile = TestSystem::tolerant_profile();
      NegotiationResult resp = service.submit(std::move(req)).get();
      if (resp.session_id != 0) service.sessions().complete(resp.session_id);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < concurrency; ++c) threads.emplace_back(client_loop);
  for (auto& t : threads) t.join();
}

// A wide variant ladder (36 video x 4 audio x 4 text = 576 combinations):
// the overhead run negotiates a request whose enumeration/classification is
// real work, so the measured latency is CPU, not scheduler noise, and the
// tracing fraction reflects a document of realistic richness.
MultimediaDocument heavy_article() {
  MultimediaDocument doc;
  doc.id = "heavy";
  doc.title = "Wide-ladder article";
  doc.copyright_cost = Money::cents(50);
  const double duration = 120.0;

  Monomedia video;
  video.id = "heavy/video";
  video.kind = MediaKind::kVideo;
  video.duration_s = duration;
  int v = 0;
  for (const ColorDepth depth :
       {ColorDepth::kColor, ColorDepth::kGray, ColorDepth::kBlackWhite}) {
    for (const int rate : {25, 15, 10}) {
      for (const int width : {640, 320}) {
        for (const char* server : {"server-a", "server-b"}) {
          video.variants.push_back(
              make_video_variant("heavy/video/" + std::to_string(v++),
                                 VideoQoS{depth, rate, width}, CodingFormat::kMPEG1, duration,
                                 server));
        }
      }
    }
  }
  doc.monomedia.push_back(std::move(video));

  Monomedia audio;
  audio.id = "heavy/audio";
  audio.kind = MediaKind::kAudio;
  audio.duration_s = duration;
  int a = 0;
  for (const AudioQuality quality : {AudioQuality::kCD, AudioQuality::kTelephone}) {
    for (const char* server : {"server-a", "server-b"}) {
      audio.variants.push_back(make_audio_variant(
          "heavy/audio/" + std::to_string(a++), quality,
          quality == AudioQuality::kCD ? CodingFormat::kPCM : CodingFormat::kADPCM, duration,
          server));
    }
  }
  doc.monomedia.push_back(std::move(audio));

  Monomedia text;
  text.id = "heavy/text";
  text.kind = MediaKind::kText;
  int t = 0;
  for (const Language language : {Language::kEnglish, Language::kFrench}) {
    for (const char* server : {"server-a", "server-b"}) {
      text.variants.push_back(make_text_variant("heavy/text/" + std::to_string(t++), language,
                                                CodingFormat::kPlainText, 8'000, server));
    }
  }
  doc.monomedia.push_back(std::move(text));
  return doc;
}

// Untraced-vs-traced CPU cost per request; no simulated RTT, so the
// measured work is the negotiation itself and tracing cannot hide behind
// sleeps. The eager strategy materialises and classifies the full
// 576-combination product per request (parallel classification off: one
// worker must mean one thread of work), so the claim is about a request
// with real Steps 3-4 work; tracing's fixed cost of a few microseconds is a
// larger share of a lazy or cache-hit request, so every request bypasses
// the manager's plan cache (CacheUse::kBypass) and rebuilds Steps 1-4. Two one-worker services share
// the manager, with both workers on one CPU; one closed-loop client drives
// them in alternating batches and times every request in process CPU time
// (client plus the busy worker; the idle service's worker sleeps). CPU time
// leaves out thread wake-up waits, whose jitter dwarfs the tracing cost in
// wall-clock latency. Each batch reports its median request, which drops
// requests hit by an interrupt or a preemption; each untraced batch is
// paired with the traced batch beside it, so frequency scaling and cache
// drift land on both halves of a pair; and the check reads the median of
// the paired differences.
struct TracingOverhead {
  double cpu_us_off = 0.0;   ///< median untraced CPU time per request
  double cpu_us_on = 0.0;    ///< median traced CPU time per request
  double diff_us = 0.0;      ///< median paired (traced - untraced) difference

  double overhead() const { return cpu_us_off > 0.0 ? diff_us / cpu_us_off : 0.0; }
};

TracingOverhead measure_tracing_overhead() {
  ServiceSystem sys(/*num_clients=*/16);
  sys.catalog.add(heavy_article());
  NegotiationConfig eager;
  eager.enumeration.strategy = EnumerationStrategy::kEager;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{}, eager);
  SessionManager sessions(manager);
  RingBufferSink ring(256);

  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  config.simulated_rtt_ms = 0.0;
  NegotiationService untraced(manager, sessions, config);
  config.trace_sink = &ring;
  NegotiationService traced(manager, sessions, config);
  {
    // Both workers share one CPU: under a parallel test run a worker parked
    // next to a busy neighbour runs slower for a while, and that bias would
    // follow its arm. The client thread stays free to run anywhere.
    const PinnedToOneCpu pin;
    untraced.start();
    traced.start();
  }

  auto one = [&](NegotiationService& service, std::uint64_t id) {
    NegotiationRequest req;
    req.id = id;
    req.client = sys.clients[id % sys.clients.size()];
    req.document = "heavy";
    req.profile = TestSystem::tolerant_profile();
    req.cache = CacheUse::kBypass;
    NegotiationResult resp = service.submit(std::move(req)).get();
    if (resp.session_id != 0) sessions.complete(resp.session_id);
  };

  std::uint64_t next_id = 1;
  auto batch_cpu_us = [&](NegotiationService& service, std::size_t requests) {
    std::vector<double> per_request;
    per_request.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      const double start = process_cpu_us();
      one(service, next_id++);
      per_request.push_back(process_cpu_us() - start);
    }
    return median(std::move(per_request));
  };

  const std::size_t kPairs = 150;
  const std::size_t kBatch = 20;
  (void)batch_cpu_us(untraced, 100);  // warm caches and the allocator
  (void)batch_cpu_us(traced, 100);
  std::vector<double> off;
  std::vector<double> on;
  std::vector<double> diff;
  for (std::size_t i = 0; i < kPairs; ++i) {
    // Alternate which half of the pair runs first, so neither arm always
    // inherits the other's cache state.
    double off_us = 0.0;
    double on_us = 0.0;
    if (i % 2 == 0) {
      off_us = batch_cpu_us(untraced, kBatch);
      on_us = batch_cpu_us(traced, kBatch);
    } else {
      on_us = batch_cpu_us(traced, kBatch);
      off_us = batch_cpu_us(untraced, kBatch);
    }
    off.push_back(off_us);
    on.push_back(on_us);
    diff.push_back(on_us - off_us);
  }
  untraced.stop();
  traced.stop();
  return {median(off), median(on), median(diff)};
}

struct FaultedTraceAudit {
  std::size_t failed_traces = 0;      ///< FAILEDTRYLATER/FAILEDWITHOFFER, not shed
  std::size_t refused_attempts = 0;   ///< refused commit spans over those traces
  std::size_t unattributed = 0;       ///< refused spans missing component/attempts
  std::size_t missing_refusal = 0;    ///< failed traces without a refused span
  bool drained = false;

  bool attributed() const {
    return failed_traces > 0 && refused_attempts > 0 && unattributed == 0 &&
           missing_refusal == 0;
  }
};

// Faulted load with tracing on: both servers flap (30% transient refusals)
// and share a hard outage window, so the Step-5 walk is refused often and
// sometimes completely. Every failure trace must carry the attribution.
FaultedTraceAudit run_faulted_attribution() {
  ServiceSystem sys(/*num_clients=*/16);
  FaultPlan plan;
  plan.server_defaults.transient_failure_p = 0.30;
  plan.server_defaults.outage_after_events = 60;
  plan.server_defaults.outage_length_events = 120;
  FaultyServerFarm faulty_farm(sys.farm, plan);
  QoSManager manager(sys.catalog, faulty_farm, *sys.transport);
  SessionManager sessions(manager);

  RingBufferSink ring(512);
  ServiceConfig config;
  config.workers = 4;
  config.queue_capacity = 64;
  config.simulated_rtt_ms = 1.0;
  config.trace_sink = &ring;
  NegotiationService service(manager, sessions, config);
  service.start();
  run_closed_loop(service, sys, "article", /*requests=*/160, /*concurrency=*/8);
  service.stop();

  FaultedTraceAudit audit;
  for (const auto& trace : ring.snapshot()) {
    const bool failed =
        trace->shed() == "none" &&
        (trace->verdict() == "FAILEDTRYLATER" || trace->verdict() == "FAILEDWITHOFFER");
    if (!failed) continue;
    ++audit.failed_traces;
    std::size_t refused_here = 0;
    for (const Span& span : trace->spans()) {
      if (span.stage != Stage::kCommitAttempt || span.attr("result") != "refused") continue;
      ++refused_here;
      if (span.attr("component").empty() || span.attr("attempts").empty()) {
        ++audit.unattributed;
      }
    }
    audit.refused_attempts += refused_here;
    if (refused_here == 0) ++audit.missing_refusal;
  }
  audit.drained = sessions.active_count() == 0 && sys.farm_reserved_bps() == 0 &&
                  sys.transport->active_flows() == 0;
  return audit;
}

std::vector<std::string> service_row(const std::string& label, const RunResult& r) {
  const ServiceReport& s = r.load.service;
  return {label,
          fmt(r.load.throughput_rps, 0),
          fmt(s.latency.quantile_ms(0.50), 2),
          fmt(s.latency.quantile_ms(0.95), 2),
          fmt(s.latency.quantile_ms(0.99), 2),
          pct(s.shed_rate()),
          std::to_string(s.queue_high_water),
          check(r.drained && r.accounted)};
}

}  // namespace

int main() {
  print_title("E16: Concurrent negotiation service (worker pool + admission control)");
  std::cout << "(closed loop, 16 clients, " << kRequests << " requests, simulated RTT " << kRttMs
            << " ms per negotiation; capacity-rich farm)\n";

  print_section("Worker scaling (closed loop)");
  Table scaling({"workers", "rps", "p50 ms", "p95 ms", "p99 ms", "shed", "queue hw", "drain"});
  double rps_1 = 0.0;
  double rps_8 = 0.0;
  bool all_clean = true;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const RunResult r = run_closed(workers);
    scaling.row(service_row(std::to_string(workers), r));
    all_clean = all_clean && r.drained && r.accounted &&
                r.load.service.count(NegotiationStatus::kSucceeded) == kRequests;
    if (workers == 1) rps_1 = r.load.throughput_rps;
    if (workers == 8) rps_8 = r.load.throughput_rps;
  }
  scaling.print();

  const double speedup = rps_1 > 0.0 ? rps_8 / rps_1 : 0.0;
  const bool scales = speedup >= 4.0;
  std::cout << "\nClaim: the worker pool overlaps negotiation round-trips — 8 workers\n"
               "sustain >= 4x single-worker throughput. Measured speedup: "
            << fmt(speedup, 1) << "x   [" << check(scales) << "]\n";

  print_section("Open-loop overload (2 workers, queue capacity 8, ~5x capacity offered)");
  const RunResult overload = run_open_overload();
  Table shed({"mode", "rps", "p50 ms", "p95 ms", "p99 ms", "shed", "queue hw", "drain"});
  shed.row(service_row("open", overload)).print();
  const bool sheds = overload.load.service.shed_rate() > 0.0 && overload.drained &&
                     overload.accounted;
  std::cout << "\nClaim: overload is rejected with FAILEDTRYLATER at the queue edge, not\n"
               "by breaking commitments. Shed rate " << pct(overload.load.service.shed_rate())
            << ", every submission resolved, drained clean   [" << check(sheds) << "]\n";

  print_section(
      "Tracing overhead (CPU time per request, no simulated RTT, interleaved batches)");
  const TracingOverhead traced = measure_tracing_overhead();
  const double overhead = traced.overhead();
  const bool cheap = overhead < 0.05;
  Table tracing({"tracing", "median CPU us/request"});
  tracing.row({"off", fmt(traced.cpu_us_off, 1)})
      .row({"ring sink", fmt(traced.cpu_us_on, 1)})
      .print();
  std::cout << "\nClaim: per-request tracing into a ring sink costs < 5% of the CPU time\n"
               "per request (median paired difference over the untraced median).\n"
               "Measured overhead: " << fmt(overhead * 100.0, 1) << "%   [" << check(cheap)
            << "]\n";

  print_section("Refusal attribution under faults (flapping servers + outage window)");
  const FaultedTraceAudit audit = run_faulted_attribution();
  // How many requests fail, and after how many refusals, depends on how
  // the four workers interleave their fault draws: those two counts get a
  // line of their own, so a stdout comparison can mask it.
  Table attribution({"unattributed", "no-refusal", "drain"});
  attribution
      .row({std::to_string(audit.unattributed), std::to_string(audit.missing_refusal),
            check(audit.drained)})
      .print();
  std::cout << "run-dependent (worker interleaving): " << audit.failed_traces
            << " failed traces, " << audit.refused_attempts << " refused attempts\n";
  const bool attributed = audit.attributed() && audit.drained;
  std::cout << "\nClaim: every FAILEDTRYLATER/FAILEDWITHOFFER trace names the refusing\n"
               "component and attempt count on its refused commit spans   ["
            << check(attributed) << "]\n";

  return all_clean && scales && sheds && cheap && attributed ? 0 : 1;
}
