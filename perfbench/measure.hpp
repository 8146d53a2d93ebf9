// Shared measurement plumbing of the benchmark: arguments, clocks, sample
// summaries, the span aggregator fed by the stack's public TraceSink /
// TraceContext hooks, and the one-line JSON report. See README.md for what
// each workload measures and why.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "client/client_machine.hpp"
#include "core/negotiation_request.hpp"
#include "document/model.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "obs/trace_sink.hpp"
#include "profile/profiles.hpp"
#include "server/media_server.hpp"
#include "session/session.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// CPU time of the whole process (every thread), in seconds.
double process_cpu_s();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// One pass of the reference kernel, a fixed job that shares no code with
/// the negotiation stack (hash-table churn with short heap strings, about a
/// millisecond). Returns the calling thread's CPU time for it, in us.
double reference_kernel_us();

/// What one reference-kernel pass typically costs on the machine the
/// benchmark was sized on (a 4-vCPU 2.0 GHz Xeon VM), so that normalised
/// figures read close to raw ones there. Only the ratio to it matters.
inline constexpr double kReferenceKernelUs = 1350.0;

/// Process CPU time per operation, normalised to the reference kernel. On
/// a shared VM, neighbours change how fast the same instructions retire by
/// +-25% within seconds, even when no steal time is recorded. So the kernel runs
/// once at the end of every window of a fixed number of operations (its own
/// time is kept out of the windows), each window's figure is scaled by
/// kReferenceKernelUs / (that window's kernel time), and the median over
/// windows is reported. A slow spell of the host moves the kernel as much
/// as the stack and cancels; a change that makes the stack cheaper still
/// moves the figure; a window holding a rare storm of expensive operations
/// does not move the median.
class CpuWindows {
 public:
  explicit CpuWindows(std::size_t ops_per_window) : ops_per_window_(ops_per_window) {}
  /// Start (or continue) counting CPU; pause() stops it, so set-up work
  /// between measured stretches stays out of the windows.
  void resume();
  void pause();
  /// Count one operation; closes a window every ops_per_window operations.
  void tick();
  /// Median over windows of CPU us per operation, at reference speed.
  double ref_us_per_op() const;
  /// Median over windows of the window's median of `per_op_us` (one value
  /// per operation, in tick order), at reference speed.
  double ref_median(const std::vector<double>& per_op_us) const;
  /// Time spent in the kernel itself (to take out of wall-clock figures).
  double kernel_s() const;

 private:
  std::size_t ops_per_window_;
  std::size_t ops_ = 0;
  double resumed_at_s_ = 0.0;
  double window_cpu_us_ = 0.0;         ///< CPU of the open window before the last resume()
  std::vector<double> ref_us_per_op_;  ///< per closed window
  std::vector<double> kernel_us_;      ///< per closed window
};

/// The parts of one set-up, in seconds.
struct SetupTimes {
  double catalog_s = 0.0;
  double stack_s = 0.0;
  double warmup_s = 0.0;
  double total() const { return catalog_s + stack_s + warmup_s; }
};

/// A set-up time that just ended, at reference speed: scaled by
/// kReferenceKernelUs / (the median of three kernel passes run now), for
/// the same reason as CpuWindows.
double setup_at_reference_speed(double seconds);

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Per-layer figures pulled out of finished NegotiationTraces. Thread-safe:
/// service workers hand traces in concurrently.
class SpanStats final : public qosnp::TraceSink {
 public:
  void record(std::shared_ptr<const qosnp::NegotiationTrace> trace) override;
  void add(const qosnp::NegotiationTrace& trace);

  struct Samples {
    std::vector<double> plan_cache_us;   ///< kPlanCache spans
    std::vector<double> steps12_us;      ///< kLocalCheck + kCompatibility, per trace
    std::vector<double> enumerate_us;    ///< kEnumeration spans
    std::vector<double> known_offers;    ///< kEnumeration known_offers attribute
    std::vector<double> walk_self_us;    ///< kCommitWalk minus its kCommitAttempt children
    std::vector<double> admission_us;    ///< kAdmission spans
    std::vector<double> preemption_us;   ///< kPreemption spans
    std::uint64_t attempts = 0;          ///< kCommitAttempt spans
    std::uint64_t refused_attempts = 0;  ///< ... annotated result=refused
  };
  Samples take();

 private:
  std::mutex mu_;
  Samples samples_;  // guarded by mu_
};

/// One metric of the report.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produced: the correctness verdict, the operation
/// counts and the metrics to print.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< correctness failures, printed to stderr

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
  /// The single JSON line the benchmark ends with.
  std::string json() const;
};

/// The per-layer metrics every workload shares, derived from span samples.
void add_span_metrics(Report& report, const SpanStats::Samples& s);

// --- the stack pieces the workloads share ------------------------------------

/// A client machine on topology node `node` that decodes every format the
/// corpus generator emits, so static compatibility never refuses it.
qosnp::ClientMachine full_client(const std::string& node);

/// Client profiles of the concurrent workloads: wide enough that every
/// generated document yields a committed offer, so the only outcome is an
/// admitted session and the failure share cannot depend on timing.
std::vector<qosnp::UserProfile> tolerant_profiles();

/// A media server whose capacity is far beyond the sessions the concurrent
/// workloads ever hold at once.
qosnp::MediaServerConfig roomy_server(const std::string& id, const std::string& node);

/// No live session, and farm + transport back to zero reservations with
/// consistent accounting.
bool drained(const qosnp::ServerFarm& farm, const qosnp::TransportService& transport,
             const qosnp::SessionManager& sessions);

/// The in-process reference of the service workloads: request_at(0 ..
/// requests-1), in order, through a LocalClient over an independent stack
/// (no plan cache) built from the same documents, servers and topology,
/// each opened session completed at once. Returns every result's
/// tests/result_signature.hpp image; `drained_ok` says whether that stack
/// drained afterwards.
std::vector<std::string> local_reference(
    const std::vector<qosnp::MultimediaDocument>& documents,
    const std::vector<qosnp::MediaServerConfig>& servers, qosnp::Topology topology,
    const std::function<qosnp::NegotiationRequest(std::size_t)>& request_at, std::size_t requests,
    bool& drained_ok);

}  // namespace perfbench
