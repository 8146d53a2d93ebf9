// qnp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload and prints, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics (a per-layer
// metric a workload does not exercise reads 0). Exits 1 when a correctness
// gate fails, 2 on a usage or internal error.
#include <sys/prctl.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

const std::vector<std::string> kEndToEnd = {"setup_s",  "cpu_us_per_op",  "procedure_p50_us",
                                            "ok_ratio", "admitted_ratio", "peak_rss_mb"};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"wire.request_frame_bytes", "bytes"},   {"wire.result_frame_bytes", "bytes"},
    {"wire.encode_request_us", "us"},        {"wire.decode_result_us", "us"},
    {"netio.overhead_us", "us"},             {"netio.rtt_p99_us", "us"},
    {"netio.generator_late_max_ms", "ms"},   {"service.queue_wait_us_p50", "us"},
    {"service.queue_wait_us_p99", "us"},     {"procedure.p99_us", "us"},
    {"client.latency_p50_us", "us"},         {"client.latency_p99_us", "us"},
    {"service.latency_p99_us", "us"},        {"shard.cross_shard_ratio", "ratio"},
    {"shard.routed_imbalance", "ratio"},     {"shard.federated_rollbacks", "count"},
    {"plan_cache.hit_ratio", "ratio"},       {"plan_cache.evictions_per_op", "ratio"},
    {"plan_cache.lookup_us", "us"},          {"steps12.us", "us"},
    {"enumerate.us_p50", "us"},              {"enumerate.us_p99", "us"},
    {"enumerate.known_offers", "count"},     {"commit.walk_self_us_p50", "us"},
    {"commit.walk_self_us_p99", "us"},       {"commit.attempts_per_op", "ratio"},
    {"commit.refused_attempt_ratio", "ratio"}, {"session.admission_us", "us"},
    {"session.complete_us", "us"},           {"session.retained_finished", "count"},
    {"policy.preemption_us", "us"},          {"policy.victims_per_op", "ratio"},
    {"policy.upgrades", "count"},            {"sim.driver_us_per_arrival", "us"},
    {"setup.catalog_s", "s"},                {"setup.stack_s", "s"},
    {"setup.warmup_s", "s"},                 {"obs.trace_overhead_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "qnp_perfbench: " << why
            << "\nusage: qnp_perfbench --workload wire_hot|shard_cold|population_congested"
               " --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.seconds < 1 || args.seconds > 60) usage("--seconds must be in [1, 60]");
  return args;
}

/// Holds the report to the metric contract: exactly the end-to-end names
/// (untraced) or exactly the per-layer names (traced, unexercised layers 0).
bool conform(Report& report, bool trace) {
  std::set<std::string> expected;
  if (trace) {
    std::set<std::string> have;
    for (const auto& m : report.metrics) have.insert(m.name);
    for (const auto& [name, unit] : kPerLayer) {
      expected.insert(name);
      if (have.count(name) == 0) report.add(name, 0.0, unit);
    }
  } else {
    expected.insert(kEndToEnd.begin(), kEndToEnd.end());
  }
  std::set<std::string> got;
  for (const auto& m : report.metrics) {
    if (expected.count(m.name) == 0 || !got.insert(m.name).second) {
      std::cerr << "qnp_perfbench: unexpected or duplicate metric " << m.name << '\n';
      return false;
    }
  }
  return got.size() == expected.size();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Open-loop generators sleep until each request is due; the default 50us
  // timer slack would add that much (and its jitter) to every latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Report report;
  try {
    if (args.workload == "wire_hot") {
      report = perfbench::run_wire_hot(args);
    } else if (args.workload == "shard_cold") {
      report = perfbench::run_shard_cold(args);
    } else if (args.workload == "population_congested") {
      report = perfbench::run_population_congested(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "qnp_perfbench: " << args.workload << " failed: " << e.what() << '\n';
    return 2;
  }
  if (!conform(report, args.trace)) {
    std::cerr << "qnp_perfbench: report does not match the metric contract\n";
    return 2;
  }
  for (const std::string& problem : report.problems) {
    std::cerr << "CORRECTNESS: " << problem << '\n';
  }
  std::cout << report.json() << std::endl;
  return report.correct ? 0 : 1;
}
