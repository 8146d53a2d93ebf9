// E14 — Failure model & retries (extension; paper Sec. 7 only sketches the
// FAILEDTRYLATER path). Runs the full news-on-demand workload with the
// fault-injection decorators of src/fault wrapping the server farm and the
// transport, and compares a retrying commitment (RetryPolicy{max_attempts=3})
// against the historical single-shot walk at increasing transient-fault
// rates. The claim under test: retries recover transiently refused offers
// before the walk falls to worse offers, so the service rate with retries
// is no worse at every fault rate and strictly better overall.
#include "sim/experiment.hpp"

#include "bench_util.hpp"

namespace {

using namespace qosnp;
using namespace qosnp::bench;

ExperimentConfig base_config(double fault_p, int max_attempts) {
  ExperimentConfig config;
  config.corpus.num_documents = 30;
  config.corpus.seed = 21;
  config.num_clients = 12;
  config.sim_duration_s = 1'200.0;
  config.arrival_rate_per_s = 0.3;
  config.backbone_bps = 100'000'000;
  config.server_disk_bps = 80'000'000;
  config.strategy = Strategy::kSmart;
  config.seed = 17;

  config.fault_injection = true;
  config.faults.seed = 97;
  config.faults.server_defaults.transient_failure_p = fault_p;
  config.faults.transport_defaults.transient_failure_p = fault_p / 2.0;

  config.retry.max_attempts = max_attempts;
  return config;
}

}  // namespace

int main() {
  print_title("E14: Commitment retries vs transient faults (fault-injection layer)");
  std::cout << "(seeded FaultPlan; retry = RetryPolicy{max_attempts=3}, single = 1 attempt)\n";

  const double fault_rates[] = {0.0, 0.1, 0.2, 0.3};

  Table table({"fault p", "policy", "service", "satisfied", "blocked", "attempts", "retries",
               "transient"});
  double retry_service_sum = 0.0;
  double single_service_sum = 0.0;
  bool pointwise = true;
  for (const double fault_p : fault_rates) {
    double per_rate[2] = {0.0, 0.0};
    for (const int max_attempts : {3, 1}) {
      const ExperimentResult r = run_experiment(base_config(fault_p, max_attempts));
      const SimMetrics& m = r.metrics;
      table.row({fmt(fault_p, 2), max_attempts > 1 ? "retry" : "single", pct(m.service_rate()),
                 pct(m.satisfaction()), pct(m.blocking_probability()),
                 std::to_string(m.commit_attempts), std::to_string(m.commit_retries),
                 std::to_string(m.transient_failures)});
      per_rate[max_attempts > 1 ? 0 : 1] = m.service_rate();
      (max_attempts > 1 ? retry_service_sum : single_service_sum) += m.service_rate();
    }
    // Allow a one-percentage-point wobble pointwise (different walk order
    // shifts which offers collide with background load); the sum must win.
    pointwise = pointwise && per_rate[0] >= per_rate[1] - 0.01;
  }
  table.print();

  const bool shape = pointwise && retry_service_sum > single_service_sum;
  std::cout << "\nClaim: retrying transiently refused commitments raises availability\n"
               "under injected faults. Mean service rate (retry) "
            << pct(retry_service_sum / 4.0) << " vs (single) " << pct(single_service_sum / 4.0)
            << "   [" << check(shape) << "]\n";
  return shape ? 0 : 1;
}
