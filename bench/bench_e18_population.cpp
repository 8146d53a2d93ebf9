// E18 (extension): population-scale capacity planning. A heterogeneous
// population (cheap-mobile / standard-desktop / premium, each a Poisson
// arrival process with think/abandonment behaviour) drives the complete
// lifecycle — negotiate, confirm-within-choicePeriod, playout, mid-stream
// violation, adaptation, release — against farms of growing size, and a
// binary search finds the sustainable aggregate arrival rate (shed rate
// <= 5%) per farm. Self-checks (non-zero exit on failure):
//   - determinism: two same-seed runs at the sustainable point are
//     byte-identical (PopulationMetrics::signature());
//   - capacity monotonicity: sustainable sessions/s never decreases with
//     farm size;
//   - conservation: every load point of every sweep satisfies the
//     lifecycle partition laws, opened == released, and full drain;
//   - class differentiation: at 2x sustainable load with the preemption
//     policy on, the premium shed rate sits strictly below the best-effort
//     one, and two same-seed policy-enabled runs stay byte-identical.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "document/corpus.hpp"
#include "policy/preemption.hpp"
#include "session/session.hpp"
#include "sim/population.hpp"

namespace qosnp {
namespace {

using bench::Table;
using bench::check;
using bench::fmt;
using bench::pct;

constexpr std::uint64_t kSeed = 2026;
constexpr double kDurationS = 80.0;
constexpr double kShedThreshold = 0.05;
constexpr int kClients = 3;  // one node per population class

/// The shared document set: one corpus generated on server-0, replicated
/// per farm size so every title is available on every server. A bigger farm
/// strictly dominates a smaller one (all its variants plus replicas, wider
/// backbone, more disks) — the basis of the monotonicity self-check.
std::vector<MultimediaDocument> base_corpus() {
  CorpusConfig corpus;
  corpus.seed = 99;
  corpus.num_documents = 12;
  corpus.min_duration_s = 30.0;
  corpus.max_duration_s = 120.0;
  corpus.servers = {"server-0"};
  corpus.replication_probability = 0.0;
  return generate_corpus(corpus);
}

/// One farm of `n` servers with the replicated corpus, plus the negotiation
/// stack over it.
struct FarmSystem {
  Catalog catalog;
  std::unique_ptr<TransportService> transport;
  ServerFarm farm;
  std::unique_ptr<QoSManager> manager;
  std::unique_ptr<SessionManager> sessions;
  std::unique_ptr<PolicyEngine> policy;
  LocalClient client;
  std::vector<DocumentId> documents;

  explicit FarmSystem(int n, ClassHeadroom headroom = {})
      : transport(std::make_unique<TransportService>(Topology::dumbbell(
            kClients, n, /*access_bps=*/600'000'000,
            /*backbone_bps=*/static_cast<std::int64_t>(n) * 150'000'000))),
        client(make_client(n, headroom)) {
    transport->set_class_headroom(headroom);
    for (MultimediaDocument doc : base_corpus()) {
      for (int k = 1; k < n; ++k) {
        for (Monomedia& mono : doc.monomedia) {
          const std::size_t originals = mono.variants.size();
          for (std::size_t v = 0; v < originals; ++v) {
            Variant replica = mono.variants[v];
            replica.id += "@s" + std::to_string(k);
            replica.server = "server-" + std::to_string(k);
            mono.variants.push_back(std::move(replica));
          }
        }
      }
      const auto problems = catalog.add(std::move(doc));
      if (!problems.empty()) {
        std::cerr << "corpus document rejected: " << problems.front() << '\n';
        std::exit(1);
      }
    }
    documents = catalog.list();
  }

  PopulationMetrics run(const PopulationConfig& config) {
    return Population(config, client, documents).run();
  }

  /// Route negotiations through a preemption/upgrade engine (classes win by
  /// rank under congestion; upgrades are scanned on the simulation clock).
  /// The premium population demands far more capacity per session than the
  /// cheap classes, so inverting the shed-rate ordering takes a generous
  /// victim budget on top of the admission headroom.
  void enable_policy() {
    PreemptionPolicy preemption;
    preemption.enabled = true;
    preemption.max_victims = 32;
    policy = std::make_unique<PolicyEngine>(*manager, *sessions, preemption);
    client.set_policy(policy.get());
  }

  bool drained() const {
    std::int64_t reserved = 0;
    int slots = 0;
    for (const ServerId& id : farm.list()) {
      reserved += farm.find(id)->usage().reserved_bps;
      slots += farm.find(id)->usage().sessions;
    }
    return sessions->active_count() == 0 && reserved == 0 && slots == 0 &&
           transport->active_flows() == 0 && transport->total_reserved_bps() == 0;
  }

 private:
  LocalClient make_client(int n, const ClassHeadroom& headroom) {
    for (int i = 0; i < n; ++i) {
      MediaServerConfig server;
      server.id = "server-" + std::to_string(i);
      server.node = "server-node-" + std::to_string(i);
      server.disk_bandwidth_bps = 150'000'000;
      server.max_sessions = 48;
      server.headroom = headroom;
      farm.add(std::move(server));
    }
    manager = std::make_unique<QoSManager>(catalog, farm, *transport);
    sessions = std::make_unique<SessionManager>(*manager);
    return LocalClient(*manager, *sessions);
  }
};

/// The standard population attached to this bench's client nodes, with every
/// arrival rate scaled by `multiplier` (base aggregate rate: 1.0 arrivals/s).
PopulationConfig population_at(double multiplier, double violation_rate_per_s = 0.0,
                               double diurnal_amplitude = 0.0) {
  PopulationConfig config;
  config.classes = standard_population();
  for (std::size_t i = 0; i < config.classes.size(); ++i) {
    ClientClass& cls = config.classes[i];
    cls.machine.node = "client-" + std::to_string(i);
    cls.arrival_rate_per_s *= multiplier;
    cls.violation_rate_per_s = violation_rate_per_s;
    cls.diurnal.amplitude = diurnal_amplitude;
    cls.diurnal.period_s = kDurationS;
    cls.diurnal.peak_at_s = kDurationS / 2.0;
  }
  config.duration_s = kDurationS;
  config.seed = kSeed;
  return config;
}

double base_aggregate_rate() {
  double total = 0.0;
  for (const ClientClass& cls : standard_population()) total += cls.arrival_rate_per_s;
  return total;
}

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "SELF-CHECK FAILED: " << what << '\n';
    failures += 1;
  }
}

/// Run one load point on a fresh farm; conservation and drain are checked on
/// every point of every sweep.
PopulationMetrics run_point(int farm_size, const PopulationConfig& config,
                            const std::string& context) {
  FarmSystem system(farm_size);
  const PopulationMetrics metrics = system.run(config);
  expect(metrics.conserved(), context + ": lifecycle counts not conserved\n" +
                                  metrics.signature());
  expect(system.sessions->opened_total() == system.sessions->released_total(),
         context + ": opened != released");
  expect(system.drained(), context + ": reservations survived the run");
  return metrics;
}

struct CapacityPoint {
  int farm_size = 0;
  double sustainable_rate = 0.0;  ///< aggregate arrivals/s at shed <= 5%
  PopulationMetrics at_capacity;
};

CapacityPoint find_capacity(int farm_size) {
  CapacityPoint point;
  point.farm_size = farm_size;
  double lo = 0.0;   // known sustainable (no load sheds nothing)
  double hi = 16.0;  // far past any farm size swept here
  for (int iter = 0; iter < 10; ++iter) {
    const double mid = (lo + hi) / 2.0;
    const PopulationMetrics metrics =
        run_point(farm_size, population_at(mid),
                  "farm " + std::to_string(farm_size) + " x" + fmt(mid, 3));
    if (metrics.shed_rate() <= kShedThreshold) {
      lo = mid;
      point.at_capacity = metrics;
    } else {
      hi = mid;
    }
  }
  point.sustainable_rate = lo * base_aggregate_rate();
  return point;
}

}  // namespace
}  // namespace qosnp

int main() {
  using namespace qosnp;
  bench::print_title("E18: population-scale capacity planning");
  std::cout << "population: cheap-mobile 0.5/s + standard-desktop 0.35/s + premium 0.15/s\n"
            << "lifecycle: negotiate -> confirm/abandon/timeout -> playout -> adapt -> release\n"
            << "sustainable = max aggregate arrival rate with shed rate <= "
            << pct(kShedThreshold) << " over " << fmt(kDurationS, 0) << "s replicates (seed "
            << kSeed << ")\n";

  // --- Capacity sweep: sustainable sessions/s per farm size. ---------------
  bench::print_section("Capacity sweep (binary search, 10 iterations)");
  const std::vector<int> farm_sizes = {1, 2, 4};
  std::vector<CapacityPoint> capacity;
  Table capacity_table({"farm", "sustainable arrivals/s", "admitted", "shed", "abandoned",
                        "admission rate"});
  for (int n : farm_sizes) {
    CapacityPoint point = find_capacity(n);
    const ClassCounts t = point.at_capacity.totals();
    capacity_table.row({std::to_string(n) + " servers", fmt(point.sustainable_rate, 2),
                        std::to_string(t.admitted), std::to_string(t.shed),
                        std::to_string(t.abandoned), pct(point.at_capacity.admission_rate())});
    capacity.push_back(std::move(point));
  }
  capacity_table.print();

  for (std::size_t i = 1; i < capacity.size(); ++i) {
    expect(capacity[i].sustainable_rate >= capacity[i - 1].sustainable_rate,
           "sustainable rate decreased from farm " + std::to_string(capacity[i - 1].farm_size) +
               " to farm " + std::to_string(capacity[i].farm_size));
  }
  expect(capacity.front().sustainable_rate > 0.0, "smallest farm sustains no load at all");

  // --- Determinism: same seed, byte-identical outcomes. --------------------
  bench::print_section("Determinism self-check");
  const double probe = capacity.back().sustainable_rate / base_aggregate_rate();
  const std::string sig_a =
      run_point(farm_sizes.back(), population_at(probe), "determinism run A").signature();
  const std::string sig_b =
      run_point(farm_sizes.back(), population_at(probe), "determinism run B").signature();
  expect(sig_a == sig_b, "two same-seed runs diverged");
  std::cout << "  same-seed replicates byte-identical: " << check(sig_a == sig_b) << '\n';

  // --- Adaptation success vs load. -----------------------------------------
  bench::print_section("Adaptation success rate vs load (farm of 2, violations 0.05/s)");
  Table adapt_table({"load multiplier", "violations", "adaptations", "preempt-released",
                     "adaptation success", "shed rate"});
  const double sustainable_mult = capacity[1].sustainable_rate / base_aggregate_rate();
  for (double factor : {0.5, 1.0, 2.0, 4.0}) {
    const double mult = sustainable_mult * factor;
    const PopulationMetrics metrics =
        run_point(2, population_at(mult, /*violation_rate_per_s=*/0.05),
                  "adaptation sweep x" + fmt(factor, 1));
    const ClassCounts t = metrics.totals();
    adapt_table.row({fmt(factor, 1) + "x capacity", std::to_string(t.violations),
                     std::to_string(t.adaptations), std::to_string(t.preempt_released),
                     pct(metrics.adaptation_success_rate()), pct(metrics.shed_rate())});
  }
  adapt_table.print();

  // --- Mixed-class overload under the preemption policy. -------------------
  bench::print_section("Mixed-class overload (policy on, 2x sustainable, farm of 2)");
  {
    auto policy_run = [&](const std::string& context) {
      // Withhold 30% of every resource from best-effort and 15% from
      // standard: the premium population's sessions are the biggest, so
      // preemption alone cannot invert the shed ordering.
      ClassHeadroom headroom;
      headroom.fraction = {0.30, 0.15, 0.0};
      FarmSystem system(2, headroom);
      system.enable_policy();
      PopulationConfig config = population_at(sustainable_mult * 2.0);
      config.upgrade_scan_interval_s = 5.0;
      const PopulationMetrics metrics = system.run(config);
      expect(metrics.conserved(),
             context + ": lifecycle counts not conserved\n" + metrics.signature());
      expect(system.sessions->opened_total() == system.sessions->released_total(),
             context + ": opened != released");
      expect(system.drained(), context + ": reservations survived the run");
      return metrics;
    };
    const PopulationMetrics mixed = policy_run("mixed-class run A");

    Table class_table({"class", "arrivals", "admitted", "shed", "shed rate", "preempted",
                       "degraded", "upgrades"});
    std::vector<double> shed_rates(mixed.by_class.size(), 0.0);
    for (std::size_t i = 0; i < mixed.by_class.size(); ++i) {
      const ClassCounts& c = mixed.by_class[i];
      shed_rates[i] =
          c.arrivals == 0 ? 0.0 : static_cast<double>(c.shed) / static_cast<double>(c.arrivals);
      class_table.row({mixed.class_names[i], std::to_string(c.arrivals),
                       std::to_string(c.admitted), std::to_string(c.shed), pct(shed_rates[i]),
                       std::to_string(c.policy_preempted), std::to_string(c.policy_degraded),
                       std::to_string(c.upgrades)});
    }
    class_table.print();

    // Class index 0 is cheap-mobile (best_effort), index 2 is premium — the
    // policy's whole point is that the premium shed rate sits strictly below
    // the best-effort one under overload.
    expect(mixed.by_class.size() == 3, "expected the 3-class standard population");
    if (mixed.by_class.size() == 3) {
      expect(mixed.by_class[0].arrivals > 0 && mixed.by_class[2].arrivals > 0,
             "mixed-class run produced no arrivals in a compared class");
      expect(shed_rates[2] < shed_rates[0],
             "premium shed rate (" + pct(shed_rates[2]) +
                 ") not strictly below best-effort shed rate (" + pct(shed_rates[0]) + ")");
      const ClassCounts t = mixed.totals();
      expect(t.policy_preempted + t.policy_degraded > 0,
             "2x overload never exercised the preemption policy");
    }

    const PopulationMetrics mixed_b = policy_run("mixed-class run B");
    expect(mixed.signature() == mixed_b.signature(),
           "two same-seed policy-enabled runs diverged");
    std::cout << "  policy-enabled same-seed replicates byte-identical: "
              << check(mixed.signature() == mixed_b.signature()) << '\n';
  }

  // --- Diurnal load curve. -------------------------------------------------
  bench::print_section("Diurnal modulation (amplitude 0.8, peak mid-replicate)");
  {
    std::vector<std::uint64_t> quarters(4, 0);
    PopulationConfig config = population_at(sustainable_mult, 0.0, /*diurnal_amplitude=*/0.8);
    config.arrival_observer = [&](std::size_t, double t_s) {
      const auto q = static_cast<std::size_t>(t_s / (kDurationS / 4.0));
      quarters[std::min<std::size_t>(q, 3)] += 1;
    };
    FarmSystem system(2);
    const PopulationMetrics metrics = system.run(config);
    expect(metrics.conserved(), "diurnal run: lifecycle counts not conserved");
    expect(system.drained(), "diurnal run: reservations survived");
    Table diurnal({"quarter", "arrivals"});
    for (std::size_t q = 0; q < 4; ++q) {
      diurnal.row({"Q" + std::to_string(q + 1), std::to_string(quarters[q])});
    }
    diurnal.print();
    expect(quarters[1] + quarters[2] > quarters[0] + quarters[3],
           "diurnal peak did not concentrate arrivals");
  }

  if (failures == 0) {
    std::cout << "\nAll E18 self-checks passed.\n";
    return 0;
  }
  std::cerr << '\n' << failures << " E18 self-check(s) failed.\n";
  return 1;
}
