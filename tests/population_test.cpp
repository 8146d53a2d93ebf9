// Population lifecycle conservation suite. Every replicate must satisfy the
// partition laws on every class:
//   arrivals  == admitted + shed + refused + abandoned
//   admitted  == completed + preempt_released
//   violations == adaptations + failed_adaptations
// plus the client-side law opened_total == released_total (every admitted
// session ends released) and the drained() invariant (no reservation
// outlives its session). Same-seed replicates are byte-identical
// (PopulationMetrics::signature()), pruning is invisible in the outcomes,
// the NegotiationService client (labelled concurrency, so the tsan preset
// covers it) produces the same outcome counts as the direct LocalClient,
// and a decorating NegotiationClient is invisible in the outcomes.
#include "sim/population.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "document/corpus.hpp"
#include "service/negotiation_service.hpp"
#include "test_service.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;

/// System + document list + the standard population attached to its client
/// nodes. Fresh per replicate so seeds fully determine the outcome.
struct PopulationFixture {
  ServiceSystem sys;
  std::vector<DocumentId> documents;
  PopulationConfig config;

  explicit PopulationFixture(std::uint64_t seed, double duration_s = 150.0,
                             NegotiationConfig negotiation = {})
      : sys(3, 1'000'000'000, 10'000'000'000, 10'000'000'000, 100'000, std::move(negotiation)) {
    CorpusConfig corpus;
    corpus.seed = 7;  // fixed: the corpus is part of the system, not the replicate
    corpus.num_documents = 8;
    corpus.min_duration_s = 30.0;
    corpus.max_duration_s = 120.0;
    for (auto& doc : generate_corpus(corpus)) sys.catalog.add(std::move(doc));
    documents = sys.catalog.list();

    config.classes = standard_population();
    for (std::size_t i = 0; i < config.classes.size(); ++i) {
      config.classes[i].machine.node = sys.clients[i].node;
    }
    config.duration_s = duration_s;
    config.seed = seed;
  }
};

TEST(PopulationConservation, EveryReplicateConservesAndDrains) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    PopulationFixture fx(seed);
    LocalClient client(*fx.sys.manager, *fx.sys.sessions);
    Population population(fx.config, client, fx.documents);
    const PopulationMetrics metrics = population.run();

    const ClassCounts t = metrics.totals();
    ASSERT_GT(t.arrivals, 0u) << "seed " << seed;
    EXPECT_TRUE(metrics.conserved()) << "seed " << seed << "\n" << metrics.signature();
    EXPECT_EQ(t.arrivals, t.admitted + t.shed + t.refused + t.abandoned) << "seed " << seed;
    EXPECT_EQ(t.admitted, t.completed + t.preempt_released) << "seed " << seed;

    // Every session ever opened (admitted *or* rejected/timed out during
    // Step 6) ended released, and no reservation survived the run.
    EXPECT_EQ(fx.sys.sessions->opened_total(), fx.sys.sessions->released_total())
        << "seed " << seed;
    EXPECT_TRUE(fx.sys.drained()) << "seed " << seed;
  }
}

TEST(PopulationConservation, SameSeedRunsAreByteIdentical) {
  auto run_once = [](std::uint64_t seed) {
    PopulationFixture fx(seed);
    LocalClient client(*fx.sys.manager, *fx.sys.sessions);
    return Population(fx.config, client, fx.documents).run().signature();
  };
  for (std::uint64_t seed : {1ULL, 17ULL, 42ULL}) {
    EXPECT_EQ(run_once(seed), run_once(seed)) << "seed " << seed;
  }
  // And different seeds actually explore different behaviour.
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(PopulationConservation, PruningIsInvisibleInTheOutcomes) {
  auto run_with_prune = [](double prune_interval_s) {
    PopulationFixture fx(5);
    fx.config.prune_interval_s = prune_interval_s;
    LocalClient client(*fx.sys.manager, *fx.sys.sessions);
    Population population(fx.config, client, fx.documents);
    const PopulationMetrics metrics = population.run();
    // Whatever finished after the last prune tick is all that can remain.
    return std::make_pair(metrics.signature(), fx.sys.sessions->prune_finished());
  };
  const auto [pruned_sig, pruned_rest] = run_with_prune(10.0);
  const auto [unpruned_sig, unpruned_rest] = run_with_prune(0.0);
  EXPECT_EQ(pruned_sig, unpruned_sig);
  // With pruning off, the final sweep erases every finished session of the
  // run; with pruning on, almost all were already gone.
  EXPECT_LT(pruned_rest, unpruned_rest);
  EXPECT_GT(unpruned_rest, 0u);
}

TEST(PopulationConservation, ServiceClientMatchesLocalClientOutcomes) {
  const std::uint64_t seed = 11;

  PopulationFixture direct_fx(seed);
  LocalClient direct_client(*direct_fx.sys.manager, *direct_fx.sys.sessions);
  const PopulationMetrics direct = Population(direct_fx.config, direct_client,
                                              direct_fx.documents).run();

  PopulationFixture service_fx(seed);
  ServiceConfig service_config;
  service_config.workers = 4;
  service_config.auto_confirm = false;  // Step 6 belongs to the population
  NegotiationService service(*service_fx.sys.manager, *service_fx.sys.sessions, service_config);
  service.start();
  const PopulationMetrics through_service =
      Population(service_fx.config, service, service_fx.documents).run();
  service.stop();

  EXPECT_TRUE(through_service.conserved()) << through_service.signature();
  EXPECT_EQ(direct.signature(), through_service.signature());
  EXPECT_EQ(service_fx.sys.sessions->opened_total(), service_fx.sys.sessions->released_total());
  EXPECT_TRUE(service_fx.sys.drained());
}

/// The decorator shape a benchmark harness wraps around the population's
/// client: it forwards all four calls and only counts.
class PassThroughClient final : public NegotiationClient {
 public:
  explicit PassThroughClient(NegotiationClient& inner) : inner_(&inner) {}

  NegotiationResult negotiate(NegotiationRequest request, double now_s) override {
    ++calls;
    return inner_->negotiate(std::move(request), now_s);
  }
  SessionManager& sessions() override { return inner_->sessions(); }
  double session_now_s(double now_s) const override { return inner_->session_now_s(now_s); }
  PolicyEngine* policy() override { return inner_->policy(); }

  std::uint64_t calls = 0;

 private:
  NegotiationClient* inner_;
};

TEST(PopulationConservation, DecoratedPolicyClientMatchesBareClient) {
  auto run = [](bool decorated) {
    ServiceSystem sys(3, /*access_bps=*/600'000'000, /*backbone_bps=*/300'000'000,
                      /*server_bps=*/40'000'000, /*server_sessions=*/64);
    PreemptionPolicy preemption;
    preemption.enabled = true;
    PolicyEngine engine(*sys.manager, *sys.sessions, preemption);
    LocalClient client(*sys.manager, *sys.sessions);
    client.set_policy(&engine);
    PassThroughClient wrapper(client);

    PopulationConfig config;
    config.classes = standard_population();
    for (std::size_t i = 0; i < config.classes.size(); ++i) {
      config.classes[i].machine.node = sys.clients[i].node;
      config.classes[i].arrival_rate_per_s *= 8.0;  // congested: the policy must act
      config.classes[i].violation_rate_per_s = 0.02;
    }
    config.duration_s = 40.0;
    config.seed = 3;
    config.upgrade_scan_interval_s = 5.0;

    NegotiationClient& driven = decorated ? static_cast<NegotiationClient&>(wrapper) : client;
    const PopulationMetrics metrics = Population(config, driven, sys.catalog.list()).run();
    EXPECT_TRUE(metrics.conserved()) << metrics.signature();
    EXPECT_TRUE(sys.drained());
    EXPECT_EQ(wrapper.calls > 0, decorated);
    return metrics;
  };
  const PopulationMetrics bare = run(false);
  const PopulationMetrics wrapped = run(true);
  EXPECT_EQ(bare.signature(), wrapped.signature());
  // The policy was reached through the decorator, not bypassed.
  const ClassCounts t = wrapped.totals();
  EXPECT_GT(t.policy_preempted + t.policy_degraded, 0u) << wrapped.signature();
  EXPECT_GT(t.upgrades, 0u) << wrapped.signature();
}

TEST(Population, ServiceRefusesToNegotiateWhenAutoConfirming) {
  ServiceSystem sys(1);
  NegotiationService service(*sys.manager, *sys.sessions);  // auto_confirm defaults on
  NegotiationRequest request;
  request.client = sys.clients[0];
  request.document = "article";
  EXPECT_THROW(service.negotiate(request, 0.0), std::invalid_argument);
  EXPECT_EQ(service.report().submitted, 0u);  // refused before submitting
}

TEST(Population, ImpatientClassAbandonsInsteadOfAdmitting) {
  PopulationFixture fx(3, 100.0);
  // One class that walks away almost immediately: abandonment at rate 1000/s
  // beats every think time, so no negotiation-successful arrival is admitted.
  fx.config.classes.resize(1);
  fx.config.classes[0].abandon_rate_per_s = 1'000.0;
  LocalClient client(*fx.sys.manager, *fx.sys.sessions);
  const PopulationMetrics metrics = Population(fx.config, client, fx.documents).run();

  const ClassCounts t = metrics.totals();
  ASSERT_GT(t.arrivals, 0u);
  EXPECT_GT(t.abandoned, 0u);
  EXPECT_EQ(t.admitted, 0u);
  EXPECT_EQ(t.confirm_timeouts, 0u);  // walked away, never timed out
  EXPECT_TRUE(metrics.conserved()) << metrics.signature();
  EXPECT_TRUE(fx.sys.drained());
}

TEST(Population, SlowThinkersTimeOutOfTheChoicePeriod) {
  PopulationFixture fx(4, 100.0);
  fx.config.classes.resize(1);
  ClientClass& cls = fx.config.classes[0];
  cls.abandon_rate_per_s = 0.0;
  cls.mean_think_s = 10'000.0;  // essentially every think time > choicePeriod
  LocalClient client(*fx.sys.manager, *fx.sys.sessions);
  const PopulationMetrics metrics = Population(fx.config, client, fx.documents).run();

  const ClassCounts t = metrics.totals();
  ASSERT_GT(t.arrivals, 0u);
  EXPECT_GT(t.confirm_timeouts, 0u);
  EXPECT_LE(t.confirm_timeouts, t.abandoned);
  EXPECT_TRUE(metrics.conserved()) << metrics.signature();
  EXPECT_EQ(fx.sys.sessions->opened_total(), fx.sys.sessions->released_total());
}

TEST(Population, ViolationsDriveAdaptationAndItsConservation) {
  PopulationFixture fx(6, 150.0);
  for (ClientClass& cls : fx.config.classes) {
    cls.violation_rate_per_s = 0.05;  // a violation roughly every 20 played seconds
  }
  LocalClient client(*fx.sys.manager, *fx.sys.sessions);
  const PopulationMetrics metrics = Population(fx.config, client, fx.documents).run();

  const ClassCounts t = metrics.totals();
  ASSERT_GT(t.violations, 0u);
  EXPECT_GT(t.adaptations, 0u);
  EXPECT_EQ(t.violations, t.adaptations + t.failed_adaptations);
  EXPECT_EQ(t.preempt_released, t.failed_adaptations);
  EXPECT_GE(t.interruption_s, 0.5 * static_cast<double>(t.adaptations));  // transition latency
  EXPECT_TRUE(metrics.conserved()) << metrics.signature();
  EXPECT_TRUE(fx.sys.drained());
}

TEST(Population, DiurnalCurveShapesTheArrivalProcess) {
  PopulationFixture fx(9, 400.0);
  fx.config.classes.resize(1);
  ClientClass& cls = fx.config.classes[0];
  cls.arrival_rate_per_s = 2.0;
  cls.diurnal.period_s = 400.0;
  cls.diurnal.amplitude = 1.0;  // rate swings between 0 and 2x
  cls.diurnal.peak_at_s = 200.0;

  std::uint64_t near_peak = 0;
  std::uint64_t near_trough = 0;
  fx.config.arrival_observer = [&](std::size_t, double t_s) {
    // Peak window [150, 250]; trough windows [0, 50] and [350, 400].
    if (t_s >= 150.0 && t_s <= 250.0) near_peak += 1;
    if (t_s <= 50.0 || t_s >= 350.0) near_trough += 1;
  };
  LocalClient client(*fx.sys.manager, *fx.sys.sessions);
  const PopulationMetrics metrics = Population(fx.config, client, fx.documents).run();

  ASSERT_GT(metrics.totals().arrivals, 100u);
  EXPECT_GT(near_peak, 4 * std::max<std::uint64_t>(near_trough, 1));
  EXPECT_TRUE(metrics.conserved());
}

TEST(Population, DiurnalFactorIsARaisedCosine) {
  DiurnalCurve curve;
  curve.period_s = 100.0;
  curve.amplitude = 0.5;
  curve.peak_at_s = 25.0;
  EXPECT_NEAR(curve.factor(25.0), 1.5, 1e-12);   // peak
  EXPECT_NEAR(curve.factor(75.0), 0.5, 1e-12);   // trough, half a period later
  EXPECT_NEAR(curve.factor(0.0), 1.0, 1e-12);    // quarter period off the peak
  EXPECT_NEAR(curve.factor(125.0), 1.5, 1e-12);  // periodic
  EXPECT_DOUBLE_EQ(curve.peak_factor(), 1.5);
  EXPECT_DOUBLE_EQ(DiurnalCurve{}.factor(12'345.0), 1.0);  // flat by default
}

TEST(Population, ValidationRejectsNonsenseConfigs) {
  ServiceSystem sys(1);
  LocalClient client(*sys.manager, *sys.sessions);
  const std::vector<DocumentId> docs = sys.catalog.list();

  auto expect_invalid = [&](auto mutate) {
    PopulationConfig config;
    config.classes = standard_population();
    mutate(config);
    EXPECT_THROW(Population(config, client, docs), std::invalid_argument);
  };
  expect_invalid([](PopulationConfig& c) { c.classes.clear(); });
  expect_invalid([](PopulationConfig& c) { c.duration_s = 0.0; });
  expect_invalid([](PopulationConfig& c) { c.prune_interval_s = -1.0; });
  expect_invalid([](PopulationConfig& c) { c.classes[0].arrival_rate_per_s = -0.1; });
  expect_invalid([](PopulationConfig& c) { c.classes[0].mean_think_s = 0.0; });
  expect_invalid([](PopulationConfig& c) { c.classes[0].abandon_rate_per_s = -1.0; });
  expect_invalid([](PopulationConfig& c) { c.classes[0].accept_degraded_p = 1.5; });
  expect_invalid([](PopulationConfig& c) { c.classes[0].watch_fraction = 0.0; });
  expect_invalid([](PopulationConfig& c) { c.classes[0].violation_rate_per_s = -1.0; });
  expect_invalid([](PopulationConfig& c) { c.classes[0].diurnal.amplitude = 2.0; });
  expect_invalid([](PopulationConfig& c) { c.classes[0].diurnal.period_s = 0.0; });

  // No documents at all is a construction error too.
  PopulationConfig ok;
  ok.classes = standard_population();
  EXPECT_THROW(Population(ok, client, {}), std::invalid_argument);
}

}  // namespace
}  // namespace qosnp
