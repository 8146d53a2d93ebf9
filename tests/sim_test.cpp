#include "sim/experiment.hpp"
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

namespace qosnp {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(3.0, [&] { order.push_back(3); });
  queue.schedule_at(1.0, [&] { order.push_back(1); });
  queue.schedule_at(2.0, [&] { order.push_back(2); });
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue queue;
  double fired_at = -1.0;
  queue.schedule_at(10.0, [&] {
    queue.schedule_in(5.0, [&] { fired_at = queue.now(); });
  });
  queue.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(EventQueue, PastTimesClampToNow) {
  EventQueue queue;
  double fired_at = -1.0;
  queue.schedule_at(10.0, [&] {
    queue.schedule_at(2.0, [&] { fired_at = queue.now(); });
  });
  queue.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(1.0, [&] { ++fired; });
  queue.schedule_at(5.0, [&] { ++fired; });
  queue.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
  EXPECT_EQ(queue.pending(), 1u);
}

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.corpus.num_documents = 10;
  config.corpus.seed = 3;
  config.num_clients = 4;
  config.arrival_rate_per_s = 0.05;
  config.sim_duration_s = 600.0;
  config.seed = 11;
  return config;
}

TEST(Experiment, RunsAndCountsArrivals) {
  const ExperimentResult result = run_experiment(small_config());
  EXPECT_GT(result.metrics.arrivals, 10u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < result.metrics.by_status.size(); ++i) {
    total += result.metrics.by_status[i];
  }
  EXPECT_EQ(total, result.metrics.arrivals);
  EXPECT_EQ(result.strategy, "smart");
}

TEST(Experiment, DeterministicForSeed) {
  const ExperimentResult a = run_experiment(small_config());
  const ExperimentResult b = run_experiment(small_config());
  EXPECT_EQ(a.metrics.arrivals, b.metrics.arrivals);
  EXPECT_EQ(a.metrics.by_status, b.metrics.by_status);
  EXPECT_EQ(a.metrics.completed, b.metrics.completed);
  EXPECT_EQ(a.metrics.revenue, b.metrics.revenue);
}

TEST(Experiment, CompletionsAndRevenueAccrue) {
  const ExperimentResult result = run_experiment(small_config());
  EXPECT_GT(result.metrics.completed, 0u);
  EXPECT_GT(result.metrics.revenue, Money{});
  EXPECT_GE(result.metrics.confirmed, result.metrics.completed);
}

TEST(Experiment, HighLoadBlocksMore) {
  ExperimentConfig light = small_config();
  light.arrival_rate_per_s = 0.02;
  ExperimentConfig heavy = small_config();
  heavy.arrival_rate_per_s = 1.0;
  heavy.backbone_bps = 40'000'000;
  light.backbone_bps = 40'000'000;
  const double light_blocking = run_experiment(light).metrics.blocking_probability();
  const double heavy_blocking = run_experiment(heavy).metrics.blocking_probability();
  EXPECT_GE(heavy_blocking, light_blocking);
  EXPECT_GT(heavy_blocking, 0.0);
}

TEST(Experiment, CongestionTriggersAdaptations) {
  ExperimentConfig config = small_config();
  config.arrival_rate_per_s = 0.2;
  config.congestion_rate_per_s = 0.05;
  config.congestion_severity = 0.8;
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.metrics.violations, 0u);
  EXPECT_GT(result.metrics.adaptations + result.metrics.failed_adaptations, 0u);
}

TEST(Experiment, AdaptationDisabledAbortsInstead) {
  ExperimentConfig config = small_config();
  config.arrival_rate_per_s = 0.2;
  config.congestion_rate_per_s = 0.05;
  config.congestion_severity = 0.8;
  config.adaptation_enabled = false;
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.metrics.adaptations, 0u);
  if (result.metrics.violations > 0) {
    EXPECT_GT(result.metrics.aborted, 0u);
  }
}

TEST(Experiment, ServerFailuresAreSurvivable) {
  ExperimentConfig config = small_config();
  config.arrival_rate_per_s = 0.2;
  config.server_failure_rate_per_s = 0.01;
  config.server_repair_s = 60.0;
  const ExperimentResult result = run_experiment(config);
  // The run finishes and still completes sessions.
  EXPECT_GT(result.metrics.completed, 0u);
}

TEST(Experiment, AllStrategiesRun) {
  for (const Strategy s : {Strategy::kSmart, Strategy::kBasic, Strategy::kCostOnly,
                           Strategy::kQoSOnly}) {
    ExperimentConfig config = small_config();
    config.strategy = s;
    const ExperimentResult result = run_experiment(config);
    EXPECT_GT(result.metrics.arrivals, 0u) << to_string(s);
    EXPECT_EQ(result.strategy, to_string(s));
  }
}

TEST(Experiment, SmartServesAtLeastAsManyAsBasic) {
  ExperimentConfig config = small_config();
  config.arrival_rate_per_s = 0.5;
  config.backbone_bps = 60'000'000;
  config.strategy = Strategy::kSmart;
  const double smart_rate = run_experiment(config).metrics.service_rate();
  config.strategy = Strategy::kBasic;
  const double basic_rate = run_experiment(config).metrics.service_rate();
  EXPECT_GE(smart_rate, basic_rate);
}

TEST(Experiment, LimitedClientsProduceLocalAndCompatibilityFailures) {
  ExperimentConfig config = small_config();
  config.limited_client_fraction = 1.0;
  config.profiles = {[] {
    UserProfile p = default_user_profile();
    // Colour floor: a grey-screen limited client fails locally.
    p.mm.video->worst = VideoQoS{ColorDepth::kColor, 10, 320};
    return p;
  }()};
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.metrics.count(NegotiationStatus::kFailedWithLocalOffer), 0u);
}

TEST(Experiment, ChoicePeriodTimeoutsAreCounted) {
  // Users think longer than the choice period allows: sessions abort and
  // their resources return (Step 6 of the paper).
  ExperimentConfig config = small_config();
  UserProfile slowpoke = default_user_profile();
  slowpoke.mm.time.choice_period_s = 1.0;
  config.profiles = {slowpoke};
  config.confirm_delay_s = 5.0;  // beyond the 1 s choice period
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.metrics.confirm_timeouts, 0u);
  EXPECT_EQ(result.metrics.completed, 0u);
}

TEST(Experiment, ConfirmationProbabilityDrivesRejections) {
  ExperimentConfig config = small_config();
  config.confirm_probability = 0.0;
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.metrics.completed, 0u);
  EXPECT_GT(result.metrics.rejected_by_user, 0u);
}

TEST(Experiment, DualBackboneServesAtLeastAsWell) {
  ExperimentConfig single = small_config();
  single.arrival_rate_per_s = 0.4;
  single.backbone_bps = 40'000'000;
  ExperimentConfig dual = single;
  dual.dual_backbone = true;
  const double single_rate = run_experiment(single).metrics.service_rate();
  const double dual_rate = run_experiment(dual).metrics.service_rate();
  EXPECT_GE(dual_rate, single_rate);
}

TEST(Experiment, MetricsSummaryMentionsKeyFigures) {
  const ExperimentResult result = run_experiment(small_config());
  const std::string s = result.metrics.summary();
  EXPECT_NE(s.find("arrivals="), std::string::npos);
  EXPECT_NE(s.find("revenue="), std::string::npos);
}

// Property sweep: accounting identities hold for any seed.
class ExperimentInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExperimentInvariants, AccountingIdentitiesHold) {
  ExperimentConfig config = small_config();
  config.arrival_rate_per_s = 0.3;
  config.backbone_bps = 50'000'000;
  config.congestion_rate_per_s = 0.02;
  config.congestion_severity = 0.7;
  config.seed = GetParam();
  const SimMetrics m = run_experiment(config).metrics;
  // Every arrival got exactly one status.
  std::size_t total = 0;
  for (const std::size_t count : m.by_status) total += count;
  EXPECT_EQ(total, m.arrivals);
  // Sessions opened = committed outcomes; lifecycle events never exceed them.
  const std::size_t committed = m.count(NegotiationStatus::kSucceeded) +
                                m.count(NegotiationStatus::kFailedWithOffer);
  EXPECT_LE(m.confirmed + m.confirm_timeouts + m.rejected_by_user, committed);
  EXPECT_LE(m.completed, m.confirmed);
  // Rates are probabilities.
  for (const double rate : {m.service_rate(), m.satisfaction(), m.blocking_probability(),
                            m.adaptation_success_rate(), m.mean_utilization()}) {
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
  // Adaptation attempts match recorded violations' handling.
  EXPECT_LE(m.adaptations + m.failed_adaptations, m.violations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExperimentInvariants,
                         ::testing::Values(1u, 7u, 21u, 99u, 12345u));

TEST(Experiment, StandardProfileMixIsValid) {
  const auto mix = standard_profile_mix();
  ASSERT_EQ(mix.size(), 3u);
  for (const auto& p : mix) {
    EXPECT_TRUE(validate(p).empty()) << p.name;
  }
  EXPECT_LT(mix[2].mm.cost.max_cost, mix[0].mm.cost.max_cost);  // thrifty < demanding
}

}  // namespace
}  // namespace qosnp
