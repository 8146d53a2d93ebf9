// Integration tests of the full negotiation procedure: all five negotiation
// statuses of paper Sec. 4 are reachable, and the procedure picks optimal
// configurations.
#include "core/qos_manager.hpp"

#include <gtest/gtest.h>

#include "fault/fault_injector.hpp"
#include "obs/trace.hpp"
#include "test_system.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;

TEST(QoSManager, SucceedsOnSatisfiableRequest) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kSucceeded);
  ASSERT_TRUE(outcome.user_offer.has_value());
  ASSERT_TRUE(outcome.has_commitment());
  // The committed offer satisfies the requested QoS and budget.
  EXPECT_TRUE(satisfies_user(outcome.offers.offers[outcome.committed_index], profile.mm));
  // The user offer reports the desired video quality (the catalog has it).
  EXPECT_EQ(outcome.user_offer->video->color, ColorDepth::kColor);
  EXPECT_EQ(outcome.user_offer->video->frame_rate_fps, 25);
  EXPECT_LE(outcome.user_offer->cost, profile.mm.cost.max_cost);
}

TEST(QoSManager, CommitsTheTopClassifiedOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  ASSERT_TRUE(outcome.has_commitment());
  // With ample resources the very first (best) offer must be the one
  // committed.
  EXPECT_EQ(outcome.committed_index, 0u);
  EXPECT_EQ(outcome.offers.offers[0].sns, Sns::kDesirable);
}

TEST(QoSManager, UnknownDocumentFailsWithoutOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "no-such-doc", TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithoutOffer);
  EXPECT_FALSE(outcome.has_commitment());
}

TEST(QoSManager, LocalFailureReturnsLocalOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  ClientMachine bw = sys.client;
  bw.screen = ScreenSpec{640, 480, ColorDepth::kBlackWhite};
  UserProfile profile = TestSystem::tolerant_profile();
  profile.mm.video->worst = VideoQoS{ColorDepth::kColor, 10, 320};  // colour floor
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(bw, "article", profile));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithLocalOffer);
  ASSERT_TRUE(outcome.user_offer.has_value());
  // The local offer is clipped to the black&white screen.
  EXPECT_EQ(outcome.user_offer->video->color, ColorDepth::kBlackWhite);
  EXPECT_FALSE(outcome.has_commitment());
}

TEST(QoSManager, UndecodableDocumentFailsWithoutOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  ClientMachine odd = sys.client;
  odd.decoders = {CodingFormat::kH261, CodingFormat::kPCM, CodingFormat::kPlainText};
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(odd, "article", TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithoutOffer);
  EXPECT_FALSE(outcome.user_offer.has_value());
}

TEST(QoSManager, ResourceShortageFailsTryLater) {
  TestSystem sys(/*access_bps=*/50'000);  // not even the cheapest offer fits
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedTryLater);
  EXPECT_FALSE(outcome.has_commitment());
  EXPECT_FALSE(outcome.problems.empty());
}

TEST(QoSManager, UnsatisfiableQosYieldsFailedWithOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  UserProfile greedy = TestSystem::tolerant_profile();
  // Nothing in the catalog offers HDTV rate; the floor is above every variant.
  greedy.mm.video->desired = VideoQoS{ColorDepth::kSuperColor, 60, 1920};
  greedy.mm.video->worst = VideoQoS{ColorDepth::kSuperColor, 60, 1920};
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", greedy));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithOffer);
  ASSERT_TRUE(outcome.user_offer.has_value());
  ASSERT_TRUE(outcome.has_commitment());
  // The best the system can do is offered, even though it violates the floor.
  EXPECT_EQ(outcome.offers.offers[outcome.committed_index].sns, Sns::kConstraint);
}

TEST(QoSManager, TightBudgetPrefersCheaperSatisfyingOffer) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  UserProfile profile = TestSystem::tolerant_profile();
  profile.importance.cost_per_dollar = 10.0;  // cost-sensitive user
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  ASSERT_TRUE(outcome.has_commitment());
  const SystemOffer& committed = outcome.offers.offers[outcome.committed_index];
  // Every satisfying offer with a higher OIF would have been committed
  // instead; verify nothing satisfying is ranked above the committed one.
  for (std::size_t i = 0; i < outcome.committed_index; ++i) {
    EXPECT_FALSE(satisfies_user(outcome.offers.offers[i], profile.mm) &&
                 outcome.offers.offers[i].oif > committed.oif);
  }
}

TEST(QoSManager, ClassificationOrderIsBestToWorst) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  const auto& offers = outcome.offers.offers;
  for (std::size_t i = 1; i < offers.size(); ++i) {
    // SNS non-decreasing; OIF non-increasing within an SNS class.
    EXPECT_LE(offers[i - 1].sns, offers[i].sns);
    if (offers[i - 1].sns == offers[i].sns) {
      EXPECT_GE(offers[i - 1].oif, offers[i].oif);
    }
  }
}

TEST(QoSManager, FallsBackToNextOfferWhenBestIsFull) {
  // Server-a hosts the best variants; saturate it so that negotiation must
  // fall back to server-b configurations.
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  MediaServer* a = sys.farm.find("server-a");
  a->degrade(0.999);  // effectively no disk bandwidth left
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  ASSERT_TRUE(outcome.has_commitment()) << outcome.problems.empty();
  // The continuous (guaranteed) streams no longer fit on server-a; only a
  // tiny best-effort text delivery may still land there.
  for (const auto& c : outcome.offers.offers[outcome.committed_index].components) {
    if (c.requirements.guarantee == GuaranteeClass::kGuaranteed) {
      EXPECT_EQ(c.variant->server, "server-b") << c.variant->id;
    }
  }
}

TEST(QoSManager, CommitFirstHonoursExclusions) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  ASSERT_TRUE(outcome.has_commitment());
  const std::size_t first = outcome.committed_index;
  outcome.commitment.release();
  const std::vector<std::size_t> exclude = {first};
  CommitAttempt attempt = manager.commit_first(sys.client, outcome.offers,
                                               TestSystem::tolerant_profile().mm, exclude);
  ASSERT_TRUE(attempt.ok());
  EXPECT_NE(attempt.index, first);
}

TEST(QoSManager, NegotiationLeavesNoResidueOnFailure) {
  TestSystem sys(/*access_bps=*/50'000);
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  EXPECT_EQ(sys.transport->active_flows(), 0u);
  for (const auto& id : sys.farm.list()) {
    EXPECT_EQ(sys.farm.find(id)->usage().reserved_bps, 0);
  }
}

TEST(QoSManager, RepeatedNegotiationsConsumeCapacity) {
  // Each SUCCEEDED negotiation holds resources; eventually requests are
  // refused (FAILEDTRYLATER) or degraded — never wrongly SUCCEEDED.
  TestSystem sys(/*access_bps=*/200'000'000, /*backbone_bps=*/20'000'000,
                 /*server_bps=*/200'000'000);
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  const UserProfile profile = TestSystem::tolerant_profile();
  std::vector<NegotiationResult> held;
  int succeeded = 0;
  int degraded_or_refused = 0;
  for (int i = 0; i < 40; ++i) {
    NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
    if (outcome.verdict == NegotiationStatus::kSucceeded) {
      ++succeeded;
    } else {
      ++degraded_or_refused;
    }
    if (outcome.has_commitment()) held.push_back(std::move(outcome));
  }
  EXPECT_GT(succeeded, 0);
  EXPECT_GT(degraded_or_refused, 0);
  // Backbone is never oversubscribed.
  EXPECT_LE(sys.transport->link_usage(0).reserved_bps, 20'000'000);
}

TEST(QoSManager, TruncationIsReportedAsProblem) {
  TestSystem sys;
  NegotiationConfig config;
  config.enumeration.max_offers = 3;  // the article yields 20 combinations
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{}, config);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  ASSERT_TRUE(outcome.offers.truncated);
  bool mentioned = false;
  for (const auto& p : outcome.problems) {
    mentioned |= p.find("truncated") != std::string::npos;
  }
  EXPECT_TRUE(mentioned);
}

TEST(QoSManager, NegotiateDocumentRejectsNull) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, std::shared_ptr<const MultimediaDocument>{},
                                                TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithoutOffer);
}

TEST(QoSManager, NegotiateDocumentWorksWithoutCatalogEntry) {
  // Renegotiation path: the document may have been dropped from the catalog
  // while a session still holds it.
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  auto doc = sys.catalog.find("article");
  sys.catalog.remove("article");
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, doc, TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kSucceeded);
}

TEST(QoSManager, ParallelClassificationPathProducesSameOutcome) {
  TestSystem sys;
  NegotiationConfig serial_config;
  serial_config.parallel_threshold = 0;
  NegotiationConfig parallel_config;
  parallel_config.parallel_threshold = 1;
  QoSManager serial(sys.catalog, sys.farm, *sys.transport, CostModel{}, serial_config);
  NegotiationResult a = serial.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  a.commitment.release();
  QoSManager parallel(sys.catalog, sys.farm, *sys.transport, CostModel{}, parallel_config);
  NegotiationResult b =
      parallel.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  ASSERT_EQ(a.offers.offers.size(), b.offers.offers.size());
  for (std::size_t i = 0; i < a.offers.offers.size(); ++i) {
    EXPECT_EQ(a.offers.offers[i].components[0].variant->id,
              b.offers.offers[i].components[0].variant->id);
  }
  EXPECT_EQ(a.committed_index, b.committed_index);
}

// --- CommitAttempt::errors: filled only when the walk fails. --------------

NegotiationConfig eager_config() {
  NegotiationConfig config;
  config.enumeration.strategy = EnumerationStrategy::kEager;  // whole list up front
  return config;
}

/// A plan whose servers refuse every admission: each offer is refused at its
/// first component's server, with a fixed message.
FaultPlan refuse_every_admission() {
  FaultPlan plan;
  plan.server_defaults.transient_failure_p = 1.0;
  return plan;
}

/// The walk's problem lines built straight from the offer list: satisfying
/// offers first, then the rest, each "offer <i>: <component>: <message>".
std::vector<std::string> expected_refusal_lines(const OfferList& offers, const MMProfile& mm) {
  std::vector<std::string> lines;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < offers.offers.size(); ++i) {
      if (satisfies_user(offers.offers[i], mm) != (pass == 0)) continue;
      const ServerId& server = offers.offers[i].components.front().variant->server;
      lines.push_back("offer " + std::to_string(i) + ": fault:" + server + ": server '" +
                      server + "' transiently refused (injected fault)");
    }
  }
  return lines;
}

TEST(QoSManagerCommitErrors, FailedWalkListsEveryRefusalInWalkOrder) {
  TestSystem sys;
  FaultyServerFarm farm(sys.farm, refuse_every_admission());
  QoSManager manager(sys.catalog, farm, *sys.transport, CostModel{}, eager_config());
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedTryLater);
  const std::vector<std::string> expected = expected_refusal_lines(outcome.offers, profile.mm);
  ASSERT_EQ(expected.size(), outcome.offers.offers.size());
  EXPECT_EQ(outcome.problems, expected);

  CommitAttempt attempt = manager.commit_first(sys.client, outcome.offers, profile.mm);
  EXPECT_FALSE(attempt.ok());
  EXPECT_TRUE(attempt.saw_transient);
  EXPECT_EQ(attempt.errors, expected);
}

TEST(QoSManagerCommitErrors, WalkThatCommitsAfterRefusalsLeavesErrorsEmpty) {
  TestSystem sys;
  FaultPlan plan;
  plan.server_defaults.outage_after_events = 0;  // each server refuses its first 3 admissions
  plan.server_defaults.outage_length_events = 3;
  FaultyServerFarm farm(sys.farm, plan);
  QoSManager manager(sys.catalog, farm, *sys.transport, CostModel{}, eager_config());
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  outcome.commitment.release();

  FaultyServerFarm fresh(sys.farm, plan);
  QoSManager walker(sys.catalog, fresh, *sys.transport, CostModel{}, eager_config());
  CommitAttempt attempt = walker.commit_first(sys.client, outcome.offers, profile.mm);
  ASSERT_TRUE(attempt.ok());
  EXPECT_GT(attempt.stats.transient_failures, 0);
  EXPECT_GT(attempt.index, 0u);
  EXPECT_TRUE(attempt.errors.empty());
}

TEST(QoSManagerCommitErrors, TracedRefusedAttemptsCarryTheRefusal) {
  TestSystem sys;
  FaultyServerFarm farm(sys.farm, refuse_every_admission());
  QoSManager manager(sys.catalog, farm, *sys.transport, CostModel{}, eager_config());
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome =
      manager.negotiate(make_negotiation_request(sys.client, "article", profile));

  NegotiationTrace trace(1);
  CommitAttempt attempt =
      manager.commit_first(sys.client, outcome.offers, profile.mm, {}, TraceContext(&trace));
  ASSERT_FALSE(attempt.ok());
  std::vector<std::string> from_spans;
  for (const Span& span : trace.spans()) {
    if (span.stage != Stage::kCommitAttempt) continue;
    const std::string refusal(span.attr("refusal"));
    const std::string suffix = " [transient]";
    ASSERT_TRUE(refusal.ends_with(suffix)) << refusal;
    from_spans.push_back("offer " + std::string(span.attr("offer")) + ": " +
                         refusal.substr(0, refusal.size() - suffix.size()));
  }
  EXPECT_EQ(from_spans, attempt.errors);
}

}  // namespace
}  // namespace qosnp
