#include "baseline/negotiators.hpp"

#include <gtest/gtest.h>

#include <string>

#include "test_system.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;

TEST(Baselines, NamesAreDistinct) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  SmartNegotiator smart(manager);
  BasicNegotiator basic(sys.catalog, sys.farm, *sys.transport);
  CostOnlyNegotiator cost(sys.catalog, sys.farm, *sys.transport, CostModel{});
  QoSOnlyNegotiator qos(sys.catalog, sys.farm, *sys.transport, CostModel{});
  EXPECT_EQ(smart.name(), "smart");
  EXPECT_EQ(basic.name(), "basic");
  EXPECT_EQ(cost.name(), "cost-only");
  EXPECT_EQ(qos.name(), "qos-only");
}

TEST(BasicNegotiator, CommitsExactlyOneStaticOffer) {
  TestSystem sys;
  BasicNegotiator basic(sys.catalog, sys.farm, *sys.transport);
  NegotiationResult outcome =
      basic.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kSucceeded);
  EXPECT_EQ(outcome.offers.size(), 1u);  // no alternatives, no ladder
  EXPECT_EQ(outcome.committed_index, 0u);
}

TEST(BasicNegotiator, RejectsWhenNoVariantSatisfiesDesired) {
  TestSystem sys;
  BasicNegotiator basic(sys.catalog, sys.farm, *sys.transport);
  UserProfile greedy = TestSystem::tolerant_profile();
  greedy.mm.video->desired = VideoQoS{ColorDepth::kSuperColor, 60, 1920};
  NegotiationResult outcome = basic.negotiate(make_negotiation_request(sys.client, "article", greedy));
  // The smart negotiator degrades gracefully here (FAILEDWITHOFFER); the
  // static baseline simply has nothing to offer.
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithoutOffer);
}

TEST(BasicNegotiator, FailsTryLaterWithoutFallback) {
  // Saturate the one server hosting the desired-satisfying variant: the
  // static baseline rejects although alternates exist.
  TestSystem sys;
  BasicNegotiator basic(sys.catalog, sys.farm, *sys.transport);
  UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult probe = basic.negotiate(make_negotiation_request(sys.client, "article", profile));
  ASSERT_TRUE(probe.has_commitment());
  // Find which server the static choice used for video and choke it.
  ServerId used;
  for (const auto& c : probe.offers.offer(0).components) {
    if (c.requirements.guarantee == GuaranteeClass::kGuaranteed) {
      used = c.variant->server;
      break;
    }
  }
  probe.commitment.release();
  sys.farm.find(used)->degrade(0.9999);
  NegotiationResult outcome = basic.negotiate(make_negotiation_request(sys.client, "article", profile));
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedTryLater);
  // The smart procedure serves the same request from the other server.
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  SmartNegotiator smart(manager);
  NegotiationResult smart_outcome = smart.negotiate(make_negotiation_request(sys.client, "article", profile));
  EXPECT_TRUE(smart_outcome.verdict == NegotiationStatus::kSucceeded ||
              smart_outcome.verdict == NegotiationStatus::kFailedWithOffer);
}

TEST(CostOnlyNegotiator, PicksCheapestCommittableOffer) {
  TestSystem sys;
  CostOnlyNegotiator cost(sys.catalog, sys.farm, *sys.transport, CostModel{});
  NegotiationResult outcome =
      cost.negotiate(make_negotiation_request(sys.client, "article", TestSystem::tolerant_profile()));
  ASSERT_TRUE(outcome.has_commitment());
  EXPECT_EQ(outcome.committed_index, 0u);
  for (std::size_t i = 1; i < outcome.offers.size(); ++i) {
    EXPECT_LE(outcome.offers.total_cost(i - 1), outcome.offers.total_cost(i));
  }
  // The cheapest offer is typically the degraded one: cost-only ignores the
  // user's desired QoS (Sec. 5's argument against it).
  const SystemOffer committed = outcome.offers.offer(outcome.committed_index);
  EXPECT_NE(committed.sns, Sns::kDesirable);
}

TEST(QoSOnlyNegotiator, PicksRichestOfferIgnoringCost) {
  TestSystem sys;
  QoSOnlyNegotiator qos(sys.catalog, sys.farm, *sys.transport, CostModel{});
  UserProfile profile = TestSystem::tolerant_profile();
  profile.mm.cost.max_cost = Money::cents(1);  // budget the richest offer busts
  NegotiationResult outcome = qos.negotiate(make_negotiation_request(sys.client, "article", profile));
  ASSERT_TRUE(outcome.has_commitment());
  // QoS-only ignores the budget -> the committed offer violates it.
  EXPECT_EQ(outcome.verdict, NegotiationStatus::kFailedWithOffer);
  EXPECT_GT(outcome.offers.total_cost(outcome.committed_index),
            profile.mm.cost.max_cost);
}

TEST(Baselines, LocalAndCompatibilityChecksStillApply) {
  // Every negotiator stops at the catalog lookup and Steps 1-2 exactly where
  // the paper's procedure does, with the same verdict, problems and offer.
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport);
  SmartNegotiator smart(manager);
  BasicNegotiator basic(sys.catalog, sys.farm, *sys.transport);
  CostOnlyNegotiator cost(sys.catalog, sys.farm, *sys.transport, CostModel{});
  QoSOnlyNegotiator qos(sys.catalog, sys.farm, *sys.transport, CostModel{});

  UserProfile profile = TestSystem::tolerant_profile();
  profile.mm.video->worst = VideoQoS{ColorDepth::kColor, 10, 320};
  ClientMachine bw = sys.client;  // Step 1: cannot render the worst video
  bw.screen = ScreenSpec{640, 480, ColorDepth::kBlackWhite};
  ClientMachine no_video = sys.client;  // Step 2: decodes no video variant
  no_video.decoders = {CodingFormat::kPCM, CodingFormat::kADPCM, CodingFormat::kPlainText};
  struct Case {
    const char* what;
    NegotiationRequest request;
    NegotiationStatus verdict;
  };
  const Case cases[] = {
      {"catalog miss", make_negotiation_request(sys.client, "ghost", profile),
       NegotiationStatus::kFailedWithoutOffer},
      {"step 1", make_negotiation_request(bw, "article", profile),
       NegotiationStatus::kFailedWithLocalOffer},
      {"step 2", make_negotiation_request(no_video, "article", profile),
       NegotiationStatus::kFailedWithoutOffer},
  };
  for (const Case& c : cases) {
    const NegotiationResult expected = manager.negotiate(c.request);
    ASSERT_EQ(expected.verdict, c.verdict) << c.what;
    ASSERT_FALSE(expected.problems.empty()) << c.what;
    for (Negotiator* negotiator : {static_cast<Negotiator*>(&smart),
                                   static_cast<Negotiator*>(&basic),
                                   static_cast<Negotiator*>(&cost),
                                   static_cast<Negotiator*>(&qos)}) {
      SCOPED_TRACE(std::string(c.what) + " / " + std::string(negotiator->name()));
      const NegotiationResult got = negotiator->negotiate(c.request);
      EXPECT_EQ(got.verdict, expected.verdict);
      EXPECT_EQ(got.problems, expected.problems);
      ASSERT_EQ(got.user_offer.has_value(), expected.user_offer.has_value());
      if (got.user_offer) {
        EXPECT_EQ(got.user_offer->describe(), expected.user_offer->describe());
      }
      EXPECT_FALSE(got.has_commitment());
    }
  }
}

TEST(Baselines, SmartServiceRateDominatesBasicUnderLoad) {
  // Sequential arrivals against finite capacity: the smart procedure keeps
  // serving (with degraded offers) after the static baseline starts
  // rejecting — the paper's availability claim in miniature.
  TestSystem smart_sys(/*access_bps=*/200'000'000, /*backbone_bps=*/30'000'000,
                       /*server_bps=*/200'000'000);
  TestSystem basic_sys(/*access_bps=*/200'000'000, /*backbone_bps=*/30'000'000,
                       /*server_bps=*/200'000'000);
  QoSManager smart_manager(smart_sys.catalog, smart_sys.farm, *smart_sys.transport);
  SmartNegotiator smart(smart_manager);
  BasicNegotiator basic(basic_sys.catalog, basic_sys.farm, *basic_sys.transport);
  const UserProfile profile = TestSystem::tolerant_profile();

  int smart_served = 0;
  int basic_served = 0;
  std::vector<NegotiationResult> held;
  for (int i = 0; i < 30; ++i) {
    auto a = smart.negotiate(make_negotiation_request(smart_sys.client, "article", profile));
    if (a.has_commitment()) {
      ++smart_served;
      held.push_back(std::move(a));
    }
    auto b = basic.negotiate(make_negotiation_request(basic_sys.client, "article", profile));
    if (b.has_commitment()) {
      ++basic_served;
      held.push_back(std::move(b));
    }
  }
  EXPECT_GT(smart_served, basic_served);
}

}  // namespace
}  // namespace qosnp
