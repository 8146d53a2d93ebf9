// Reproduces the paper's Sec. 5 worked examples exactly (E1-E3) and checks
// the classification machinery's invariants.
#include "core/classify.hpp"
#include "core/paper_example.hpp"
#include "document/corpus.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace qosnp {
namespace {

std::vector<std::string> names(const std::vector<SystemOffer>& offers) {
  std::vector<std::string> out;
  out.reserve(offers.size());
  for (const auto& o : offers) out.push_back(paper::offer_name(o));
  return out;
}

// --- E1: static negotiation status (Sec. 5.2.1). --------------------------

TEST(PaperE1, SnsOfTheFourOffers) {
  auto ex = paper::classification_example();
  const ImportanceProfile imp = paper::importance_setting(1);
  // "The results are: offer1: CONSTRAINT, offer2: CONSTRAINT, offer3:
  //  CONSTRAINT, and offer4: ACCEPTABLE."
  EXPECT_EQ(compute_sns(ex.offers.eager[0], ex.profile.mm, imp), Sns::kConstraint);
  EXPECT_EQ(compute_sns(ex.offers.eager[1], ex.profile.mm, imp), Sns::kConstraint);
  EXPECT_EQ(compute_sns(ex.offers.eager[2], ex.profile.mm, imp), Sns::kConstraint);
  EXPECT_EQ(compute_sns(ex.offers.eager[3], ex.profile.mm, imp), Sns::kAcceptable);
}

TEST(PaperE1, PlainRuleAgreesOnTheseOffers) {
  auto ex = paper::classification_example();
  const ImportanceProfile imp = paper::importance_setting(1);
  ClassificationPolicy plain;
  plain.sns_rule = ClassificationPolicy::SnsRule::kPlain;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(compute_sns(ex.offers.eager[i], ex.profile.mm, imp, plain),
              compute_sns(ex.offers.eager[i], ex.profile.mm, imp));
  }
}

// --- E2: overall importance factor and orderings (Sec. 5.2.2). ------------

TEST(PaperE2, OifSetting1) {
  auto ex = paper::classification_example();
  const ImportanceProfile imp = paper::importance_setting(1);
  // "offer1: 10, offer2: 7, and offer3: 12, and offer4: 7."
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[0], imp), 10.0);
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[1], imp), 7.0);
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[2], imp), 12.0);
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[3], imp), 7.0);
}

TEST(PaperE2, OrderingSetting1) {
  auto ex = paper::classification_example();
  ex.profile.importance = paper::importance_setting(1);
  classify_offers(ex.offers.eager, ex.profile.mm, ex.profile.importance);
  // "the offers are classified as follows: offer4, offer3, offer1, and offer2."
  EXPECT_EQ(names(ex.offers.eager),
            (std::vector<std::string>{"offer4", "offer3", "offer1", "offer2"}));
}

TEST(PaperE2, OifSetting2) {
  auto ex = paper::classification_example();
  const ImportanceProfile imp = paper::importance_setting(2);
  // "offer1: 20, offer2: 23, and offer3: 24, and offer4: 27."
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[0], imp), 20.0);
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[1], imp), 23.0);
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[2], imp), 24.0);
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[3], imp), 27.0);
}

TEST(PaperE2, OrderingSetting2) {
  auto ex = paper::classification_example();
  ex.profile.importance = paper::importance_setting(2);
  classify_offers(ex.offers.eager, ex.profile.mm, ex.profile.importance);
  // "offer4, offer3, offer2, and offer1."
  EXPECT_EQ(names(ex.offers.eager),
            (std::vector<std::string>{"offer4", "offer3", "offer2", "offer1"}));
}

TEST(PaperE2, OifSetting3) {
  auto ex = paper::classification_example();
  const ImportanceProfile imp = paper::importance_setting(3);
  // "offer1: -10, offer2: -16, and offer3: -12, and offer4: -20."
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[0], imp), -10.0);
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[1], imp), -16.0);
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[2], imp), -12.0);
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[3], imp), -20.0);
}

TEST(PaperE2, OrderingSetting3) {
  auto ex = paper::classification_example();
  ex.profile.importance = paper::importance_setting(3);
  classify_offers(ex.offers.eager, ex.profile.mm, ex.profile.importance);
  // "offer1, offer3, offer2, and offer4." — reproduced by the
  // importance-weighted SNS rule (see classify.hpp header).
  EXPECT_EQ(names(ex.offers.eager),
            (std::vector<std::string>{"offer1", "offer3", "offer2", "offer4"}));
}

TEST(PaperE2, Setting3PlainRuleAblationDiffers) {
  // Under the literal SNS-primary rule offer4 (ACCEPTABLE) sorts first —
  // documenting the inconsistency in the paper's third example.
  auto ex = paper::classification_example();
  ex.profile.importance = paper::importance_setting(3);
  ClassificationPolicy plain;
  plain.sns_rule = ClassificationPolicy::SnsRule::kPlain;
  classify_offers(ex.offers.eager, ex.profile.mm, ex.profile.importance, plain);
  EXPECT_EQ(paper::offer_name(ex.offers.eager[0]), "offer4");
}

// --- E3: motivating example (Sec. 5.1). ------------------------------------

TEST(PaperE3, MotivatingExampleClassification) {
  auto ex = paper::motivating_example();
  ex.profile.importance = paper::importance_setting(1);
  classify_offers(ex.offers.eager, ex.profile.mm, ex.profile.importance);
  // offerC (colour, 25fps, TV) at $6 both satisfies the desired QoS and the
  // $6 budget: the unique DESIRABLE offer, hence the automatic choice —
  // exactly the "smart negotiation" selling point of Sec. 5.1.
  EXPECT_EQ(paper::offer_name(ex.offers.eager[0]), "offerC");
  EXPECT_EQ(ex.offers.eager[0].sns, Sns::kDesirable);
  EXPECT_EQ(ex.offers.eager[1].sns, Sns::kConstraint);
  EXPECT_EQ(ex.offers.eager[2].sns, Sns::kConstraint);
}

// --- Invariants. -----------------------------------------------------------

TEST(Classify, SatisfiesUserMatchesWorstAndBudget) {
  auto ex = paper::classification_example();
  EXPECT_FALSE(satisfies_user(ex.offers, 0, ex.profile.mm));  // QoS violated
  EXPECT_FALSE(satisfies_user(ex.offers, 3, ex.profile.mm));  // budget violated
  MMProfile relaxed = ex.profile.mm;
  relaxed.cost.max_cost = Money::dollars(5);
  EXPECT_TRUE(satisfies_user(ex.offers, 3, relaxed));
}

TEST(Classify, QosMattersDetectsZeroImportance) {
  auto ex = paper::classification_example();
  EXPECT_TRUE(qos_matters(ex.profile.mm, paper::importance_setting(1)));
  EXPECT_TRUE(qos_matters(ex.profile.mm, paper::importance_setting(2)));
  EXPECT_FALSE(qos_matters(ex.profile.mm, paper::importance_setting(3)));
}

TEST(Classify, SortIsDeterministicUnderPermutation) {
  auto ex = paper::classification_example();
  ex.profile.importance = paper::importance_setting(1);
  auto offers_a = ex.offers.eager;
  auto offers_b = ex.offers.eager;
  std::reverse(offers_b.begin(), offers_b.end());
  classify_offers(offers_a, ex.profile.mm, ex.profile.importance);
  classify_offers(offers_b, ex.profile.mm, ex.profile.importance);
  EXPECT_EQ(names(offers_a), names(offers_b));
}

TEST(Classify, SnsNeverImprovesWhenQosDegrades) {
  // Property: degrading one characteristic never improves the SNS grade.
  auto ex = paper::classification_example();
  const ImportanceProfile imp = paper::importance_setting(1);
  const Sns base = compute_sns(ex.offers.eager[3], ex.profile.mm, imp);  // ACCEPTABLE
  for (std::size_t worse : {0u, 1u, 2u}) {
    EXPECT_GE(compute_sns(ex.offers.eager[worse], ex.profile.mm, imp), base);
  }
}

TEST(Classify, OifLinearInCostImportance) {
  auto ex = paper::classification_example();
  ImportanceProfile imp = paper::importance_setting(2);  // cost importance 0
  const double qos_only = compute_oif(ex.offers.eager[0], imp);
  imp.cost_per_dollar = 4.0;
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[0], imp), qos_only - 4.0 * 2.5);
  imp.cost_per_dollar = 8.0;
  EXPECT_DOUBLE_EQ(compute_oif(ex.offers.eager[0], imp), qos_only - 8.0 * 2.5);
}

TEST(Classify, SortedOrderIsConsistentWithPairwiseRules) {
  // Property: after classification, every adjacent pair respects the
  // documented order (SNS ascending; OIF descending within an SNS class;
  // cost ascending within an OIF tie) — over a large randomised offer set.
  auto ex = paper::classification_example();
  ex.profile.importance = paper::importance_setting(1);
  std::vector<SystemOffer> offers;
  Rng rng(2024);
  for (int i = 0; i < 800; ++i) {
    SystemOffer o = ex.offers.eager[rng.below(4)];
    o.cost.total = Money::cents(static_cast<std::int64_t>(rng.between(50, 800)));
    offers.push_back(std::move(o));
  }
  classify_offers(offers, ex.profile.mm, ex.profile.importance);
  for (std::size_t i = 1; i < offers.size(); ++i) {
    const SystemOffer& a = offers[i - 1];
    const SystemOffer& b = offers[i];
    ASSERT_LE(a.sns, b.sns) << i;
    if (a.sns == b.sns) {
      ASSERT_GE(a.oif, b.oif) << i;
      if (a.oif == b.oif) {
        ASSERT_LE(a.total_cost(), b.total_cost()) << i;
      }
    }
  }
}

TEST(Classify, ServerPreferenceBreaksReplicaTies) {
  // Two identical replicas on different servers, equal cost: the preferred
  // server's replica must rank first (paper Sec. 8's "the user prefers
  // certain servers over others").
  auto doc = std::make_shared<MultimediaDocument>();
  doc->id = "replicated";
  Monomedia video;
  video.id = "replicated/video";
  video.kind = MediaKind::kVideo;
  video.duration_s = 60.0;
  const VideoQoS qos{ColorDepth::kColor, 25, kTvResolution};
  video.variants = {
      make_video_variant("on-far", qos, CodingFormat::kMPEG1, 60.0, "far-server"),
      make_video_variant("on-near", qos, CodingFormat::kMPEG1, 60.0, "near-server"),
  };
  doc->monomedia.push_back(std::move(video));

  auto pinned = [&](std::size_t index) {
    SystemOffer offer;
    OfferComponent c;
    c.monomedia = &doc->monomedia.front();
    c.variant = &doc->monomedia.front().variants[index];
    c.requirements = map_variant(*c.variant, 60.0, TimeProfile{});
    offer.components.push_back(c);
    offer.cost.total = Money::dollars(3);
    return offer;
  };
  std::vector<SystemOffer> offers = {pinned(0), pinned(1)};

  UserProfile profile;
  VideoProfile vp;
  vp.desired = qos;
  vp.worst = qos;
  profile.mm.video = vp;
  profile.mm.cost.max_cost = Money::dollars(5);
  profile.importance = ImportanceProfile::defaults();
  profile.importance.preferred_servers = {"near-server"};
  profile.importance.server_bonus = 2.0;

  classify_offers(offers, profile.mm, profile.importance);
  EXPECT_EQ(offers[0].components[0].variant->id, "on-near");
  EXPECT_DOUBLE_EQ(offers[0].oif, offers[1].oif + 2.0);

  // Without the bonus the deterministic id tie-break wins instead.
  profile.importance.server_bonus = 0.0;
  std::vector<SystemOffer> plain = {pinned(0), pinned(1)};
  classify_offers(plain, profile.mm, profile.importance);
  EXPECT_EQ(plain[0].components[0].variant->id, "on-far");
}

TEST(Classify, DerivedUserOfferMatchesVariantQos) {
  auto ex = paper::classification_example();
  const UserOffer user = derive_user_offer(ex.offers, 2);
  ASSERT_TRUE(user.video.has_value());
  EXPECT_EQ(user.video->color, ColorDepth::kGray);
  EXPECT_EQ(user.video->frame_rate_fps, 25);
  EXPECT_EQ(user.cost, Money::dollars(3));
  EXPECT_FALSE(user.audio.has_value());
}

TEST(Classify, UserOfferDescribeIsReadable) {
  auto ex = paper::classification_example();
  const std::string s = derive_user_offer(ex.offers, 3).describe();
  EXPECT_NE(s.find("color"), std::string::npos);
  EXPECT_NE(s.find("$5.00"), std::string::npos);
}

}  // namespace
}  // namespace qosnp
