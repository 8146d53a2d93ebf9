#include "core/offer.hpp"

#include <gtest/gtest.h>

#include "core/enumerate.hpp"
#include "test_system.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;

TEST(OfferTypes, StatusAndSnsNames) {
  EXPECT_EQ(to_string(Sns::kDesirable), "DESIRABLE");
  EXPECT_EQ(to_string(Sns::kAcceptable), "ACCEPTABLE");
  EXPECT_EQ(to_string(Sns::kConstraint), "CONSTRAINT");
  EXPECT_EQ(to_string(NegotiationStatus::kSucceeded), "SUCCEEDED");
  EXPECT_EQ(to_string(NegotiationStatus::kFailedWithOffer), "FAILEDWITHOFFER");
  EXPECT_EQ(to_string(NegotiationStatus::kFailedTryLater), "FAILEDTRYLATER");
  EXPECT_EQ(to_string(NegotiationStatus::kFailedWithoutOffer), "FAILEDWITHOUTOFFER");
  EXPECT_EQ(to_string(NegotiationStatus::kFailedWithLocalOffer), "FAILEDWITHLOCALOFFER");
}

OfferList offers_for(TestSystem& sys, const UserProfile& profile) {
  auto doc = sys.catalog.find("article");
  auto feasible = compatible_variants(doc, sys.client, profile.mm);
  EXPECT_TRUE(feasible.ok());
  return enumerate_offers(feasible.value(), profile.mm, CostModel{});
}

TEST(OfferTypes, DescribeListsVariantsAndCost) {
  TestSystem sys;
  OfferList list = offers_for(sys, TestSystem::tolerant_profile());
  ASSERT_FALSE(list.eager.empty());
  const std::string s = list.eager[0].describe();
  EXPECT_NE(s.find("article/video"), std::string::npos);
  EXPECT_NE(s.find('$'), std::string::npos);
}

TEST(OfferTypes, DeriveUserOfferFoldsWeakestAcrossSameKind) {
  // Two video components in one offer: the user offer reports the weakest
  // characteristics of the pair (the honest figure).
  TestSystem sys;
  auto doc = sys.catalog.find("article");
  const Monomedia* video = doc->find_monomedia("article/video");
  ASSERT_NE(video, nullptr);
  const Variant* hi = video->find_variant("article/video/hi");
  const Variant* lo = video->find_variant("article/video/lo");
  ASSERT_NE(hi, nullptr);
  ASSERT_NE(lo, nullptr);

  SystemOffer offer;
  for (const Variant* v : {hi, lo}) {
    OfferComponent c;
    c.monomedia = video;
    c.variant = v;
    c.requirements = map_variant(*v, video->duration_s, TimeProfile{});
    offer.components.push_back(c);
  }
  offer.cost.total = Money::dollars(2);
  OfferList list;
  list.eager.push_back(offer);
  const UserOffer user = derive_user_offer(list, 0);
  ASSERT_TRUE(user.video.has_value());
  EXPECT_EQ(user.video->color, ColorDepth::kBlackWhite);  // weakest colour
  EXPECT_EQ(user.video->frame_rate_fps, 10);              // weakest rate
  EXPECT_EQ(user.video->resolution, 320);                 // weakest resolution
}

TEST(OfferTypes, DeriveUserOfferCoversAllMedia) {
  TestSystem sys;
  OfferList list = offers_for(sys, TestSystem::tolerant_profile());
  for (std::size_t i = 0; i < list.size(); ++i) {
    const SystemOffer& offer = list.eager[i];
    const UserOffer user = derive_user_offer(list, i);
    EXPECT_TRUE(user.video.has_value());
    EXPECT_TRUE(user.audio.has_value());
    EXPECT_TRUE(user.text.has_value());
    EXPECT_FALSE(user.image.has_value());  // the article has no image
    EXPECT_EQ(user.cost, offer.total_cost());
  }
}

TEST(OfferTypes, OfferListKeepsDocumentAlive) {
  TestSystem sys;
  OfferList list = offers_for(sys, TestSystem::tolerant_profile());
  sys.catalog.remove("article");
  // Components still point at valid variants via the shared document.
  ASSERT_FALSE(list.eager.empty());
  EXPECT_FALSE(list.eager[0].components[0].variant->id.empty());
  EXPECT_EQ(list.document->id, "article");
}

}  // namespace
}  // namespace qosnp
