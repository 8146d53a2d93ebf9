#include "core/enumerate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "core/qos_manager.hpp"
#include "test_system.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;

TEST(Enumerate, CompatibleVariantsFiltersByDecoder) {
  TestSystem sys;
  auto doc = sys.catalog.find("article");
  const UserProfile profile = TestSystem::tolerant_profile();
  // A client that cannot decode MJPEG loses exactly that variant.
  ClientMachine limited = sys.client;
  limited.decoders = {CodingFormat::kMPEG1, CodingFormat::kPCM, CodingFormat::kADPCM,
                      CodingFormat::kPlainText};
  auto feasible = compatible_variants(doc, limited, profile.mm);
  ASSERT_TRUE(feasible.ok()) << feasible.error();
  ASSERT_EQ(feasible.value().monomedia.size(), 3u);
  EXPECT_EQ(feasible.value().variants[0].size(), 4u);  // 5 video variants - MJPEG
  for (const Variant* v : feasible.value().variants[0]) {
    EXPECT_NE(v->format, CodingFormat::kMJPEG);
  }
}

TEST(Enumerate, NoDecodableVariantFailsWithMonomediaName) {
  TestSystem sys;
  auto doc = sys.catalog.find("article");
  ClientMachine mpeg2_only = sys.client;
  mpeg2_only.decoders = {CodingFormat::kMPEG2, CodingFormat::kPCM, CodingFormat::kPlainText};
  auto feasible = compatible_variants(doc, mpeg2_only, TestSystem::tolerant_profile().mm);
  ASSERT_FALSE(feasible.ok());
  EXPECT_NE(feasible.error().find("article/video"), std::string::npos);
}

TEST(Enumerate, UnrequestedMediaAreSkipped) {
  TestSystem sys;
  auto doc = sys.catalog.find("article");
  UserProfile video_only = TestSystem::tolerant_profile();
  video_only.mm.audio.reset();
  video_only.mm.text.reset();
  auto feasible = compatible_variants(doc, sys.client, video_only.mm);
  ASSERT_TRUE(feasible.ok());
  EXPECT_EQ(feasible.value().monomedia.size(), 1u);
  EXPECT_EQ(feasible.value().monomedia[0]->kind, MediaKind::kVideo);
}

TEST(Enumerate, RequestingNothingPresentFails) {
  TestSystem sys;
  auto doc = sys.catalog.find("article");
  UserProfile image_only;
  image_only.name = "image-only";
  image_only.mm.image = ImageProfile{};
  auto feasible = compatible_variants(doc, sys.client, image_only.mm);
  EXPECT_FALSE(feasible.ok());  // the article carries no image
}

TEST(Enumerate, CombinationCountIsProduct) {
  TestSystem sys;
  auto doc = sys.catalog.find("article");
  auto feasible = compatible_variants(doc, sys.client, TestSystem::tolerant_profile().mm);
  ASSERT_TRUE(feasible.ok());
  EXPECT_EQ(feasible.value().combination_count(), 5u * 2u * 2u);
}

TEST(Enumerate, EnumeratesAllCombinationsDistinctly) {
  TestSystem sys;
  auto doc = sys.catalog.find("article");
  const UserProfile profile = TestSystem::tolerant_profile();
  auto feasible = compatible_variants(doc, sys.client, profile.mm);
  ASSERT_TRUE(feasible.ok());
  const OfferList list = enumerate_offers(feasible.value(), profile.mm, CostModel{});
  EXPECT_EQ(list.eager.size(), 20u);
  EXPECT_FALSE(list.truncated);
  EXPECT_EQ(list.total_combinations, 20u);
  std::set<std::string> signatures;
  for (const SystemOffer& o : list.eager) {
    ASSERT_EQ(o.components.size(), 3u);
    std::string sig;
    for (const auto& c : o.components) sig += c.variant->id + "|";
    signatures.insert(sig);
  }
  EXPECT_EQ(signatures.size(), 20u);
}

TEST(Enumerate, EveryOfferIsPricedByFormulaOne) {
  TestSystem sys;
  auto doc = sys.catalog.find("article");
  const UserProfile profile = TestSystem::tolerant_profile();
  auto feasible = compatible_variants(doc, sys.client, profile.mm);
  ASSERT_TRUE(feasible.ok());
  const CostModel model;
  const OfferList list = enumerate_offers(feasible.value(), profile.mm, model);
  for (const SystemOffer& o : list.eager) {
    std::vector<StreamRequirements> streams;
    for (const auto& c : o.components) streams.push_back(c.requirements);
    const CostBreakdown expected = model.document_cost(doc->copyright_cost, streams);
    EXPECT_EQ(o.cost.total, expected.total);
    EXPECT_EQ(o.cost.copyright, doc->copyright_cost);
  }
}

TEST(Enumerate, TruncationIsExplicit) {
  TestSystem sys;
  auto doc = sys.catalog.find("article");
  const UserProfile profile = TestSystem::tolerant_profile();
  auto feasible = compatible_variants(doc, sys.client, profile.mm);
  ASSERT_TRUE(feasible.ok());
  EnumerationConfig config;
  config.max_offers = 7;
  const OfferList list = enumerate_offers(feasible.value(), profile.mm, CostModel{}, config);
  EXPECT_EQ(list.eager.size(), 7u);
  EXPECT_TRUE(list.truncated);
  EXPECT_EQ(list.total_combinations, 20u);
}

TEST(Enumerate, StreamRequirementsMatchMapping) {
  TestSystem sys;
  auto doc = sys.catalog.find("article");
  const UserProfile profile = TestSystem::tolerant_profile();
  auto feasible = compatible_variants(doc, sys.client, profile.mm);
  ASSERT_TRUE(feasible.ok());
  const OfferList list = enumerate_offers(feasible.value(), profile.mm, CostModel{});
  for (const SystemOffer& o : list.eager) {
    for (const auto& c : o.components) {
      const StreamRequirements expected =
          map_variant(*c.variant, c.monomedia->duration_s, profile.mm.time);
      EXPECT_EQ(c.requirements.max_bit_rate_bps, expected.max_bit_rate_bps);
      EXPECT_EQ(c.requirements.avg_bit_rate_bps, expected.avg_bit_rate_bps);
      EXPECT_EQ(c.requirements.guarantee, expected.guarantee);
    }
  }
}

TEST(Enumerate, NullDocumentFails) {
  TestSystem sys;
  auto feasible = compatible_variants(nullptr, sys.client, TestSystem::tolerant_profile().mm);
  EXPECT_FALSE(feasible.ok());
}

TEST(CombinationCount, SaturatesAtSizeMaxInsteadOfOverflowing) {
  // Four monomedia with 2^16 feasible variants each: the true product is
  // 2^64, one past SIZE_MAX — the count must clamp, not wrap to 0.
  FeasibleSet huge;
  huge.monomedia.assign(4, nullptr);
  huge.variants.assign(4, std::vector<const Variant*>(1u << 16, nullptr));
  EXPECT_EQ(huge.combination_count(), SIZE_MAX);

  // One variant short of the cliff stays exact.
  FeasibleSet large;
  large.monomedia.assign(3, nullptr);
  large.variants.assign(3, std::vector<const Variant*>(1u << 16, nullptr));
  EXPECT_EQ(large.combination_count(), std::size_t{1} << 48);

  // Any empty list zeroes the product regardless of the other factors.
  FeasibleSet with_empty = std::move(huge);
  with_empty.variants[2].clear();
  EXPECT_EQ(with_empty.combination_count(), 0u);
}

/// A document of `media` text monomedia, each with an English and a French
/// variant — a real (materialisable) document whose product is 2^media.
std::shared_ptr<const MultimediaDocument> power_of_two_document(std::size_t media) {
  MultimediaDocument doc;
  doc.id = "pow2";
  doc.copyright_cost = Money::cents(10);
  for (std::size_t i = 0; i < media; ++i) {
    Monomedia text;
    text.id = "pow2/text" + std::to_string(i);
    text.kind = MediaKind::kText;
    text.variants = {
        make_text_variant(text.id + "/en", Language::kEnglish, CodingFormat::kPlainText, 4'000,
                          "server-a"),
        make_text_variant(text.id + "/fr", Language::kFrench, CodingFormat::kPlainText, 4'000,
                          "server-b"),
    };
    doc.monomedia.push_back(std::move(text));
  }
  return std::make_shared<const MultimediaDocument>(std::move(doc));
}

TEST(CombinationCount, SixtyFourMediaCorpusSaturatesEverywhere) {
  // 64 media x 2 variants: the true product is 2^64, one past SIZE_MAX.
  // Every consumer of the count — the feasible set, the eager enumerator's
  // total, and the stream's total — must see the saturated value, and the
  // eager cap arithmetic must not wrap.
  TestSystem sys;
  auto doc = power_of_two_document(64);
  UserProfile profile;
  profile.mm.video.reset();
  profile.mm.audio.reset();
  profile.mm.image.reset();
  profile.mm.text = TextProfile{};
  profile.mm.text->acceptable = {Language::kFrench};
  auto feasible = compatible_variants(doc, sys.client, profile.mm);
  ASSERT_TRUE(feasible.ok());
  EXPECT_EQ(feasible.value().combination_count(), SIZE_MAX);

  EnumerationConfig config;
  config.max_offers = 4;
  const OfferList list = enumerate_offers(feasible.value(), profile.mm, CostModel{}, config);
  EXPECT_EQ(list.total_combinations, SIZE_MAX);
  EXPECT_TRUE(list.truncated);
  EXPECT_EQ(list.eager.size(), 4u);

  OfferStream stream(feasible.value(), profile.mm, profile.importance, CostModel{}, 4);
  EXPECT_EQ(stream.total_combinations(), SIZE_MAX);
  EXPECT_EQ(stream.emit_limit(), 4u);
}

TEST(OfferStream, PullsFromAnAstronomicalProductWithoutEnumeratingIt) {
  // The same 2^64-combination document: the stream must yield its best
  // offers instantly, scoring only a frontier of states — this is the whole
  // point of laziness, and would OOM (or never finish) eagerly uncapped.
  TestSystem sys;
  auto doc = power_of_two_document(64);
  UserProfile profile;
  profile.mm.video.reset();
  profile.mm.audio.reset();
  profile.mm.image.reset();
  profile.mm.text = TextProfile{};
  profile.mm.text->acceptable = {Language::kFrench};
  profile.mm.cost.max_cost = Money::dollars(100);
  auto feasible = compatible_variants(doc, sys.client, profile.mm);
  ASSERT_TRUE(feasible.ok());
  OfferStream stream(std::move(feasible.value()), profile.mm, profile.importance, CostModel{}, 8);
  // The very best offer: the desired (English) variant of all 64 texts.
  auto best = stream.next();
  ASSERT_TRUE(best.has_value());
  ASSERT_EQ(best->components.size(), 64u);
  for (const OfferComponent& c : best->components) {
    EXPECT_EQ(c.variant->id.substr(c.variant->id.size() - 3), "/en");
  }
  EXPECT_EQ(best->sns, Sns::kDesirable);
  for (int i = 1; i < 8; ++i) {
    EXPECT_TRUE(stream.next().has_value()) << "offer " << i;
  }
  EXPECT_FALSE(stream.next().has_value());
  // Work scales with offers consumed x positions (each pop expands at most
  // one successor per position, plus one root per sub-space cursor) — a few
  // thousand states, not the 2^64 product.
  EXPECT_LT(stream.states_generated(), 8u * 64u * 8u);
}

TEST(OfferPositions, NamesEveryComponentOfA64MediaOffer) {
  // A commit-attempt span names its offer by offer_positions; past the
  // inline buffer (about 32 components) the name must grow, not truncate.
  TestSystem sys;
  auto doc = power_of_two_document(64);
  UserProfile profile;
  profile.mm.video.reset();
  profile.mm.audio.reset();
  profile.mm.image.reset();
  profile.mm.text = TextProfile{};
  profile.mm.text->acceptable = {Language::kFrench};
  auto feasible = compatible_variants(doc, sys.client, profile.mm);
  ASSERT_TRUE(feasible.ok());
  OfferStream stream(std::move(feasible.value()), profile.mm, profile.importance, CostModel{}, 1);
  auto best = stream.next();
  ASSERT_TRUE(best.has_value());
  ASSERT_EQ(best->components.size(), 64u);
  std::string expected;
  for (const OfferComponent& c : best->components) {
    if (!expected.empty()) expected += '.';
    expected += std::to_string(c.variant - c.monomedia->variants.data());
  }
  const std::string positions = offer_positions(*best);
  EXPECT_EQ(positions, expected);
  EXPECT_EQ(std::count(positions.begin(), positions.end(), '.'), 63);
  EXPECT_EQ(positions.size(), 127u);  // 64 one-digit positions
}

}  // namespace
}  // namespace qosnp
