// Differential and property tests for the lazy best-first offer stream
// (OfferStream): over seeded random corpora, profiles, and policies, the
// stream must yield byte-identical offers in byte-identical order to the
// eager enumerate+classify oracle, produce identical NegotiationResults,
// and keep those guarantees while session adaptation pulls offers past the
// initially-consumed prefix — including under injected commitment faults.
// Also the regression test for the latent eager-truncation defect: with the
// product above max_offers, the eager cap can drop the true best offer
// before classification sees it; best-first keeps the best `max_offers`.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/classify.hpp"
#include "core/enumerate.hpp"
#include "core/qos_manager.hpp"
#include "document/corpus.hpp"
#include "fault/fault_injector.hpp"
#include "session/session.hpp"
#include "test_system.hpp"
#include "util/rng.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;

std::string signature(const SystemOffer& offer) {
  std::string sig;
  for (const OfferComponent& c : offer.components) {
    sig += c.variant->id;
    sig += '|';
  }
  return sig;
}

/// The eager oracle: materialise the whole product, then classify and sort.
OfferList eager_oracle(const FeasibleSet& feasible, const MMProfile& mm,
                       const ImportanceProfile& importance) {
  EnumerationConfig config;
  config.max_offers = 1'000'000;  // corpus products are far smaller: no cap
  OfferList list = enumerate_offers(feasible, mm, CostModel{}, config);
  classify_offers(list.eager, mm, importance);
  return list;
}

/// A profile with randomised requested media, desired/worst ladders, budget,
/// and importance weights, to spread the cases over the grading space
/// (desirable/acceptable/constraint mixes, ill-formed worst>desired, ties).
UserProfile random_profile(Rng& rng) {
  UserProfile p = TestSystem::tolerant_profile();
  static const VideoQoS video_points[] = {
      VideoQoS{ColorDepth::kBlackWhite, 10, 320}, VideoQoS{ColorDepth::kGray, 15, 320},
      VideoQoS{ColorDepth::kColor, 25, 640}, VideoQoS{ColorDepth::kSuperColor, 30, 1280}};
  p.mm.video->desired = video_points[1 + rng.below(3)];
  p.mm.video->worst = video_points[rng.below(4)];  // occasionally ill-formed
  if (rng.chance(0.3)) {
    p.mm.audio.reset();
  } else {
    p.mm.audio->desired = AudioQoS{rng.chance(0.5) ? AudioQuality::kCD : AudioQuality::kRadio};
    p.mm.audio->worst = AudioQoS{rng.chance(0.8) ? AudioQuality::kTelephone : AudioQuality::kRadio};
  }
  if (rng.chance(0.3)) {
    p.mm.text.reset();
  } else if (rng.chance(0.3)) {
    p.mm.text->acceptable.clear();  // non-English texts become constraint
  }
  if (rng.chance(0.3)) p.mm.image = ImageProfile{};
  p.mm.cost.max_cost = Money::cents(50 + 25 * static_cast<std::int64_t>(rng.below(160)));
  if (rng.chance(0.3)) p.importance.cost_per_dollar = rng.uniform(0.1, 2.0);
  if (rng.chance(0.25)) {
    p.importance.preferred_servers = {"server-b"};
    p.importance.server_bonus = rng.uniform(0.1, 1.0);
  }
  return p;
}

// --- Tentpole guarantee: stream == oracle, everywhere. ---------------------

TEST(OfferStreamDifferential, MatchesEagerOracleAcrossSeededCorpora) {
  TestSystem sys;
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    CorpusConfig corpus;
    corpus.seed = seed;
    corpus.num_documents = 2;
    corpus.servers = {"server-a", "server-b"};
    Rng rng(seed * 7919);
    for (auto& raw : generate_corpus(corpus)) {
      auto doc = std::make_shared<const MultimediaDocument>(std::move(raw));
      for (int variant = 0; variant < 4; ++variant) {
        UserProfile profile = random_profile(rng);
        if (variant >= 2) {
          // All QoS importances zero, cost dominant: the cost-only grading
          // of the importance-weighted rule (Sec. 5.2.2 example (3)), with
          // an OIF of cost alone, full of ties.
          profile.importance = ImportanceProfile{};
          profile.importance.cost_per_dollar = 1.0;
        }
        const std::size_t cap = rng.chance(0.25) ? 3 + rng.below(8) : 100'000;

        auto feasible = compatible_variants(doc, sys.client, profile.mm);
        if (!feasible.ok()) continue;  // corpus may generate undecodable docs
        FeasibleSet copy = feasible.value();

        const OfferList oracle =
            eager_oracle(feasible.value(), profile.mm, profile.importance);
        OfferStream stream(std::move(copy), profile.mm, profile.importance, CostModel{}, cap);
        ASSERT_EQ(stream.total_combinations(), oracle.total_combinations);
        // Capped streams must yield the *prefix* of the full classified
        // order — the best `cap` offers, not the first `cap` in document
        // order (the eager cap's defect, tested separately below).
        const std::size_t expect_n = std::min(cap, oracle.eager.size());
        ASSERT_EQ(stream.emit_limit(), expect_n);
        for (std::size_t i = 0; i < expect_n; ++i) {
          auto offer = stream.next();
          ASSERT_TRUE(offer.has_value())
              << "seed " << seed << " doc " << doc->id << " case " << variant
              << ": stream dried up at " << i << " of " << expect_n;
          const SystemOffer& expected = oracle.eager[i];
          ASSERT_EQ(signature(*offer), signature(expected))
              << "seed " << seed << " doc " << doc->id << " case " << variant << " rank " << i;
          EXPECT_EQ(offer->sns, expected.sns) << signature(expected) << " rank " << i;
          EXPECT_EQ(offer->oif, expected.oif) << signature(expected) << " rank " << i;
          EXPECT_EQ(offer->total_cost(), expected.total_cost()) << signature(expected);
        }
        EXPECT_FALSE(stream.next().has_value());
        EXPECT_TRUE(stream.exhausted());
        EXPECT_EQ(stream.yielded(), expect_n);
        ++cases;
      }
    }
  }
  // The acceptance bar: the differential property must have been exercised
  // over at least 1000 seeded corpus cases (not silently skipped away).
  EXPECT_GE(cases, 1000u);
}

// The differential above compares totals only; the stream assembles each
// breakdown from per-variant memos, so check the per-stream split too.
TEST(OfferStreamDifferential, CostBreakdownMatchesDocumentCostFieldByField) {
  TestSystem sys;
  const CostModel cost_model;
  std::size_t offers_checked = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    CorpusConfig corpus;
    corpus.seed = seed;
    corpus.num_documents = 2;
    corpus.servers = {"server-a", "server-b"};
    Rng rng(seed * 104729);
    for (auto& raw : generate_corpus(corpus)) {
      auto doc = std::make_shared<const MultimediaDocument>(std::move(raw));
      for (int variant = 0; variant < 3; ++variant) {
        UserProfile profile = random_profile(rng);
        if (variant == 2) {
          // Cost-only grading: the stream walks two filtered full products.
          profile.importance = ImportanceProfile{};
          profile.importance.cost_per_dollar = 1.0;
        }
        auto feasible = compatible_variants(doc, sys.client, profile.mm);
        if (!feasible.ok()) continue;
        OfferStream stream(std::move(feasible.value()), profile.mm, profile.importance,
                           cost_model, 100'000);
        while (auto offer = stream.next()) {
          std::vector<StreamRequirements> streams;
          for (const OfferComponent& c : offer->components) streams.push_back(c.requirements);
          const CostBreakdown expected = cost_model.document_cost(doc->copyright_cost, streams);
          const std::string where = "seed " + std::to_string(seed) + " case " +
                                    std::to_string(variant) + " offer " + signature(*offer);
          EXPECT_EQ(offer->cost.copyright, expected.copyright) << where;
          ASSERT_EQ(offer->cost.streams.size(), expected.streams.size()) << where;
          for (std::size_t k = 0; k < expected.streams.size(); ++k) {
            EXPECT_EQ(offer->cost.streams[k].network, expected.streams[k].network)
                << where << " stream " << k;
            EXPECT_EQ(offer->cost.streams[k].server, expected.streams[k].server)
                << where << " stream " << k;
          }
          EXPECT_EQ(offer->cost.total, expected.total) << where;
          ++offers_checked;
        }
      }
    }
  }
  EXPECT_GE(offers_checked, 1000u);
}

TEST(OfferStreamDifferential, TruncationFlagsMatchEagerSemantics) {
  TestSystem sys;
  const UserProfile profile = TestSystem::tolerant_profile();
  auto doc = sys.catalog.find("article");
  auto feasible = compatible_variants(doc, sys.client, profile.mm);
  ASSERT_TRUE(feasible.ok());
  // 20 combinations, cap 7: both strategies flag the truncation.
  EnumerationConfig config;
  config.max_offers = 7;
  const OfferList eager = enumerate_offers(feasible.value(), profile.mm, CostModel{}, config);
  EXPECT_TRUE(eager.truncated);
  OfferStream stream(feasible.value(), profile.mm, profile.importance, CostModel{}, 7);
  EXPECT_EQ(stream.emit_limit(), 7u);
  EXPECT_LT(stream.emit_limit(), stream.total_combinations());  // == truncated
  // Uncapped: neither truncates.
  OfferStream wide(feasible.value(), profile.mm, profile.importance, CostModel{}, 20'000);
  EXPECT_EQ(wide.emit_limit(), wide.total_combinations());
}

// --- Outcome parity: the whole Step 1-5 pipeline, both strategies. ---------

NegotiationConfig strategy_config(EnumerationStrategy strategy) {
  NegotiationConfig config;
  config.enumeration.strategy = strategy;
  return config;
}

TEST(OfferStreamDifferential, NegotiationResultMatchesEagerAcrossCorpora) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    TestSystem eager_sys;
    TestSystem lazy_sys;
    CorpusConfig corpus;
    corpus.seed = seed;
    corpus.num_documents = 3;
    corpus.servers = {"server-a", "server-b"};
    for (auto& doc : generate_corpus(corpus)) {
      eager_sys.catalog.add(MultimediaDocument{doc});
      lazy_sys.catalog.add(std::move(doc));
    }
    QoSManager eager(eager_sys.catalog, eager_sys.farm, *eager_sys.transport, CostModel{},
                     strategy_config(EnumerationStrategy::kEager));
    QoSManager lazy(lazy_sys.catalog, lazy_sys.farm, *lazy_sys.transport, CostModel{},
                    strategy_config(EnumerationStrategy::kBestFirst));
    Rng rng(seed);
    // Keep the outcomes (and so the commitments) alive for the whole seed:
    // resources then evolve identically on both sides request by request.
    std::vector<NegotiationResult> keep_eager, keep_lazy;
    for (const DocumentId& id : eager_sys.catalog.list()) {
      for (int rep = 0; rep < 2; ++rep) {
        const UserProfile profile = random_profile(rng);
        NegotiationResult a = eager.negotiate(make_negotiation_request(eager_sys.client, id, profile));
        NegotiationResult b = lazy.negotiate(make_negotiation_request(lazy_sys.client, id, profile));
        EXPECT_EQ(a.verdict, b.verdict) << "seed " << seed << " doc " << id;
        EXPECT_EQ(a.committed_index, b.committed_index) << "seed " << seed << " doc " << id;
        EXPECT_EQ(a.problems, b.problems) << "seed " << seed << " doc " << id;
        ASSERT_EQ(a.has_commitment(), b.has_commitment());
        if (a.has_commitment()) {
          EXPECT_EQ(signature(a.offers.offer(a.committed_index)),
                    signature(b.offers.offer(b.committed_index)));
          EXPECT_EQ(a.user_offer->cost, b.user_offer->cost);
          // The lazy side must not have materialised past the walk's needs.
          EXPECT_LE(b.offers.size(), a.offers.size());
        }
        ++compared;
        keep_eager.push_back(std::move(a));
        keep_lazy.push_back(std::move(b));
      }
    }
  }
  EXPECT_GE(compared, 200u);
}

// --- Regression: the eager cap's truncation defect. ------------------------

/// A document whose best variants sit *last* in every ladder, so the best
/// combination is the very last one in document (mixed-radix) order.
std::shared_ptr<const MultimediaDocument> best_last_document() {
  MultimediaDocument doc;
  doc.id = "best-last";
  doc.copyright_cost = Money::cents(50);
  const double duration = 120.0;
  Monomedia video;
  video.id = "best-last/video";
  video.kind = MediaKind::kVideo;
  video.duration_s = duration;
  for (int i = 0; i < 5; ++i) {
    video.variants.push_back(make_video_variant(
        "best-last/video/lo" + std::to_string(i), VideoQoS{ColorDepth::kBlackWhite, 10, 320},
        CodingFormat::kMPEG1, duration, i % 2 ? "server-a" : "server-b"));
  }
  video.variants.push_back(make_video_variant("best-last/video/best",
                                              VideoQoS{ColorDepth::kColor, 25, 640},
                                              CodingFormat::kMPEG1, duration, "server-a"));
  doc.monomedia.push_back(std::move(video));
  Monomedia audio;
  audio.id = "best-last/audio";
  audio.kind = MediaKind::kAudio;
  audio.duration_s = duration;
  for (int i = 0; i < 3; ++i) {
    audio.variants.push_back(make_audio_variant("best-last/audio/tel" + std::to_string(i),
                                                AudioQuality::kTelephone, CodingFormat::kADPCM,
                                                duration, i % 2 ? "server-b" : "server-a"));
  }
  audio.variants.push_back(make_audio_variant("best-last/audio/best", AudioQuality::kCD,
                                              CodingFormat::kPCM, duration, "server-b"));
  doc.monomedia.push_back(std::move(audio));
  return std::make_shared<const MultimediaDocument>(std::move(doc));
}

TEST(OfferStreamRegression, BestFirstCommitsTheBestOfferTheEagerCapDropped) {
  // 6 x 4 = 24 combinations, cap 10: the eager path enumerates the first 10
  // combinations in document order — all on the low-quality video rungs —
  // and the true best offer (best video + best audio, the 24th combination)
  // is truncated away before classification ever sees it.
  NegotiationConfig eager_config = strategy_config(EnumerationStrategy::kEager);
  eager_config.enumeration.max_offers = 10;
  NegotiationConfig lazy_config = strategy_config(EnumerationStrategy::kBestFirst);
  lazy_config.enumeration.max_offers = 10;

  UserProfile profile = TestSystem::tolerant_profile();
  profile.mm.text.reset();
  profile.mm.video->desired = VideoQoS{ColorDepth::kColor, 25, 640};
  profile.mm.audio->desired = AudioQoS{AudioQuality::kCD};

  TestSystem eager_sys;
  TestSystem lazy_sys;
  eager_sys.catalog.add(MultimediaDocument{*best_last_document()});
  lazy_sys.catalog.add(MultimediaDocument{*best_last_document()});
  QoSManager eager(eager_sys.catalog, eager_sys.farm, *eager_sys.transport, CostModel{},
                   eager_config);
  QoSManager lazy(lazy_sys.catalog, lazy_sys.farm, *lazy_sys.transport, CostModel{},
                  lazy_config);

  NegotiationResult truncated = eager.negotiate(make_negotiation_request(eager_sys.client, "best-last", profile));
  NegotiationResult best = lazy.negotiate(make_negotiation_request(lazy_sys.client, "best-last", profile));
  ASSERT_TRUE(truncated.has_commitment());
  ASSERT_TRUE(best.has_commitment());

  // Best-first commits the true best offer: both desired variants.
  EXPECT_EQ(signature(best.offers.offer(best.committed_index)),
            "best-last/video/best|best-last/audio/best|");
  EXPECT_EQ(best.verdict, NegotiationStatus::kSucceeded);
  // The eager cap dropped it, so the eager walk committed something worse —
  // and the truncation was reported, not silent.
  EXPECT_NE(signature(truncated.offers.offer(truncated.committed_index)),
            "best-last/video/best|best-last/audio/best|");
  ASSERT_FALSE(truncated.problems.empty());
  EXPECT_NE(truncated.problems[0].find("truncated"), std::string::npos);
  // Both sides flag the truncation; under best-first the capped set is still
  // the *best* 10 of the 24, so the defect is gone even though the flag stays.
  EXPECT_TRUE(truncated.offers.truncated);
  EXPECT_TRUE(best.offers.truncated);
  ASSERT_FALSE(best.problems.empty());
  EXPECT_NE(best.problems[0].find("truncated"), std::string::npos);
}

// --- Adaptation must pull past the initially-consumed prefix. --------------

TEST(OfferStreamAdaptation, LadderMarchMatchesEagerUnderExcludeAllTried) {
  TestSystem eager_sys;
  TestSystem lazy_sys;
  QoSManager eager(eager_sys.catalog, eager_sys.farm, *eager_sys.transport, CostModel{},
                   strategy_config(EnumerationStrategy::kEager));
  QoSManager lazy(lazy_sys.catalog, lazy_sys.farm, *lazy_sys.transport, CostModel{},
                  strategy_config(EnumerationStrategy::kBestFirst));
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult a = eager.negotiate(make_negotiation_request(eager_sys.client, "article", profile));
  NegotiationResult b = lazy.negotiate(make_negotiation_request(lazy_sys.client, "article", profile));
  ASSERT_TRUE(a.has_commitment());
  ASSERT_TRUE(b.has_commitment());
  // The lazy negotiation consumed only a prefix; the ladder is still known
  // in full through the stream.
  ASSERT_LT(b.offers.size(), b.offers.known_count());
  EXPECT_EQ(b.offers.known_count(), a.offers.size());

  const AdaptationPolicy policy{.make_before_break = false, .exclude_all_tried = true};
  SessionManager eager_sessions(eager, policy);
  SessionManager lazy_sessions(lazy, policy);
  auto ea = eager_sessions.open(eager_sys.client, profile, std::move(a), 0.0);
  auto la = lazy_sessions.open(lazy_sys.client, profile, std::move(b), 0.0);
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(eager_sessions.confirm(ea.value(), 1.0).ok());
  ASSERT_TRUE(lazy_sessions.confirm(la.value(), 1.0).ok());

  // March both sessions down the ladder until adaptation aborts them; every
  // step must land on the same rung — the lazy side fetching rungs from the
  // stream the negotiation never materialised.
  for (int step = 0;; ++step) {
    ASSERT_LT(step, 64) << "ladder march did not terminate";
    const TransitionResult ra = eager_sessions.adapt(ea.value(), 5.0 + step);
    const TransitionResult rb = lazy_sessions.adapt(la.value(), 5.0 + step);
    EXPECT_EQ(ra.moved, rb.moved) << "step " << step;
    EXPECT_EQ(ra.new_offer, rb.new_offer) << "step " << step;
    EXPECT_EQ(ra.errors(), rb.errors()) << "step " << step;
    if (!ra.moved || !rb.moved) break;
  }
  EXPECT_EQ(eager_sessions.snapshot(ea.value())->state, SessionState::kAborted);
  EXPECT_EQ(lazy_sessions.snapshot(la.value())->state, SessionState::kAborted);
}

TEST(OfferStreamAdaptation, FaultedCommitWalkMatchesEagerAndFetchesDeeper) {
  // Transient commit refusals force the Step-5 walk deep into the ladder on
  // the very first negotiation: the lazy side must fetch exactly as far as
  // the eager side walks, and produce the identical error trail.
  auto run = [](EnumerationStrategy strategy) {
    TestSystem sys;
    FaultPlan plan;
    plan.seed = 99;
    plan.server_defaults.transient_failure_p = 0.6;
    plan.transport_defaults.transient_failure_p = 0.3;
    FaultyServerFarm farm(sys.farm, plan);
    FaultyTransportProvider transport(*sys.transport, plan);
    QoSManager manager(sys.catalog, farm, transport, CostModel{}, strategy_config(strategy));
    const UserProfile profile = TestSystem::tolerant_profile();
    NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
    return std::tuple{outcome.verdict, outcome.committed_index, outcome.problems,
                      outcome.commit_stats.attempts, outcome.commit_stats.transient_failures,
                      outcome.offers.size()};
  };
  const auto eager = run(EnumerationStrategy::kEager);
  auto lazy = run(EnumerationStrategy::kBestFirst);
  EXPECT_EQ(std::get<0>(eager), std::get<0>(lazy));
  EXPECT_EQ(std::get<1>(eager), std::get<1>(lazy));
  EXPECT_EQ(std::get<2>(eager), std::get<2>(lazy));
  EXPECT_EQ(std::get<3>(eager), std::get<3>(lazy));
  EXPECT_EQ(std::get<4>(eager), std::get<4>(lazy));
  // Eager materialised all 20; lazy only what the faulted walk touched.
  EXPECT_EQ(std::get<5>(eager), 20u);
  EXPECT_LE(std::get<5>(lazy), 20u);
}

// --- Laziness is observable, not just hoped for. ---------------------------

TEST(OfferStreamLaziness, NegotiationMaterialisesOnlyTheWalkedPrefix) {
  TestSystem sys;
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{},
                     strategy_config(EnumerationStrategy::kBestFirst));
  const UserProfile profile = TestSystem::tolerant_profile();
  NegotiationResult outcome = manager.negotiate(make_negotiation_request(sys.client, "article", profile));
  ASSERT_TRUE(outcome.has_commitment());
  EXPECT_EQ(outcome.offers.known_count(), 20u);
  // The first offer commits, so the walk needed at most a couple of fetches.
  EXPECT_LE(outcome.offers.size(), 3u);
  ASSERT_NE(outcome.offers.stream(), nullptr);
  // The stream scored a frontier, not the product.
  EXPECT_LT(outcome.offers.stream()->states_generated(), 20u * 3u);
}

}  // namespace
}  // namespace qosnp
