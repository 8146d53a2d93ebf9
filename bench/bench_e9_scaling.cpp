// E9 — Offer-space growth (paper Sec. 5.1 drawback (2): "Many offers may be
// produced for a given request"). Google-benchmark microbenchmarks of the
// negotiation pipeline stages as the per-monomedia variant count and the
// number of monomedia grow: the offer space is their cartesian product.
// Also times the end-to-end negotiation latency.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/classify.hpp"
#include "core/enumerate.hpp"
#include "core/qos_manager.hpp"
#include "document/catalog.hpp"
#include "document/corpus.hpp"
#include "server/media_server.hpp"
#include "util/rng.hpp"

namespace {

using namespace qosnp;

/// A document with `monomedia` video tracks of `variants` variants each:
/// offer space = variants^monomedia.
MultimediaDocument synthetic_doc(int monomedia, int variants) {
  MultimediaDocument doc;
  doc.id = "synthetic";
  doc.copyright_cost = Money::cents(25);
  Rng rng(1234);
  static constexpr ColorDepth kColors[] = {ColorDepth::kBlackWhite, ColorDepth::kGray,
                                           ColorDepth::kColor, ColorDepth::kSuperColor};
  static constexpr int kRates[] = {10, 15, 25, 30};
  static constexpr int kRes[] = {320, 640, 1280};
  for (int m = 0; m < monomedia; ++m) {
    Monomedia video;
    video.id = "synthetic/video" + std::to_string(m);
    video.kind = MediaKind::kVideo;
    video.duration_s = 120.0;
    for (int v = 0; v < variants; ++v) {
      VideoQoS qos{kColors[rng.below(4)], kRates[rng.below(4)], kRes[rng.below(3)]};
      video.variants.push_back(make_video_variant(video.id + "/v" + std::to_string(v), qos,
                                                  CodingFormat::kMPEG1, 120.0,
                                                  v % 2 ? "server-a" : "server-b"));
    }
    doc.monomedia.push_back(std::move(video));
  }
  return doc;
}

ClientMachine capable_client() {
  ClientMachine c;
  c.name = "client-0";
  c.node = "client-0";
  c.decoders = {CodingFormat::kMPEG1, CodingFormat::kPCM, CodingFormat::kPlainText,
                CodingFormat::kJPEG};
  return c;
}

UserProfile video_profile() {
  UserProfile p = default_user_profile();
  p.mm.audio.reset();
  p.mm.text.reset();
  p.mm.image.reset();
  return p;
}

struct Prepared {
  std::shared_ptr<const MultimediaDocument> doc;
  ClientMachine client = capable_client();
  UserProfile profile = video_profile();
  OfferList offers;
};

Prepared prepare(int monomedia, int variants) {
  Prepared prep;
  prep.doc = std::make_shared<const MultimediaDocument>(synthetic_doc(monomedia, variants));
  auto feasible = compatible_variants(prep.doc, prep.client, prep.profile.mm);
  EnumerationConfig config;
  config.max_offers = 200'000;
  prep.offers = enumerate_offers(feasible.value(), prep.profile.mm, CostModel{}, config);
  return prep;
}

void BM_Enumerate(benchmark::State& state) {
  const int monomedia = static_cast<int>(state.range(0));
  const int variants = static_cast<int>(state.range(1));
  Prepared prep = prepare(monomedia, variants);
  auto feasible = compatible_variants(prep.doc, prep.client, prep.profile.mm);
  EnumerationConfig config;
  config.max_offers = 200'000;
  for (auto _ : state) {
    OfferList list = enumerate_offers(feasible.value(), prep.profile.mm, CostModel{}, config);
    benchmark::DoNotOptimize(list.eager.data());
  }
  state.counters["offers"] = static_cast<double>(prep.offers.eager.size());
}
BENCHMARK(BM_Enumerate)
    ->Args({1, 4})
    ->Args({2, 8})
    ->Args({3, 8})
    ->Args({4, 12})
    ->Unit(benchmark::kMicrosecond);

void BM_ClassifySerial(benchmark::State& state) {
  const int monomedia = static_cast<int>(state.range(0));
  const int variants = static_cast<int>(state.range(1));
  Prepared prep = prepare(monomedia, variants);
  for (auto _ : state) {
    auto offers = prep.offers.eager;
    classify_offers(offers, prep.profile.mm, prep.profile.importance);
    benchmark::DoNotOptimize(offers.data());
  }
  state.counters["offers"] = static_cast<double>(prep.offers.eager.size());
}
BENCHMARK(BM_ClassifySerial)
    ->Args({2, 8})
    ->Args({3, 8})
    ->Args({4, 12})
    ->Unit(benchmark::kMicrosecond);

void BM_NegotiateEndToEnd(benchmark::State& state) {
  const int monomedia = static_cast<int>(state.range(0));
  const int variants = static_cast<int>(state.range(1));
  Catalog catalog;
  catalog.add(synthetic_doc(monomedia, variants));
  TransportService transport(Topology::dumbbell(1, 2, 1'000'000'000, 10'000'000'000));
  ServerFarm farm;
  for (int i = 0; i < 2; ++i) {
    MediaServerConfig config;
    config.id = i == 0 ? "server-a" : "server-b";
    config.node = "server-node-" + std::to_string(i);
    config.disk_bandwidth_bps = 100'000'000'000;
    config.max_sessions = 1'000'000;
    farm.add(std::move(config));
  }
  QoSManager manager(catalog, farm, transport);
  const ClientMachine client = capable_client();
  const UserProfile profile = video_profile();
  for (auto _ : state) {
    NegotiationResult outcome = manager.negotiate(make_negotiation_request(client, "synthetic", profile));
    benchmark::DoNotOptimize(outcome.verdict);
    // Release so the next iteration starts from a clean slate.
    outcome.commitment.release();
  }
}
BENCHMARK(BM_NegotiateEndToEnd)
    ->Args({1, 4})
    ->Args({2, 8})
    ->Args({3, 8})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
