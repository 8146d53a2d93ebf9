// E15 — Lazy best-first enumeration vs eager enumerate-then-sort
// (extension; the paper notes "many offers may be produced for a given
// request"). Sweeps the offer-space product from 10^2 to 10^7 combinations
// (k video monomedia x 10 variants each) and compares, per size:
//   * eager:      enumerate_offers (capped at 100'000) + classify_offers —
//                 cost scales with the whole product (or its cap);
//   * best-first: OfferStream construction + pulling the first 10 offers —
//                 cost scales with offers *consumed*.
// Self-checks (non-zero exit on failure):
//   1. differential: at the sizes where the eager path runs uncapped, the
//      stream's full yield is byte-identical to the eager classified order;
//   2. laziness: the stream's scored frontier stays near consumed x media,
//      even at 10^7 combinations;
//   3. latency: best-first is >= 10x faster than eager at 10^6 combinations
//      (the eager side is *capped* at 10% of that product, so the true
//      eager cost is strictly larger than what we beat);
//   4. the truncation defect: at 10^6 with a 1'000-offer cap the eager
//      prefix misses the true best offer; the stream emits it first.
// Peak RSS (getrusage) is reported before/after the eager sweep: the lazy
// sweep leaves no lasting footprint, the eager one does.
#include <sys/resource.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/classify.hpp"
#include "core/enumerate.hpp"
#include "document/corpus.hpp"
#include "profile/profiles.hpp"

namespace {

using namespace qosnp;
using namespace qosnp::bench;

constexpr std::size_t kVariantsPerMedium = 10;
constexpr std::size_t kEagerCap = 100'000;

/// k video monomedia, each with a 10-rung quality ladder; the best rung
/// (".../v9") sits last so the best combination is the last one in document
/// (mixed-radix) order — the configuration the eager cap always drops.
std::shared_ptr<const MultimediaDocument> ladder_document(std::size_t media) {
  MultimediaDocument doc;
  doc.id = "ladder-" + std::to_string(media);
  doc.copyright_cost = Money::cents(50);
  const double duration = 60.0;
  const ColorDepth colors[] = {ColorDepth::kBlackWhite, ColorDepth::kGray, ColorDepth::kColor,
                               ColorDepth::kSuperColor};
  for (std::size_t m = 0; m < media; ++m) {
    Monomedia video;
    video.id = doc.id + "/video" + std::to_string(m);
    video.kind = MediaKind::kVideo;
    video.duration_s = duration;
    for (std::size_t v = 0; v < kVariantsPerMedium; ++v) {
      const VideoQoS qos{colors[v * 4 / kVariantsPerMedium],
                         static_cast<int>(10 + 2 * v),
                         static_cast<int>(320 + v * (1280 - 320) / (kVariantsPerMedium - 1))};
      video.variants.push_back(make_video_variant(
          video.id + "/v" + std::to_string(v), qos, CodingFormat::kMPEG1, duration,
          v % 2 ? "server-b" : "server-a"));
    }
    doc.monomedia.push_back(std::move(video));
  }
  return std::make_shared<const MultimediaDocument>(std::move(doc));
}

UserProfile sweep_profile() {
  UserProfile p;
  p.mm.video = VideoProfile{};
  p.mm.video->desired = VideoQoS{ColorDepth::kSuperColor, 28, 1280};
  p.mm.video->worst = VideoQoS{ColorDepth::kBlackWhite, 5, 160};
  p.mm.cost.max_cost = Money::dollars(500);
  return p;
}

ClientMachine sweep_client() {
  ClientMachine client;
  client.name = "bench-client";
  client.node = "bench-node";
  client.screen = ScreenSpec{1920, 1080, ColorDepth::kSuperColor};
  client.decoders = {CodingFormat::kMPEG1};
  client.max_audio = AudioQuality::kCD;
  return client;
}

std::string signature(const SystemOffer& offer) {
  std::string sig;
  for (const OfferComponent& c : offer.components) {
    sig += c.variant->id;
    sig += '|';
  }
  return sig;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

struct SweepPoint {
  std::size_t media = 0;
  std::size_t product = 0;
  double stream_ms = 0.0;   ///< stream construction + first 10 offers
  double eager_ms = 0.0;    ///< enumerate (capped) + classify
  std::size_t eager_seen = 0;
  std::size_t states = 0;   ///< stream frontier states scored
  bool eager_capped = false;
};

}  // namespace

int main() {
  print_title("E15: Lazy best-first offer stream vs eager enumerate-then-sort");
  std::cout << "(k video monomedia x 10 variants; pull = 10 offers; eager cap = "
            << kEagerCap << ")\n";

  const UserProfile profile = sweep_profile();
  const ClientMachine client = sweep_client();
  const std::size_t media_counts[] = {2, 3, 4, 5, 6, 7};  // 10^2 .. 10^7

  bool ok = true;
  std::vector<SweepPoint> points;

  // Phase 1: the lazy sweep (and the differential check where affordable).
  const long rss_before_stream_kb = peak_rss_kb();
  for (const std::size_t media : media_counts) {
    SweepPoint point;
    point.media = media;
    auto doc = ladder_document(media);
    auto feasible = compatible_variants(doc, client, profile.mm);
    if (!feasible.ok()) {
      std::cout << "feasibility failed: " << feasible.error() << '\n';
      return 1;
    }
    point.product = feasible.value().combination_count();

    const auto start = std::chrono::steady_clock::now();
    OfferStream stream(feasible.value(), profile.mm, profile.importance, CostModel{}, kEagerCap);
    std::vector<SystemOffer> head;
    for (int i = 0; i < 10; ++i) {
      auto offer = stream.next();
      if (!offer) break;
      head.push_back(std::move(*offer));
    }
    point.stream_ms = ms_since(start);
    point.states = stream.states_generated();

    // Check 4 (truncation defect): the true best offer is every medium's top
    // rung — outside any document-order prefix, but always first here.
    std::string best_sig;
    for (std::size_t m = 0; m < media; ++m) {
      best_sig += doc->id + "/video" + std::to_string(m) + "/v9|";
    }
    if (head.empty() || signature(head[0]) != best_sig) {
      std::cout << "FAIL: stream did not emit the true best offer first at 10^" << media
                << '\n';
      ok = false;
    }
    // Check 2 (laziness): frontier work ~ consumed x media, never ~ product.
    if (point.states > 10u * media * kVariantsPerMedium * 4u) {
      std::cout << "FAIL: stream scored " << point.states << " states for 10 offers at 10^"
                << media << '\n';
      ok = false;
    }
    points.push_back(point);
  }
  const long rss_after_stream_kb = peak_rss_kb();

  // Phase 2: the eager sweep.
  for (SweepPoint& point : points) {
    auto doc = ladder_document(point.media);
    auto feasible = compatible_variants(doc, client, profile.mm);
    EnumerationConfig config;
    config.max_offers = kEagerCap;
    const auto start = std::chrono::steady_clock::now();
    OfferList list = enumerate_offers(feasible.value(), profile.mm, CostModel{}, config);
    classify_offers(list.eager, profile.mm, profile.importance, ClassificationPolicy{});
    point.eager_ms = ms_since(start);
    point.eager_seen = list.eager.size();
    point.eager_capped = list.truncated;

    // Check 1 (differential): where the eager path saw the whole product,
    // the stream must reproduce its order byte for byte.
    if (!point.eager_capped && point.product <= 10'000) {
      OfferStream stream(feasible.value(), profile.mm, profile.importance, CostModel{},
                         kEagerCap);
      for (std::size_t i = 0; i < list.eager.size(); ++i) {
        auto offer = stream.next();
        if (!offer || signature(*offer) != signature(list.eager[i]) ||
            offer->sns != list.eager[i].sns || offer->oif != list.eager[i].oif) {
          std::cout << "FAIL: stream diverges from the eager oracle at rank " << i << " (10^"
                    << point.media << ")\n";
          ok = false;
          break;
        }
      }
    }
    // Check 4 continued: a 1'000-offer eager cap on the 10^6 product keeps
    // only the first 1'000 document-order combinations — the true best
    // offer is not among them, and no amount of sorting brings it back.
    if (point.product == 1'000'000) {
      EnumerationConfig small;
      small.max_offers = 1'000;
      OfferList capped = enumerate_offers(feasible.value(), profile.mm, CostModel{}, small);
      classify_offers(capped.eager, profile.mm, profile.importance, ClassificationPolicy{});
      std::string best_sig;
      for (std::size_t m = 0; m < point.media; ++m) {
        best_sig += doc->id + "/video" + std::to_string(m) + "/v9|";
      }
      if (!capped.truncated || signature(capped.eager[0]) == best_sig) {
        std::cout << "FAIL: expected the eager 1'000-offer cap to drop the best offer\n";
        ok = false;
      }
    }
  }
  const long rss_after_eager_kb = peak_rss_kb();

  Table table({"product", "media", "eager ms", "eager offers", "stream ms", "states",
               "speedup"});
  for (const SweepPoint& p : points) {
    table.row({std::to_string(p.product), std::to_string(p.media), fmt(p.eager_ms, 2),
               std::to_string(p.eager_seen) + (p.eager_capped ? " (cap)" : ""),
               fmt(p.stream_ms, 3), std::to_string(p.states),
               fmt(p.stream_ms > 0.0 ? p.eager_ms / p.stream_ms : 0.0, 1) + "x"});
  }
  table.print();
  std::cout << "\npeak RSS: " << rss_before_stream_kb / 1024 << " MB at start, "
            << rss_after_stream_kb / 1024 << " MB after the lazy sweep, "
            << rss_after_eager_kb / 1024 << " MB after the eager sweep\n";

  // Check 3 (latency): >= 10x at 10^6 combinations. The eager side only
  // materialised kEagerCap offers there, a tenth of the product, so the
  // measured margin understates the true one.
  for (const SweepPoint& p : points) {
    if (p.product != 1'000'000) continue;
    const double speedup = p.stream_ms > 0.0 ? p.eager_ms / p.stream_ms : 1e9;
    std::cout << "\nClaim: negotiation latency scales with offers consumed, not offers\n"
                 "possible. At 10^6 combinations best-first is " << fmt(speedup, 1)
              << "x faster than the (capped) eager path   [" << check(speedup >= 10.0)
              << "]\n";
    ok = ok && speedup >= 10.0;
  }
  return ok ? 0 : 1;
}
