// E17 — Cross-request negotiation plan cache (extension; the paper's
// prototype rebuilt Steps 1-4 for every request). A hot-document closed
// loop negotiates the same wide-ladder document back to back against twin
// stacks — one whose requests go through the QoSManager's plan cache, one
// whose requests bypass it (CacheUse::kBypass, which runs Steps 1-4 afresh
// exactly as a manager without a cache did) — in interleaved batches,
// timing every request in CPU time (the paired estimator of bench_util.hpp). Every request runs with a live per-request
// trace (tracing enabled), and the traces are audited for the plan-cache
// span.
//
// Self-checks (non-zero exit on failure):
//   1. Eager strategy (the one that materialises and classifies the full
//      offer product per request, i.e. where Steps 1-4 dominate): an
//      uncached request costs >= 5x the CPU time of a cached one on the hot
//      document (cached median plus the median paired difference, over the
//      cached median). The default best-first strategy is reported
//      alongside: its Steps 1-4 are already lazy, so the cache saves less.
//   2. The cache's conservation law after every run: lookups == hits +
//      misses, with hits > 0 (the loop actually replayed plans).
//   3. Every trace on the cached side carries a plan-cache span, and all
//      but the first say hit=true.
//   4. Both stacks drain clean once results are dropped: every server and
//      link reservation released.
#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "core/plan_cache.hpp"
#include "test_service.hpp"

namespace {

using namespace qosnp;
using namespace qosnp::bench;
using qosnp::testing::ServiceSystem;
using qosnp::testing::TestSystem;

// A very wide variant ladder (144 video x 4 audio x 4 text variants, 2304
// combinations): Steps 1-4 (compatibility + classification precomputation)
// dominate the uncached request, which is exactly the work the cache
// amortises. Step 5 commits the first offer either way.
MultimediaDocument hot_article() {
  MultimediaDocument doc;
  doc.id = "hot";
  doc.title = "Hot wide-ladder article";
  doc.copyright_cost = Money::cents(50);
  const double duration = 120.0;

  Monomedia video;
  video.id = "hot/video";
  video.kind = MediaKind::kVideo;
  video.duration_s = duration;
  int v = 0;
  for (const ColorDepth depth :
       {ColorDepth::kColor, ColorDepth::kGray, ColorDepth::kBlackWhite}) {
    for (const int rate : {30, 25, 20, 15, 12, 10}) {
      for (const int width : {1920, 1280, 640, 320}) {
        for (const char* server : {"server-a", "server-b"}) {
          video.variants.push_back(
              make_video_variant("hot/video/" + std::to_string(v++),
                                 VideoQoS{depth, rate, width}, CodingFormat::kMPEG1, duration,
                                 server));
        }
      }
    }
  }
  doc.monomedia.push_back(std::move(video));

  Monomedia audio;
  audio.id = "hot/audio";
  audio.kind = MediaKind::kAudio;
  audio.duration_s = duration;
  int a = 0;
  for (const AudioQuality quality : {AudioQuality::kCD, AudioQuality::kTelephone}) {
    for (const char* server : {"server-a", "server-b"}) {
      audio.variants.push_back(make_audio_variant(
          "hot/audio/" + std::to_string(a++), quality,
          quality == AudioQuality::kCD ? CodingFormat::kPCM : CodingFormat::kADPCM, duration,
          server));
    }
  }
  doc.monomedia.push_back(std::move(audio));

  Monomedia text;
  text.id = "hot/text";
  text.kind = MediaKind::kText;
  int t = 0;
  for (const Language language : {Language::kEnglish, Language::kFrench}) {
    for (const char* server : {"server-a", "server-b"}) {
      text.variants.push_back(make_text_variant("hot/text/" + std::to_string(t++), language,
                                                CodingFormat::kPlainText, 8'000, server));
    }
  }
  doc.monomedia.push_back(std::move(text));
  return doc;
}

struct SpanAudit {
  std::size_t traces = 0;
  std::size_t with_cache_span = 0;
  std::size_t hit_spans = 0;
};

struct CacheComparison {
  double cpu_us_cached = 0.0;  ///< median cached CPU time per request
  double cpu_us_plain = 0.0;   ///< median uncached CPU time per request
  double diff_us = 0.0;        ///< median paired (uncached - cached) difference
  PlanCacheStats stats;
  SpanAudit audit;
  bool drained = false;

  /// Uncached over cached CPU time per request, read off the paired
  /// differences: (cached + diff) / cached.
  double speedup() const { return cpu_us_cached > 0.0 ? 1.0 + diff_us / cpu_us_cached : 0.0; }
  bool conserved() const { return stats.lookups == stats.hits + stats.misses && stats.hits > 0; }
};

// Twin stacks (independent farms and transports, so resource state on one
// side never shapes the other); the uncached side's requests bypass its
// manager's cache; the closed loop times negotiate() itself,
// one outstanding request at a time, with a live trace per request. Each
// result is dropped before the next request, so Step 5 always commits
// against a drained farm on both sides. All the work runs on the calling
// thread, pinned to one CPU for the whole measurement.
CacheComparison measure(EnumerationStrategy strategy) {
  const PinnedToOneCpu pin;
  NegotiationConfig cached_cfg;
  cached_cfg.enumeration.strategy = strategy;
  NegotiationConfig plain_cfg = cached_cfg;
  auto cache = std::make_shared<NegotiationPlanCache>();
  cached_cfg.plan_cache = cache;

  ServiceSystem cached_sys(4, 1'000'000'000, 10'000'000'000, 10'000'000'000, 100'000,
                           std::move(cached_cfg));
  ServiceSystem plain_sys(4, 1'000'000'000, 10'000'000'000, 10'000'000'000, 100'000,
                          std::move(plain_cfg));
  cached_sys.catalog.add(hot_article());
  plain_sys.catalog.add(hot_article());

  const UserProfile profile = TestSystem::tolerant_profile();
  CacheComparison result;
  auto one = [&profile](QoSManager& manager, ServiceSystem& sys, std::uint64_t id,
                        CacheUse cache, SpanAudit* audit) {
    NegotiationTrace trace(id);
    NegotiationRequest req =
        make_negotiation_request(sys.clients[0], "hot", profile, TraceContext(&trace));
    req.cache = cache;
    const double start = process_cpu_us();
    const NegotiationResult r = manager.negotiate(req);
    const double us = process_cpu_us() - start;
    if (audit) {
      ++audit->traces;
      if (const Span* span = trace.find(Stage::kPlanCache)) {
        ++audit->with_cache_span;
        if (span->attr("hit") == "true") ++audit->hit_spans;
      }
    }
    return us;
  };

  std::uint64_t next_id = 1;
  auto batch_cpu_us = [&](bool cached, std::size_t requests, SpanAudit* audit) {
    ServiceSystem& sys = cached ? cached_sys : plain_sys;
    std::vector<double> per_request;
    per_request.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      per_request.push_back(one(*sys.manager, sys, next_id++,
                                cached ? CacheUse::kDefault : CacheUse::kBypass, audit));
    }
    return median(std::move(per_request));
  };

  const std::size_t kPairs = 100;
  const std::size_t kBatch = 20;
  (void)batch_cpu_us(true, 200, nullptr);  // warm caches (plan + CPU) and allocator
  (void)batch_cpu_us(false, 200, nullptr);
  std::vector<double> on;
  std::vector<double> off;
  std::vector<double> diff;
  for (std::size_t i = 0; i < kPairs; ++i) {
    // Alternate which half of the pair runs first, so neither arm always
    // inherits the other's cache state.
    double on_us = 0.0;
    double off_us = 0.0;
    if (i % 2 == 0) {
      on_us = batch_cpu_us(true, kBatch, &result.audit);
      off_us = batch_cpu_us(false, kBatch, nullptr);
    } else {
      off_us = batch_cpu_us(false, kBatch, nullptr);
      on_us = batch_cpu_us(true, kBatch, &result.audit);
    }
    on.push_back(on_us);
    off.push_back(off_us);
    diff.push_back(off_us - on_us);
  }

  result.cpu_us_cached = median(std::move(on));
  result.cpu_us_plain = median(std::move(off));
  result.diff_us = median(std::move(diff));
  result.stats = cache->stats();
  result.drained = cached_sys.drained() && plain_sys.drained();
  return result;
}

}  // namespace

int main() {
  print_title("E17: Cross-request plan cache (hot-document closed loop, tracing on)");
  std::cout << "(100 interleaved pairs of 20-request batches per side, 2304-combination hot\n"
               " document; one client pinned to one CPU, trace per request, CPU time)\n";

  print_section("Hot-document negotiate() CPU time, cached vs uncached");
  const CacheComparison best_first = measure(EnumerationStrategy::kBestFirst);
  const CacheComparison eager = measure(EnumerationStrategy::kEager);
  Table table({"strategy", "cpu off us", "cpu cached us", "paired diff us", "speedup", "hits",
               "misses", "stale", "drain"});
  table
      .row({"best-first", fmt(best_first.cpu_us_plain, 2), fmt(best_first.cpu_us_cached, 2),
            fmt(best_first.diff_us, 2), fmt(best_first.speedup(), 1) + "x",
            std::to_string(best_first.stats.hits), std::to_string(best_first.stats.misses),
            std::to_string(best_first.stats.stale), check(best_first.drained)})
      .row({"eager", fmt(eager.cpu_us_plain, 2), fmt(eager.cpu_us_cached, 2),
            fmt(eager.diff_us, 2), fmt(eager.speedup(), 1) + "x", std::to_string(eager.stats.hits),
            std::to_string(eager.stats.misses), std::to_string(eager.stats.stale),
            check(eager.drained)})
      .print();

  const bool fast = eager.speedup() >= 5.0;
  std::cout << "\nClaim: replaying cached Steps 1-4 makes a hot-document request >= 5x cheaper\n"
               "in CPU time (cached median + median paired difference, over the cached\n"
               "median) than rebuilding them per request under the eager strategy, where the\n"
               "full offer product is enumerated and classified per request. (Best-first is\n"
               "already lazy about Steps 3-4, so its rebuild is cheap and the cache saves\n"
               "proportionally less.) Measured: " << fmt(eager.speedup(), 1) << "x, best-first "
            << fmt(best_first.speedup(), 1) << "x   [" << check(fast) << "]\n";

  const bool conserved = best_first.conserved() && eager.conserved();
  std::cout << "\nClaim: the counters conserve lookups (lookups == hits + misses, hits > 0)\n"
               "on both runs   [" << check(conserved) << "]\n";

  print_section("Plan-cache span audit (cached side)");
  Table spans({"strategy", "traces", "with span", "hit=true"});
  spans
      .row({"best-first", std::to_string(best_first.audit.traces),
            std::to_string(best_first.audit.with_cache_span),
            std::to_string(best_first.audit.hit_spans)})
      .row({"eager", std::to_string(eager.audit.traces),
            std::to_string(eager.audit.with_cache_span),
            std::to_string(eager.audit.hit_spans)})
      .print();
  const bool spanned =
      best_first.audit.traces > 0 &&
      best_first.audit.with_cache_span == best_first.audit.traces &&
      best_first.audit.hit_spans == best_first.audit.traces && eager.audit.traces > 0 &&
      eager.audit.with_cache_span == eager.audit.traces &&
      eager.audit.hit_spans == eager.audit.traces;
  std::cout << "\nClaim: every traced request on the cached side shows the plan-cache stage\n"
               "with hit=true (the plan was stored during warmup)   [" << check(spanned)
            << "]\n";

  const bool drained = best_first.drained && eager.drained;
  return fast && conserved && spanned && drained ? 0 : 1;
}
