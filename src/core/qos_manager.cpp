#include "core/qos_manager.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "util/log.hpp"

namespace qosnp {

QoSManager::QoSManager(Catalog& catalog, ServerProvider& farm, TransportProvider& transport,
                       CostModel cost_model, NegotiationConfig config)
    : catalog_(&catalog), farm_(&farm), transport_(&transport),
      cost_model_(std::move(cost_model)), config_(std::move(config)),
      plan_digest_(plan_config_digest(config_.enumeration, cost_model_)),
      // Both concrete types are final, so the casts test the exact type.
      memo_refusals_(config_.committer_factory == nullptr && config_.retry.max_attempts <= 1 &&
                     dynamic_cast<ServerFarm*>(farm_) != nullptr &&
                     dynamic_cast<TransportService*>(transport_) != nullptr) {}

namespace {

/// The "local offer" presented with FAILEDWITHLOCALOFFER: the user's
/// desired values clipped to the client machine capabilities, at no cost
/// (nothing was reserved).
UserOffer local_offer_from(const MMProfile& clipped) {
  UserOffer offer;
  if (clipped.video) offer.video = clipped.video->desired;
  if (clipped.audio) offer.audio = clipped.audio->desired;
  if (clipped.text) offer.text = TextQoS{clipped.text->desired};
  if (clipped.image) offer.image = clipped.image->desired;
  offer.cost = Money{};
  return offer;
}

/// What the walk keeps beside each refusal the servers and the transport
/// returned (the Refusal itself sits in the walk's RefusalLog, at the same
/// index): what it takes to replay it, and, when it is a nogood, where its
/// refused prefix is: prefixes[prefix_begin, prefix_begin + depth).
struct SeenRefusal {
  CommitStats delta;  ///< the refused commit()'s share of the committer stats
  /// refusal_trace_text of the refusal, formatted by its first traced replay.
  std::string trace_text;
  std::size_t prefix_begin = 0;
  std::size_t depth = 0;  ///< 0: not a nogood
};

/// Hash of a variant prefix, extended one variant at a time, so one pass
/// over an offer's variants yields the key of every depth.
constexpr std::uint64_t kPrefixHashSeed = 0xcbf29ce484222325ULL;
std::uint64_t extend_prefix_hash(std::uint64_t h, const Variant* v) {
  h ^= static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(v));
  h *= 0x100000001b3ULL;
  return h ^ (h >> 29);
}

}  // namespace

void RefusalLog::render(std::vector<std::string>& out) const {
  out.reserve(out.size() + refused.size());
  for (const auto& [offer, n] : refused) {
    const Refusal& r = refusals[n];
    char digits[24];
    const char* digits_end = std::to_chars(digits, digits + sizeof digits, offer).ptr;
    const auto digit_count = static_cast<std::size_t>(digits_end - digits);
    std::string line;
    line.reserve(8 + digit_count + (r.component.empty() ? 0 : r.component.size() + 2) +
                 r.message.size());
    line.append("offer ").append(digits, digit_count).append(": ");
    if (!r.component.empty()) line.append(r.component).append(": ");
    line.append(r.message);
    out.push_back(std::move(line));
  }
}

CommitAttempt QoSManager::commit_first(const ClientMachine& client, OfferList& offers,
                                       const MMProfile& profile,
                                       std::span<const std::size_t> exclude,
                                       TraceContext trace, SessionClass session_class,
                                       std::size_t end_index) {
  CommitAttempt attempt;
  ScopedSpan walk_span(trace, Stage::kCommitWalk);
  walk_span.annotate("class", std::string(to_string(session_class)));
  std::unique_ptr<ResourceCommitter> owned_committer =
      config_.committer_factory != nullptr
          ? config_.committer_factory(config_.retry, session_class)
          : std::make_unique<ResourceCommitter>(*farm_, *transport_, config_.retry,
                                                session_class);
  ResourceCommitter& committer = *owned_committer;
  auto excluded = [&](std::size_t i) {
    return std::find(exclude.begin(), exclude.end(), i) != exclude.end();
  };
  std::size_t offers_examined = 0;
  std::size_t nogood_hits = 0;
  // satisfies_user, read off the record when the list was classified for
  // this very profile.
  const bool classified = offers.classified_for(profile);
  auto satisfies = [&](std::size_t i) {
    return classified ? offers.tolerated(i) && offers.total_cost(i) <= profile.cost.max_cost
                      : satisfies_user(offers, i, profile);
  };
  // Refusals the servers and the transport returned, in walk order, with
  // what replays them (`seen`, parallel to log.refusals) and the variants of
  // the refused prefixes.
  RefusalLog log;
  std::vector<SeenRefusal> seen;
  std::vector<const Variant*> prefixes;
  // Nogoods by prefix hash (the key of depth d hashes the first d variants;
  // a lookup verifies each hit against the stored prefix), and the distinct
  // depths recorded, ascending.
  std::unordered_multimap<std::uint64_t, std::size_t> nogoods;
  std::vector<std::size_t> depths;
  // The earliest recorded nogood that offer i's prefix matches, as a scan of
  // `seen` in walk order would find.
  auto find_nogood = [&](std::size_t i) -> std::optional<std::size_t> {
    std::optional<std::size_t> first;
    const std::size_t width = offers.component_count(i);
    std::uint64_t h = kPrefixHashSeed;
    std::size_t hashed = 0;
    for (const std::size_t depth : depths) {
      if (depth > width) break;
      for (; hashed < depth; ++hashed) h = extend_prefix_hash(h, offers.variant(i, hashed));
      const auto [lo, hi] = nogoods.equal_range(h);
      for (auto it = lo; it != hi; ++it) {
        const std::size_t n = it->second;
        const SeenRefusal& s = seen[n];
        if (s.depth != depth || (first && *first < n)) continue;
        std::size_t k = 0;
        while (k < depth && prefixes[s.prefix_begin + k] == offers.variant(i, k)) ++k;
        if (k == depth) first = n;
      }
    }
    return first;
  };
  // The offer being committed, rebuilt in place for each real commit.
  SystemOffer candidate;
  // Pass 1: offers satisfying the requested QoS/cost; pass 2: the rest
  // ("If there are not enough resources to support any of the acceptable
  // system offers, the same procedure is applied on the feasible (not
  // acceptable) system offers").
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0;; ++i) {
      // The caller may bound the walk (upgrade scans try only offers
      // strictly better than the session's current one); the bound also
      // stops the lazy stream from consuming past it.
      if (i >= end_index) break;
      // Consume the next offer from the lazy stream when the walk runs off
      // the end of the consumed prefix.
      if (i >= offers.size() && !offers.fetch_next()) break;
      // A satisfying offer needs the tolerable QoS at acceptable cost, which
      // no CONSTRAINT offer provides; in an SNS-ordered list everything after
      // the first CONSTRAINT is CONSTRAINT too, so the satisfying pass can
      // stop fetching there (the lazy walk's whole point).
      if (pass == 0 && offers.sns_ordered && offers.sns(i) == Sns::kConstraint) break;
      if (excluded(i)) continue;
      if ((pass == 0) != satisfies(i)) continue;
      ++offers_examined;
      ScopedSpan try_span(walk_span.context(), Stage::kCommitAttempt);
      try_span.annotate("offer", static_cast<std::uint64_t>(i));
      try_span.annotate("pass", static_cast<std::uint64_t>(pass));
      if (memo_refusals_) {
        if (const auto hit = find_nogood(i)) {
          SeenRefusal& replayed = seen[*hit];
          if (try_span.context().active() && replayed.trace_text.empty()) {
            replayed.trace_text = refusal_trace_text(log.refusals[*hit]);
          }
          committer.replay_refusal(log.refusals[*hit], replayed.delta, replayed.trace_text,
                                   try_span.context());
          log.refused.emplace_back(i, *hit);
          ++nogood_hits;
          continue;
        }
      }
      offers.materialise(i, candidate);
      const int released_before = committer.stats().released_on_failure;
      auto committed = committer.commit(client, candidate, try_span.context());
      if (committed.ok()) {
        attempt.index = i;
        attempt.commitment = std::move(committed.value());
        attempt.stats = committer.stats();
        try_span.end();
        walk_span.annotate("offers_examined", static_cast<std::uint64_t>(offers_examined));
        walk_span.annotate("nogood_hits", static_cast<std::uint64_t>(nogood_hits));
        walk_span.annotate("committed_offer", static_cast<std::uint64_t>(i));
        return attempt;
      }
      const Refusal& refusal = log.refusals.emplace_back(std::move(committed.error()));
      SeenRefusal& learned = seen.emplace_back();
      if (refusal.transient) attempt.saw_transient = true;
      log.refused.emplace_back(i, seen.size() - 1);
      if (!memo_refusals_) continue;
      // A single try refused at component k rolled back 2k reservations
      // (the server refused) or 2k + 1 (the flow did). The one exception is
      // an unknown server, a permanent refusal that rolls back uncounted, so
      // an even count from a permanent refusal gives no depth. A refusal at
      // the last component is no nogood either: no other offer has all the
      // same variants.
      const int released = committer.stats().released_on_failure - released_before;
      const auto depth = static_cast<std::size_t>(released / 2 + 1);
      learned.delta.attempts = 1;
      ++(refusal.transient ? learned.delta.transient_failures
                           : learned.delta.permanent_failures);
      learned.delta.released_on_failure = released;
      if ((refusal.transient || released % 2 == 1) && depth < candidate.components.size()) {
        learned.prefix_begin = prefixes.size();
        learned.depth = depth;
        std::uint64_t h = kPrefixHashSeed;
        for (std::size_t k = 0; k < depth; ++k) {
          prefixes.push_back(candidate.components[k].variant);
          h = extend_prefix_hash(h, prefixes.back());
        }
        nogoods.emplace(h, seen.size() - 1);
        const auto at = std::lower_bound(depths.begin(), depths.end(), depth);
        if (at == depths.end() || *at != depth) depths.insert(at, depth);
      }
    }
  }
  attempt.refusals = std::move(log);
  attempt.stats = committer.stats();
  walk_span.annotate("offers_examined", static_cast<std::uint64_t>(offers_examined));
  walk_span.annotate("nogood_hits", static_cast<std::uint64_t>(nogood_hits));
  return attempt;
}

Result<FeasibleSet, NegotiationResult> static_check(
    const NegotiationRequest& request, std::shared_ptr<const MultimediaDocument> document) {
  NegotiationResult refused;
  refused.verdict = NegotiationStatus::kFailedWithoutOffer;
  if (!document) {
    // The catalog miss is a Step-2 failure (the document cannot be checked
    // against anything); give the trace its compatibility span so every
    // resolved request still shows where it stopped.
    ScopedSpan span(request.trace, Stage::kCompatibility);
    span.annotate("error", "document not found");
    refused.problems.push_back("document '" + request.document + "' not found in the catalog");
    return Err(std::move(refused));
  }

  // Step 1: static local negotiation.
  {
    ScopedSpan span(request.trace, Stage::kLocalCheck);
    LocalCheck local = local_negotiation(request.client, request.profile.mm);
    if (!local.ok) {
      span.annotate("ok", "false");
      refused.verdict = NegotiationStatus::kFailedWithLocalOffer;
      refused.problems = std::move(local.problems);
      refused.user_offer = local_offer_from(local.local_offer);
      return Err(std::move(refused));
    }
  }

  // Step 2: static compatibility checking.
  ScopedSpan span(request.trace, Stage::kCompatibility);
  auto feasible = compatible_variants(std::move(document), request.client, request.profile.mm);
  if (!feasible.ok()) {
    span.annotate("error", feasible.error());
    refused.problems.push_back(std::move(feasible.error()));
    return Err(std::move(refused));
  }
  return std::move(feasible.value());
}

void settle_verdict(NegotiationResult& result, const MMProfile& requested, bool saw_transient) {
  if (!result.has_commitment()) {
    // FAILEDTRYLATER promises that trying later could succeed; keep that
    // promise only when some refusal was transient (capacity, outage).
    // Purely permanent refusals (unknown server, no route) cannot heal.
    result.verdict = saw_transient ? NegotiationStatus::kFailedTryLater
                                   : NegotiationStatus::kFailedWithoutOffer;
    return;
  }
  const std::size_t i = result.committed_index;
  result.user_offer = derive_user_offer(result.offers, i);
  result.verdict = satisfies_user(result.offers, i, requested) ? NegotiationStatus::kSucceeded
                                                               : NegotiationStatus::kFailedWithOffer;
}

NegotiationResult QoSManager::negotiate(const NegotiationRequest& request) {
  // Resolved documents (renegotiation) skip the catalog and the plan cache:
  // the session's reference may no longer be the catalog's object, so the
  // catalog cannot vouch for a cached plan.
  if (request.resolved) {
    auto plan = build_plan(request, request.resolved);
    if (!plan.ok()) return std::move(plan.error());
    return run_plan(request, *plan.value(), /*exclusive=*/true);
  }

  // A catalog miss has no document to validate a plan by; build_plan
  // reports it.
  std::shared_ptr<const MultimediaDocument> document = catalog_->find(request.document);
  NegotiationPlanCache* cache = config_.plan_cache.get();
  if (!document || cache == nullptr || request.cache == CacheUse::kBypass) {
    auto plan = build_plan(request, std::move(document));
    if (!plan.ok()) return std::move(plan.error());
    return run_plan(request, *plan.value(), /*exclusive=*/true);
  }

  std::string key;
  std::shared_ptr<const NegotiationPlan> plan;
  {
    ScopedSpan span(request.trace, Stage::kPlanCache);
    key = plan_cache_key(request.document, request.client, request.profile, plan_digest_);
    if (request.cache != CacheUse::kRefresh) plan = cache->lookup(key, document.get());
    span.annotate("hit", plan ? "true" : "false");
  }
  if (plan) return run_plan(request, *plan, /*exclusive=*/false);

  // A miss runs its fresh plan, then stores it with the first offer its
  // walk read, so a hit's list starts from that offer without a stream.
  // A request that fails Steps 1-2 stores nothing: Step 2's text names the
  // client, which the key leaves out.
  auto built = build_plan(request, std::move(document));
  if (!built.ok()) return std::move(built.error());
  std::shared_ptr<NegotiationPlan>& fresh = built.value();
  NegotiationResult result = run_plan(request, *fresh, /*exclusive=*/false);
  if (fresh->seed && result.offers.size() > 0) fresh->head = result.offers.streamed(0);
  cache->store(key, std::move(fresh));
  return result;
}

Result<std::shared_ptr<NegotiationPlan>, NegotiationResult> QoSManager::build_plan(
    const NegotiationRequest& request, std::shared_ptr<const MultimediaDocument> document) {
  auto checked = static_check(request, document);
  if (!checked.ok()) return Err(std::move(checked.error()));
  FeasibleSet& feasible = checked.value();
  auto plan = std::make_shared<NegotiationPlan>();
  plan->document = std::move(document);
  const UserProfile& profile = request.profile;

  // Steps 3+4: build the offer space and the classification precomputation.
  ScopedSpan enum_span(request.trace, Stage::kEnumeration);
  std::size_t total = 0;
  std::size_t known = 0;
  if (config_.enumeration.strategy == EnumerationStrategy::kBestFirst) {
    // Lazy best-first stream: Steps 3+4 are fused into the enumeration and
    // offers materialise one at a time as Step 5 walks them. The seed holds
    // all the memoisation; each request spawns its own cursor over it.
    plan->seed = make_offer_stream_seed(std::move(feasible), profile.mm, profile.importance,
                                        cost_model_, ClassificationPolicy{});
    total = seed_total_combinations(*plan->seed);
    known = std::min(total, config_.enumeration.max_offers);
  } else {
    OfferList offers = enumerate_offers(feasible, profile.mm, cost_model_, config_.enumeration);
    classify_offers(offers.eager, profile.mm, profile.importance);
    offers.sns_ordered = true;
    total = offers.total_combinations;
    known = offers.known_count();
    plan->eager = std::make_shared<OfferList>(std::move(offers));
  }
  enum_span.annotate("total_combinations", static_cast<std::uint64_t>(total));
  enum_span.annotate("known_offers", static_cast<std::uint64_t>(known));
  return plan;
}

NegotiationResult QoSManager::run_plan(const NegotiationRequest& request,
                                       const NegotiationPlan& plan, bool exclusive) {
  NegotiationResult result;
  if (plan.seed) {
    // The stream yields offers already classified in final order. A cached
    // plan's list starts with its first offer consumed, and spawns the
    // stream only if the walk or a later transition reads past it.
    result.offers = OfferList(plan.document, plan.seed, config_.enumeration.max_offers,
                              plan.head ? &*plan.head : nullptr);
  } else if (plan.eager) {
    // shared_ptr does not propagate const to the pointee, so an exclusively
    // owned plan can surrender its list without a per-request copy.
    if (exclusive) {
      result.offers = std::move(*plan.eager);
    } else {
      result.offers = *plan.eager;
    }
  }
  if (result.offers.truncated) {
    result.problems.push_back(
        "offer space truncated to " + std::to_string(result.offers.known_count()) + " of " +
        std::to_string(result.offers.total_combinations) + " combinations");
  }

  // Step 5: resource commitment.
  CommitAttempt attempt = commit_first(request.client, result.offers, request.profile.mm, {},
                                       request.trace, request.session_class);
  result.commit_stats = attempt.stats;
  result.committed_index = attempt.index;
  result.commitment = std::move(attempt.commitment);
  settle_verdict(result, request.profile.mm, attempt.saw_transient);
  if (!attempt.ok()) {
    attempt.refusals.render(result.problems);
    return result;
  }
  QOSNP_LOG_INFO("negotiate", "document '", plan.document->id, "' for ", request.client.name,
                 ": ", to_string(result.verdict), " (offer ", attempt.index, " of ",
                 result.offers.known_count(), ")");
  return result;
}

}  // namespace qosnp
