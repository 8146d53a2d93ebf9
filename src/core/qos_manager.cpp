#include "core/qos_manager.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "util/log.hpp"

namespace qosnp {

QoSManager::QoSManager(Catalog& catalog, ServerProvider& farm, TransportProvider& transport,
                       CostModel cost_model, NegotiationConfig config)
    : catalog_(&catalog), farm_(&farm), transport_(&transport),
      cost_model_(std::make_shared<const CostModel>(std::move(cost_model))),
      config_(std::move(config)),
      // Both concrete types are final, so the casts test the exact type.
      memo_refusals_(config_.committer_factory == nullptr && config_.retry.max_attempts <= 1 &&
                     dynamic_cast<ServerFarm*>(farm_) != nullptr &&
                     dynamic_cast<TransportService*>(transport_) != nullptr) {
  if (config_.plan_cache == nullptr) config_.plan_cache = std::make_shared<NegotiationPlanCache>();
}

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

/// Hash of a variant prefix, extended one variant at a time, so one pass
/// over an offer's variants yields the key of every depth.
constexpr std::uint64_t kPrefixHashSeed = 0xcbf29ce484222325ULL;
std::uint64_t extend_prefix_hash(std::uint64_t h, const Variant* v) {
  h ^= static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(v));
  h *= 0x100000001b3ULL;
  return h ^ (h >> 29);
}

/// The nogoods a walk has learned: entries of its RefusalLog whose refused
/// prefix rules out every offer that starts with it, looked up by (depth,
/// prefix) hash in a flat table sorted by hash. Also what the walk's stream
/// fork prunes by.
class Nogoods final : public PrefixPruner {
 public:
  explicit Nogoods(const RefusalLog& log) : log_(&log) {}

  bool empty() const { return depths_.empty(); }

  /// The refused prefix of log entry n: its first `depth` variants.
  const Variant* const* prefix(std::size_t n) const {
    return log_->variants.data() + n * log_->width;
  }

  /// Record log entry n, whose depth is set, as a nogood.
  void add(std::size_t n) {
    const std::size_t depth = log_->entries[n].depth;
    std::uint64_t h = kPrefixHashSeed;
    for (std::size_t k = 0; k < depth; ++k) h = extend_prefix_hash(h, prefix(n)[k]);
    const auto slot = std::upper_bound(by_hash_.begin(), by_hash_.end(), h,
                                       [](std::uint64_t key, const Entry& e) { return key < e.first; });
    by_hash_.insert(slot, Entry{h, n});
    const auto at = std::lower_bound(depths_.begin(), depths_.end(), depth);
    if (at == depths_.end() || *at != depth) depths_.insert(at, depth);
  }

  /// The earliest recorded nogood that an offer starts with, as a scan of
  /// the log in walk order would find; `variant(k)` is the offer's k-th
  /// variant.
  template <typename VariantAt>
  std::optional<std::size_t> earliest(VariantAt variant) const {
    std::optional<std::size_t> first;
    for_each_match(variant, [&](std::size_t n) {
      if (!first || n < *first) first = n;
      return false;
    });
    return first;
  }

  std::size_t refused_depth(const VariantMemo* const* row) const override {
    std::size_t depth = 0;
    for_each_match([row](std::size_t k) { return row[k]->variant; },
                   [&](std::size_t n) {
                     depth = log_->entries[n].depth;
                     return true;
                   });
    return depth;
  }

 private:
  /// Call `found(n)` for each nogood n the offer starts with, shallowest
  /// depth first, until it returns true.
  template <typename VariantAt, typename Found>
  void for_each_match(VariantAt variant, Found found) const {
    std::uint64_t h = kPrefixHashSeed;
    std::size_t hashed = 0;
    for (const std::size_t depth : depths_) {
      for (; hashed < depth; ++hashed) h = extend_prefix_hash(h, variant(hashed));
      auto it = std::lower_bound(by_hash_.begin(), by_hash_.end(), h,
                                 [](const Entry& e, std::uint64_t key) { return e.first < key; });
      for (; it != by_hash_.end() && it->first == h; ++it) {
        const std::size_t n = it->second;
        if (log_->entries[n].depth != depth) continue;
        std::size_t k = 0;
        while (k < depth && prefix(n)[k] == variant(k)) ++k;
        if (k == depth && found(n)) return;
      }
    }
  }

  /// (prefix hash, log entry), ascending by hash, equal hashes in walk order.
  using Entry = std::pair<std::uint64_t, std::size_t>;

  const RefusalLog* log_;
  std::vector<Entry> by_hash_;
  std::vector<std::size_t> depths_;  ///< the distinct depths recorded, ascending
};

/// Append `count` variant ids, joined with '|'.
void append_ids(std::string& out, const Variant* const* variants, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    if (k > 0) out.push_back('|');
    out.append(variants[k]->id);
  }
}

std::size_t ids_length(const Variant* const* variants, std::size_t count) {
  std::size_t length = count == 0 ? 0 : count - 1;
  for (std::size_t k = 0; k < count; ++k) length += variants[k]->id.size();
  return length;
}

}  // namespace

std::string offer_positions(const SystemOffer& offer) {
  // Positions are formatted into an inline buffer, which spills into the
  // string whenever it may not hold one more '.' and position.
  constexpr std::ptrdiff_t kMaxField = 1 + std::numeric_limits<std::size_t>::digits10 + 1;
  char buffer[64];
  char* end = buffer;
  std::string out;
  for (std::size_t k = 0; k < offer.components.size(); ++k) {
    if (buffer + sizeof buffer - end < kMaxField) {
      out.append(buffer, end);
      end = buffer;
    }
    if (k > 0) *end++ = '.';
    const OfferComponent& c = offer.components[k];
    const auto position = static_cast<std::size_t>(c.variant - c.monomedia->variants.data());
    end = std::to_chars(end, buffer + sizeof buffer, position).ptr;
  }
  out.append(buffer, end);
  return out;
}

void RefusalLog::render(std::vector<std::string>& out) const {
  std::size_t lines = entries.size();
  for (const Entry& e : entries) lines += e.depth > 0 ? 1 : 0;
  out.reserve(out.size() + lines);
  for (std::size_t n = 0; n < entries.size(); ++n) {
    const Entry& e = entries[n];
    const Refusal& r = e.refusal;
    const Variant* const* offer = variants.data() + n * width;
    std::string line;
    line.reserve(8 + ids_length(offer, width) +
                 (r.component.empty() ? 0 : r.component.size() + 2) + r.message.size());
    line.append("offer ");
    append_ids(line, offer, width);
    line.append(": ");
    if (!r.component.empty()) line.append(r.component).append(": ");
    line.append(r.message);
    out.push_back(std::move(line));
    if (e.depth == 0) continue;
    char digits[24];
    const char* digits_end = std::to_chars(digits, digits + sizeof digits, e.refused).ptr;
    const auto digit_count = static_cast<std::size_t>(digits_end - digits);
    std::string nogood;
    nogood.reserve(29 + ids_length(offer, e.depth) + digit_count);
    nogood.append("prefix ");
    append_ids(nogood, offer, e.depth);
    nogood.append(": ").append(digits, digit_count).append(" more offers refused");
    out.push_back(std::move(nogood));
  }
}

CommitAttempt QoSManager::commit_first(const ClientMachine& client, OfferList& offers,
                                       const MMProfile& profile,
                                       std::span<const std::size_t> exclude,
                                       TraceContext trace, SessionClass session_class,
                                       std::size_t begin_index, std::size_t end_index) {
  CommitAttempt attempt;
  ScopedSpan walk_span(trace, Stage::kCommitWalk);
  walk_span.annotate("class", std::string(to_string(session_class)));
  std::unique_ptr<ResourceCommitter> owned_committer =
      config_.committer_factory != nullptr
          ? config_.committer_factory(config_.retry, session_class)
          : std::make_unique<ResourceCommitter>(*farm_, *transport_, config_.retry,
                                                session_class);
  ResourceCommitter& committer = *owned_committer;
  // Outside the window: before its begin, or excluded.
  auto excluded = [&](std::size_t i) {
    return i < begin_index || std::find(exclude.begin(), exclude.end(), i) != exclude.end();
  };
  // satisfies_user, read off the record when the list was classified for
  // this very profile.
  const bool classified = offers.classified_for(profile);
  auto satisfies = [&](std::size_t i) {
    return classified ? offers.tolerated(i) && offers.total_cost(i) <= profile.cost.max_cost
                      : satisfies_user(offers, i, profile);
  };
  auto listed = [&offers](std::size_t i) {
    return [&offers, i](std::size_t k) { return offers.variant(i, k); };
  };
  // The real refusals, with per entry the list index of the refused offer
  // (SIZE_MAX for one the fork yielded), and the nogoods among them.
  RefusalLog log;
  std::vector<std::size_t> refused_at;
  Nogoods nogoods(log);
  // The offer being committed, rebuilt in place for each real commit; the
  // committed one once the walk commits.
  SystemOffer candidate;

  // Examine one offer in walk order: refuse it by a nogood, or commit it
  // for real. `index` is its list index, or SIZE_MAX past the consumed
  // prefix of a forked walk, whose skipped offers are counted when it ends.
  // True when it committed.
  auto examine = [&](auto variant, auto materialise, std::size_t index, int pass) {
    if (memo_refusals_) {
      if (const auto hit = nogoods.earliest(variant)) {
        if (index != SIZE_MAX) ++log.entries[*hit].refused;
        return false;
      }
    }
    ScopedSpan try_span(walk_span.context(), Stage::kCommitAttempt);
    materialise(candidate);
    if (try_span.context().active()) {
      try_span.annotate("offer", offer_positions(candidate));
      try_span.annotate("pass", static_cast<std::uint64_t>(pass));
    }
    const int released_before = committer.stats().released_on_failure;
    auto committed = committer.commit(client, candidate, try_span.context());
    if (committed.ok()) {
      attempt.commitment = std::move(committed.value());
      return true;
    }
    RefusalLog::Entry& entry = log.entries.emplace_back();
    entry.refusal = std::move(committed.error());
    entry.released = committer.stats().released_on_failure - released_before;
    if (!log.document) log.document = offers.document;
    log.width = candidate.components.size();
    for (const OfferComponent& c : candidate.components) log.variants.push_back(c.variant);
    refused_at.push_back(index);
    if (entry.refusal.transient) attempt.saw_transient = true;
    if (!memo_refusals_) return false;
    // A single try refused at component k rolled back 2k reservations
    // (the server refused) or 2k + 1 (the flow did). The one exception is
    // an unknown server, a permanent refusal that rolls back uncounted, so
    // an even count from a permanent refusal gives no depth. A refusal at
    // the last component is no nogood either: no other offer has all the
    // same variants.
    const auto depth = static_cast<std::size_t>(entry.released / 2 + 1);
    if ((entry.refusal.transient || entry.released % 2 == 1) && depth < log.width) {
      entry.depth = depth;
      nogoods.add(log.entries.size() - 1);
    }
    return false;
  };

  // The fork: over a stream-backed, untruncated list whose window starts
  // and excludes inside the consumed prefix, a walk that knows a nogood
  // leaves the list at the end of its consumed prefix (fork_at) for a
  // private cursor that skips what the nogoods refuse.
  const bool can_fork =
      memo_refusals_ && classified && offers.stream_backed() && !offers.truncated &&
      end_index >= offers.known_count() && begin_index <= offers.size() &&
      std::all_of(exclude.begin(), exclude.end(), [&](std::size_t i) { return i < offers.size(); });
  std::unique_ptr<OfferStream> fork;
  bool fork_tried = false;
  std::size_t fork_at = 0;
  std::array<bool, 2> forked_pass{};
  // What pass 0 pulled from the fork and left to pass 1 (the offers that do
  // not satisfy the profile), in order, with their memo rows.
  std::vector<OfferRecord> deferred;
  std::vector<const VariantMemo*> deferred_rows;
  OfferRecord record;
  std::vector<const VariantMemo*> row;
  std::size_t committed_index = SIZE_MAX;
  int committed_pass = -1;
  // Pass 1: offers satisfying the requested QoS/cost; pass 2: the rest
  // ("If there are not enough resources to support any of the acceptable
  // system offers, the same procedure is applied on the feasible (not
  // acceptable) system offers").
  for (int pass = 0; pass < 2 && committed_pass < 0; ++pass) {
    bool past_prefix = false;
    for (std::size_t i = begin_index;; ++i) {
      // The caller may bound the walk (upgrade scans try only offers
      // strictly better than the session's current one); the bound also
      // stops the lazy stream from consuming past it.
      if (i >= end_index) break;
      // Consume the next offer from the lazy stream when the walk runs off
      // the end of the consumed prefix, unless it can fork.
      if (i >= offers.size()) {
        if (can_fork && !nogoods.empty()) {
          past_prefix = true;
          break;
        }
        if (!offers.fetch_next()) break;
      }
      // A satisfying offer needs the tolerable QoS at acceptable cost, which
      // no CONSTRAINT offer provides; in an SNS-ordered list everything after
      // the first CONSTRAINT is CONSTRAINT too, so the satisfying pass can
      // stop fetching there (the lazy walk's whole point).
      if (pass == 0 && offers.sns_ordered && offers.sns(i) == Sns::kConstraint) break;
      if (excluded(i)) continue;
      if ((pass == 0) != satisfies(i)) continue;
      if (examine(listed(i), [&](SystemOffer& into) { offers.materialise(i, into); }, i, pass)) {
        committed_index = i;
        committed_pass = pass;
        break;
      }
    }
    if (!past_prefix) continue;
    if (!fork_tried) {
      fork_tried = true;
      fork_at = offers.size();
      fork = offers.fork(nogoods);
    }
    if (!fork) continue;
    forked_pass[static_cast<std::size_t>(pass)] = true;
    const std::size_t width = offers.component_count(0);
    auto examine_forked = [&](const OfferRecord& r, const VariantMemo* const* memo_row) {
      return examine([memo_row](std::size_t k) { return memo_row[k]->variant; },
                     [&](SystemOffer& into) { offers.materialise(r, memo_row, into); }, SIZE_MAX,
                     pass);
    };
    for (std::size_t d = 0; pass == 1 && d < deferred.size() && committed_pass < 0; ++d) {
      if (examine_forked(deferred[d], deferred_rows.data() + d * width)) committed_pass = pass;
    }
    while (committed_pass < 0) {
      row.clear();
      if (!fork->next(record, row)) break;
      const bool satisfying = record.tolerated && record.cost <= profile.cost.max_cost;
      if (pass == 0 && !satisfying) {
        deferred.push_back(record);
        deferred_rows.insert(deferred_rows.end(), row.begin(), row.end());
        if (record.sns == Sns::kConstraint) break;
        continue;
      }
      if (pass == 1 && satisfying) continue;
      if (examine_forked(record, row.data())) committed_pass = pass;
    }
  }

  if (fork && committed_pass >= 0) {
    // Fetch the list as far as a walk without the fork would have, and
    // count each offer the fork skipped on the way against its earliest
    // nogood: the offers past fork_at are the forked passes' real commits
    // (in order), the committed offer, and offers some nogood refuses.
    std::vector<const Variant*> chosen;
    for (const OfferComponent& c : candidate.components) chosen.push_back(c.variant);
    auto is_offer = [&](std::size_t i, const Variant* const* variants) {
      for (std::size_t k = 0; k < chosen.size(); ++k) {
        if (offers.variant(i, k) != variants[k]) return false;
      }
      return true;
    };
    std::size_t next_forked = 0;
    auto skip_listed = [&] {
      while (next_forked < refused_at.size() && refused_at[next_forked] != SIZE_MAX) ++next_forked;
    };
    skip_listed();
    for (int pass = 0; pass <= committed_pass; ++pass) {
      if (!forked_pass[static_cast<std::size_t>(pass)]) continue;
      for (std::size_t i = fork_at;; ++i) {
        if (i >= offers.size() && !offers.fetch_next()) break;
        if (pass == 0 && offers.sns(i) == Sns::kConstraint) break;
        if ((pass == 0) != satisfies(i)) continue;
        if (pass == committed_pass && committed_index == SIZE_MAX && is_offer(i, chosen.data())) {
          committed_index = i;
          break;
        }
        if (next_forked < refused_at.size() &&
            is_offer(i, log.variants.data() + next_forked * log.width)) {
          ++next_forked;
          skip_listed();
          continue;
        }
        if (const auto hit = nogoods.earliest(listed(i))) ++log.entries[*hit].refused;
      }
    }
  } else if (fork) {
    // A failed walk examined every offer of its window once. The offers a
    // nogood n refused are those starting with its prefix that no earlier
    // nogood claims (the sub-spaces of earlier nogoods extending n's
    // prefix), less those outside the window and those really committed.
    const std::size_t width = log.width;
    auto subspace = [&](std::size_t depth) {
      std::size_t size = 1;
      for (std::size_t k = depth; k < width; ++k) size *= offers.feasible_count(k);
      return size;
    };
    // Whether nogood m's prefix properly extends nogood n's.
    auto extends = [&](std::size_t m, std::size_t n) {
      const std::size_t d = log.entries[n].depth;
      return log.entries[m].depth > d &&
             std::equal(nogoods.prefix(n), nogoods.prefix(n) + d, nogoods.prefix(m));
    };
    std::vector<std::size_t> claimed;
    for (std::size_t n = 0; n < log.entries.size(); ++n) {
      RefusalLog::Entry& entry = log.entries[n];
      if (entry.depth == 0) continue;
      entry.refused = subspace(entry.depth);
      // The earlier extensions, shallowest first; one inside another's
      // sub-space is already subtracted with it.
      claimed.clear();
      for (std::size_t m = 0; m < n; ++m) {
        if (extends(m, n)) claimed.push_back(m);
      }
      std::stable_sort(claimed.begin(), claimed.end(), [&](std::size_t a, std::size_t b) {
        return log.entries[a].depth < log.entries[b].depth;
      });
      for (std::size_t c = 0; c < claimed.size(); ++c) {
        const std::size_t m = claimed[c];
        bool inside = false;
        for (std::size_t o = 0; o < c && !inside; ++o) inside = extends(m, claimed[o]);
        if (!inside) entry.refused -= subspace(log.entries[m].depth);
      }
    }
    for (std::size_t j = 0; j < fork_at; ++j) {
      if (!excluded(j)) continue;
      if (const auto hit = nogoods.earliest(listed(j))) --log.entries[*hit].refused;
    }
    for (std::size_t n = 0; n < log.entries.size(); ++n) {
      const Variant* const* variants = log.variants.data() + n * width;
      const auto hit = nogoods.earliest([variants](std::size_t k) { return variants[k]; });
      if (hit) --log.entries[*hit].refused;
    }
  }

  // Each offer a nogood refused stands for the commit() that taught it.
  attempt.stats = committer.stats();
  std::size_t nogood_hits = 0;
  for (const RefusalLog::Entry& e : log.entries) {
    if (e.refused == 0) continue;
    const int n = static_cast<int>(e.refused);
    nogood_hits += e.refused;
    attempt.stats.attempts += n;
    (e.refusal.transient ? attempt.stats.transient_failures
                         : attempt.stats.permanent_failures) += n;
    attempt.stats.released_on_failure += n * e.released;
  }
  const std::size_t examined = log.entries.size() + nogood_hits + (committed_pass >= 0 ? 1 : 0);
  walk_span.annotate("offers_examined", static_cast<std::uint64_t>(examined));
  walk_span.annotate("nogood_hits", static_cast<std::uint64_t>(nogood_hits));
  if (fork) walk_span.annotate("pruned_states", static_cast<std::uint64_t>(fork->states_generated()));
  if (committed_pass >= 0) {
    attempt.index = committed_index;
    walk_span.annotate("committed_offer", static_cast<std::uint64_t>(committed_index));
    return attempt;
  }
  attempt.refusals = std::move(log);
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
  // reports it. A bypassing request runs Steps 1-4 afresh.
  std::shared_ptr<const MultimediaDocument> document = catalog_->find(request.document);
  NegotiationPlanCache& cache = *config_.plan_cache;
  if (!document || request.cache == CacheUse::kBypass) {
    auto plan = build_plan(request, std::move(document));
    if (!plan.ok()) return std::move(plan.error());
    return run_plan(request, *plan.value(), /*exclusive=*/true);
  }

  std::shared_ptr<const NegotiationPlan> plan;
  {
    ScopedSpan span(request.trace, Stage::kPlanCache);
    if (request.cache != CacheUse::kRefresh) {
      plan = cache.lookup(request.document, request.client, request.profile,
                          config_.enumeration, *cost_model_, document.get());
    }
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
  cache.store(request.document, request.client, request.profile, config_.enumeration,
              cost_model_, std::move(fresh));
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
    plan->seed =
        make_offer_stream_seed(std::move(feasible), profile.mm, profile.importance, *cost_model_);
    total = seed_total_combinations(*plan->seed);
    known = std::min(total, config_.enumeration.max_offers);
  } else {
    OfferList offers = enumerate_offers(feasible, profile.mm, *cost_model_, config_.enumeration);
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
