// The QoS manager (paper Sec. 4): the component implementing QoS
// negotiation and adaptation. negotiate() runs the procedure's steps:
//   1. static local negotiation        -> FAILEDWITHLOCALOFFER
//   2. static compatibility checking   -> FAILEDWITHOUTOFFER
//   3. computation of classification parameters (SNS, OIF)
//   4. classification of system offers (best to worst)
//   5. resource commitment             -> SUCCEEDED / FAILEDWITHOFFER /
//                                         FAILEDTRYLATER
// Step 6 (user confirmation within choicePeriod) and the adaptation
// procedure live in the session module, which consumes the ordered offer
// list this manager produces — the paper keeps all feasible offers around
// precisely so adaptation can fall back to them.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "client/client_machine.hpp"
#include "core/classify.hpp"
#include "core/commit.hpp"
#include "core/enumerate.hpp"
#include "core/negotiation_request.hpp"
#include "core/negotiation_result.hpp"
#include "core/offer.hpp"
#include "core/plan_cache.hpp"
#include "cost/cost_model.hpp"
#include "document/catalog.hpp"
#include "obs/trace.hpp"
#include "profile/profiles.hpp"

namespace qosnp {

struct NegotiationConfig {
  /// Offer-space strategy. The default kBestFirst streams offers lazily in
  /// classification order (Step 5 pulls them one at a time); kEager
  /// materialises and sorts the whole product — kept as the test oracle.
  EnumerationConfig enumeration;
  /// How resource commitment retries transiently-refused offers before the
  /// walk falls through to the next (worse) offer. Default: no retries.
  RetryPolicy retry;
  /// Cross-request plan cache for the Step 1-4 outcome (nullptr = off).
  /// Shareable between managers/services; thread-safe. Requests opt out per
  /// call via NegotiationRequest::cache.
  std::shared_ptr<NegotiationPlanCache> plan_cache;
  /// Pluggable Step-5 committer. When set, commit_first() obtains each
  /// walk's committer here instead of constructing a plain ResourceCommitter
  /// over the manager's farm/transport — the hook the sharded federation
  /// uses to substitute its FederatedCommitter without touching the walk.
  /// Deliberately not part of the plan-cache digest: the factory changes
  /// where reservations land, never the Steps 1-4 outcome.
  using CommitterFactory =
      std::function<std::unique_ptr<ResourceCommitter>(const RetryPolicy&, SessionClass)>;
  CommitterFactory committer_factory;
};

/// The refusals a failed Step-5 walk met, kept unrendered: a walk's
/// callers other than run_plan (session transitions, policy scans) never
/// read them, so they pay for no text.
struct RefusalLog {
  /// The distinct refusals the servers and the transport returned.
  std::vector<Refusal> refusals;
  /// One (offer index, index into refusals) per refused offer, in walk
  /// order; an offer answered from the nogood memo names the refusal it
  /// replayed.
  std::vector<std::pair<std::size_t, std::size_t>> refused;

  bool empty() const { return refused.empty(); }
  /// Append one "offer <i>: <component>: <message>" line per refused offer,
  /// in walk order, to `out`, each built with one allocation.
  void render(std::vector<std::string>& out) const;
};

/// Result of walking the ordered offers and committing the first that fits.
struct CommitAttempt {
  std::size_t index = SIZE_MAX;
  Commitment commitment;
  /// Every refusal of a walk that failed. A walk that commits leaves it
  /// empty, even after refusals, because no caller reads it then.
  RefusalLog refusals;
  CommitStats stats;
  /// Whether any refusal during the walk was transient. Decides the honest
  /// failure status: FAILEDTRYLATER only when trying later could help.
  bool saw_transient = false;

  bool ok() const { return index != SIZE_MAX; }
  /// The refusals as problem lines (RefusalLog::render).
  std::vector<std::string> errors() const {
    std::vector<std::string> lines;
    refusals.render(lines);
    return lines;
  }
};

class QoSManager {
 public:
  QoSManager(Catalog& catalog, ServerProvider& farm, TransportProvider& transport,
             CostModel cost_model = {}, NegotiationConfig config = {});

  /// Run the negotiation procedure for one request. request.trace, when
  /// active, records one span per executed stage on its trace; a plan-cache
  /// hit replays the cached Steps 1-4 (kPlanCache span, hit=true) and runs
  /// only the Step-5 commit walk.
  NegotiationResult negotiate(const NegotiationRequest& request);

  /// Step 5 in isolation: walk `offers` best-to-worst, first the offers
  /// satisfying the user requirements, then the rest, skipping indices in
  /// `exclude`; commit the first that the servers and the transport accept.
  /// Also the engine of the adaptation procedure (exclude = offers already
  /// tried or in difficulty). Takes the list by mutable reference because a
  /// lazy list materialises further offers from its stream as the walk
  /// reaches them. `session_class` is stamped onto every reservation the
  /// walk attempts; `end_index` restricts the walk to offers with index
  /// strictly below it (the upgrade scanner passes the session's current
  /// offer so only strictly better entries are tried — and a lazy list never
  /// materialises past the bound).
  ///
  /// Nothing commits inside a walk until it ends, and commit_once() reserves
  /// an offer's components in order, rolling back on the first refusal. So a
  /// refusal at component k is a learned nogood for the rest of the walk:
  /// any later offer whose first k+1 variants equal the refused prefix meets
  /// the same ledger state and gets the same refusal. The walk answers such
  /// an offer from its memo — replaying the refusal, its CommitStats share
  /// and its trace annotations — without touching the servers or the
  /// transport. The memo is bypassed (see memo_refusals_) wherever a refusal
  /// is not a pure function of (ledger state, prefix).
  ///
  /// The walk reads each offer through the list's accessors: whether it
  /// satisfies the user, and whether a nogood covers it, come from its
  /// classification key and its variant pointers. Nogoods are looked up by
  /// (depth, prefix) hash, and the earliest recorded match wins, as in walk
  /// order. Only an offer that reaches the committer is materialised, so a
  /// replayed offer of a stream-backed list costs no allocation.
  CommitAttempt commit_first(const ClientMachine& client, OfferList& offers,
                             const MMProfile& profile,
                             std::span<const std::size_t> exclude = {},
                             TraceContext trace = {},
                             SessionClass session_class = SessionClass::kStandard,
                             std::size_t end_index = SIZE_MAX);

  const CostModel& cost_model() const { return cost_model_; }
  const NegotiationConfig& config() const { return config_; }
  Catalog& catalog() { return *catalog_; }
  /// The configured plan cache, or nullptr when caching is off.
  NegotiationPlanCache* plan_cache() const { return config_.plan_cache.get(); }

 private:
  /// Steps 1-4 for `request` over `document` (null = a catalog miss): the
  /// cacheable part, or static_check's terminal result when Step 1 or 2
  /// fails. Emits the local-check/compatibility/enumeration spans it
  /// executes.
  Result<std::shared_ptr<NegotiationPlan>, NegotiationResult> build_plan(
      const NegotiationRequest& request, std::shared_ptr<const MultimediaDocument> document);
  /// Step 5 (+ verdict) over a built or replayed plan. The single exit path
  /// of every negotiation, so cached and uncached requests produce
  /// byte-identical results. `exclusive` marks a plan owned by this request
  /// alone (freshly built, not stored): its eager offer list is moved out
  /// instead of copied.
  NegotiationResult run_plan(const NegotiationRequest& request, const NegotiationPlan& plan,
                             bool exclusive);

  Catalog* catalog_;
  ServerProvider* farm_;
  TransportProvider* transport_;
  CostModel cost_model_;
  NegotiationConfig config_;
  /// Fingerprint of the manager knobs entering plan_cache_key (computed
  /// once; the config is immutable after construction).
  std::string plan_digest_;
  /// Whether commit_first() may answer offers from its nogood memo: only
  /// over the plain ServerFarm and TransportService (fault injectors and
  /// test doubles may refuse by their own state), with the built-in
  /// committer (no committer_factory) and single-try commits (a replayed
  /// retry would skip the jitter stream's draws).
  bool memo_refusals_;
};

/// The catalog lookup and Steps 1-2 for `request` against `document` (null =
/// request.document is not in the catalog, a Step-2 failure): the feasible
/// variant sets, or the terminal result (verdict, problems and, after Step 1,
/// the local offer). Records the kLocalCheck/kCompatibility spans on
/// request.trace. Every negotiator runs these steps through here.
Result<FeasibleSet, NegotiationResult> static_check(
    const NegotiationRequest& request, std::shared_ptr<const MultimediaDocument> document);

/// Step 5's verdict once a walk has ended with result.committed_index set
/// (or SIZE_MAX when nothing committed): FAILEDTRYLATER when a refusal was
/// transient — trying later could help — else FAILEDWITHOUTOFFER; on a
/// commitment, SUCCEEDED when the offer satisfies `requested`, else
/// FAILEDWITHOFFER, with the committed offer as the user offer.
void settle_verdict(NegotiationResult& result, const MMProfile& requested, bool saw_transient);

}  // namespace qosnp
