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
  /// Cross-request plan cache for the Step 1-4 outcome, shareable between
  /// managers and services; thread-safe. Left null, the manager builds its
  /// own under the default CachePolicy: every manager caches. Requests opt
  /// out per call via NegotiationRequest::cache (CacheUse::kBypass).
  std::shared_ptr<NegotiationPlanCache> plan_cache;
  /// Pluggable Step-5 committer. When set, commit_first() obtains each
  /// walk's committer here instead of constructing a plain ResourceCommitter
  /// over the manager's farm/transport — the hook the sharded federation
  /// uses to substitute its FederatedCommitter without touching the walk.
  /// Deliberately not part of a plan's cache key: the factory changes
  /// where reservations land, never the Steps 1-4 outcome.
  using CommitterFactory =
      std::function<std::unique_ptr<ResourceCommitter>(const RetryPolicy&, SessionClass)>;
  CommitterFactory committer_factory;
};

/// The refusals a failed Step-5 walk met, kept unrendered: a walk's
/// callers other than run_plan (session transitions, policy scans) never
/// read them, so they pay for no text.
struct RefusalLog {
  /// One commit() the servers or the transport refused.
  struct Entry {
    Refusal refusal;
    /// The refused prefix's length when the refusal became a nogood (the
    /// first `depth` variants of the offer), else 0.
    std::size_t depth = 0;
    /// Reservations the refused commit() rolled back.
    int released = 0;
    /// Offers the nogood refused without a commit.
    std::size_t refused = 0;
  };
  /// The real refusals, in walk order.
  std::vector<Entry> entries;
  /// The refused offers' variants, `width` per entry, in entry order, and
  /// the document they belong to.
  std::vector<const Variant*> variants;
  std::shared_ptr<const MultimediaDocument> document;
  std::size_t width = 0;  ///< components per offer

  bool empty() const { return entries.empty(); }
  /// Append, in walk order, one "offer <ids>: <component>: <message>" line
  /// per real refusal, naming the offer by its variant ids joined with '|',
  /// each followed, when it taught a nogood, by one "prefix <ids>: <n> more
  /// offers refused" line. Each line is built with one allocation.
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
  /// walk attempts. The walk examines only offers with index in
  /// [begin_index, end_index): preemption passes the session's current
  /// offer + 1 as the begin, so only strictly worse entries are tried; the
  /// upgrade scanner passes it as the end, so only strictly better ones are
  /// (and a lazy list never materialises past the bound).
  ///
  /// Nothing commits inside a walk until it ends, and commit_once() reserves
  /// an offer's components in order, rolling back on the first refusal. So a
  /// refusal at component k is a learned nogood for the rest of the walk:
  /// any later offer whose first k+1 variants equal the refused prefix meets
  /// the same ledger state and gets the same refusal. The walk refuses such
  /// an offer without touching the servers or the transport, and accounts
  /// it in CommitStats as the commit() it stands for. The nogoods are
  /// bypassed (see memo_refusals_) wherever a refusal is not a pure function
  /// of (ledger state, prefix).
  ///
  /// Over a stream-backed, untruncated list, the walk fetches through the
  /// list as long as it knows no nogood. Past the consumed prefix it then
  /// continues on a private fork of the list's stream that never yields,
  /// nor scores most of, an offer a nogood refuses (OfferStream::fork):
  /// - a walk that commits fetches the list up to the committed offer, as a
  ///   walk without the fork would, and counts each offer it skipped on the
  ///   way against its earliest matching nogood;
  /// - a walk that fails examined every offer of the window, so each nogood
  ///   refused the offers of its prefix's sub-space that no earlier nogood
  ///   claims, less those outside the window and those really committed:
  ///   it counts them instead of visiting them. Its list keeps only what it
  ///   consumed.
  /// Elsewhere (eager lists, truncated spaces, bounded or bypassed walks)
  /// the walk checks each offer it reaches against its nogoods.
  CommitAttempt commit_first(const ClientMachine& client, OfferList& offers,
                             const MMProfile& profile,
                             std::span<const std::size_t> exclude = {},
                             TraceContext trace = {},
                             SessionClass session_class = SessionClass::kStandard,
                             std::size_t begin_index = 0, std::size_t end_index = SIZE_MAX);

  const CostModel& cost_model() const { return *cost_model_; }
  const NegotiationConfig& config() const { return config_; }
  Catalog& catalog() { return *catalog_; }
  /// The plan cache: the configured one, or the manager's own. Never null.
  NegotiationPlanCache* plan_cache() const { return config_.plan_cache.get(); }

 private:
  /// Steps 1-4 for `request` over `document` (null = a catalog miss): the
  /// cacheable part, or static_check's terminal result when Step 1 or 2
  /// fails. Emits the local-check/compatibility/enumeration spans it
  /// executes.
  Result<std::shared_ptr<NegotiationPlan>, NegotiationResult> build_plan(
      const NegotiationRequest& request, std::shared_ptr<const MultimediaDocument> document);
  /// Step 5 (+ verdict) over a built or replayed plan. The single exit path
  /// of every negotiation, so hits, misses and bypassing requests produce
  /// byte-identical results. `exclusive` marks a plan owned by this request
  /// alone (freshly built, not stored): its eager offer list is moved out
  /// instead of copied.
  NegotiationResult run_plan(const NegotiationRequest& request, const NegotiationPlan& plan,
                             bool exclusive);

  Catalog* catalog_;
  ServerProvider* farm_;
  TransportProvider* transport_;
  /// Shared with every plan-cache entry this manager stores.
  std::shared_ptr<const CostModel> cost_model_;
  NegotiationConfig config_;
  /// Whether commit_first() may refuse offers by its nogoods: only
  /// over the plain ServerFarm and TransportService (fault injectors and
  /// test doubles may refuse by their own state), with the built-in
  /// committer (no committer_factory) and single-try commits (a skipped
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

/// How a commit-attempt span names the offer it tried: each component's
/// position in its monomedia's variant list, joined with '.' ("2.0.1").
/// A short offer's text fits a string's inline buffer, so a traced commit
/// costs no allocation for it; a long one is never truncated.
std::string offer_positions(const SystemOffer& offer);

/// Step 5's verdict once a walk has ended with result.committed_index set
/// (or SIZE_MAX when nothing committed): FAILEDTRYLATER when a refusal was
/// transient — trying later could help — else FAILEDWITHOUTOFFER; on a
/// commitment, SUCCEEDED when the offer satisfies `requested`, else
/// FAILEDWITHOFFER, with the committed offer as the user offer.
void settle_verdict(NegotiationResult& result, const MMProfile& requested, bool saw_transient);

}  // namespace qosnp
