// Feasible-offer enumeration (paper Steps 2-3 input): for each monomedia of
// the requested document, keep the variants whose coding format the client
// machine can decode (static compatibility checking); a system offer is one
// variant per monomedia, so the offer space is the cartesian product of the
// per-monomedia feasible sets. The paper notes "many offers may be produced
// for a given request" — the enumerator caps the expansion and reports the
// truncation explicitly (never silently).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "client/client_machine.hpp"
#include "core/classify.hpp"
#include "core/offer.hpp"
#include "cost/cost_model.hpp"
#include "document/model.hpp"
#include "profile/profiles.hpp"

namespace qosnp {

enum class EnumerationStrategy {
  /// Materialise the full cartesian product (up to the cap), then classify
  /// and sort. Kept as the differential-test oracle.
  kEager,
  /// Lazy best-first stream: offers are produced one at a time, already
  /// classified, in exactly the order the eager path would sort them into.
  /// Negotiation cost scales with offers *consumed*, not offers *possible*,
  /// and the cap keeps the best offers instead of a mixed-radix prefix.
  kBestFirst,
};

struct EnumerationConfig {
  /// Hard cap on enumerated combinations; the excess is dropped (flagged in
  /// OfferList::truncated). Under kBestFirst the cap bounds how many offers
  /// the stream will ever yield — and since the stream is best-first, the
  /// capped set is the *best* max_offers of the whole product, not the first
  /// max_offers in document order.
  std::size_t max_offers = 20'000;
  EnumerationStrategy strategy = EnumerationStrategy::kBestFirst;
  friend bool operator==(const EnumerationConfig&, const EnumerationConfig&) = default;
};

/// Per-monomedia feasible variants after Step 2.
struct FeasibleSet {
  std::shared_ptr<const MultimediaDocument> document;
  std::vector<const Monomedia*> monomedia;  ///< only media the profile requests
  std::vector<std::vector<const Variant*>> variants;  ///< parallel to monomedia

  /// Cartesian-product size.
  std::size_t combination_count() const;
};

/// Step 2: filter variants by client decoder compatibility. Monomedia whose
/// kind the profile does not request are skipped entirely (the user did not
/// ask for them). The error carries the first monomedia left with no
/// feasible variant (-> FAILEDWITHOUTOFFER).
Result<FeasibleSet> compatible_variants(std::shared_ptr<const MultimediaDocument> document,
                                        const ClientMachine& client, const MMProfile& profile);

/// Build the system offers of a feasible set: map every variant to its
/// stream requirements (Sec. 6) and price every combination (Sec. 7).
/// sns/oif are left for classify_offers.
OfferList enumerate_offers(const FeasibleSet& feasible, const MMProfile& profile,
                           const CostModel& cost_model, EnumerationConfig config = {});

/// The immutable Steps 3-4 precomputation behind OfferStream: memoised
/// per-variant SNS/OIF contributions and the pre-sorted per-class variant
/// lists. Building it is the expensive part of starting a stream; walking it
/// is cheap per-request cursor state. The seed depends only on (feasible
/// set, profile, importance, cost model) — never on server or
/// transport state — so one seed can be shared, read-only and thread-safe,
/// by any number of concurrent streams (the cross-request plan cache stores
/// exactly this object). Opaque: defined in enumerate.cpp.
class OfferStreamSeed;

/// Build a shareable stream seed. Every OfferStream spawned from the same
/// seed yields the same offers in the same order (bit-identical).
std::shared_ptr<const OfferStreamSeed> make_offer_stream_seed(FeasibleSet feasible,
                                                              MMProfile profile,
                                                              ImportanceProfile importance,
                                                              CostModel cost_model);

/// Cartesian-product size of the seed's feasible sets (saturating, like
/// FeasibleSet::combination_count()).
std::size_t seed_total_combinations(const OfferStreamSeed& seed);

/// Which offers a pruned stream skips (OfferStream::fork): the refused
/// prefixes a Step-5 walk has learned. refused_depth() looks at the memo row
/// of one offer (one entry per position) and returns the smallest d > 0 such
/// that the offer's first d variants form a refused prefix, or 0 when none
/// does.
class PrefixPruner {
 public:
  virtual std::size_t refused_depth(const VariantMemo* const* row) const = 0;

 protected:
  ~PrefixPruner() = default;
};

/// Lazy best-first generator over the offer space (Steps 3+4 fused into the
/// enumeration): next() yields system offers with sns/oif already filled, in
/// exactly the classification order of classify_offers — SNS ascending, then
/// OIF descending, then cheaper first, then variant ids. The stream grades
/// SNS by the default importance-weighted rule; the literal kPlain rule is
/// an ablation of classify_offers only.
///
/// How: every per-monomedia feasible set is partitioned by the profile into
/// desired / acceptable-only / violating variants and pre-sorted by the
/// variant's separable OIF contribution (its QoS importance, server bonus,
/// and the cost importance of its own stream charge — all memoised once, so
/// classification work is shared across every offer the variant appears in).
/// Each SNS class is the disjoint union of a few cartesian-product
/// sub-spaces; each sub-space is walked with a heap of frontier states whose
/// keys are the *exact* materialised (oif, cost, ids) of the offer, so
/// emission order is bit-identical to the eager sort. Pulling one offer
/// costs O(n log frontier) instead of O(product).
class OfferStream {
 public:
  OfferStream(FeasibleSet feasible, MMProfile profile, ImportanceProfile importance,
              CostModel cost_model, std::size_t max_offers);
  /// Spawn a fresh cursor over a shared (possibly cached) seed: all the
  /// memoisation is reused, only the frontier heaps are rebuilt.
  OfferStream(std::shared_ptr<const OfferStreamSeed> seed, std::size_t max_offers);
  ~OfferStream();
  OfferStream(const OfferStream&) = delete;
  OfferStream& operator=(const OfferStream&) = delete;

  /// The next-best offer in compact form: its key into `record`, the memo
  /// entries of its variants (one per position) appended to `row`. False
  /// once emit_limit() offers were yielded. OfferList::fetch_next's source.
  bool next(OfferRecord& record, std::vector<const VariantMemo*>& row);
  /// The next-best offer in full, or nullopt once emit_limit() offers were
  /// yielded.
  std::optional<SystemOffer> next();

  /// A private copy of this cursor at its current position that skips
  /// every offer `pruner` refuses, in the same order otherwise. A refused
  /// state of depth d is dropped when popped and is expanded only at
  /// positions below d: every state sharing its first d variants descends
  /// from it through positions at or after d, so the whole refused sub-space
  /// is skipped without being scored. `pruner` is read on every pull, so
  /// prefixes learned between pulls prune too; it must outlive the fork.
  /// The fork counts its own states_generated(), from zero.
  std::unique_ptr<OfferStream> fork(const PrefixPruner& pruner) const;

  /// Streams constructed in this process so far, forks included (for tests
  /// that assert a walk builds no stream it does not need).
  static std::uint64_t constructed();

  /// Cartesian-product size (saturating, like combination_count()).
  std::size_t total_combinations() const;
  /// min(total_combinations, max_offers): how many offers next() will yield.
  std::size_t emit_limit() const;
  std::size_t yielded() const;
  bool exhausted() const;
  /// Frontier states scored so far — the stream's actual work, for tests and
  /// benches to assert laziness (stays near yielded()*n even when the
  /// product is astronomical).
  std::size_t states_generated() const;

 private:
  struct Impl;
  explicit OfferStream(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace qosnp
