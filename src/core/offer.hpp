// System offers and user offers (paper Definitions 1 and 2).
//   Definition 1: a system offer is a set of variants (one per monomedia
//   component of the document) plus the cost the user should pay.
//   Definition 2: a user offer is the QoS the system can provide and the
//   cost, expressed in user-perceived terms (an MM profile instance).
// A user offer is derived from a system offer by the mapping functions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "document/model.hpp"
#include "media/qos.hpp"
#include "profile/profiles.hpp"
#include "qosmap/mapping.hpp"
#include "util/money.hpp"

namespace qosnp {

/// Static negotiation status (paper Sec. 5.2.1): how well an offer's QoS
/// satisfies the user profile. Lower enum value = better grade; the SNS is
/// the *primary* classification key.
enum class Sns : int { kDesirable = 0, kAcceptable = 1, kConstraint = 2 };

std::string_view to_string(Sns sns);

/// The five negotiation statuses of paper Sec. 4.
enum class NegotiationStatus {
  kSucceeded,
  kFailedWithOffer,
  kFailedTryLater,
  kFailedWithoutOffer,
  kFailedWithLocalOffer,
};

std::string_view to_string(NegotiationStatus status);

/// One variant chosen for one monomedia, with its mapped system QoS.
struct OfferComponent {
  const Monomedia* monomedia = nullptr;
  const Variant* variant = nullptr;
  StreamRequirements requirements;
};

/// Definition 1. Classification parameters (sns, oif) are filled by Step 3.
struct SystemOffer {
  std::vector<OfferComponent> components;
  CostBreakdown cost;  ///< total includes the document copyright
  Sns sns = Sns::kConstraint;
  double oif = 0.0;

  Money total_cost() const { return cost.total; }
  std::string describe() const;
};

/// Everything the offer stream needs to score or materialise one variant at
/// one position of an offer, computed once per variant by the stream seed
/// (enumerate.hpp) so classification work is shared across every offer the
/// variant appears in. Immutable once the seed is built.
struct VariantMemo {
  const Variant* variant = nullptr;
  StreamRequirements requirements;
  Money network;            ///< CostModel::stream_network_cost(requirements)
  Money server;             ///< CostModel::stream_server_cost(requirements)
  Money charge;             ///< network + server charge of this stream alone
  double importance = 0.0;  ///< qos_importance(variant->qos)
  bool add_bonus = false;   ///< preferred-server bonus applies
  bool desired_ok = false;  ///< satisfied_by the desired per-medium QoS
  bool worst_ok = false;    ///< tolerated (meets the worst acceptable QoS)
  double order_weight = 0.0;  ///< separable OIF contribution, for list order
  /// Rank of variant->id among the position's feasible variants (equal ids,
  /// equal ranks): the stream breaks ties on it instead of on the strings.
  std::uint32_t id_rank = 0;
};

/// A streamed offer in compact form: its classification key. Its variants
/// are the record's row in StreamedOffers::memos.
struct OfferRecord {
  double oif = 0.0;
  Money cost;  ///< total, copyright included
  Sns sns = Sns::kConstraint;
  /// Every variant meets the worst acceptable QoS of the profile the
  /// stream classified for (all its memo entries are worst_ok).
  bool tolerated = false;
};

/// One streamed offer on its own: its record and its memo row. A cached
/// best-first plan keeps the first offer of its stream in this form.
struct StreamedOffer {
  OfferRecord record;
  std::vector<const VariantMemo*> row;  ///< one per component
};

class OfferStream;
class OfferStreamSeed;
class PrefixPruner;

/// The consumed prefix of a stream-backed OfferList, as compact records,
/// and the stream that yields the rest.
struct StreamedOffers {
  /// Yields the offers after the consumed prefix; null once drained. A
  /// list that starts from a cached plan's first offer spawns it only on
  /// the first fetch past that offer.
  std::shared_ptr<OfferStream> stream;
  /// The memo the rows point into; the stream is spawned over it.
  std::shared_ptr<const OfferStreamSeed> seed;
  /// How many offers the list can reach: min(combinations, max_offers),
  /// lowered to the consumed count if the stream runs dry first.
  std::size_t limit = 0;
  std::size_t width = 0;  ///< components per offer
  std::vector<OfferRecord> records;
  std::vector<const VariantMemo*> memos;  ///< `width` per record, in record order
};

/// The enumerated offer space for one request, classified best-to-worst
/// after Step 4. Owns the document reference the component pointers index
/// into (the catalog may drop the document while a negotiation over it is in
/// flight).
///
/// Two kinds of list share one reader API (size, sns, oif, total_cost,
/// component_count, variant, offer):
/// - An eager list (enumerate_offers, the baselines, paper_example) holds
///   full SystemOffers in `eager`; its builders write that vector directly.
/// - A stream-backed list (the lazy best-first strategy) holds the consumed
///   prefix as compact records: a record is the offer's classification key
///   plus a row of pointers into the stream seed's VariantMemo, one per
///   component. Rows and records sit in two pooled vectors, so a record
///   costs no allocation of its own. fetch_next() pulls one more record from
///   the stream. A record becomes a SystemOffer (components and
///   CostBreakdown) only when a caller reads it through offer() or
///   materialise(): a real commit, the planner or a test. Copies of such a
///   list share its prefix and its stream.
struct OfferList {
  std::shared_ptr<const MultimediaDocument> document;
  /// Eager lists only: the full offers. Read them through the accessors.
  std::vector<SystemOffer> eager;
  std::size_t total_combinations = 0;
  bool truncated = false;  ///< the enumeration cap dropped combinations
  /// The list is ordered SNS-first (the smart procedure's order). Lets the
  /// commitment walk stop fetching at the first CONSTRAINT offer.
  bool sns_ordered = false;

  OfferList() = default;
  /// A stream-backed list over the best `max_offers` offers of `seed`'s
  /// space over `document`, in the stream's (SNS-first) order. `head`, when
  /// given, is the first offer a stream over `seed` yields (a cached plan's
  /// memoised copy): the list starts with it consumed and spawns its stream
  /// only when a fetch goes past it. Defined in enumerate.cpp, like the
  /// other members that read the stream or its seed.
  OfferList(std::shared_ptr<const MultimediaDocument> document,
            std::shared_ptr<const OfferStreamSeed> seed, std::size_t max_offers,
            const StreamedOffer* head = nullptr);

  /// Offers consumed so far (all of them for an eager list).
  std::size_t size() const { return streamed_ ? streamed_->records.size() : eager.size(); }
  Sns sns(std::size_t i) const { return streamed_ ? streamed_->records[i].sns : eager[i].sns; }
  double oif(std::size_t i) const {
    return streamed_ ? streamed_->records[i].oif : eager[i].oif;
  }
  Money total_cost(std::size_t i) const {
    return streamed_ ? streamed_->records[i].cost : eager[i].total_cost();
  }
  std::size_t component_count(std::size_t i) const {
    return streamed_ ? streamed_->width : eager[i].components.size();
  }
  /// The variant offer i chose for its k-th component.
  const Variant* variant(std::size_t i, std::size_t k) const {
    return streamed_ ? streamed_->memos[i * streamed_->width + k]->variant
                     : eager[i].components[k].variant;
  }
  /// Whether the keys were classified for `profile`: a stream-backed list
  /// whose seed was built for an equal profile. Then tolerated(i) tells
  /// whether offer i meets the profile's worst acceptable QoS, without
  /// grading its variants.
  bool classified_for(const MMProfile& profile) const;
  bool tolerated(std::size_t i) const { return streamed_->records[i].tolerated; }
  /// Offer i in full. Builds it for a stream-backed list; copies it for an
  /// eager one. materialise() refills `into`, reusing its capacity.
  SystemOffer offer(std::size_t i) const;
  void materialise(std::size_t i, SystemOffer& into) const;
  /// Consumed offer i of a stream-backed list in compact form.
  StreamedOffer streamed(std::size_t i) const;
  /// Build an offer of this stream-backed list's space that a fork
  /// yielded, from its record and memo row.
  void materialise(const OfferRecord& record, const VariantMemo* const* row,
                   SystemOffer& into) const;

  /// Whether the offers come from a stream (false for an eager list).
  bool stream_backed() const { return streamed_ != nullptr; }
  /// Stream-backed lists: how many feasible variants position k draws from.
  std::size_t feasible_count(std::size_t k) const;
  /// Stream-backed lists: a private cursor over the offers after the
  /// consumed prefix that skips every offer `pruner` refuses
  /// (OfferStream::fork). The list itself is left as it was. Null once the
  /// list has consumed every offer it can reach.
  std::unique_ptr<OfferStream> fork(const PrefixPruner& pruner) const;

  /// The stream yielding the offers after the consumed prefix; null for
  /// eager lists, once the stream is drained, and in a list started from a
  /// cached plan's first offer until a fetch goes past it.
  std::shared_ptr<OfferStream> stream() const {
    return streamed_ ? streamed_->stream : nullptr;
  }
  /// Consume the next offer of the stream. Returns false for an eager list
  /// or once the stream is exhausted (and drops the drained stream).
  bool fetch_next();
  /// Offers reachable through this list: consumed prefix plus the stream's
  /// remaining yield. Equals size() for eager lists.
  std::size_t known_count() const {
    return streamed_ ? streamed_->limit : eager.size();
  }

 private:
  std::shared_ptr<StreamedOffers> streamed_;  ///< null for eager lists
};

/// Definition 2.
struct UserOffer {
  std::optional<VideoQoS> video;
  std::optional<AudioQoS> audio;
  std::optional<TextQoS> text;
  std::optional<ImageQoS> image;
  Money cost;

  std::string describe() const;
};

/// Map system offer i of a list into user-perceived terms. With several
/// monomedia of the same kind the weakest chosen quality is reported (the
/// honest figure to show the user). Reads the offer's cost and variants
/// only, so a stream-backed list need not materialise it.
UserOffer derive_user_offer(const OfferList& offers, std::size_t i);

}  // namespace qosnp
