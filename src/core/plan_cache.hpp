// Cross-request negotiation plan cache. Steps 1-4 of the paper's procedure
// (local check, compatibility filtering, classification-parameter
// computation, offer ordering) depend only on the document, the client
// capabilities and the user profile — never on server or transport state —
// so their outcome can be computed once and replayed for every later request
// with the same (document, client capabilities, profile). Step 5 (resource
// commitment) depends on live resources and always runs per request.
//
// A cached NegotiationPlan holds the Step 1-4 outcome of a request that
// passed Steps 1-2: either the shared OfferStream seed (the surviving
// variant sets, memoised per-variant SNS/OIF contributions and pre-sorted
// class lists) with the first offer a stream over it yields, or the eager
// classified offer-list prototype. A replay starts its list from that first
// offer and spawns a cursor over the seed only to read further. Invalidation
// is by identity: a plan pins the document object it was built from, and a
// lookup whose catalog now holds a different object for that id drops the
// entry (counted as stale).
//
// A plan is keyed on the request's own values: the document id, the
// client's capabilities, the profile and the manager's enumeration config
// and cost model. A lookup hashes a few of them to pick a shard and a bucket
// and compares all of them with ==, so it builds no key; only store() copies
// them into the entry.
//
// The cache is sharded-LRU: keys hash to a shard, each shard is an
// independent mutex + LRU list, so concurrent service workers contend only
// when they hit the same shard. Counters are internal atomics, optionally
// mirrored into a MetricsRegistry (qosnp_plan_cache_{hits,misses,evictions,
// stale}) via bind_metrics().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "client/client_machine.hpp"
#include "core/enumerate.hpp"
#include "core/offer.hpp"
#include "cost/cost_model.hpp"
#include "document/model.hpp"
#include "obs/metrics.hpp"
#include "profile/profiles.hpp"

namespace qosnp {

/// Plan-cache sizing. Validated through the same require_config path as
/// ServiceConfig — a zero-capacity cache throws std::invalid_argument at
/// construction.
struct CachePolicy {
  /// Total cached plans across all kPlanCacheShards shards (each shard holds
  /// its share, rounded up, and evicts least-recently-used beyond it).
  std::size_t capacity = 1024;

  /// Throws std::invalid_argument when unusable (zero capacity).
  static CachePolicy validated(CachePolicy policy);
};

/// Independent LRU shards of every plan cache (each its own mutex); keys
/// hash to a shard.
inline constexpr std::size_t kPlanCacheShards = 8;

/// Monotone counters of one cache's lifetime. Conservation law:
/// lookups == hits + misses, and every stale drop also counts as a miss
/// (stale <= misses).
struct PlanCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale = 0;  ///< dropped on lookup: its document is no longer the catalog's
  std::uint64_t evictions = 0;
  std::uint64_t stores = 0;
};

/// The cached Step 1-4 outcome for one (document, client, profile,
/// manager-config) key. Immutable once stored; shared read-only by every
/// replaying request.
struct NegotiationPlan {
  /// The document the plan was built from. Catalogs never mutate a stored
  /// document, so the plan is valid exactly while its catalog still returns
  /// this object; pinning it also keeps its address from being reused while
  /// the plan is cached.
  std::shared_ptr<const MultimediaDocument> document;

  /// kBestFirst: the shared stream seed (it holds Step 2's feasible
  /// variant sets); a replay spawns a fresh cursor when it needs one.
  std::shared_ptr<const OfferStreamSeed> seed;
  /// kBestFirst: the first offer a stream over `seed` yields, read off the
  /// walk of the miss that built the plan. A replay's list starts from it.
  std::optional<StreamedOffer> head;
  /// kEager: the fully classified offer-list prototype. A cache replay
  /// copies it; an uncached negotiation owns its plan exclusively and moves
  /// it out instead (hence not pointer-to-const).
  std::shared_ptr<OfferList> eager;
};

class NegotiationPlanCache {
 public:
  explicit NegotiationPlanCache(CachePolicy policy = {});

  NegotiationPlanCache(const NegotiationPlanCache&) = delete;
  NegotiationPlanCache& operator=(const NegotiationPlanCache&) = delete;

  /// Look up the plan stored for this request: the document id, the
  /// client's capabilities (not its name or node), the profile's MM and
  /// importance parts (not its name) and the manager's enumeration config
  /// and cost model must all equal the stored ones. The plan is valid only
  /// if it was built from `current_document` (the object the catalog holds
  /// now); a matching plan built from any other object is dropped (counted
  /// stale + miss). Allocates nothing.
  std::shared_ptr<const NegotiationPlan> lookup(const DocumentId& document,
                                                const ClientMachine& client,
                                                const UserProfile& profile,
                                                const EnumerationConfig& enumeration,
                                                const CostModel& cost_model,
                                                const MultimediaDocument* current_document);

  /// Insert (or replace) the plan for these values, copying them into the
  /// entry; evicts the shard's least-recently-used entry beyond its
  /// capacity share.
  void store(const DocumentId& document, const ClientMachine& client, const UserProfile& profile,
             const EnumerationConfig& enumeration, const CostModel& cost_model,
             std::shared_ptr<const NegotiationPlan> plan);

  /// Drop every cached plan (counters keep their values).
  void clear();

  std::size_t size() const;
  const CachePolicy& policy() const { return policy_; }
  PlanCacheStats stats() const;

  /// Mirror the counters into `metrics` as qosnp_plan_cache_{hits,misses,
  /// evictions,stale}: the current totals are added at bind time and every
  /// later increment is forwarded, so registry and internal counters agree.
  /// Re-binding the same registry is a no-op; binding a new registry moves
  /// the mirror (last bind wins).
  void bind_metrics(MetricsRegistry& metrics);

 private:
  /// One cached plan and the values it was built for (its key).
  struct Entry {
    std::uint64_t hash = 0;
    DocumentId document;
    ScreenSpec screen;
    std::vector<CodingFormat> decoders;
    AudioQuality max_audio = AudioQuality::kCD;
    bool has_audio_out = true;
    MMProfile mm;
    ImportanceProfile importance;
    EnumerationConfig enumeration;
    CostModel cost_model;
    std::shared_ptr<const NegotiationPlan> plan;

    bool matches(const DocumentId& document, const ClientMachine& client,
                 const UserProfile& profile, const EnumerationConfig& enumeration,
                 const CostModel& cost_model) const;
  };
  using Lru = std::list<Entry>;
  /// Entries by plan_hash; entries whose hashes collide share a key.
  using Index = std::unordered_multimap<std::uint64_t, Lru::iterator>;
  struct Shard {
    mutable std::mutex mu;
    Lru lru;  ///< front = most recently used
    Index index;

    /// The index slot of the entry matching these values, or index.end().
    Index::iterator find(std::uint64_t hash, const DocumentId& document,
                         const ClientMachine& client, const UserProfile& profile,
                         const EnumerationConfig& enumeration, const CostModel& cost_model);
  };

  Shard& shard_for(std::uint64_t hash) { return *shards_[hash % shards_.size()]; }
  void bump(std::atomic<std::uint64_t>& internal, std::atomic<Counter*>& bound,
            std::uint64_t delta = 1);

  CachePolicy policy_;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> lookups_{0}, hits_{0}, misses_{0}, stale_{0}, evictions_{0},
      stores_{0};

  std::mutex bind_mu_;
  MetricsRegistry* bound_registry_ = nullptr;  ///< guarded by bind_mu_
  std::atomic<Counter*> hits_metric_{nullptr};
  std::atomic<Counter*> misses_metric_{nullptr};
  std::atomic<Counter*> evictions_metric_{nullptr};
  std::atomic<Counter*> stale_metric_{nullptr};
};

/// The hash a plan is sharded and bucketed by: the document id and a fixed
/// handful of integer fields of the client, the MM profile and the
/// enumeration config. Equal values hash equal (no floating-point field
/// enters it, so +0 and -0 cannot split); values that differ only elsewhere
/// share a hash and are told apart by ==.
std::uint64_t plan_hash(const DocumentId& document, const ClientMachine& client,
                        const MMProfile& mm, const EnumerationConfig& enumeration);

}  // namespace qosnp
