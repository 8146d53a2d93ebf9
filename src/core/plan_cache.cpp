#include "core/plan_cache.hpp"

#include <functional>
#include <iterator>
#include <string_view>

#include "util/validate.hpp"

namespace qosnp {

std::uint64_t plan_hash(const DocumentId& document, const ClientMachine& client,
                        const MMProfile& mm, const EnumerationConfig& enumeration) {
  std::uint64_t h = std::hash<std::string_view>{}(document);
  const auto add = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  };
  add(static_cast<std::uint32_t>(client.screen.width_px) |
      std::uint64_t{static_cast<std::uint32_t>(client.screen.height_px)} << 32);
  const std::uint64_t media = (mm.video ? 1 : 0) | (mm.audio ? 2 : 0) | (mm.text ? 4 : 0) |
                              (mm.image ? 8 : 0);
  add(static_cast<std::uint64_t>(client.screen.color) | client.decoders.size() << 8 |
      static_cast<std::uint64_t>(client.max_audio) << 24 |
      std::uint64_t{client.has_audio_out} << 32 | media << 40 |
      static_cast<std::uint64_t>(enumeration.strategy) << 48);
  add(static_cast<std::uint64_t>(mm.cost.max_cost.as_micros()));
  add(enumeration.max_offers);
  return h;
}

bool NegotiationPlanCache::Entry::matches(const DocumentId& document_id,
                                          const ClientMachine& client, const UserProfile& profile,
                                          const EnumerationConfig& enumeration_config,
                                          const CostModel& costs) const {
  return document == document_id && screen == client.screen && max_audio == client.max_audio &&
         has_audio_out == client.has_audio_out && decoders == client.decoders &&
         enumeration == enumeration_config && mm == profile.mm &&
         importance == profile.importance && cost_model == costs;
}

NegotiationPlanCache::Index::iterator NegotiationPlanCache::Shard::find(
    std::uint64_t hash, const DocumentId& document, const ClientMachine& client,
    const UserProfile& profile, const EnumerationConfig& enumeration,
    const CostModel& cost_model) {
  auto [it, last] = index.equal_range(hash);
  while (it != last && !it->second->matches(document, client, profile, enumeration, cost_model)) {
    ++it;
  }
  return it == last ? index.end() : it;
}

CachePolicy CachePolicy::validated(CachePolicy policy) {
  require_config(policy.capacity > 0, "CachePolicy", "capacity must be at least 1");
  return policy;
}

NegotiationPlanCache::NegotiationPlanCache(CachePolicy policy)
    : policy_(CachePolicy::validated(policy)) {
  per_shard_capacity_ = (policy_.capacity + kPlanCacheShards - 1) / kPlanCacheShards;
  shards_.reserve(kPlanCacheShards);
  for (std::size_t i = 0; i < kPlanCacheShards; ++i) shards_.push_back(std::make_unique<Shard>());
}

void NegotiationPlanCache::bump(std::atomic<std::uint64_t>& internal,
                                std::atomic<Counter*>& bound, std::uint64_t delta) {
  internal.fetch_add(delta, std::memory_order_relaxed);
  if (Counter* c = bound.load(std::memory_order_acquire); c != nullptr) c->add(delta);
}

std::shared_ptr<const NegotiationPlan> NegotiationPlanCache::lookup(
    const DocumentId& document, const ClientMachine& client, const UserProfile& profile,
    const EnumerationConfig& enumeration, const CostModel& cost_model,
    const MultimediaDocument* current_document) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t hash = plan_hash(document, client, profile.mm, enumeration);
  Shard& shard = shard_for(hash);
  std::shared_ptr<const NegotiationPlan> plan;
  bool was_stale = false;
  {
    std::lock_guard lk(shard.mu);
    auto it = shard.find(hash, document, client, profile, enumeration, cost_model);
    if (it != shard.index.end()) {
      if (it->second->plan->document.get() == current_document) {
        // Refresh recency and answer from cache.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        plan = it->second->plan;
      } else {
        // The plan pins another document object (the catalog replaced it,
        // or another catalog sharing this cache stored the plan): drop it.
        // A stale lookup is also a miss (the caller recomputes), so the
        // conservation law lookups == hits + misses still holds.
        was_stale = true;
        shard.lru.erase(it->second);
        shard.index.erase(it);
      }
    }
  }
  if (plan) {
    bump(hits_, hits_metric_);
  } else {
    if (was_stale) bump(stale_, stale_metric_);
    bump(misses_, misses_metric_);
  }
  return plan;
}

void NegotiationPlanCache::store(const DocumentId& document, const ClientMachine& client,
                                 const UserProfile& profile, const EnumerationConfig& enumeration,
                                 const CostModel& cost_model,
                                 std::shared_ptr<const NegotiationPlan> plan) {
  if (!plan) return;
  const std::uint64_t hash = plan_hash(document, client, profile.mm, enumeration);
  Shard& shard = shard_for(hash);
  bool evicted = false;
  {
    std::lock_guard lk(shard.mu);
    auto it = shard.find(hash, document, client, profile, enumeration, cost_model);
    if (it != shard.index.end()) {
      it->second->plan = std::move(plan);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{hash, document, client.screen, client.decoders, client.max_audio,
                                 client.has_audio_out, profile.mm, profile.importance,
                                 enumeration, cost_model, std::move(plan)});
      shard.index.emplace(hash, shard.lru.begin());
      if (shard.lru.size() > per_shard_capacity_) {
        const auto oldest = std::prev(shard.lru.end());
        auto slot = shard.index.find(oldest->hash);  // first of its hash's run
        while (slot->second != oldest) ++slot;
        shard.index.erase(slot);
        shard.lru.pop_back();
        evicted = true;
      }
    }
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  if (evicted) bump(evictions_, evictions_metric_);
}

void NegotiationPlanCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lk(shard->mu);
    shard->index.clear();
    shard->lru.clear();
  }
}

std::size_t NegotiationPlanCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lk(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

PlanCacheStats NegotiationPlanCache::stats() const {
  PlanCacheStats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stale = stale_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  return s;
}

void NegotiationPlanCache::bind_metrics(MetricsRegistry& metrics) {
  std::lock_guard lk(bind_mu_);
  if (bound_registry_ == &metrics) return;
  bound_registry_ = &metrics;
  Counter& hits = metrics.counter("qosnp_plan_cache_hits", {},
                                  "Plan-cache lookups answered from the cache");
  Counter& misses =
      metrics.counter("qosnp_plan_cache_misses", {},
                      "Plan-cache lookups that had to compute a fresh plan (stale included)");
  Counter& evictions = metrics.counter("qosnp_plan_cache_evictions", {},
                                       "Cached plans evicted by LRU capacity pressure");
  Counter& stale =
      metrics.counter("qosnp_plan_cache_stale", {},
                      "Cached plans dropped on lookup because the catalog no longer holds their "
                      "document");
  // Catch up to the current totals, then forward every later increment, so
  // the registry and the internal counters agree from here on.
  hits.add(hits_.load(std::memory_order_relaxed));
  misses.add(misses_.load(std::memory_order_relaxed));
  evictions.add(evictions_.load(std::memory_order_relaxed));
  stale.add(stale_.load(std::memory_order_relaxed));
  hits_metric_.store(&hits, std::memory_order_release);
  misses_metric_.store(&misses, std::memory_order_release);
  evictions_metric_.store(&evictions, std::memory_order_release);
  stale_metric_.store(&stale, std::memory_order_release);
}

}  // namespace qosnp
