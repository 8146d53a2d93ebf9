#include "core/plan_cache.hpp"

#include <bit>
#include <functional>

#include "util/validate.hpp"

namespace qosnp {

namespace {

/// Canonical byte-string builder: numbers fixed-width little-endian, doubles
/// bit-cast, strings length-prefixed — distinct inputs yield distinct bytes
/// by construction (no hashing, no collisions).
class Fingerprint {
 public:
  explicit Fingerprint(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void u64(std::uint64_t v) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (i * 8)) & 0xff);
    out_.append(bytes, sizeof bytes);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s);
  }
  void money(Money m) { i64(m.as_micros()); }

  void qos(const MonomediaQoS& q) {
    u64(q.index());
    std::visit(
        [this](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, VideoQoS>) {
            u8(static_cast<std::uint8_t>(v.color));
            i64(v.frame_rate_fps);
            i64(v.resolution);
          } else if constexpr (std::is_same_v<T, AudioQoS>) {
            u8(static_cast<std::uint8_t>(v.quality));
          } else if constexpr (std::is_same_v<T, TextQoS>) {
            u8(static_cast<std::uint8_t>(v.language));
          } else {
            u8(static_cast<std::uint8_t>(v.color));
            i64(v.resolution);
          }
        },
        q);
  }

  void curve(const PiecewiseLinear& pl) {
    u64(pl.anchors().size());
    for (const auto& [x, y] : pl.anchors()) {
      f64(x);
      f64(y);
    }
  }

  void table(const CostTable& t) {
    u64(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      i64(t.at(i).upper_bps);
      money(t.at(i).cost_per_second);
    }
  }

 private:
  std::string& out_;
};

}  // namespace

std::string plan_config_digest(const EnumerationConfig& enumeration, const CostModel& cost_model) {
  std::string out;
  Fingerprint fp(out);
  fp.str("qosnp-plan-cfg-v1");
  fp.u64(enumeration.max_offers);
  fp.u8(static_cast<std::uint8_t>(enumeration.strategy));
  fp.table(cost_model.network_table());
  fp.table(cost_model.server_table());
  fp.f64(cost_model.best_effort_discount());
  return out;
}

std::string plan_cache_key(const DocumentId& document_id, const ClientMachine& client,
                           const UserProfile& profile, const std::string& config_digest) {
  std::string out;
  out.reserve(1024);  // one allocation: a key is under 1 KB (848 B for the test fixture)
  Fingerprint fp(out);
  fp.str("qosnp-plan-key-v1");
  fp.str(config_digest);

  // Document: the id only. Its content is vouched for by lookup(), which
  // accepts a plan only if it pins the document object the catalog holds
  // now — exact even across distinct catalogs sharing one cache.
  fp.str(document_id);

  // Client capabilities: what Step 1's local check and Step 2's decoder
  // filter read. Not the name or the node: no stored plan depends on them
  // (Step 5 reads the node per request, and terminal plans, whose Step-2
  // text names the client, are not stored).
  fp.i64(client.screen.width_px);
  fp.i64(client.screen.height_px);
  fp.u8(static_cast<std::uint8_t>(client.screen.color));
  fp.u64(client.decoders.size());
  for (CodingFormat f : client.decoders) fp.u8(static_cast<std::uint8_t>(f));
  fp.u8(static_cast<std::uint8_t>(client.max_audio));
  fp.boolean(client.has_audio_out);

  // MM profile. The profile *name* is deliberately excluded: no step reads
  // it, so "alice" and "bob" sharing one stored profile share one plan.
  const MMProfile& mm = profile.mm;
  fp.boolean(mm.video.has_value());
  if (mm.video) {
    fp.qos(MonomediaQoS{mm.video->desired});
    fp.qos(MonomediaQoS{mm.video->worst});
  }
  fp.boolean(mm.audio.has_value());
  if (mm.audio) {
    fp.qos(MonomediaQoS{mm.audio->desired});
    fp.qos(MonomediaQoS{mm.audio->worst});
  }
  fp.boolean(mm.text.has_value());
  if (mm.text) {
    fp.u8(static_cast<std::uint8_t>(mm.text->desired));
    fp.u64(mm.text->acceptable.size());
    for (Language l : mm.text->acceptable) fp.u8(static_cast<std::uint8_t>(l));
  }
  fp.boolean(mm.image.has_value());
  if (mm.image) {
    fp.qos(MonomediaQoS{mm.image->desired});
    fp.qos(MonomediaQoS{mm.image->worst});
  }
  fp.money(mm.cost.max_cost);
  fp.f64(mm.time.delivery_time_s);
  fp.f64(mm.time.choice_period_s);

  // Importance profile (all of it — every weight shifts OIF or SNS).
  const ImportanceProfile& imp = profile.importance;
  for (double w : imp.video_color) fp.f64(w);
  fp.curve(imp.frame_rate);
  fp.curve(imp.resolution);
  for (double w : imp.audio_quality) fp.f64(w);
  for (double w : imp.language) fp.f64(w);
  for (double w : imp.image_color) fp.f64(w);
  fp.curve(imp.image_resolution);
  for (double w : imp.media_weight) fp.f64(w);
  fp.f64(imp.cost_per_dollar);
  fp.u64(imp.preferred_servers.size());
  for (const std::string& s : imp.preferred_servers) fp.str(s);
  fp.f64(imp.server_bonus);

  return out;
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

NegotiationPlanCache::Shard& NegotiationPlanCache::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
}

void NegotiationPlanCache::bump(std::atomic<std::uint64_t>& internal,
                                std::atomic<Counter*>& bound, std::uint64_t delta) {
  internal.fetch_add(delta, std::memory_order_relaxed);
  if (Counter* c = bound.load(std::memory_order_acquire); c != nullptr) c->add(delta);
}

std::shared_ptr<const NegotiationPlan> NegotiationPlanCache::lookup(
    const std::string& key, const MultimediaDocument* current_document) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = shard_for(key);
  std::shared_ptr<const NegotiationPlan> plan;
  bool was_stale = false;
  {
    std::lock_guard lk(shard.mu);
    auto it = shard.index.find(std::string_view(key));
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

void NegotiationPlanCache::store(const std::string& key,
                                 std::shared_ptr<const NegotiationPlan> plan) {
  if (!plan) return;
  Shard& shard = shard_for(key);
  bool evicted = false;
  {
    std::lock_guard lk(shard.mu);
    auto it = shard.index.find(std::string_view(key));
    if (it != shard.index.end()) {
      it->second->plan = std::move(plan);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(plan)});
      shard.index.emplace(std::string_view(shard.lru.front().key), shard.lru.begin());
      if (shard.lru.size() > per_shard_capacity_) {
        shard.index.erase(std::string_view(shard.lru.back().key));
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
