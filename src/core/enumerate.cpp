#include "core/enumerate.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <utility>

#include "qosmap/mapping.hpp"
#include "util/log.hpp"

namespace qosnp {

std::size_t FeasibleSet::combination_count() const {
  if (variants.empty()) return 0;
  std::size_t count = 1;
  for (const auto& vs : variants) {
    if (vs.empty()) return 0;
    // Saturate rather than overflow for absurdly rich documents.
    if (count > (SIZE_MAX / vs.size())) return SIZE_MAX;
    count *= vs.size();
  }
  return count;
}

Result<FeasibleSet> compatible_variants(std::shared_ptr<const MultimediaDocument> document,
                                        const ClientMachine& client, const MMProfile& profile) {
  if (!document) return Err(std::string("no document"));
  FeasibleSet feasible;
  feasible.document = document;
  for (const Monomedia& m : document->monomedia) {
    if (!profile.wants(m.kind)) continue;
    std::vector<const Variant*> usable;
    for (const Variant& v : m.variants) {
      if (client.can_decode(v.format)) usable.push_back(&v);
    }
    if (usable.empty()) {
      return Err("no variant of monomedia '" + m.id +
                 "' is decodable by client '" + client.name + "'");
    }
    feasible.monomedia.push_back(&m);
    feasible.variants.push_back(std::move(usable));
  }
  if (feasible.monomedia.empty()) {
    return Err("document '" + document->id + "' offers none of the requested media");
  }
  return feasible;
}

OfferList enumerate_offers(const FeasibleSet& feasible, const MMProfile& profile,
                           const CostModel& cost_model, EnumerationConfig config) {
  OfferList list;
  list.document = feasible.document;
  list.total_combinations = feasible.combination_count();
  if (list.total_combinations == 0) return list;

  const std::size_t n = feasible.monomedia.size();
  const std::size_t emit = std::min(list.total_combinations, config.max_offers);
  list.truncated = emit < list.total_combinations;
  if (list.truncated) {
    QOSNP_LOG_WARN("enumerate", "offer space of ", list.total_combinations,
                   " combinations truncated to ", emit);
  }
  list.eager.reserve(emit);

  // Pre-map every variant's stream requirements once (combinations only
  // re-combine them).
  std::vector<std::vector<StreamRequirements>> mapped(n);
  for (std::size_t i = 0; i < n; ++i) {
    mapped[i].reserve(feasible.variants[i].size());
    for (const Variant* v : feasible.variants[i]) {
      mapped[i].push_back(map_variant(*v, feasible.monomedia[i]->duration_s, profile.time));
    }
  }

  std::vector<std::size_t> index(n, 0);
  std::vector<StreamRequirements> stream_scratch(n);
  for (std::size_t emitted = 0; emitted < emit; ++emitted) {
    SystemOffer offer;
    offer.components.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      OfferComponent c;
      c.monomedia = feasible.monomedia[i];
      c.variant = feasible.variants[i][index[i]];
      c.requirements = mapped[i][index[i]];
      stream_scratch[i] = c.requirements;
      offer.components.push_back(c);
    }
    offer.cost = cost_model.document_cost(feasible.document->copyright_cost, stream_scratch);
    list.eager.push_back(std::move(offer));

    // Mixed-radix increment.
    for (std::size_t i = n; i-- > 0;) {
      if (++index[i] < feasible.variants[i].size()) break;
      index[i] = 0;
    }
  }
  return list;
}

// ---------------------------------------------------------------------------
// Lazy best-first stream.
// ---------------------------------------------------------------------------

/// The shared, immutable Steps 3-4 precomputation behind OfferStream: the
/// per-variant memos (SNS grading, OIF contributions, stream charges) and the
/// pre-sorted per-class index lists. Built once per (feasible set, profile,
/// importance, cost model) tuple and read-only afterwards, so any
/// number of concurrent streams — including ones replayed from the plan
/// cache — can share one seed without synchronisation. Offer lists point
/// into the memo, so a seed never moves.
class OfferStreamSeed {
 public:
  OfferStreamSeed(FeasibleSet fs, MMProfile prof, ImportanceProfile imp, CostModel cm)
      : feasible(std::move(fs)), profile(std::move(prof)), importance(std::move(imp)),
        cost_model(std::move(cm)) {
    n = feasible.monomedia.size();
    total = feasible.combination_count();
    cost_only = importance.cost_per_dollar > 0.0 && !qos_matters(profile, importance);
    build_memo();
  }
  OfferStreamSeed(const OfferStreamSeed&) = delete;
  OfferStreamSeed& operator=(const OfferStreamSeed&) = delete;

  FeasibleSet feasible;
  MMProfile profile;
  ImportanceProfile importance;
  CostModel cost_model;

  std::size_t n = 0;
  /// The importance-weighted rule collapsed to cost-only grading (the user
  /// assigns zero importance to all QoS characteristics, nonzero to cost).
  bool cost_only = false;
  std::size_t total = 0;

  std::vector<std::vector<VariantMemo>> memo;  ///< [position][feasible index]

  // Per-position index lists into memo[i], each pre-sorted best-first by the
  // variant's separable OIF contribution. D = desired (and tolerated),
  // A = tolerated but not desired, T = tolerated, F = all feasible,
  // V = violating (not tolerated).
  std::vector<std::vector<std::uint32_t>> desired, accept_only, tolerated, all, violating;

 private:
  void build_memo();
  void grade(const Variant& v, VariantMemo& m) const;
};

std::shared_ptr<const OfferStreamSeed> make_offer_stream_seed(FeasibleSet feasible,
                                                              MMProfile profile,
                                                              ImportanceProfile importance,
                                                              CostModel cost_model) {
  return std::make_shared<const OfferStreamSeed>(std::move(feasible), std::move(profile),
                                                 std::move(importance), std::move(cost_model));
}

std::size_t seed_total_combinations(const OfferStreamSeed& seed) { return seed.total; }

void OfferStreamSeed::build_memo() {
  memo.resize(n);
  desired.resize(n);
  accept_only.resize(n);
  tolerated.resize(n);
  all.resize(n);
  violating.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& variants = feasible.variants[i];
    memo[i].reserve(variants.size());
    for (const Variant* v : variants) {
      VariantMemo m;
      m.variant = v;
      m.requirements = map_variant(*v, feasible.monomedia[i]->duration_s, profile.time);
      m.network = cost_model.stream_network_cost(m.requirements);
      m.server = cost_model.stream_server_cost(m.requirements);
      m.charge = m.network + m.server;
      m.importance = importance.qos_importance(v->qos);
      m.add_bonus = importance.server_bonus != 0.0 && importance.prefers_server(v->server);
      grade(*v, m);
      m.order_weight = m.importance + (m.add_bonus ? importance.server_bonus : 0.0) -
                       importance.cost_importance(m.charge);
      memo[i].push_back(std::move(m));
    }
    auto better_variant = [this, i](std::uint32_t a, std::uint32_t b) {
      const VariantMemo& ma = memo[i][a];
      const VariantMemo& mb = memo[i][b];
      if (ma.order_weight != mb.order_weight) return ma.order_weight > mb.order_weight;
      if (ma.charge != mb.charge) return ma.charge < mb.charge;
      return ma.id_rank < mb.id_rank;
    };
    // Integer ranks of the variant ids, equal ids sharing one, so the
    // stream's tie-break compares integers instead of strings.
    std::vector<std::uint32_t> by_id(memo[i].size());
    std::iota(by_id.begin(), by_id.end(), std::uint32_t{0});
    std::sort(by_id.begin(), by_id.end(), [this, i](std::uint32_t a, std::uint32_t b) {
      return memo[i][a].variant->id < memo[i][b].variant->id;
    });
    for (std::size_t r = 1; r < by_id.size(); ++r) {
      VariantMemo& m = memo[i][by_id[r]];
      const VariantMemo& before = memo[i][by_id[r - 1]];
      m.id_rank = before.id_rank + (before.variant->id == m.variant->id ? 0 : 1);
    }
    for (std::uint32_t j = 0; j < memo[i].size(); ++j) {
      const VariantMemo& m = memo[i][j];
      all[i].push_back(j);
      if (m.worst_ok) {
        tolerated[i].push_back(j);
        if (m.desired_ok) {
          desired[i].push_back(j);
        } else {
          accept_only[i].push_back(j);
        }
      } else {
        violating[i].push_back(j);
      }
    }
    std::sort(desired[i].begin(), desired[i].end(), better_variant);
    std::sort(accept_only[i].begin(), accept_only[i].end(), better_variant);
    std::sort(tolerated[i].begin(), tolerated[i].end(), better_variant);
    std::sort(all[i].begin(), all[i].end(), better_variant);
    std::sort(violating[i].begin(), violating[i].end(), better_variant);
  }
}

/// The per-medium grade compute_sns() applies too (MMProfile::grade).
void OfferStreamSeed::grade(const Variant& v, VariantMemo& m) const {
  const MMProfile::Grade g = profile.grade(v.qos);
  m.worst_ok = g.tolerated;
  // A desired-satisfying variant below the worst-acceptable floor
  // (ill-formed profile) grades CONSTRAINT, exactly like compute_sns.
  m.desired_ok = g.desired && g.tolerated;
}

namespace {

std::atomic<std::uint64_t> g_streams_constructed{0};

}  // namespace

struct OfferStream::Impl {
  /// The shared precomputation — read-only here; all mutable state below is
  /// private to this cursor.
  std::shared_ptr<const OfferStreamSeed> seed;

  std::size_t emit_cap = 0;
  std::size_t emitted = 0;
  std::size_t generated = 0;
  /// A fork's refused prefixes (null: nothing is skipped), and the memo row
  /// of the state being tested against them.
  const PrefixPruner* pruner = nullptr;
  std::vector<const VariantMemo*> row_scratch;

  /// One frontier state of a product cursor: where its per-position ranks
  /// into the cursor's lists start in the cursor's rank pool, plus the
  /// offer's *exact* final key, computed with the same operation sequence as
  /// compute_oif / document_cost so it is bit-identical to what the eager
  /// oracle sorts by.
  struct Node {
    std::size_t ranks = 0;  ///< offset into Cursor::rank_pool (n entries)
    double oif = 0.0;
    Money cost;
  };

  enum class Filter { kNone, kCostWithin, kCostOver };

  /// Best-first walk over the cartesian product of one list per position.
  struct Cursor {
    std::vector<const std::vector<std::uint32_t>*> lists;  ///< per position
    /// The ranks of every state this cursor generated, n per state, appended
    /// and never reused: a state costs no allocation of its own, and the
    /// pool is freed together with the stream.
    std::vector<std::uint32_t> rank_pool;
    Filter filter = Filter::kNone;
    std::vector<Node> heap;  ///< binary max-heap, best state on top
    std::optional<Node> staged;
    bool seeded = false;
  };

  struct ClassStream {
    Sns sns = Sns::kConstraint;
    std::vector<Cursor> cursors;  ///< disjoint sub-spaces of the class
  };

  std::vector<ClassStream> classes;
  std::size_t current_class = 0;

  // A capped stream logs nothing: it runs on the request path, and the
  // result already says so (OfferList::truncated and run_plan's problem
  // line).
  Impl(std::shared_ptr<const OfferStreamSeed> s, std::size_t max_offers) : seed(std::move(s)) {
    emit_cap = std::min(seed->total, max_offers);
    build_classes();
    g_streams_constructed.fetch_add(1, std::memory_order_relaxed);
  }

  /// A fork of `at`: the same frontier, with each cursor's rank pool
  /// compacted to the states still on it.
  Impl(const Impl& at, const PrefixPruner& p)
      : seed(at.seed), emit_cap(at.emit_cap), emitted(at.emitted), pruner(&p),
        row_scratch(at.seed->n), current_class(at.current_class) {
    const std::size_t n = seed->n;
    classes.reserve(at.classes.size());
    for (const ClassStream& from : at.classes) {
      ClassStream& to = classes.emplace_back();
      to.sns = from.sns;
      to.cursors.reserve(from.cursors.size());
      for (const Cursor& c : from.cursors) {
        Cursor& copy = to.cursors.emplace_back();
        copy.lists = c.lists;
        copy.filter = c.filter;
        copy.seeded = c.seeded;
        copy.rank_pool.reserve((c.heap.size() + (c.staged ? 1 : 0)) * n);
        auto moved = [&](Node node) {
          const auto from_at = c.rank_pool.begin() + static_cast<std::ptrdiff_t>(node.ranks);
          node.ranks = copy.rank_pool.size();
          copy.rank_pool.insert(copy.rank_pool.end(), from_at,
                                from_at + static_cast<std::ptrdiff_t>(n));
          return node;
        };
        copy.heap.reserve(c.heap.size());
        for (const Node& node : c.heap) copy.heap.push_back(moved(node));
        if (c.staged) copy.staged = moved(*c.staged);
      }
    }
    g_streams_constructed.fetch_add(1, std::memory_order_relaxed);
  }

  /// Each SNS class is a disjoint union of product sub-spaces, keyed by the
  /// first position whose variant leaves the class above it:
  ///   DESIRABLE   = D x ... x D, cost within budget
  ///   ACCEPTABLE  = D x ... x D over budget, plus for each position j the
  ///                 sub-space D.. x A_j x T.. (first non-desired at j)
  ///   CONSTRAINT  = for each j, T.. x V_j x F.. (first violation at j)
  /// Under cost-only grading: DESIRABLE = all within budget, CONSTRAINT =
  /// the rest.
  void build_classes() {
    const std::size_t n = seed->n;
    if (seed->total == 0) return;
    auto product = [this, n](const std::vector<std::vector<std::uint32_t>>& lists, Filter f) {
      Cursor c;
      c.filter = f;
      c.lists.reserve(n);
      for (std::size_t i = 0; i < n; ++i) c.lists.push_back(&lists[i]);
      return c;
    };
    if (seed->cost_only) {
      ClassStream d;
      d.sns = Sns::kDesirable;
      d.cursors.push_back(product(seed->all, Filter::kCostWithin));
      classes.push_back(std::move(d));
      ClassStream c;
      c.sns = Sns::kConstraint;
      c.cursors.push_back(product(seed->all, Filter::kCostOver));
      classes.push_back(std::move(c));
      return;
    }
    ClassStream desirable;
    desirable.sns = Sns::kDesirable;
    desirable.cursors.push_back(product(seed->desired, Filter::kCostWithin));
    classes.push_back(std::move(desirable));

    ClassStream acceptable;
    acceptable.sns = Sns::kAcceptable;
    acceptable.cursors.push_back(product(seed->desired, Filter::kCostOver));
    for (std::size_t j = 0; j < n; ++j) {
      Cursor c;
      c.lists.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        c.lists.push_back(i < j ? &seed->desired[i]
                                : i == j ? &seed->accept_only[i] : &seed->tolerated[i]);
      }
      acceptable.cursors.push_back(std::move(c));
    }
    classes.push_back(std::move(acceptable));

    ClassStream constraint;
    constraint.sns = Sns::kConstraint;
    for (std::size_t j = 0; j < n; ++j) {
      Cursor c;
      c.lists.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        c.lists.push_back(i < j ? &seed->tolerated[i]
                                : i == j ? &seed->violating[i] : &seed->all[i]);
      }
      constraint.cursors.push_back(std::move(c));
    }
    classes.push_back(std::move(constraint));
  }

  const VariantMemo& memo_at(const Cursor& c, const Node& node, std::size_t i) const {
    return seed->memo[i][(*c.lists[i])[c.rank_pool[node.ranks + i]]];
  }

  /// Score a frontier state with the offer's exact final key: the OIF is
  /// accumulated in the same order compute_oif would (component importances
  /// plus bonuses in position order, minus the cost importance of the total)
  /// and the Money total is exact integer arithmetic, so both match the
  /// materialised offer bit for bit.
  /// `ranks` is the state's offset in c.rank_pool.
  Node make_node(const Cursor& c, std::size_t ranks) {
    Node node;
    node.ranks = ranks;
    double qos_sum = 0.0;
    Money cost = seed->feasible.document->copyright_cost;
    for (std::size_t i = 0; i < seed->n; ++i) {
      const VariantMemo& m = memo_at(c, node, i);
      qos_sum += m.importance;
      if (m.add_bonus) qos_sum += seed->importance.server_bonus;
      cost += m.charge;
    }
    node.cost = cost;
    node.oif = qos_sum - seed->importance.cost_importance(cost);
    ++generated;
    return node;
  }

  /// The within-class classification order: OIF descending, then cheaper
  /// first, then variant ids (by their memoised ranks) — the same order
  /// classify_offers sorts into (the SNS key is constant inside a class
  /// stream).
  bool node_better(const Cursor& ca, const Node& a, const Cursor& cb, const Node& b) const {
    if (a.oif != b.oif) return a.oif > b.oif;
    if (a.cost != b.cost) return a.cost < b.cost;
    for (std::size_t i = 0; i < seed->n; ++i) {
      const std::uint32_t ra = memo_at(ca, a, i).id_rank;
      const std::uint32_t rb = memo_at(cb, b, i).id_rank;
      if (ra != rb) return ra < rb;
    }
    return false;
  }

  void heap_push(Cursor& c, Node node) {
    c.heap.push_back(node);
    std::push_heap(c.heap.begin(), c.heap.end(), [this, &c](const Node& a, const Node& b) {
      return node_better(c, b, c, a);  // max-heap: top is the best state
    });
  }

  Node heap_pop(Cursor& c) {
    std::pop_heap(c.heap.begin(), c.heap.end(), [this, &c](const Node& a, const Node& b) {
      return node_better(c, b, c, a);
    });
    const Node node = c.heap.back();
    c.heap.pop_back();
    return node;
  }

  /// Push the unexplored neighbours of a popped state, raising positions
  /// below `limit` only. Each state has a unique canonical predecessor
  /// (decrement its last nonzero rank), so incrementing only ranks at or
  /// after the last nonzero one generates every state exactly once — no
  /// visited-set needed.
  void expand(Cursor& c, const Node& node, std::size_t limit) {
    const std::size_t n = seed->n;
    std::size_t tail = 0;
    for (std::size_t i = n; i-- > 0;) {
      if (c.rank_pool[node.ranks + i] > 0) {
        tail = i;
        break;
      }
    }
    for (std::size_t j = tail; j < std::min(n, limit); ++j) {
      if (c.rank_pool[node.ranks + j] + 1 < c.lists[j]->size()) {
        // Copy by index: growing the pool may move the parent's ranks.
        const std::size_t next = c.rank_pool.size();
        c.rank_pool.resize(next + n);
        std::copy_n(c.rank_pool.begin() + static_cast<std::ptrdiff_t>(node.ranks), n,
                    c.rank_pool.begin() + static_cast<std::ptrdiff_t>(next));
        ++c.rank_pool[next + j];
        heap_push(c, make_node(c, next));
      }
    }
  }

  bool passes(const Cursor& c, const Node& node) const {
    switch (c.filter) {
      case Filter::kNone: return true;
      case Filter::kCostWithin: return node.cost <= seed->profile.cost.max_cost;
      case Filter::kCostOver: return node.cost > seed->profile.cost.max_cost;
    }
    return true;
  }

  /// The depth of the shortest refused prefix of a state (0: none, or no
  /// pruner).
  std::size_t refused_depth(const Cursor& c, const Node& node) {
    if (pruner == nullptr) return 0;
    for (std::size_t i = 0; i < seed->n; ++i) row_scratch[i] = &memo_at(c, node, i);
    return pruner->refused_depth(row_scratch.data());
  }

  /// Stage the cursor's next filter-passing state (filtered states still
  /// expand — their successors may pass). A refused state is dropped, and
  /// expanded only below its refused depth: the states it would reach from
  /// there share the refused prefix.
  const Node* peek(Cursor& c) {
    if (!c.seeded) {
      c.seeded = true;
      bool empty = false;
      for (const auto* list : c.lists) empty = empty || list->empty();
      if (!empty) {
        c.rank_pool.assign(seed->n, 0);
        heap_push(c, make_node(c, 0));
      }
    }
    while (!c.staged && !c.heap.empty()) {
      const Node node = heap_pop(c);
      const std::size_t refused = refused_depth(c, node);
      expand(c, node, refused == 0 ? seed->n : refused);
      if (refused == 0 && passes(c, node)) c.staged = node;
    }
    return c.staged ? &*c.staged : nullptr;
  }

  /// Pop the next offer: its key into `record`, its seed->n memo pointers
  /// appended to `row`.
  bool next(OfferRecord& record, std::vector<const VariantMemo*>& row) {
    if (emitted >= emit_cap) return false;
    while (current_class < classes.size()) {
      ClassStream& cls = classes[current_class];
      Cursor* best = nullptr;
      const Node* best_node = nullptr;
      for (Cursor& cursor : cls.cursors) {
        const Node* node = peek(cursor);
        if (node == nullptr) continue;
        if (best == nullptr || node_better(cursor, *node, *best, *best_node)) {
          best = &cursor;
          best_node = node;
        }
      }
      if (best == nullptr) {
        ++current_class;
        continue;
      }
      const Node node = *best->staged;
      best->staged.reset();
      // A prefix refused since the state was staged drops it now.
      if (refused_depth(*best, node) != 0) continue;
      record.tolerated = true;
      for (std::size_t i = 0; i < seed->n; ++i) {
        const VariantMemo& m = memo_at(*best, node, i);
        row.push_back(&m);
        record.tolerated = record.tolerated && m.worst_ok;
      }
      record.oif = node.oif;
      record.cost = node.cost;
      record.sns = cls.sns;
      ++emitted;
      return true;
    }
    return false;
  }
};

namespace {

/// Build a SystemOffer from a record and its memo row. Formula (1) is
/// assembled from the memoised per-stream charges: the same integer sums, in
/// the same order, as CostModel::document_cost.
void materialise_offer(const OfferStreamSeed& seed, const OfferRecord& record,
                       const VariantMemo* const* row, SystemOffer& offer) {
  offer.components.clear();
  offer.cost.streams.clear();
  offer.components.reserve(seed.n);
  offer.cost.streams.reserve(seed.n);
  offer.cost.copyright = seed.feasible.document->copyright_cost;
  offer.cost.total = offer.cost.copyright;
  for (std::size_t i = 0; i < seed.n; ++i) {
    const VariantMemo& m = *row[i];
    offer.components.push_back({seed.feasible.monomedia[i], m.variant, m.requirements});
    offer.cost.streams.push_back({m.network, m.server});
    offer.cost.total += m.network + m.server;
  }
  offer.oif = record.oif;
  offer.sns = record.sns;
}

}  // namespace

OfferStream::OfferStream(FeasibleSet feasible, MMProfile profile, ImportanceProfile importance,
                         CostModel cost_model, std::size_t max_offers)
    : impl_(std::make_unique<Impl>(
          make_offer_stream_seed(std::move(feasible), std::move(profile), std::move(importance),
                                 std::move(cost_model)),
          max_offers)) {}

OfferStream::OfferStream(std::shared_ptr<const OfferStreamSeed> seed, std::size_t max_offers)
    : impl_(std::make_unique<Impl>(std::move(seed), max_offers)) {}

OfferStream::OfferStream(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

std::unique_ptr<OfferStream> OfferStream::fork(const PrefixPruner& pruner) const {
  return std::unique_ptr<OfferStream>(new OfferStream(std::make_unique<Impl>(*impl_, pruner)));
}

std::uint64_t OfferStream::constructed() {
  return g_streams_constructed.load(std::memory_order_relaxed);
}

OfferStream::~OfferStream() = default;

bool OfferStream::next(OfferRecord& record, std::vector<const VariantMemo*>& row) {
  return impl_->next(record, row);
}

std::optional<SystemOffer> OfferStream::next() {
  OfferRecord record;
  std::vector<const VariantMemo*> row;
  if (!impl_->next(record, row)) return std::nullopt;
  SystemOffer offer;
  materialise_offer(*impl_->seed, record, row.data(), offer);
  return offer;
}

std::size_t OfferStream::total_combinations() const { return impl_->seed->total; }
std::size_t OfferStream::emit_limit() const { return impl_->emit_cap; }
std::size_t OfferStream::yielded() const { return impl_->emitted; }
bool OfferStream::exhausted() const { return impl_->emitted >= impl_->emit_cap; }
std::size_t OfferStream::states_generated() const { return impl_->generated; }

OfferList::OfferList(std::shared_ptr<const MultimediaDocument> doc,
                     std::shared_ptr<const OfferStreamSeed> seed, std::size_t max_offers,
                     const StreamedOffer* head)
    : document(std::move(doc)),
      total_combinations(seed->total),
      sns_ordered(true),
      streamed_(std::make_shared<StreamedOffers>()) {
  StreamedOffers& s = *streamed_;
  s.limit = std::min(seed->total, max_offers);
  truncated = s.limit < seed->total;
  s.width = seed->n;
  s.seed = std::move(seed);
  if (head == nullptr) {
    s.stream = std::make_shared<OfferStream>(s.seed, s.limit);
  } else {
    s.records.push_back(head->record);
    s.memos = head->row;
  }
}

bool OfferList::fetch_next() {
  if (!streamed_) return false;
  StreamedOffers& s = *streamed_;
  if (!s.stream && s.records.size() < s.limit) {
    // A list that started from a plan's first offer spawns its stream on
    // the first fetch past it, and skips it.
    s.stream = std::make_shared<OfferStream>(s.seed, s.limit);
    OfferRecord skipped;
    std::vector<const VariantMemo*> row;
    row.reserve(s.width);
    for (std::size_t k = 0; k < s.records.size(); ++k) {
      row.clear();
      s.stream->next(skipped, row);
    }
  }
  OfferRecord record;
  if (!s.stream || !s.stream->next(record, s.memos)) {
    s.limit = s.records.size();
    s.stream.reset();  // drained: free the frontier
    return false;
  }
  s.records.push_back(record);
  return true;
}

bool OfferList::classified_for(const MMProfile& profile) const {
  return streamed_ && streamed_->seed->profile == profile;
}

void OfferList::materialise(std::size_t i, SystemOffer& into) const {
  if (!streamed_) {
    into = eager[i];
    return;
  }
  materialise_offer(*streamed_->seed, streamed_->records[i],
                    streamed_->memos.data() + i * streamed_->width, into);
}

void OfferList::materialise(const OfferRecord& record, const VariantMemo* const* row,
                            SystemOffer& into) const {
  materialise_offer(*streamed_->seed, record, row, into);
}

std::size_t OfferList::feasible_count(std::size_t k) const {
  return streamed_->seed->feasible.variants[k].size();
}

std::unique_ptr<OfferStream> OfferList::fork(const PrefixPruner& pruner) const {
  const StreamedOffers& s = *streamed_;
  if (s.stream) return s.stream->fork(pruner);
  if (s.records.size() >= s.limit) return nullptr;
  // A list started from a plan's first offer has no stream yet: fork one
  // positioned after that offer.
  OfferStream fresh(s.seed, s.limit);
  OfferRecord skipped;
  std::vector<const VariantMemo*> row;
  for (std::size_t k = 0; k < s.records.size(); ++k) {
    row.clear();
    fresh.next(skipped, row);
  }
  return fresh.fork(pruner);
}

StreamedOffer OfferList::streamed(std::size_t i) const {
  const auto row = streamed_->memos.begin() + static_cast<std::ptrdiff_t>(i * streamed_->width);
  return {streamed_->records[i], {row, row + static_cast<std::ptrdiff_t>(streamed_->width)}};
}

SystemOffer OfferList::offer(std::size_t i) const {
  SystemOffer out;
  materialise(i, out);
  return out;
}

}  // namespace qosnp
