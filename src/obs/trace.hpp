// Per-request negotiation traces: one span per pipeline stage a request
// actually executed, with monotonic timestamps relative to the trace's
// birth. The span taxonomy maps onto the paper's procedure — queue wait
// (service front-end), Step 1 local check, Step 2 compatibility, Steps 3-4
// enumeration/classification, Step 5 commitment walk with one child span
// per offer-level commit attempt (refusal component, attempt count and
// backoff history in the attributes), Step 6 admission.
//
// Tracing is carried through the pipeline by an explicit TraceContext value
// (no thread-locals in the hot path): an inactive context makes every
// operation a no-op, so the untraced path costs two pointer-sized copies
// per call and nothing else. A trace is built by exactly one worker at a
// time and is immutable once handed to a TraceSink, so the trace itself
// needs no locking. A trace allocates where it is created: its spans and
// their attributes live in storage reserved up front, so the worker filling
// it in makes no heap allocations of its own for a typical request, and the
// traces a sink retains do not pin small blocks among the worker's
// per-request allocations.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <string>
#include <string_view>
#include <vector>

namespace qosnp {

/// Pipeline stages a span can cover, in pipeline order. kCommitAttempt is
/// the only stage that may appear more than once per trace (one span per
/// offer the Step-5 walk tried).
enum class Stage : std::uint8_t {
  kQueueWait,      ///< service queue: accepted -> worker pickup (or shed)
  kPlanCache,      ///< plan-cache lookup (hit=true/false attribute)
  kLocalCheck,     ///< Step 1: static local negotiation
  kCompatibility,  ///< Step 2: static compatibility checking
  kEnumeration,    ///< Steps 3-4: offer-space build + classification
  kCommitWalk,     ///< Step 5: the best-to-worst commitment walk
  kCommitAttempt,  ///< one offer-level commit (child of kCommitWalk)
  kAdmission,      ///< Step 6: session open + confirmation
  kPreemption,     ///< policy: degrading/releasing victims for an admit
  kUpgrade,        ///< policy: promoting a session to a better offer
};

inline constexpr std::size_t kStageCount = 10;

std::string_view to_string(Stage stage);

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0xffffffffu;

/// A span attribute key: a compile-time string (the consteval constructor
/// rejects anything else), so spans store keys by view, without copying.
class AttrKey {
 public:
  consteval AttrKey(const char* key) : key_(key) {}  // implicit: annotate(id, "key", ...)
  std::string_view view() const { return key_; }

 private:
  std::string_view key_;
};

struct SpanAttr {
  std::string_view key;
  std::string value;
};

struct Span {
  Stage stage = Stage::kQueueWait;
  SpanId parent = kNoSpan;
  double start_ms = 0.0;
  double end_ms = -1.0;  ///< -1 while the span is open
  std::pmr::vector<SpanAttr> attrs;  ///< from the owning trace's storage

  bool closed() const { return end_ms >= 0.0; }
  /// First value recorded under `key`, or an empty view.
  std::string_view attr(std::string_view key) const;
  bool has_attr(std::string_view key) const;
};

/// The trace of one negotiation request. Spans are appended in begin order;
/// timestamps come from a steady clock and are relative to construction, so
/// they are monotone within the trace by construction.
class NegotiationTrace {
 public:
  /// `birth` may lie in the past, so a span can open at the instant its
  /// request arrived.
  explicit NegotiationTrace(
      std::uint64_t request_id = 0,
      std::chrono::steady_clock::time_point birth = std::chrono::steady_clock::now());
  // Spans allocate their attributes from attr_memory_, which cannot move.
  NegotiationTrace(const NegotiationTrace&) = delete;
  NegotiationTrace& operator=(const NegotiationTrace&) = delete;

  std::uint64_t request_id() const { return request_id_; }

  /// Final figures stamped by whoever resolves the request (the service),
  /// so a sink's stored traces are self-describing.
  void set_verdict(std::string verdict) { verdict_ = std::move(verdict); }
  const std::string& verdict() const { return verdict_; }
  void set_shed(std::string shed) { shed_ = std::move(shed); }
  const std::string& shed() const { return shed_; }

  /// Milliseconds since the trace was created (monotonic).
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - birth_)
        .count();
  }

  SpanId begin_span(Stage stage, SpanId parent = kNoSpan) {
    return begin_span_at(stage, now_ms(), parent);
  }
  /// Open a span that began `start_ms` after the trace was born.
  SpanId begin_span_at(Stage stage, double start_ms, SpanId parent = kNoSpan);
  void end_span(SpanId id);
  void annotate(SpanId id, AttrKey key, std::string value);
  void annotate(SpanId id, AttrKey key, double value);
  void annotate(SpanId id, AttrKey key, std::uint64_t value);

  const std::vector<Span>& spans() const { return spans_; }
  /// Number of spans of one stage.
  std::size_t count(Stage stage) const;
  /// First span of a stage, or nullptr.
  const Span* find(Stage stage) const;

  /// Single-line JSON rendering (the JSONL file sink writes one per trace).
  std::string to_json() const;

 private:
  std::uint64_t request_id_ = 0;
  std::string verdict_;
  std::string shed_;
  std::chrono::steady_clock::time_point birth_;
  // Room for the attributes of a full pipeline; a trace that outgrows it
  // (many refused commit attempts) continues on the heap.
  alignas(std::max_align_t) std::byte attr_buffer_[2048];
  std::pmr::monotonic_buffer_resource attr_memory_{attr_buffer_, sizeof attr_buffer_};
  std::vector<Span> spans_;
};

/// The explicit context value threaded through QoSManager, the resource
/// committer, the offer walk and the service workers. Copy it freely; an
/// inactive (default) context turns every span/annotation into a no-op.
class TraceContext {
 public:
  TraceContext() = default;
  explicit TraceContext(NegotiationTrace* trace, SpanId parent = kNoSpan)
      : trace_(trace), parent_(parent) {}

  bool active() const { return trace_ != nullptr; }
  NegotiationTrace* trace() const { return trace_; }
  SpanId parent() const { return parent_; }

  /// Annotate the span this context is parented at (no-op when inactive or
  /// unparented). Lets a callee attach findings — e.g. the committer's
  /// refusal component — to its caller's span without a side channel.
  void annotate(AttrKey key, std::string value) const {
    if (trace_ != nullptr && parent_ != kNoSpan) trace_->annotate(parent_, key, std::move(value));
  }
  void annotate(AttrKey key, double value) const {
    if (trace_ != nullptr && parent_ != kNoSpan) trace_->annotate(parent_, key, value);
  }
  void annotate(AttrKey key, std::uint64_t value) const {
    if (trace_ != nullptr && parent_ != kNoSpan) trace_->annotate(parent_, key, value);
  }

 private:
  NegotiationTrace* trace_ = nullptr;
  SpanId parent_ = kNoSpan;
};

/// RAII span: begins on construction (no-op on an inactive context), ends on
/// destruction or an explicit end(). context() yields the child context for
/// work nested under this span.
class ScopedSpan {
 public:
  ScopedSpan(const TraceContext& ctx, Stage stage) : trace_(ctx.trace()) {
    if (trace_ != nullptr) id_ = trace_->begin_span(stage, ctx.parent());
  }
  ~ScopedSpan() { end(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return trace_ != nullptr; }
  SpanId id() const { return id_; }
  TraceContext context() const { return TraceContext(trace_, id_); }

  void annotate(AttrKey key, std::string value) {
    if (trace_ != nullptr) trace_->annotate(id_, key, std::move(value));
  }
  void annotate(AttrKey key, double value) {
    if (trace_ != nullptr) trace_->annotate(id_, key, value);
  }
  void annotate(AttrKey key, std::uint64_t value) {
    if (trace_ != nullptr) trace_->annotate(id_, key, value);
  }

  void end() {
    if (trace_ != nullptr && !ended_) {
      trace_->end_span(id_);
      ended_ = true;
    }
  }

 private:
  NegotiationTrace* trace_ = nullptr;
  SpanId id_ = kNoSpan;
  bool ended_ = false;
};

}  // namespace qosnp
