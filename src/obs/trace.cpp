#include "obs/trace.hpp"

#include <cmath>
#include <cstdio>

namespace qosnp {

std::string_view to_string(Stage stage) {
  switch (stage) {
    case Stage::kQueueWait: return "queue-wait";
    case Stage::kPlanCache: return "plan-cache";
    case Stage::kLocalCheck: return "local-check";
    case Stage::kCompatibility: return "compatibility";
    case Stage::kEnumeration: return "enumeration";
    case Stage::kCommitWalk: return "commit-walk";
    case Stage::kCommitAttempt: return "commit-attempt";
    case Stage::kAdmission: return "admission";
    case Stage::kPreemption: return "preemption";
    case Stage::kUpgrade: return "upgrade";
  }
  return "?";
}

std::string_view Span::attr(std::string_view key) const {
  for (const SpanAttr& a : attrs) {
    if (a.key == key) return a.value;
  }
  return {};
}

bool Span::has_attr(std::string_view key) const {
  for (const SpanAttr& a : attrs) {
    if (a.key == key) return true;
  }
  return false;
}

NegotiationTrace::NegotiationTrace(std::uint64_t request_id,
                                   std::chrono::steady_clock::time_point birth)
    : request_id_(request_id), birth_(birth) {
  spans_.reserve(8);  // the common full pipeline
}

SpanId NegotiationTrace::begin_span_at(Stage stage, double start_ms, SpanId parent) {
  Span span{.attrs = std::pmr::vector<SpanAttr>(&attr_memory_)};
  span.stage = stage;
  span.parent = parent;
  span.start_ms = start_ms;
  spans_.push_back(std::move(span));
  return static_cast<SpanId>(spans_.size() - 1);
}

void NegotiationTrace::end_span(SpanId id) {
  if (id >= spans_.size()) return;
  Span& span = spans_[id];
  if (!span.closed()) span.end_ms = now_ms();
}

void NegotiationTrace::annotate(SpanId id, AttrKey key, std::string value) {
  if (id >= spans_.size()) return;
  std::pmr::vector<SpanAttr>& attrs = spans_[id].attrs;
  if (attrs.empty()) attrs.reserve(6);  // a commit attempt's full set
  attrs.push_back({key.view(), std::move(value)});
}

namespace {

// snprintf, not ostringstream: numeric annotations sit on the traced hot
// path, and a stream construction per attribute costs more than the whole
// span it decorates.
std::string format_double(double value) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%g", value);
  return std::string(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
}

}  // namespace

void NegotiationTrace::annotate(SpanId id, AttrKey key, double value) {
  annotate(id, key, format_double(value));
}

void NegotiationTrace::annotate(SpanId id, AttrKey key, std::uint64_t value) {
  annotate(id, key, std::to_string(value));
}

std::size_t NegotiationTrace::count(Stage stage) const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (s.stage == stage) ++n;
  }
  return n;
}

const Span* NegotiationTrace::find(Stage stage) const {
  for (const Span& s : spans_) {
    if (s.stage == stage) return &s;
  }
  return nullptr;
}

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  out += format_double(v);
}

}  // namespace

std::string NegotiationTrace::to_json() const {
  std::string out;
  out.reserve(128 + spans_.size() * 96);
  out += "{\"request_id\":" + std::to_string(request_id_);
  out += ",\"verdict\":";
  append_json_string(out, verdict_);
  out += ",\"shed\":";
  append_json_string(out, shed_);
  out += ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ',';
    out += "{\"stage\":";
    append_json_string(out, to_string(s.stage));
    out += ",\"parent\":";
    out += s.parent == kNoSpan ? "-1" : std::to_string(s.parent);
    out += ",\"start_ms\":";
    append_json_number(out, s.start_ms);
    out += ",\"end_ms\":";
    append_json_number(out, s.end_ms);
    if (!s.attrs.empty()) {
      out += ",\"attrs\":{";
      for (std::size_t a = 0; a < s.attrs.size(); ++a) {
        if (a > 0) out += ',';
        append_json_string(out, s.attrs[a].key);
        out += ':';
        append_json_string(out, s.attrs[a].value);
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace qosnp
