// Result<T, E>: lightweight expected-style return channel. Negotiation and
// admission-control paths are hot and failure is an ordinary outcome (a
// rejected reservation is not exceptional), so errors travel by value.
#pragma once

#include <cassert>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace qosnp {

template <typename E>
class Err {
 public:
  explicit Err(E error) : error_(std::move(error)) {}
  E& get() { return error_; }
  const E& get() const { return error_; }

 private:
  E error_;
};

template <typename E>
Err(E) -> Err<E>;
Err(const char*) -> Err<std::string>;

template <typename T, typename E = std::string>
class Result {
 public:
  Result(T value) : storage_(std::in_place_index<0>, std::move(value)) {}
  Result(Err<E> error) : storage_(std::in_place_index<1>, std::move(error.get())) {}

  bool ok() const { return storage_.index() == 0; }
  explicit operator bool() const { return ok(); }

  T& value() {
    assert(ok());
    return std::get<0>(storage_);
  }
  const T& value() const {
    assert(ok());
    return std::get<0>(storage_);
  }
  E& error() {
    assert(!ok());
    return std::get<1>(storage_);
  }
  const E& error() const {
    assert(!ok());
    return std::get<1>(storage_);
  }

  T value_or(T fallback) const { return ok() ? std::get<0>(storage_) : std::move(fallback); }

 private:
  std::variant<T, E> storage_;
};

/// A refusal from an admission-control surface (media-server admission,
/// transport reservation, resource commitment). Carries, besides the
/// human-readable message, whether the refusal is *transient* — the resource
/// exists but cannot serve the request right now (capacity exhausted, server
/// momentarily down, injected fault), so a retry after backoff may succeed —
/// or *permanent* — the request can never be honoured as stated (unknown
/// server, no route, non-positive rate), so retrying is pointless. The
/// commitment walk (paper Step 5) uses the flag to retry only what is worth
/// retrying and to return FAILEDTRYLATER only when retries were truly
/// exhausted.
///
/// `component` names who refused — a server id ("server-a"), the transport
/// ("transport"), a multi-domain segment, or a fault decorator
/// ("fault:server-a") — so negotiation traces can attribute every failed
/// commit attempt end-to-end without parsing messages or side channels.
struct Refusal {
  std::string message;
  bool transient = true;
  std::string component;

  /// "component: message" — the rendering logs and problem lists use.
  std::string describe() const {
    return component.empty() ? message : component + ": " + message;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Refusal& refusal) {
  return os << refusal.describe();
}

inline Err<Refusal> transient_refusal(std::string component, std::string message) {
  return Err(Refusal{std::move(message), /*transient=*/true, std::move(component)});
}

inline Err<Refusal> permanent_refusal(std::string component, std::string message) {
  return Err(Refusal{std::move(message), /*transient=*/false, std::move(component)});
}

}  // namespace qosnp
