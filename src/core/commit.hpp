// Resource commitment (paper Step 5): given a system offer, reserve the
// resources supporting it — a disk-bandwidth stream on the server storing
// each chosen variant plus a network flow from that server to the client —
// atomically: if any reservation is refused, everything already reserved
// for the offer is rolled back (RAII handles unwind automatically).
//
// Servers and the transport refuse for two very different reasons, and the
// committer distinguishes them (Refusal::transient): a *transient* refusal
// (capacity exhausted right now, a momentary outage, an injected fault from
// src/fault) is worth retrying under the RetryPolicy before the commitment
// walk falls through to a worse offer; a *permanent* refusal (unknown
// server, no route) never is. FAILEDTRYLATER is therefore only reported
// when retries were truly exhausted.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "client/client_machine.hpp"
#include "core/offer.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "server/media_server.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace qosnp {

/// How the committer retries transiently-refused offers. The default is one
/// attempt — exactly the historical first-refusal-moves-on behaviour. Only
/// the attempt cap is settable; the backoff schedule is fixed.
struct RetryPolicy {
  /// Total tries per offer, first one included (1 = no retries).
  int max_attempts = 1;

  /// Deterministic exponential schedule: the k-th retry (k = 0, 1, ...)
  /// backs off kBaseBackoffMs * kBackoffMultiplier^k, capped at kMaxBackoffMs.
  static constexpr double kBaseBackoffMs = 5.0;
  static constexpr double kBackoffMultiplier = 2.0;
  static constexpr double kMaxBackoffMs = 500.0;
  /// Jitter fraction f: the waited delay is drawn uniformly from
  /// [b_k * (1 - f), b_k * (1 + f)] around the deterministic schedule b_k.
  static constexpr double kJitter = 0.1;
  /// Seed of each committer's jitter stream, so delays are reproducible.
  static constexpr std::uint64_t kJitterSeed = 0x51ab5eedULL;

  /// The deterministic (un-jittered) schedule; monotone non-decreasing.
  static double backoff_ms(int retry_index) {
    double b = kBaseBackoffMs;
    for (int k = 0; k < retry_index && b < kMaxBackoffMs; ++k) b *= kBackoffMultiplier;
    return std::min(b, kMaxBackoffMs);
  }

  /// The schedule with jitter applied from the given stream.
  static double jittered_backoff_ms(int retry_index, Rng& rng) {
    const double b = backoff_ms(retry_index);
    return rng.uniform(b * (1.0 - kJitter), b * (1.0 + kJitter));
  }
};

/// Effort counters of the commitment walk, surfaced on Commitment,
/// CommitAttempt and NegotiationResult so tests and sim/metrics can assert
/// retry effectiveness and that failed commits leak nothing.
struct CommitStats {
  int attempts = 0;             ///< offer-level commit tries, first included
  int retries = 0;              ///< tries beyond the first per offer
  int transient_failures = 0;   ///< transient refusals observed
  int permanent_failures = 0;   ///< permanent refusals observed
  int released_on_failure = 0;  ///< reservations rolled back by failed tries
  double backoff_ms = 0.0;      ///< total (virtual) backoff waited

  void merge(const CommitStats& other) {
    attempts += other.attempts;
    retries += other.retries;
    transient_failures += other.transient_failures;
    permanent_failures += other.permanent_failures;
    released_on_failure += other.released_on_failure;
    backoff_ms += other.backoff_ms;
  }
};

/// The reservations backing one committed system offer. Move-only RAII:
/// destroying a Commitment releases every reservation (this is also what
/// implements Step 6's "resources reserved for the system offer are
/// de-allocated" on rejection/timeout).
class Commitment {
 public:
  Commitment() = default;
  Commitment(Commitment&&) = default;
  Commitment& operator=(Commitment&&) = default;

  bool empty() const { return streams_.empty() && flows_.empty(); }
  std::size_t stream_count() const { return streams_.size(); }
  std::size_t flow_count() const { return flows_.size(); }

  /// Flow ids held (the violation signal from the transport names flows).
  std::vector<FlowId> flow_ids() const;
  /// (server, stream) pairs held.
  std::vector<std::pair<const StreamServer*, StreamId>> stream_ids() const;

  /// What committing this offer cost (attempts, retries, backoff).
  const CommitStats& stats() const { return stats_; }

  /// Release everything now.
  void release();

 private:
  friend class ResourceCommitter;
  std::vector<ScopedStream> streams_;
  std::vector<ScopedFlow> flows_;
  CommitStats stats_;
};

/// How a refused try reads on its attempt span: the refusal's description
/// and whether it was transient.
std::string refusal_trace_text(const Refusal& refusal);

class ResourceCommitter {
 public:
  /// `session_class` is stamped onto every StreamRequirements this committer
  /// presents to the servers and the transport, so headroom-differentiated
  /// admission sees who is asking. The default class with zero headroom is
  /// byte-identical to the class-blind behaviour.
  ResourceCommitter(ServerProvider& farm, TransportProvider& transport, RetryPolicy retry = {},
                    SessionClass session_class = SessionClass::kStandard)
      : farm_(&farm), transport_(&transport), retry_(retry), jitter_rng_(RetryPolicy::kJitterSeed),
        session_class_(session_class) {}
  virtual ~ResourceCommitter() = default;
  ResourceCommitter(const ResourceCommitter&) = delete;
  ResourceCommitter& operator=(const ResourceCommitter&) = delete;

  /// Try to reserve all resources of `offer` for delivery to `client`,
  /// retrying transient refusals under the retry policy. The returned
  /// refusal keeps the transient flag of the last failure, so callers know
  /// whether FAILEDTRYLATER (retries exhausted) or a permanent error is the
  /// honest verdict. An active `trace` context gets the attempt count,
  /// backoff history and per-try refusals annotated onto its parent span.
  Result<Commitment, Refusal> commit(const ClientMachine& client, const SystemOffer& offer,
                                     TraceContext trace = {});

  /// Cumulative counters over every commit() this committer ran.
  const CommitStats& stats() const { return stats_; }

 protected:
  /// One reservation walk over the offer's components. The retry loop,
  /// stats accounting and trace annotations all live in commit(); a
  /// subclass overriding this (the sharded FederatedCommitter) changes only
  /// *where* reservations land, never the retry/rollback semantics. An
  /// implementation must count rollbacks into stats.released_on_failure
  /// exactly as the base does.
  virtual Result<Commitment, Refusal> commit_once(const ClientMachine& client,
                                                  const SystemOffer& offer, CommitStats& stats);

  /// A variant's server and the ends of the flows from it to the client.
  struct Resolved {
    const Variant* variant = nullptr;
    StreamServer* server = nullptr;  ///< nullptr: no server has the variant's id
    FlowEndpoints endpoints;
  };
  /// Resolve `variant` against the farm and the transport on its first
  /// commit() in this committer (a Step-5 walk builds one committer), so
  /// the walk's later offers pay no server or node lookup for it. The
  /// reference is valid until the next call.
  const Resolved& resolve(const ClientMachine& client, const Variant& variant);

  /// An empty commitment whose handle vectors hold `width` reservations.
  static Commitment begin_commitment(std::size_t width) {
    Commitment commitment;
    commitment.streams_.reserve(width);
    commitment.flows_.reserve(width);
    return commitment;
  }

  /// Append one (server, stream) / flow reservation to a commitment under
  /// construction — the hooks a subclass uses to keep Commitment's RAII
  /// rollback ordering (flows before streams) identical to the base walk.
  static void attach_stream(Commitment& commitment, StreamServer* server, StreamId id) {
    commitment.streams_.emplace_back(server, id);
  }
  static void attach_flow(Commitment& commitment, TransportProvider* transport, FlowId id) {
    commitment.flows_.emplace_back(transport, id);
  }

  TransportProvider& transport() { return *transport_; }
  SessionClass session_class() const { return session_class_; }

 private:
  ServerProvider* farm_;
  TransportProvider* transport_;
  RetryPolicy retry_;
  Rng jitter_rng_;
  SessionClass session_class_ = SessionClass::kStandard;
  CommitStats stats_;
  /// What resolve() found, ascending by variant address, for client_node_.
  std::vector<Resolved> resolved_;
  NodeId client_node_;
};

}  // namespace qosnp
