#include "core/commit.hpp"

#include <functional>

#include "util/log.hpp"

namespace qosnp {

std::vector<FlowId> Commitment::flow_ids() const {
  std::vector<FlowId> ids;
  ids.reserve(flows_.size());
  for (const ScopedFlow& f : flows_) ids.push_back(f.id());
  return ids;
}

std::vector<std::pair<const StreamServer*, StreamId>> Commitment::stream_ids() const {
  std::vector<std::pair<const StreamServer*, StreamId>> ids;
  ids.reserve(streams_.size());
  for (const ScopedStream& s : streams_) ids.push_back({s.server(), s.id()});
  return ids;
}

void Commitment::release() {
  // Release flows before streams: tear the network path down before the
  // disk stream feeding it.
  flows_.clear();
  streams_.clear();
}

std::string refusal_trace_text(const Refusal& refusal) {
  return refusal.describe() + (refusal.transient ? " [transient]" : " [permanent]");
}

namespace {

/// Attribution for the trace: who refused last, and how hard we tried —
/// the figures a FAILEDTRYLATER/FAILEDWITHOFFER post-mortem needs.
void annotate_refused(TraceContext trace, const Refusal& last, const CommitStats& stats) {
  trace.annotate("result", "refused");
  trace.annotate("component", last.component);
  trace.annotate("attempts", static_cast<std::uint64_t>(stats.attempts));
  trace.annotate("backoff_ms", stats.backoff_ms);
}

}  // namespace

const ResourceCommitter::Resolved& ResourceCommitter::resolve(const ClientMachine& client,
                                                              const Variant& variant) {
  if (client.node != client_node_) {
    resolved_.clear();
    client_node_ = client.node;
  }
  const auto at = std::lower_bound(resolved_.begin(), resolved_.end(), &variant,
                                   [](const Resolved& r, const Variant* v) {
                                     return std::less<const Variant*>{}(r.variant, v);
                                   });
  // A hit is checked against the variant's server id, which the address
  // of a since-destroyed variant could otherwise alias.
  if (at != resolved_.end() && at->variant == &variant && at->server != nullptr &&
      at->server->id() == variant.server) {
    return *at;
  }
  Resolved found{&variant, farm_->find_server(variant.server), {}};
  if (found.server != nullptr) {
    found.endpoints = transport_->resolve(found.server->node(), client_node_);
  }
  if (at != resolved_.end() && at->variant == &variant) return *at = found;
  return *resolved_.insert(at, found);
}

Result<Commitment, Refusal> ResourceCommitter::commit_once(const ClientMachine& client,
                                                           const SystemOffer& offer,
                                                           CommitStats& stats) {
  Commitment commitment = begin_commitment(offer.components.size());
  for (const OfferComponent& c : offer.components) {
    const Resolved& at = resolve(client, *c.variant);
    StreamServer* server = at.server;
    if (server == nullptr) {
      return permanent_refusal(c.variant->server,
                               "variant '" + c.variant->id + "' lives on unknown server");
    }
    // Stamp the owning session's class so headroom-differentiated admission
    // at the server and the transport knows who is asking.
    StreamRequirements requirements = c.requirements;
    requirements.session_class = session_class_;
    auto stream = server->admit(requirements);
    if (!stream.ok()) {
      // RAII: commitment's handles release everything reserved so far.
      stats.released_on_failure +=
          static_cast<int>(commitment.stream_count() + commitment.flow_count());
      return Err(std::move(stream.error()));
    }
    commitment.streams_.emplace_back(server, stream.value());

    auto flow = transport_->reserve_at(at.endpoints, requirements);
    if (!flow.ok()) {
      stats.released_on_failure +=
          static_cast<int>(commitment.stream_count() + commitment.flow_count());
      return Err(std::move(flow.error()));
    }
    commitment.flows_.emplace_back(transport_, flow.value());
  }
  return commitment;
}

Result<Commitment, Refusal> ResourceCommitter::commit(const ClientMachine& client,
                                                      const SystemOffer& offer,
                                                      TraceContext trace) {
  CommitStats stats;
  Refusal last;
  const int max_attempts = std::max(1, retry_.max_attempts);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++stats.attempts;
    if (attempt > 0) ++stats.retries;
    auto result = commit_once(client, offer, stats);
    if (result.ok()) {
      Commitment commitment = std::move(result.value());
      commitment.stats_ = stats;
      stats_.merge(stats);
      trace.annotate("result", "committed");
      trace.annotate("attempts", static_cast<std::uint64_t>(stats.attempts));
      trace.annotate("backoff_ms", stats.backoff_ms);
      QOSNP_LOG_DEBUG("commit", "committed offer with ", commitment.stream_count(),
                      " streams / ", commitment.flow_count(), " flows for client ", client.name,
                      " after ", stats.attempts, " attempt(s)");
      return commitment;
    }
    last = std::move(result.error());
    if (trace.active()) trace.annotate("refusal", refusal_trace_text(last));
    if (last.transient) {
      ++stats.transient_failures;
    } else {
      ++stats.permanent_failures;
      break;  // retrying an unknown server or missing route cannot help
    }
    if (attempt + 1 >= max_attempts) break;
    // Back off before the next try. Time is accounted virtually, never slept.
    stats.backoff_ms += RetryPolicy::jittered_backoff_ms(attempt, jitter_rng_);
  }
  stats_.merge(stats);
  if (trace.active()) annotate_refused(trace, last, stats);
  Result<Commitment, Refusal> failed = Err(std::move(last));
  // Callers read the effort off the committer-level stats() accumulator.
  return failed;
}

}  // namespace qosnp
