#!/bin/sh
# Gate on deprecated API surface. All former migration shims are deleted:
#  - removed names (NegotiationOutcome / ServiceResponse / ServiceRequest /
#    negotiate_document and the multi-argument negotiate() overload; the
#    client and population-adapter classes NegotiationClient replaced; the
#    per-kind transition results TransitionResult replaced; the service and
#    simulator metrics fields and experiment options nothing read or set;
#    the plan cache's document fingerprint and catalog epochs; the negotiation,
#    service and experiment options only tests set; the wire server's
#    completion queue and its orphan accounting; the connection, cache,
#    policy and session values that only tests set; the committer's refusal
#    replay, which the Step-5 walk's nogood counting replaced; the thread
#    pool and the retry backoff parameters; the plan cache's serialised key
#    and config digest; the node's plan-cache off switch):
#    their deprecation window is over; nothing may reintroduce a reference.
#  - the PopulationBackend / ManagerPopulationBackend aliases exist only for
#    perfbench/, which this gate does not sweep: no other code may use them.
#  - no [[deprecated]] marker may appear anywhere in compiled code: a new
#    migration shim needs its own PR (with an allowlist added here), not a
#    silent reintroduction.
# Run from anywhere; registered with ctest as check_no_deprecated.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
status=0

# check <label> <pattern> [allowed-file ...]: flag every occurrence of
# <pattern> in compiled code outside the allowlisted files.
check() {
    label="$1"
    pattern="$2"
    shift 2
    hits="$(grep -rEn "$pattern" \
        "$repo/src" "$repo/tests" "$repo/bench" "$repo/examples" 2>/dev/null || true)"
    for allowed in "$@"; do
        hits="$(printf '%s\n' "$hits" | grep -v "$allowed" || true)"
    done
    if [ -n "$hits" ]; then
        echo "removed surface '$label' is referenced:" >&2
        echo "$hits" >&2
        status=1
    fi
}

# Removed aliases and shims: no exemptions — they must not come back.
check "NegotiationOutcome" "NegotiationOutcome"
check "ServiceResponse" "ServiceResponse"
check "ServiceRequest" "ServiceRequest"
check "negotiate_document" "\bnegotiate_document\b"
# One client seam: NegotiationClient and its four implementations replaced
# these client classes, population adapters and client-interface members.
for name in ServiceClient ShardedClient ServicePopulationBackend WirePopulationBackend \
    ShardedPopulationBackend drain_metrics submit_at; do
    check "$name" "\b$name\b"
done
# One transition routine: adapt, preempt_degrade and try_upgrade return
# TransitionResult; the service report no longer exports onto SimMetrics; the
# simulator keeps no wall-clock negotiation time; and the ExperimentConfig
# fields nothing set are gone (their defaults are the code's behaviour).
for name in AdaptationResult PreemptionVictimResult UpgradeResult to_sim_metrics \
    negotiation_ms_total mean_negotiation_ms accept_degraded_probability server_max_sessions; do
    check "$name" "\b$name\b"
done
# A cached plan is validated by the document object it pins: the document
# fingerprint, its per-manager memo and the catalog epochs are gone.
for name in document_fingerprint document_epoch find_entry epoch_of fp_memo_; do
    check "$name" "\b$name\b"
done
# The paper fixes one Step-4 order (SNS, then OIF) over every feasible
# offer: the settable values nothing outside tests set are gone — parallel
# classification inside the manager, dominance pruning, OIF-only ranking,
# the service's upgrade-scanner thread, and the simulator's playout sampling
# and renegotiation events.
for name in parallel_threshold prune_dominated prune_dominated_variants qos_dominates oif_only \
    sns_per_offer upgrade_scan_interval_ms upgrade_scan_loop sample_playout \
    renegotiation_rate_per_s playout_stall_rate; do
    check "$name" "\b$name\b"
done
# Each wire request runs to completion on the loop that read it: the
# completion queue, its drain and the in-flight/orphan accounting are gone.
for name in drain_completions orphaned_results requests_inflight; do
    check "$name" "\b$name\b"
done
# The paper fixes its own parameters: the settable values nothing outside
# tests set are gone — the wire client's connect retries, the wire router's
# overload hops, the load generator's think time, the upgrade scan's switch
# and bound, make-before-break preemption, the transition latency, the plan
# cache's shard count, the listen backlog, the domain transit delay and the
# service's queue-depth probe. Each default is now a constant.
for name in connect_attempts connect_backoff_ms overload_retries think_ms upgrade_enabled \
    max_upgrades_per_scan allow_release transition_latency_s cache_shards listen_backlog \
    transit_delay_ms queue_depth; do
    check "$name" "\b$name\b"
done
# A walk refuses offers by its nogoods and counts them: the committer's
# refusal replay is gone.
check "replay_refusal" "\breplay_refusal\b"
# Classification runs serially: the thread pool and parallel_for are gone.
# The retry backoff schedule is fixed: its parameters are constants.
check "thread_pool" "thread_pool"
for name in ThreadPool parallel_for backoff_multiplier max_backoff_ms base_backoff_ms; do
    check "$name" "\b$name\b"
done
# A plan is keyed on the request's own values, compared with ==: the
# serialised key, the config digest and the manager's copy of it are gone.
for name in plan_cache_key plan_config_digest plan_digest_; do
    check "$name" "\b$name\b"
done
# Every QoSManager keeps a plan cache: a node has no off switch to read, and
# a request opts out with CacheUse::kBypass.
for name in plan_cache_on cache_enabled_; do
    check "$name" "\b$name\b"
done
# The two aliases kept for perfbench/ may appear only on their own lines.
check "PopulationBackend" "\bPopulationBackend\b" \
    "/src/sim/population\.hpp:[0-9]*:using PopulationBackend = NegotiationClient;\$"
check "ManagerPopulationBackend" "ManagerPopulationBackend" \
    "/src/sim/population\.hpp:[0-9]*:using ManagerPopulationBackend = LocalClient;\$"
# Legacy multi-argument negotiate() calls: anything passing 2+
# comma-separated bare arguments. Current call sites pass a single
# make_negotiation_request(...) / NegotiationRequest whose inner parentheses
# keep this pattern from matching.
check "negotiate(client, document, ...)" "\bnegotiate\([^()]*,[^()]*,"
# No live [[deprecated]] markers: deprecations are one-PR affairs that must
# arrive with their own allowlist entry in this script.
check "[[deprecated]] marker" "\[\[deprecated"

# check_new <label> <pattern> <scope...>: the softer gate for surfaces that
# stay usable in existing code but are closed to NEW code. Only the listed
# scopes (the post-NodeConfig additions) are swept.
check_new() {
    label="$1"
    pattern="$2"
    shift 2
    hits=""
    for scope in "$@"; do
        [ -e "$repo/$scope" ] || continue
        found="$(grep -rEn "$pattern" "$repo/$scope" 2>/dev/null || true)"
        if [ -n "$found" ]; then
            hits="$(printf '%s\n%s' "$hits" "$found")"
        fi
    done
    if [ -n "$hits" ]; then
        echo "new code must configure nodes through NodeConfig, not '$label':" >&2
        echo "$hits" >&2
        status=1
    fi
}

# The loose config structs (ServiceConfig / CachePolicy / WireServerConfig)
# remain the validated carriers underneath NodeConfig — existing call sites
# keep working — but code written since the builder landed must go through
# NodeConfig's per-field validation instead of naming them directly.
new_code_scopes="src/shard tests/shard_test.cpp tests/shard_concurrency_test.cpp \
    tests/node_config_test.cpp bench/bench_e20_shards.cpp"
for name in ServiceConfig CachePolicy WireServerConfig; do
    # shellcheck disable=SC2086
    check_new "$name" "\b$name\b" $new_code_scopes
done

# Coverage guard: the directories this gate sweeps must actually exist (a
# moved/renamed subsystem would otherwise silently fall out of coverage).
for dir in src/core src/document src/service src/session src/policy src/sim src/obs src/wire \
    src/netio src/shard tests bench; do
    if [ ! -d "$repo/$dir" ]; then
        echo "coverage guard: expected directory '$dir' is missing" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "ok: no removed API surface or deprecation markers present"
fi
exit "$status"
