#!/bin/sh
# Gate on deprecated API surface. All former migration shims are deleted:
#  - removed names (NegotiationOutcome / ServiceResponse / ServiceRequest /
#    negotiate_document and the multi-argument negotiate() overload; the
#    client and population-adapter classes NegotiationClient replaced): their
#    deprecation window is over; nothing may reintroduce a reference.
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
for dir in src/core src/service src/session src/policy src/sim src/obs src/wire src/netio src/shard tests bench; do
    if [ ! -d "$repo/$dir" ]; then
        echo "coverage guard: expected directory '$dir' is missing" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "ok: no removed API surface or deprecation markers present"
fi
exit "$status"
