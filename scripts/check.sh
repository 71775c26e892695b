#!/usr/bin/env bash
# check.sh — the full local gate, in the order a CI pipeline would run it.
# Every step must pass; the script stops at the first failure.
#
#   fmt   gofmt on every tracked .go file (fails listing unformatted files)
#   vet   go vet across the module
#   lint  dibslint: the simulator's own determinism / virtual-time rules
#   build go build everything, including cmd/ and examples/
#   test  full test suite (use SHORT=1 for the quick subset)
#   race  race detector over the fast packages (RACE=0 to skip)
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s\n' "$*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet"
go vet ./...

step "dibslint"
go run ./cmd/dibslint -tests ./...

# The shard-confinement proof must hold with zero suppressions: the PDES
# engine and its netsim sharding layer may not carry any //dibslint:ignore
# without a reason, and must lint clean on their own. The fluid solver joins
# the same regime: float rates and coarse ticks are exactly what the
# float-eq and vtime rules police, so it may not suppress them.
step "dibslint shard confinement + fluid solver (zero suppressions)"
go run ./cmd/dibslint ./internal/pdes ./internal/netsim ./internal/fluid
bare_ignores=$(grep -rn '//dibslint:ignore[[:space:]]*$\|//dibslint:ignore[[:space:]]\+[a-z-]\+[[:space:]]*$' \
    internal/pdes internal/netsim internal/fluid --include='*.go' || true)
if [ -n "$bare_ignores" ]; then
    echo "reason-less //dibslint:ignore directives in shard packages:" >&2
    echo "$bare_ignores" >&2
    exit 1
fi

step "go build"
go build ./...

step "go test"
if [ "${SHORT:-0}" = "1" ]; then
    go test -short ./...
else
    go test ./...
fi

# Named so a future -short guard can never silently retire it: seeded runs
# byte-identical under both scheduler engines, the reserved same-instant key
# running first in both engines, and the workload replay's same-instant
# order and one-pending-event bound.
step "determinism regression, both scheduler engines"
go test -count=1 -run 'TestPriFirstPrecedesSameInstantEvents' ./internal/eventq
go test -count=1 -run 'TestSeededRunsAreByteIdentical|TestEnginesProduceIdenticalRuns|TestReplayAtFluidTickKeepsTickFirst|TestReplayArrivalsPrecedeLaterTicks|TestReplayQueuesOneEventPerShard' ./internal/netsim

# The hybrid mode's two acceptance properties run by name even in SHORT
# mode, so a future -short guard on them can never silently retire the
# gate: byte-identical hybrid runs, and fluid-path FCT percentiles within
# tolerance of the all-packet reference.
step "hybrid determinism + FCT agreement"
go test -count=1 -run 'TestHybridDeterminism|TestHybridEnginesAgree|TestHybridFCTAgreement' ./internal/netsim

if [ "${RACE:-1}" = "1" ]; then
    step "go test -race (short)"
    go test -race -short ./...

    # The runner's concurrency proof runs full experiments, so -short skips
    # it above; run it explicitly — it is the gate for the parallel layer.
    step "go test -race internal/runner"
    go test -race -count=1 ./internal/runner

    # The sharded engine's determinism property (every shard count produces
    # the byte-identical run) doubles as its data-race proof: the window
    # loop's channel handoffs are the only synchronization it has.
    step "go test -race shard determinism"
    go test -race -count=1 -run TestShardCountInvariance ./internal/netsim
fi

printf '\nall checks passed\n'
