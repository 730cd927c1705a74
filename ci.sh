#!/bin/sh
# ci.sh — the repository's check gate. Run before committing:
#
#   ./ci.sh          # format + vet + doc gate + race-enabled tests + serve benchmark
#   ./ci.sh -short   # same, skipping the long sweeps
#
# The race detector matters here twice over: the partition engine shares one
# immutable core.Analysis across worker goroutines (degree exploration,
# experiment sweeps, ablations), and the streaming runtime in
# internal/runtime hands live-set tokens between one goroutine per pipeline
# stage — its oracle-equivalence tests are only meaningful under -race.
set -eu
cd "$(dirname "$0")"

echo "== gofmt -l"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== doc gate: go run ./internal/doccheck"
# Every exported symbol must carry a doc comment, every package a
# package-level doc comment, and every package-level Go snippet in
# README.md must compile against the current API.
go run ./internal/doccheck

echo "== go test -race ./internal/runtime/..."
go test -race ./internal/runtime/...

echo "== chaos gate: go test -race -count=2 -run TestChaos ./internal/runtime"
# The deterministic fault schedules must produce identical accounting on
# repeated race-enabled runs; -count=2 defeats the test cache.
go test -race -count=2 -run TestChaos ./internal/runtime

echo "== flake gate: timing-sensitive tests repeated"
# Tests that once failed a few runs in a hundred, repeated so a
# reintroduced timing dependence fails here rather than at random: the
# degrade chaos schedule (delivery-gated after its one saturation), the
# adaptive loop's calibration fit (R² > 0), and the static fusion verdicts.
go test -race -count=20 -run '^TestChaosDegradeShortCircuits$' ./internal/runtime
go test -count=50 -run '^(TestAdaptiveServeTraceIdentity|TestPlanFusionGolden)$' .

echo "== ring gate: oracle matrix + wait accounting under -race -count=2"
# The inter-stage rings (buffered channels): the oracle matrix serves every
# benchmark pipeline ringed and fused at P in {1, 4} and demands
# byte-identical traces; the wait-accounting test checks every blocked
# handoff is counted exactly once. -count=2 defeats the test cache so the
# race detector sees two fresh interleavings.
go test -race -count=2 -run '^TestRing' ./internal/runtime

echo "== unit-loop gate: sharded + fusion oracle matrices and exit-path leak checks under -race -count=2"
# Every realization runs the one unit loop (source, ring or fan-in input;
# one segment executor; sink collectors): the sharded and fusion matrices
# demand byte-identical traces across dispatcher, scatter, fan-in and
# fused shapes, and the leak table checks every Serve exit path (cancel,
# source exhausted, fatal stage error) leaves no goroutine behind.
# -count=2 gives the race detector two fresh interleavings.
go test -race -count=2 -run '^(TestShardedServeMatchesOracle|TestFusionEquivalenceMatrix|TestServeCancelDrainsCleanly)$' ./internal/runtime

echo "== fuzz smoke: 10s of FuzzServeVsOracle"
# Differential fuzzing of the streaming runtime against the sequential
# oracle; the checked-in corpus under internal/runtime/testdata/fuzz seeds
# the mutator.
go test ./internal/runtime -run '^$' -fuzz=FuzzServeVsOracle -fuzztime=10s

echo "== fuzz smoke: 10s of FuzzCompiledVsInterp"
# Differential fuzzing of the compiled backend's lowering against the
# interpreter — sequential and at D=1,2,4, traces and error text
# byte-identical; the corpus under internal/exec/testdata/fuzz seeds it.
go test ./internal/exec -run '^$' -fuzz=FuzzCompiledVsInterp -fuzztime=10s

echo "== ingest gate: loopback UDP serve + pcap replay byte-identity"
# The network-facing front end, end to end: a race-enabled serve over a
# real loopback UDP socket (TestServeUDPLoopback) plus the checked-in
# capture's fixture pin (TestFlowsCaptureFixture). Both compare the served
# trace or decoded stream byte-for-byte against the deterministic
# reference.
go test -race -count=1 -run 'TestServeUDPLoopback|TestFlowsCaptureFixture' .

echo "== go test -race ./... $*"
go test -race "$@" ./...

echo "== benchmark module tests: (cd perfbench && go test .)"
# perfbench/ is its own Go module, so ./... above does not reach it. Its
# tests pin the benchmark's contract: the oracle check catches a diverged
# trace, the per-layer ledger sums back to the wall time, and every
# workload reports its end-to-end metrics.
(cd perfbench && go test .)

# The two wall-clock gates below measure real throughput on a shared
# machine, where ambient load can swing any single measurement well past
# the gates' tolerance. A genuine code regression fails every attempt; a
# noisy moment fails one. So each gate gets up to $attempts tries and only
# a unanimous failure fails CI.
attempts=3
retry() {
    for _try in $(seq "$attempts"); do
        if "$@"; then return 0; fi
        echo "ci.sh: attempt $_try/$attempts failed: $*" >&2
    done
    return 1
}

echo "== pipebench serve (compiled backend) -> BENCH_serve.json"
# The compiled-backend serve benchmark is also the throughput-regression
# gate: -baseline compares the fresh guarded points — (D=1, batch=32, P=1),
# the sharded (D=1, batch=32, P=4) point, and the deep-pipeline (D=4,
# batch=32, P=1) point, ringed and fused — against the checked-in
# BENCH_serve.json BEFORE -json overwrites it (a baseline's old "ring"
# column is ignored), and
# fails the run on a >10% pkt/s regression at any of them. -shards 1,2,4
# makes the sweep measure the sharded widths the gate guards.
retry go run ./cmd/pipebench -experiment serve -backend compiled -serve-packets 50000 \
    -shards 1,2,4 -baseline BENCH_serve.json -json BENCH_serve.json

echo "== pipebench adapt gate vs BENCH_serve.json"
# The closed-loop gate: starting from a deliberately mis-tuned realization,
# Serve(WithAutotune) must calibrate, re-cut, and commit a configuration
# whose re-measured throughput reaches at least 90% of the best point in
# the baseline just written above (trace-equivalence to the sequential
# oracle is verified inside the experiment before anything is timed).
retry go run ./cmd/pipebench -experiment adapt -serve-packets 50000 -baseline BENCH_serve.json

echo "== pipebench replay gate: testdata/flows.pcap through the full pipeline"
# The capture replay demo as a gate: the experiment refuses to time
# anything until the replayed trace is byte-identical to the sequential
# oracle over the decoded capture (D=4, P=4, fused). Retried only because
# the timing half shares the machine; the byte-identity half is
# deterministic.
retry go run ./cmd/pipebench -experiment replay -pcap testdata/flows.pcap -pcap-loops 4

echo "ci.sh: all checks passed"
