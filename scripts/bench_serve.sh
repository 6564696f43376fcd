#!/bin/sh
# Regenerates or checks BENCH_serve.json, the serve hot-path benchmark
# baseline.
#
# Usage: scripts/bench_serve.sh [-check] [raw-bench-output-file]
#
# With no argument, runs the internal/serve benchmarks (full default
# benchtime, Config.Observe zero-valued — the disabled-path numbers)
# and rewrites BENCH_serve.json at the repo root. With an argument,
# parses an existing `go test -bench` output file instead of re-running.
#
# With -check, runs the benchmarks (BENCH_ARGS adds flags, e.g.
# BENCH_ARGS="-benchtime 100x" for a quick CI gate) and compares each
# benchmark's allocs/op against the committed baseline instead of
# rewriting it, exiting 1 on regression. ns/op and B/op drift with the
# machine; allocs/op should not, so that is the gated invariant — a
# candidate fails when it allocates more than baseline + 10% + 1
# (the slack absorbs batch-boundary jitter at short benchtimes).
#
# -check also gates a same-machine throughput ratio: absolute ns/op
# drifts with hardware, but the ratio between two benchmarks of the
# same run does not, so it catches order-of-magnitude collapses (a
# contended ring, a lost batch amortization) that an allocs-only gate
# would miss. SubmitBurst/64 vs SubmitHandle: the per-request cost of a
# closed-loop burst of 64 single submits must stay within 6x of a
# single submit. The bound is
# deliberately loose — CI runs at -benchtime 100x where per-run noise
# is large, and the burst cycle is closed-loop (execution included).
# SubmitHandleSketch vs SubmitHandle bounds the continuous-compilation
# observation tax (key sketch on admission, fast-table probe at
# dispatch) to 3x a plain submit — steady-state it is ~15%, and the
# sketch path shares the zero-allocs/op gate with the plain path.
# RunParallel ratios are NOT gated: at 100 iterations they measure
# goroutine setup, not throughput.
#
# Set BENCH_RAW_OUT to keep the raw `go test -bench` output at that
# path (CI uploads it as an artifact); otherwise it goes to a temp
# file.
#
# The file this writes is the reference the observability work is held
# to: allocs/op on Submit* must not grow while Observe is off. Compare
# a candidate change by hand with:
#
#   go test ./internal/serve/ -bench . -run '^$' | scripts/bench_serve.sh /dev/stdin
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "-check" ]; then
    if [ -n "${BENCH_RAW_OUT:-}" ]; then
        raw="$BENCH_RAW_OUT"
    else
        raw=$(mktemp)
        trap 'rm -f "$raw"' EXIT
    fi
    # shellcheck disable=SC2086 # BENCH_ARGS is deliberately word-split
    go test ./internal/serve/ -bench . -run '^$' -count 1 ${BENCH_ARGS:-} | tee "$raw" >&2
    awk '
    FNR == 1 { file++ }
    # Pass 1: the committed baseline. One benchmark object per line.
    file == 1 && /"name":/ {
        name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        al = $0
        if (sub(/.*"allocs_per_op": /, "", al)) { sub(/[^0-9.].*$/, "", al); base[name] = al }
    }
    # Pass 2: the candidate run.
    file == 2 && /^Benchmark/ {
        name = $1
        sub(/^Benchmark/, "", name)
        sub(/-[0-9]+$/, "", name)
        for (i = 3; i <= NF; i++) {
            if ($(i) == "allocs/op") cand[name] = $(i - 1)
            if ($(i) == "ns/op")     cns[name]  = $(i - 1)
        }
    }
    function ratio_gate(label, num, den, bound,    r, status) {
        if (!(num in cns) || !(den in cns) || cns[den] + 0 == 0) {
            printf "bench-check: MISSING ratio %s (needs %s and %s in run)\n", label, num, den
            return 1
        }
        r = (cns[num] / cns[den])
        status = (r > bound) ? "FAIL" : "ok"
        printf "bench-check: %-4s ratio %-28s %.2f (bound %.1f)\n", status, label, r, bound
        return status == "FAIL"
    }
    END {
        failed = 0; checked = 0
        for (name in base) {
            if (!(name in cand)) { printf "bench-check: MISSING %s (in baseline, not in run)\n", name; failed = 1; continue }
            checked++
            limit = base[name] * 1.10 + 1
            status = (cand[name] + 0 > limit) ? "FAIL" : "ok"
            if (status == "FAIL") failed = 1
            printf "bench-check: %-4s %-24s allocs/op %s (baseline %s, limit %.1f)\n", status, name, cand[name], base[name], limit
        }
        if (checked == 0) { print "bench-check: no benchmarks compared"; failed = 1 }
        # Same-machine throughput ratios (see header comment). The burst
        # benchmark admits 64 requests per op.
        if ("SubmitBurst" in cns) cns["SubmitBurstPerReq"] = cns["SubmitBurst"] / 64
        failed += ratio_gate("burst-per-req/single", "SubmitBurstPerReq", "SubmitHandle", 6.0)
        failed += ratio_gate("sketch/handle", "SubmitHandleSketch", "SubmitHandle", 3.0)
        exit (failed > 0 ? 1 : 0)
    }' BENCH_serve.json "$raw"
    exit $?
fi

raw="${1:-}"
if [ -z "$raw" ]; then
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    go test ./internal/serve/ -bench . -run '^$' -count 1 | tee "$raw" >&2
fi

awk '
BEGIN { n = 0 }
/^pkg:/ { pkg = $2 }
/^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS suffix if present
    iters[n] = $2
    ns[n] = $3
    b[n] = ""; allocs[n] = ""
    for (i = 4; i <= NF; i++) {
        if ($(i) == "B/op") b[n] = $(i - 1)
        if ($(i) == "allocs/op") allocs[n] = $(i - 1)
    }
    names[n] = name
    n++
}
END {
    printf "{\n"
    printf "  \"package\": \"%s\",\n", pkg
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"note\": \"serve hot-path baseline with Config.Observe zero-valued; allocs_per_op is the guarded invariant\",\n"
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) {
        printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", names[i], iters[i], ns[i]
        if (b[i] != "") printf ", \"bytes_per_op\": %s", b[i]
        if (allocs[i] != "") printf ", \"allocs_per_op\": %s", allocs[i]
        printf "}%s\n", (i < n - 1 ? "," : "")
    }
    printf "  ]\n}\n"
}' "$raw" > BENCH_serve.json

echo "wrote BENCH_serve.json" >&2
