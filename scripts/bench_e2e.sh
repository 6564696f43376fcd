#!/usr/bin/env bash
# Puts trees' end-to-end benchmarks on file: runs bench/run.sh in each
# tree on every workload BENCHMARK.json lists, at seeds 1..5, for its
# run_seconds each, tracing off, and appends one record per tree to
# BENCH_e2e.json at the root of this checkout — the tree's commit, the
# date, the machine, and per workload the median over the seeds of the
# four end-to-end metrics, of latency_p99_us, and the failed share of
# attempted operations.
#
# Usage: scripts/bench_e2e.sh [TREE ...]   (default: this checkout)
#
# Given several trees (say a parent checkout and a change), it runs
# them in turn on each workload and seed, alternating which goes first,
# so a drift in the machine's speed lands on every tree alike. A tree
# with uncommitted changes is recorded as <commit>-dirty.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seeds=5
seconds="$(jq -e .run_seconds "$here/BENCHMARK.json")"
[ $# -gt 0 ] || set -- "$here"
trees=()
for t in "$@"; do trees+=("$(cd "$t" && pwd)"); done
out="$here/BENCH_e2e.json"
runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT

for w in $(jq -r ".workloads[].name" "$here/BENCHMARK.json"); do
  for ((s = 1; s <= seeds; s++)); do
    order=("${!trees[@]}")
    if ((s % 2 == 0)); then
      for ((i = 0; i < ${#trees[@]}; i++)); do order[i]=$((${#trees[@]} - 1 - i)); done
    fi
    for k in "${order[@]}"; do
      (cd "${trees[k]}" && bash bench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 --out "$runs/$k.jsonl") | tail -n 1
    done
  done
done

cpu="$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo)"
[ -s "$out" ] || echo '[]' > "$out"
for k in "${!trees[@]}"; do
  record="$(jq -s --arg commit "$(git -C "${trees[k]}" describe --always --dirty --abbrev=7)" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --arg cpu "$cpu" \
    --argjson seeds "$seeds" --argjson seconds "$seconds" '
    def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                       else (.[length / 2 - 1] + .[length / 2]) / 2 end;
    {commit: $commit, date: $date, seeds: $seeds, seconds: $seconds,
     machine: {cpu: $cpu, nproc: .[0].env.nproc, go: .[0].env.go},
     workloads: (group_by(.workload) | map({key: .[0].workload, value: {
       throughput_ops_s: map(.metrics.throughput_ops_s.value) | median,
       latency_p50_us: map(.metrics.latency_p50_us.value) | median,
       cpu_us_per_op: map(.metrics.cpu_us_per_op.value) | median,
       setup_s: map(.metrics.setup_s.value) | median,
       latency_p99_us: map(.extra.latency_p99_us) | median,
       failed_share: ((map(.failed) | add) / ([(map(.attempted) | add), 1] | max))
     }}) | from_entries)}' "$runs/$k.jsonl")"
  jq --argjson rec "$record" '. + [$rec]' "$out" > "$out.tmp" && mv "$out.tmp" "$out"
  echo "$record"
done
