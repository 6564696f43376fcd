#!/usr/bin/env bash
# Puts trees' end-to-end benchmarks on file: runs bench/run.sh in each
# tree on every workload BENCHMARK.json lists, at seeds 1..5, for its
# run_seconds each, tracing off, and appends one record per tree to
# BENCH_e2e.json at the root of this checkout — the tree's commit, the
# date, the machine, and per workload the median over the seeds of the
# four end-to-end metrics, of latency_p99_us, and the failed share of
# attempted operations. Each record also keeps, under per_seed per
# workload, every one of those five metrics' values in seed order, so
# the medians can be recomputed with jq; records written before it did
# carry no per_seed.
#
# Usage: scripts/bench_e2e.sh [TREE ...]   (default: this checkout)
#
# Given several trees (say a parent checkout and a change), it runs
# them in turn on each workload and seed, alternating which goes first,
# so a drift in the machine's speed lands on every tree alike. A tree
# with uncommitted changes is recorded as <commit>-dirty.
#
# Given exactly two trees, a parent and then a change, it also judges
# the change: it runs `bash bench/run.sh -compare` (this checkout's
# bench and bounds) on the two trees' runs and stores, in the change's
# record under compare, the parent's commit and per workload and
# end-to-end metric the ratio of the change's median to the parent's,
# the verdict, and the pair wins. A pair is the two trees' runs at one
# seed; a pair counts as a win for the side whose value is better in
# the direction BENCHMARK.json gives the metric, and a tie for neither.
#
# Usage: scripts/bench_e2e.sh --aa COMMIT
#
# measures the noise of one pair instead: it extracts COMMIT twice
# (git archive, into a temporary directory), runs the two copies as a
# pair the same way, and appends one record with aa: true. Its
# workloads are the first copy's, twin holds the second copy's, and
# aa_band gives per workload each end-to-end metric's A/A band: the
# largest |ratio - 1| over the pairs, where a pair's ratio is the
# second copy's value over the first's at one seed. A change's ratio
# inside its metric's band is indistinguishable from no change.
#
# Usage: scripts/bench_e2e.sh --check
#
# runs no benchmark: it recomputes, from per_seed, every figure a
# record carrying per_seed derives from it — each workload's medians
# (twin's too), each compare ratio and pair_wins against the record
# just before, whose commit must be compare.against, and each aa_band —
# and exits 1 at the first mismatch, naming it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seeds=5
seconds="$(jq -e .run_seconds "$here/BENCHMARK.json")"
out="$here/BENCH_e2e.json"

# The derivations both the recording path and --check use. pair_wins
# and band read [first tree's values, second tree's values] in seed
# order; pair_wins counts the seeds each side wins in the direction
# higher (true when higher is better), band is the largest
# |second / first - 1| over the seeds.
defs='
def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                   else (.[length / 2 - 1] + .[length / 2]) / 2 end;
def pair_wins($higher): transpose
  | map(if .[0] == .[1] then 0 elif (.[1] > .[0]) == $higher then 1 else -1 end)
  | {change: map(select(. == 1)) | length, parent: map(select(. == -1)) | length};
def band: transpose | map(if .[0] == 0 then 0 else (.[1] / .[0] - 1 | fabs) end) | max;
'

if [ "${1:-}" = --check ]; then
  [ $# -eq 1 ] || { echo "usage: $0 --check" >&2; exit 2; }
  bad="$(jq -r --slurpfile spec "$here/BENCHMARK.json" "$defs"'
    def medians($at): to_entries[] | .key as $w | .value as $v | $v.per_seed | to_entries[]
      | (.value | median) as $m | select($v[.key] != $m)
      | "\($at) \($w) \(.key): median \($v[.key]), per_seed gives \($m)";
    ($spec[0].end_to_end | map({key: .name, value: (.better == "higher")}) | from_entries) as $higher
    | . as $recs
    | first(range(length) as $i | $recs[$i] as $r | "record \($i) (\($r.commit))" as $at
      | select([$r.workloads[] | has("per_seed")] | any)
      | ($r.workloads | medians($at)),
        ($r.twin // {} | medians("\($at) twin")),
        ($r.compare // empty | if $i == 0 or $recs[$i - 1].commit != .against
            then "\($at): compare.against \(.against), record before is \(if $i > 0 then $recs[$i - 1].commit else "none" end)"
            else $recs[$i - 1] as $p | .workloads | to_entries[] | .key as $w | .value | to_entries[]
              | .key as $m | .value as $c
              | ($r.workloads[$w][$m] / $p.workloads[$w][$m]) as $ratio
              | ([$p.workloads[$w].per_seed[$m], $r.workloads[$w].per_seed[$m]] | pair_wins($higher[$m])) as $wins
              | (select($c.ratio != $ratio) | "\($at) \($w) \($m): ratio \($c.ratio), medians give \($ratio)"),
                (select($c.pair_wins != $wins) | "\($at) \($w) \($m): pair_wins \($c.pair_wins), per_seed gives \($wins)")
            end),
        ($r.aa_band // {} | to_entries[] | .key as $w | .value | to_entries[]
          | ([$r.workloads[$w].per_seed[.key], $r.twin[$w].per_seed[.key]] | band) as $b
          | select(.value != $b) | "\($at) \($w) \(.key): aa_band \(.value), per_seed and twin give \($b)")
    )' "$out")"
  if [ -n "$bad" ]; then
    echo "bench_e2e: $bad" >&2
    exit 1
  fi
  echo "bench_e2e: every per_seed record in $(basename "$out") recomputes"
  exit 0
fi

runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT
aa=""
if [ "${1:-}" = --aa ]; then
  [ $# -eq 2 ] || { echo "usage: $0 --aa COMMIT" >&2; exit 2; }
  aa="$(git -C "$here" rev-parse --short=7 "$2^{commit}")"
  for k in 0 1; do
    mkdir "$runs/tree$k"
    git -C "$here" archive "$aa" | tar -x -C "$runs/tree$k"
  done
  set -- "$runs/tree0" "$runs/tree1"
fi
[ $# -gt 0 ] || set -- "$here"
trees=()
for t in "$@"; do trees+=("$(cd "$t" && pwd)"); done

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
records=()
for k in "${!trees[@]}"; do
  commit="${aa:-$(git -C "${trees[k]}" describe --always --dirty --abbrev=7)}"
  records+=("$(jq -s --arg commit "$commit" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --arg cpu "$cpu" \
    --argjson seeds "$seeds" --argjson seconds "$seconds" "$defs"'
    {commit: $commit, date: $date, seeds: $seeds, seconds: $seconds,
     machine: {cpu: $cpu, nproc: .[0].env.nproc, go: .[0].env.go},
     workloads: (group_by(.workload) | map(sort_by(.seed) | {
       throughput_ops_s: map(.metrics.throughput_ops_s.value),
       latency_p50_us: map(.metrics.latency_p50_us.value),
       cpu_us_per_op: map(.metrics.cpu_us_per_op.value),
       setup_s: map(.metrics.setup_s.value),
       latency_p99_us: map(.extra.latency_p99_us)
     } as $per | {key: .[0].workload, value: (($per | map_values(median)) + {
       failed_share: ((map(.failed) | add) / ([(map(.attempted) | add), 1] | max)),
       per_seed: $per
     })}) | from_entries)}' "$runs/$k.jsonl")")
done

if [ -n "$aa" ]; then
  records=("$(jq -n --argjson a "${records[0]}" --argjson b "${records[1]}" --slurpfile spec "$here/BENCHMARK.json" "$defs"'
    ($spec[0].end_to_end | map(.name)) as $metrics
    | $a + {aa: true, twin: $b.workloads, aa_band: ($a.workloads | keys | map(. as $w | {key: $w,
        value: ($metrics | map(. as $m | {key: $m, value: ([$a.workloads[$w].per_seed[$m], $b.workloads[$w].per_seed[$m]] | band)}) | from_entries)})
      | from_entries)}')")
elif ((${#trees[@]} == 2)); then
  # -compare exits 1 when a verdict reads worse; its table is kept
  # either way, and an empty table (a failed build or read) stops here.
  table="$(cd "$here" && bash bench/run.sh -compare "$runs/0.jsonl" "$runs/1.jsonl" || true)"
  printf '%s\n' "$table"
  [ -n "$table" ]
  compare="$(printf '%s\n' "$table" | awk 'NR > 1 && NF == 9 {print $1 "\t" $2 "\t" $9}' |
    jq -R -s --argjson a "${records[0]}" --argjson b "${records[1]}" --slurpfile spec "$here/BENCHMARK.json" "$defs"'
    ($spec[0].end_to_end | map({key: .name, value: (.better == "higher")}) | from_entries) as $higher
    | {against: $a.commit, workloads: (split("\n") | map(select(length > 0) | split("\t"))
      | group_by(.[0]) | map({key: .[0][0], value: (map(. as [$w, $m, $v] | {key: $m, value: {
          ratio: ($b.workloads[$w][$m] / $a.workloads[$w][$m]),
          verdict: $v,
          pair_wins: ([$a.workloads[$w].per_seed[$m], $b.workloads[$w].per_seed[$m]] | pair_wins($higher[$m]))
        }}) | from_entries)}) | from_entries)}')"
  records[1]="$(jq --argjson c "$compare" '. + {compare: $c}' <<< "${records[1]}")"
fi

[ -s "$out" ] || echo '[]' > "$out"
for record in "${records[@]}"; do
  jq --argjson rec "$record" '. + [$rec]' "$out" > "$out.tmp" && mv "$out.tmp" "$out"
  echo "$record"
done
