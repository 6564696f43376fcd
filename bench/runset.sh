#!/usr/bin/env bash
# Runs one full set the way the driver does: every workload at ten
# seeds, one process per run, results appended to the given file.
#   bash bench/runset.sh a.jsonl [first-seed] [seconds]
set -euo pipefail
out="${1:?usage: bench/runset.sh out.jsonl [first-seed] [seconds]}"
first="${2:-1}"
seconds="${3:-16}"
here="$(dirname "${BASH_SOURCE[0]}")"
for w in solo-small solo-work flow-fan cluster-fabric cluster-tcp cluster-tcp-16k; do
  for ((s = first; s < first + 10; s++)); do
    bash "$here/run.sh" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1
  done
done
