#!/usr/bin/env bash
# Runs workloads over seeds 1..N, appending each result to a JSON lines
# file, then prints each metric's median and quartile spread.
#
#   bash perfbench/sweep.sh <out.jsonl> [seeds=10] [seconds=20] [trace=0] [workload...]
#
# Run from the repository root. Two such files compare with
#   perfbench compare <base.jsonl> <head.jsonl>
set -euo pipefail
out=$1
seeds=${2:-10}
seconds=${3:-20}
trace=${4:-0}
shift $(($# < 4 ? $# : 4))
workloads=${*:-explore_wide explore_tall append_explore hot_fleet}
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
bin=${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench
for w in $workloads; do
    for s in $(seq 1 "$seeds"); do
        MALLOC_ARENA_MAX=1 "$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" \
            --record "$out" >/dev/null 2>&1 || echo "run failed: $w seed $s" >&2
    done
done
"$bin" spread "$out"
