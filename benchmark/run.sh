#!/usr/bin/env bash
# The one command of the benchmark: build it from source, then run one
# workload (one process each), every workload, or a comparison.
#
#   benchmark/run.sh                          every workload once, tracing off
#   benchmark/run.sh --workload serve_open    one workload
#   benchmark/run.sh --trace 1                the traced run: per-layer metrics
#   benchmark/run.sh --smoke                  every workload at 1/20 size
#   benchmark/run.sh --set a --runs 10        ten seeds per workload, saved
#                                             under benchmark/out/a/
#   benchmark/run.sh compare benchmark/out/a benchmark/out/b
#
# Every other flag (--seed, --seconds, ...) goes to sq-benchmark as it is.
# Exits non-zero if the build fails or any run fails a check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Paths below are relative to the checkout's root: the Unix-socket path
# of the served workloads must stay short.
cd "$(dirname "$here")"

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/sq-benchmark"

if [[ "${1:-}" == compare ]]; then
    exec "$bin" "$@"
fi

commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
set_name=""
runs=1
seed=24301
workloads=(serve_queue serve_build serve_open plan_sim)
pass=()
while (($#)); do
    case "$1" in
        --set) set_name="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --workload) workloads=("$2"); shift 2 ;;
        *) pass+=("$1"); shift ;;
    esac
done
if [[ -n "$set_name" ]]; then
    pass+=(--save "benchmark/out/$set_name")
fi

status=0
for workload in "${workloads[@]}"; do
    for ((i = 0; i < runs; i++)); do
        "$bin" --workload "$workload" --seed $((seed + i)) --commit "$commit" \
            ${pass[@]+"${pass[@]}"} || status=$?
    done
done
exit "$status"
