#!/usr/bin/env bash
# Tier-1 gate plus lint checks. Run from the repository root.
#
#   scripts/check.sh          # everything (what CI runs)
#   scripts/check.sh --quick  # release build + root-package tests only
#
# Every step reports its elapsed seconds, and a summary sorted by cost
# prints at the end so the slowest gate is always the first line, then a
# per-crate table of Rust source lines (non-test and total).
#
# The build is fully offline: all external dependencies resolve to the
# API-compatible stand-ins under vendor/ (see vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
case "${1:-}" in
  --quick) quick=1 ;;
  "") ;;
  *) echo "usage: scripts/check.sh [--quick]" >&2; exit 2 ;;
esac

timings=""

step() { # step <label> <command...>
  local label="$1"
  shift
  echo "==> $label"
  local start elapsed
  start=$SECONDS
  "$@"
  elapsed=$((SECONDS - start))
  echo "    (${elapsed}s) $label"
  timings+="${elapsed}	${label}
"
}

summary() {
  echo
  echo "Step timings (slowest first):"
  printf '%s' "$timings" | sort -rn | awk -F'\t' '{ printf "  %5ss  %s\n", $1, $2 }'
  # The one definition of the line counts ROADMAP item 5 is judged by:
  # per crate, the lines before each file's first #[cfg(test)], and all.
  echo
  echo "Rust lines under crates/*/src   non-test    total"
  find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { split(FILENAME, part, "/"); crate = part[2]; in_test = 0 }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    { total[crate]++; if (!in_test) code[crate]++ }
    END {
      for (c in total) {
        printf "  %-28s %9d %8d\n", c, code[c], total[c] | "sort"
        all_code += code[c]; all_total += total[c]
      }
      close("sort")
      printf "  %-28s %9d %8d\n", "workspace", all_code, all_total
    }'
}

step "cargo build --release" \
  cargo build --release

# ROADMAP 1.1, held by a grep and not by a comment: the decision core has
# no clock, RNG, worker pool or observer, so a second driver can run it.
core_is_sans_io() {
  ! awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
      crates/core/src/decision.rs |
    grep -E 'sq_sim|sq_obs|WorkerPool|GroundTruth|std::time|Instant|thread::'
}
step "decision.rs names no clock, RNG, pool or observer (non-test part)" \
  core_is_sans_io

# The same way: no sq-bench suite reads a clock, so every document is a
# pure function of its params and wall-clock numbers live in benchmark/
# only. suite.rs alone may name one, for the seconds the driver prints
# per suite.
bench_reads_no_clock() {
  ! grep -rlE '\bInstant\b|SystemTime' crates/bench/src | grep -v '^crates/bench/src/suite\.rs$'
}
step "crates/bench/src reads no clock outside suite.rs" \
  bench_reads_no_clock

if [[ "$quick" == 1 ]]; then
  step "cargo test -q (root package: integration + property suites)" \
    cargo test -q
  summary
  echo "Quick checks passed."
  exit 0
fi

# The executor parks its idle workers on a condvar, so a lost wake-up is
# a test that never returns. This row runs before the workspace tests
# (which run the same suite again, untimed) and under `timeout`: a red
# row within minutes instead of a hung job.
step "timeout 300 cargo test --release -p sq-exec (a lost wake-up fails here, never hangs)" \
  timeout 300 cargo test --release -p sq-exec

# The workspace run already covers the root package (unit, integration
# including chaos_recovery, property and doc tests) — running
# `cargo test -q` first would execute all of those twice.
step "cargo test --workspace -q (every crate, including vendor shims)" \
  cargo test --workspace -q

step "cargo fmt --check" \
  cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings (vendor stand-ins excluded)" \
  cargo clippy --workspace --all-targets \
    --exclude bytes --exclude crossbeam --exclude parking_lot \
    --exclude proptest --exclude rand --exclude serde --exclude serde_derive \
    --exclude serde_json \
    -- -D warnings

# One driver (crates/bench/src/suite.rs): every suite's smoke gate, then
# all seven documents regenerated at full size and compared byte for
# byte with the committed BENCH_*.json. The driver prints each suite's
# own seconds.
step "sq-bench all --smoke (every suite: gate, required keys, byte-identical same-seed rerun)" \
  cargo run --release -p sq-bench -- all --smoke
step "sq-bench all (seven suites, fresh == committed, byte for byte)" \
  cargo run --release -p sq-bench -- all

# The wall-clock benchmark is a cargo package of its own (see
# benchmark/README.md): its unit + schema tests, then all four workloads
# at 1/20 size with every correctness gate — and once more traced, which
# adds the gates only the traced run has: the layer replay against its
# opaque twins (core.service.replay_coverage), the journal reopen and the
# follower promotion.
step "benchmark: cargo test --release (unit + schema tests)" \
  cargo test --release --offline --manifest-path benchmark/Cargo.toml
step "benchmark/run.sh --smoke (four workloads at 1/20 size, every gate)" \
  bash benchmark/run.sh --smoke
step "benchmark/run.sh --smoke --trace 1 (the traced gates: layer replay, journal reopen, promotion)" \
  bash benchmark/run.sh --smoke --trace 1

summary
echo "All checks passed."
