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
  # The one definition of the line counts ROADMAP item 6 is judged by:
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

# Held by a grep and not by a comment: the decision core, and the
# speculation table it keeps from round to round, name no workload,
# clock, RNG, worker pool or observer, so any driver can feed them.
core_is_sans_io() {
  ! awk 'FNR == 1 { in_test = 0 } /#\[cfg\(test\)\]/ { in_test = 1 }
         !in_test { print FILENAME ":" FNR ": " $0 }' \
      crates/core/src/decision.rs crates/core/src/speculation.rs |
    grep -E 'Workload|sq_sim|sq_obs|WorkerPool|GroundTruth|std::time|Instant|thread::'
}
step "decision.rs and speculation.rs name no workload, clock, RNG, pool or observer (non-test parts)" \
  core_is_sans_io

# The same way: no sq-bench suite reads a clock or runs a store, an
# executor or a thread, so every document is a simulator's pure function
# of its params and wall-clock numbers live in benchmark/ only. suite.rs
# alone may name a clock, for the seconds the driver prints per suite.
bench_is_sim_only() {
  local found
  found=$({
    grep -rlE '\bInstant\b|SystemTime' crates/bench/src | grep -v '^crates/bench/src/suite\.rs$'
    grep -rlE 'sq_store|sq_exec|sq_server|thread::' crates/bench/src
  } || true)
  [[ -z "$found" ]] || { echo "$found"; return 1; }
}
step "crates/bench/src reads no clock (outside suite.rs) and runs no store, executor or thread" \
  bench_is_sim_only

# And once more: every crate forbids `unsafe`. The SHA-256 and BUILD
# tokenizer kernels invite intrinsics and unchecked indexing; a gain
# that needs either is a change to this row, argued on its own.
crates_forbid_unsafe() {
  local missing
  missing=$(grep -L '^#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs || true)
  [[ -z "$missing" ]] || { echo "$missing"; return 1; }
}
step "every crates/*/src/lib.rs keeps #![forbid(unsafe_code)]" \
  crates_forbid_unsafe

# No ambient state: what a computation derives lives on the data it was
# derived from (a tree's parsed graph and hashes on its root directory,
# and a store mark's epoch on the store's map, DESIGN.md §13), so it is
# shared exactly as far as that data is and dies with it. Over the non-test part of every
# crates/*/src file (comment lines dropped): no thread_local! and no
# static of a lock, cell, atomic or lazy value.
no_ambient_state() {
  ! find crates/*/src -name '*.rs' | sort |
    xargs awk 'FNR == 1 { in_test = 0 } /#\[cfg\(test\)\]/ { in_test = 1 }
               !in_test && !/^[ \t]*\/\// { print FILENAME ":" FNR ": " $0 }' |
    grep -E "thread_local!|(^|[^'[:alnum:]_])static[[:space:]].*\b(Mutex|RwLock|RefCell|Cell|Atomic[A-Za-z0-9]*|OnceLock|LazyLock)\b"
}
step "crates/*/src declare no thread_local! and no static lock, cell, atomic or lazy value (non-test parts)" \
  no_ambient_state

# ROADMAP item 6, held the same way: no capability without a caller. Over
# the non-test part of every .rs under crates/*/src, src, examples and
# benchmark/src (lines before the file's first #[cfg(test)]; comment
# lines and `pub use` statements dropped), every name declared `pub` or
# `pub(crate)` fn|struct|enum|trait|const|type under crates/*/src or src
# must occur more often than it is declared. Name-based, so a tripwire
# and not a proof: `new` and `len` never trip it, and a type with an
# `impl` block names itself. That is its blind spot: a `len`, `record_into`
# or `status` nothing calls hides behind every other function of its name.
# rustc's dead-code pass has no such spot; EXPERIMENTS.md "PR 27" gives
# the procedure that asks it and the keep-table of what it still prints.
# The exceptions are the names only tests reach that (b) tests of other
# behaviour use as an oracle or to inject a fault, or that detect or
# repair one, or (c) a ROADMAP item names as its input; an exception
# that no longer needs excepting is an offender too.
census_exceptions=$(cat <<'EXCEPTIONS'
advance_base              # (c) RealAnalyzer's input; ROADMAP item 1.3 serves through it
register                  # (c) RealAnalyzer's input; ROADMAP item 1.3 serves through it
preview                   # (c) Repository::preview, the speculative snapshot of ROADMAP item 1.3
even                      # (b) strategy_pins.rs and decision_any_order.rs split their lanes with it
needs_history             # (b) strategy_pins.rs reads it per kind
assert_idempotent_export  # (b) the oracle of every record_into test
gauge                     # (b) tests of exporters read gauges back through it
send_raw                  # (b) fault injection: hostile frames in server_loop.rs and protocol_props.rs
reconnect                 # (b) repairs a down link (store-level; chaos_recovery.rs heals with it)
link_states               # (b) detects a down or lagging link
chop                      # (b) fault injection: torn journal tails in journal_props.rs
flip_bit                  # (b) fault injection: bit rot in journal, snapshot and ship tests
is_dead                   # (b) fault injection: reads whether a crash plan fired
apply_hunks               # (b) the oracle of the diff tests and properties
total_bytes               # (b) the measure of the stores-its-spine tests in tree.rs and repo_model.rs
commit_count              # (b) the snapshot-isolation oracle of tests/service_concurrency.rs
integral_multiplier       # (b) the analytic oracle scenario_props.rs holds the thinned arrivals to
topo_order                # (b) analysis_pin.rs pins and graph_oracle.rs checks the order by name; Algorithm 1 walks it by position
open_leader               # (c) ROADMAP item 8's 3-replica crash-exhaustive run and item 4's cluster harness open through it
at_op                     # (b) fault injection: a crash plan that fires at one storage op
revive                    # (b) repairs a crashed medium so the deposed leader rejoins (chaos_recovery.rs)
set_plan                  # (b) fault injection: arms a crash plan on a live medium
EXCEPTIONS
)
no_capability_without_a_caller() {
  local offenders
  offenders=$(find crates/*/src src examples benchmark/src -name '*.rs' | sort |
    xargs awk -v exceptions="$(awk 'NF { print $1 }' <<<"$census_exceptions")" '
    BEGIN { n = split(exceptions, list, "\n"); for (i = 1; i <= n; i++) excepted[list[i]] = 1 }
    FNR == 1 { in_test = 0; in_use = 0; declares = (FILENAME ~ /^(crates\/[^\/]+\/src|src)\//) }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    in_test || /^[ \t]*\/\// { next }
    in_use { if (/;/) in_use = 0; next }
    /^[ \t]*pub(\([a-z]+\))? use / { in_use = !/;/; next }
    {
      line = $0
      if (declares && match(line, /pub(\(crate\))? +(const +|unsafe +)*(fn|struct|enum|trait|const|type) +[A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(line, RSTART, RLENGTH); sub(/.* /, "", name)
        declared[name]++
        if (!(name in where)) where[name] = FILENAME
      }
      while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
        seen[substr(line, RSTART, RLENGTH)]++
        line = substr(line, RSTART + RLENGTH)
      }
    }
    END {
      for (name in declared)
        if (seen[name] == declared[name] && !(name in excepted)) print where[name] ": " name
      for (name in excepted)
        if (seen[name] != declared[name]) print "scripts/check.sh: " name " (excepted, but it has a caller or is gone)"
    }' | sort)
  [[ -z "$offenders" ]] || { echo "$offenders"; return 1; }
}
step "no capability without a caller (name census of the non-test sources)" \
  no_capability_without_a_caller

if [[ "$quick" == 1 ]]; then
  step "cargo test -q (root package: integration + property suites)" \
    cargo test -q
  summary
  echo "Quick checks passed."
  exit 0
fi

# The executor parks its idle workers on a condvar, and no sq-server
# thread waits with a time-out (acceptors block in `accept`, connection
# workers in `read`, the processor on its condvar), so in either crate a
# lost wake-up is a test that never returns. These rows run before the
# workspace tests (which run the same suites again, untimed) and under
# `timeout`: a red row within minutes instead of a hung job.
step "timeout 300 cargo test --release -p sq-exec (a lost wake-up fails here, never hangs)" \
  timeout 300 cargo test --release -p sq-exec
step "timeout 300 cargo test --release -p sq-server (a lost wake-up fails here, never hangs)" \
  timeout 300 cargo test --release -p sq-server

# The workspace run already covers the root package (unit, integration
# including chaos_recovery, property and doc tests) — running
# `cargo test -q` first would execute all of those twice.
step "cargo test --workspace -q (every crate, including vendor shims)" \
  cargo test --workspace -q

# The README's example, run rather than only compiled: it asserts that a
# good change lands, a bad one is rejected, and verify_history finds the
# mainline green.
step "cargo run --example quickstart (the README's example, its asserts run)" \
  cargo run --release --offline --example quickstart

step "cargo fmt --check" \
  cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings (vendor stand-ins excluded)" \
  cargo clippy --workspace --all-targets \
    --exclude bytes --exclude crossbeam --exclude parking_lot \
    --exclude proptest --exclude rand --exclude serde --exclude serde_derive \
    --exclude serde_json \
    -- -D warnings

# One driver (crates/bench/src/suite.rs): every suite's smoke gate, then
# all three documents regenerated at full size and compared byte for
# byte with the committed BENCH_*.json. The driver prints each suite's
# own seconds.
step "sq-bench all --smoke (every suite: gate, required keys, byte-identical same-seed rerun)" \
  cargo run --release -p sq-bench -- all --smoke
step "sq-bench all (three suites, fresh == committed, byte for byte)" \
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
