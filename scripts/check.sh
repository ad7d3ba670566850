#!/usr/bin/env bash
# Tier-1 gate plus lint checks. Run from the repository root.
#
#   scripts/check.sh          # everything (what CI runs)
#   scripts/check.sh --quick  # release build + root-package tests only
#
# Every step reports its elapsed seconds, and a summary sorted by cost
# prints at the end so the slowest gate is always the first line.
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
}

step "cargo build --release" \
  cargo build --release

if [[ "$quick" == 1 ]]; then
  step "cargo test -q (root package: integration + property suites)" \
    cargo test -q
  summary
  echo "Quick checks passed."
  exit 0
fi

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

smoke() { # smoke <bin> <description>
  step "$1 --smoke ($2)" \
    cargo run --release -p sq-bench --bin "$1" -- --smoke
}

smoke bench_e2e "machine-readable benchmark: emit + validate JSON"
smoke bench_recovery "durable store: replay throughput + byte-identical recovery"
smoke bench_conflict "perf gate: indexed+parallel <= serial, byte-identical matrices"
smoke bench_scenarios "adversarial matrix: always-green, no wrongful rejections, byte-identical rerun"
smoke bench_replication "zero-loss gate: seeded failover, byte-identical state vs uncrashed twin"
smoke bench_server "serving layer: zero lost acks across graceful drain/restart, byte-identical rerun"
smoke bench_shard "sharded planner: always-green, zero wrongful per lane, sharded >= single-queue, byte-identical rerun"
smoke bench_lean "lean ablation: every cell green, zero wrongful rejections, all-on wastes less than baseline, byte-identical rerun"

# The wall-clock benchmark (BENCHMARK.json) builds against these crates
# by path from its own workspace: run it tiny so a serving-path change
# that breaks its build or one of its checks (serve.no_lost_acks,
# serve.matches_reference, ...) fails here, not in a later benchmark run.
step "perfbench --self-test (wall-clock benchmark: builds, every metric present, every check passes)" \
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --self-test

summary
echo "All checks passed."
