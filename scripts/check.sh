#!/usr/bin/env bash
# Full CI gauntlet for the mube workspace. Every step must pass; the first
# failure aborts the run. Referenced from ROADMAP.md (tier-1 verify) and
# README.md (§Checks).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> mube-xtask lint (no-panic / float-eq / crate-attrs / no-hash-iter /"
echo "    no-ambient-entropy / float-ord / lock-discipline; report at target/lint-report.json)"
cargo run -q -p mube-xtask -- lint

echo "==> lint allowlist round-trip (lint-allow.txt counts match the tree)"
cp lint-allow.txt target/lint-allow.pre
cargo run -q -p mube-xtask -- lint --update-allowlist >/dev/null
diff -u target/lint-allow.pre lint-allow.txt

echo "==> cargo clippy --workspace (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> bench harness smoke (all seven trajectory harnesses run at smoke scale and"
echo "    assert their contracts in-bin; each writer refuses an artifact that breaks"
echo "    mube_bench::check_contracts, and the workspace tests held the committed"
echo "    artifacts to the same contracts)"
scripts/bench.sh --smoke

echo "==> mubed serving smoke (4 concurrent sessions under a cancel storm,"
echo "    every history bit-identical to its serial cancel-free replay)"
cargo run --release -q --bin mubed -- --smoke

echo "==> frozen end-to-end benchmark package (builds --locked against the"
echo "    workspace crates it links; fmt, clippy, tests, traced smoke run)"
benchmark/check.sh

echo "All checks passed."
