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

echo "==> bench harness smoke (match + solve + session + kernels + bound harnesses"
echo "    run, JSON schemas intact, packed/scalar bit-identity asserted)"
scripts/bench.sh --smoke

echo "==> exact-solver smoke contracts (bnb == exhaustive at smoke scale, no"
echo "    negative certified gap anywhere in the artifact)"
grep -q '"matches_exhaustive": true' target/BENCH_bound.smoke.json
! grep -q '"gap": -' target/BENCH_bound.smoke.json

echo "==> sparse-at-scale smoke contracts (sparse/dense bit-identity + solve identity"
echo "    asserted in-bin, dense refused its budget, spill path exercised)"
grep -q '"bit_identical": true' target/BENCH_scale.smoke.json
grep -q '"dense_refused": true' target/BENCH_scale.smoke.json

echo "==> tenancy smoke contracts (concurrent sessions bit-identical to serial"
echo "    replay, arena counts session-local — asserted in-bin)"
grep -q '"replay_bit_identical": true' target/BENCH_tenancy.smoke.json

echo "==> bound-pruned solve smoke contract (greedy and tabu select what the full"
echo "    scan over the bound-hidden objective selects, same quality bits — asserted in-bin)"
grep -q '"pruned_identical": true' target/BENCH_solve.smoke.json

echo "==> mubed serving smoke (4 concurrent sessions under a cancel storm,"
echo "    every history bit-identical to its serial cancel-free replay)"
cargo run --release -q --bin mubed -- --smoke

echo "==> frozen end-to-end benchmark package (builds --locked against the"
echo "    workspace crates it links; fmt, clippy, tests, traced smoke run)"
benchmark/check.sh

echo "==> committed kernel trajectory carries the full-run threshold verdict"
grep -q '"meets_thresholds": true' BENCH_kernels.json

echo "==> committed bound trajectory certifies exactness and closes its gaps"
grep -q '"matches_exhaustive": true' BENCH_bound.json
! grep -q '"gap": -' BENCH_bound.json

echo "==> committed scale trajectory certifies losslessness, the dense refusal and"
echo "    the sparse/dense solve-time threshold"
grep -q '"bit_identical": true' BENCH_scale.json
grep -q '"dense_refused": true' BENCH_scale.json
grep -q '"meets_thresholds": true' BENCH_scale.json

echo "==> committed tenancy trajectory certifies concurrent/serial bit-identity"
grep -q '"replay_bit_identical": true' BENCH_tenancy.json

echo "==> committed solve trajectory certifies bound-pruned == full-scan solves"
grep -q '"pruned_identical": true' BENCH_solve.json

echo "All checks passed."
