#!/usr/bin/env bash
# Regenerates the persistent perf trajectories (Match kernel + solve stack +
# iterative session + packed similarity kernels + exact-solver gap closure).
#
#   scripts/bench.sh           full run; rewrites BENCH_match.json,
#                              BENCH_solve.json, BENCH_session.json,
#                              BENCH_kernels.json, BENCH_bound.json,
#                              BENCH_scale.json and BENCH_tenancy.json
#                              (all checked in)
#   scripts/bench.sh --smoke   tiny sizes, one rep; writes target/*.smoke.json
#                              (not checked in) — wired into scripts/check.sh as a
#                              cheap "the harness still runs end to end" gate.
#
# Full runs should happen on a quiet machine; the harnesses take best-of-N
# wall times for the in-tree arms. The solve harness asserts the determinism
# contract (serial re-run byte-identical, pruned == full scan); the session
# harness asserts that arena-backed and cold sessions produce bit-identical
# histories; the kernels harness asserts packed/scalar bit-identity in every
# mode and the acceptance thresholds (≥3x pairwise Jaccard, ≥2x matrix fill)
# in full mode. See DESIGN.md §8 (Match kernel), §9 (solve stack), §10
# (session arena), §12 (packed kernels) and §13 (exact branch-and-bound) for
# how to read the output. The bound harness asserts its own contracts in-bin:
# certified gaps non-negative and non-increasing along the budget ladder, and
# the unlimited run bit-identical to the exhaustive enumerator at n=12. The
# scale harness (DESIGN.md §14) asserts sparse/dense bit-identity and solve
# identity every run, and that the dense backend refuses its memory budget
# at the 10k-source tier while the spill-backed sparse build carries Match
# and the greedy solve anyway; a full run also asserts the sparse solve
# stays within 1.2x of the dense one.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
  cargo run --release -q -p mube-bench --bin match_kernel -- --smoke --out target/BENCH_match.smoke.json
  cargo run --release -q -p mube-bench --bin solve_portfolio -- --smoke --out target/BENCH_solve.smoke.json
  cargo run --release -q -p mube-bench --bin session_iterate -- --smoke --out target/BENCH_session.smoke.json
  cargo run --release -q -p mube-bench --bin sim_kernels -- --smoke --out target/BENCH_kernels.smoke.json
  cargo run --release -q -p mube-bench --bin bound_gap -- --smoke --out target/BENCH_bound.smoke.json
  cargo run --release -q -p mube-bench --bin scale_match -- --smoke --out target/BENCH_scale.smoke.json
  cargo run --release -q -p mube-bench --bin tenancy -- --smoke --out target/BENCH_tenancy.smoke.json
else
  cargo run --release -q -p mube-bench --bin match_kernel
  cargo run --release -q -p mube-bench --bin solve_portfolio
  cargo run --release -q -p mube-bench --bin session_iterate
  cargo run --release -q -p mube-bench --bin sim_kernels
  cargo run --release -q -p mube-bench --bin bound_gap
  cargo run --release -q -p mube-bench --bin scale_match
  cargo run --release -q -p mube-bench --bin tenancy
fi
