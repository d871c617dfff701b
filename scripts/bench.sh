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
# wall times for the in-tree arms. All seven write through one writer in
# crates/bench/src/lib.rs, which stamps the header (bench, mode,
# host_threads) and writes nothing that fails mube_bench::check_contracts.
# Each harness asserts its contracts in-bin before stamping the flags the
# contract requires: solve, serial re-runs byte-identical and pruned == full
# scan; session, arena and cold histories bit-identical; kernels,
# packed/scalar bit-identity, plus the ≥3x pairwise Jaccard and ≥2x matrix
# fill thresholds in full mode; bound, certified gaps non-negative and
# non-increasing, and bnb == exhaustive at n=12; scale (DESIGN.md §14),
# sparse/dense bit-identity and solve identity, the dense refusal at 10k
# sources, and in full mode a sparse solve within 1.2x of the dense one
# (median ratio over alternating solve pairs); tenancy, concurrent sessions
# bit-identical to serial replay. DESIGN.md §8–§10 and §12–§15 explain the
# output.
set -euo pipefail
cd "$(dirname "$0")/.."

for bench in match_kernel:match solve_portfolio:solve session_iterate:session \
  sim_kernels:kernels bound_gap:bound scale_match:scale tenancy:tenancy; do
  if [[ "${1:-}" == "--smoke" ]]; then
    cargo run --release -q -p mube-bench --bin "${bench%:*}" -- --smoke \
      --out "target/BENCH_${bench#*:}.smoke.json"
  else
    cargo run --release -q -p mube-bench --bin "${bench%:*}"
  fi
done
