//! Exact-vs-portfolio gap closure for the branch-and-bound solver:
//! regenerates `BENCH_bound.json`.
//!
//! Per universe size, three arms on the paper's default problem:
//!
//! * `portfolio` — the quick heuristic portfolio (tabu + SLS + greedy),
//!   the incumbent source branch-and-bound races in practice. Heuristics
//!   report a quality but no optimality claim.
//! * `anytime` — [`BranchAndBound`] warm-started from the portfolio
//!   incumbent under a ladder of node budgets. Each rung reports the
//!   incumbent quality, the certified gap (the true optimum provably lies
//!   in `[quality, quality + gap]`), and the node counters — the gap
//!   closure curve the anytime contract promises. The bin hard-asserts
//!   the gaps are non-negative and non-increasing along the ladder.
//! * `certificate` (smoke and full) — on a small side universe, an
//!   unlimited branch-and-bound run cross-checked bit-identically against
//!   the exhaustive enumerator: the end-to-end exactness proof at a scale
//!   where enumeration is feasible.
//!
//! Usage:
//!   cargo run --release -p mube-bench --bin bound_gap
//!   cargo run --release -p mube-bench --bin bound_gap -- --smoke --out target/BENCH_bound.smoke.json

use mube_bench::{engine, paper_spec, quick_portfolio, timed, timed_solve, universe, Run, Scale};
use mube_opt::{BranchAndBound, Exhaustive, Solver};
use mube_serve::json::{obj, Json};

/// Node-budget ladder for the anytime arm (0 = bound the root and stop:
/// pure warm-started incumbent plus a one-node certificate).
const BUDGETS: &[u64] = &[0, 64, 512, 4096];

fn bench_size(size: usize, m: usize) -> Json {
    eprintln!("== n = {size} sources ==");
    let generated = universe(size, 7, Scale::Reduced);
    let mube = engine(&generated);
    let spec = paper_spec(m);
    let seed = 7u64;

    let (portfolio_ms, best) = timed_solve(&mube, &spec, &quick_portfolio(), seed);

    // One shared objective across the ladder: later rungs re-walk the same
    // deterministic prefix against a warm memo cache, so the curve isolates
    // gap closure from Match(S) cost.
    let objective = mube.objective(&spec).expect("paper spec is feasible");
    let warm: Vec<usize> = best.selected.iter().map(|id| id.index()).collect();
    let mut rungs = Vec::new();
    let mut previous_gap = f64::INFINITY;
    for &budget in BUDGETS {
        let bnb = BranchAndBound {
            node_budget: budget,
            ..BranchAndBound::default()
        };
        let solver = bnb
            .with_warm_start(&warm)
            .expect("branch-and-bound supports warm starts");
        let (rung_ms, result) = timed(|| solver.solve(&objective, seed));
        let gap = result.gap.expect("branch-and-bound always certifies a gap");
        assert!(
            gap >= 0.0,
            "negative certified gap {gap} at budget {budget}"
        );
        assert!(
            gap <= previous_gap + 1e-12,
            "gap grew from {previous_gap} to {gap} at budget {budget}"
        );
        assert!(
            result.objective + 1e-9 >= best.overall_quality,
            "warm-started incumbent {} fell below the portfolio's {}",
            result.objective,
            best.overall_quality
        );
        previous_gap = gap;
        rungs.push(obj([
            ("budget", budget.into()),
            ("millis", rung_ms.into()),
            ("quality", result.objective.into()),
            ("gap", gap.into()),
            ("certified_upper", (result.objective + gap).into()),
            ("nodes_expanded", result.nodes_expanded.into()),
            ("nodes_pruned", result.nodes_pruned.into()),
            ("evaluations", result.evaluations.into()),
        ]));
    }

    obj([
        ("sources", size.into()),
        ("attrs", generated.universe.total_attrs().into()),
        ("max_sources", m.into()),
        (
            "portfolio",
            obj([
                ("millis", portfolio_ms.into()),
                ("quality", best.overall_quality.into()),
                ("winner", best.stats.portfolio_member.unwrap_or("-").into()),
            ]),
        ),
        ("anytime", rungs.into()),
    ])
}

/// The end-to-end exactness certificate: on a universe small enough to
/// enumerate, an unlimited branch-and-bound solve must reproduce the
/// exhaustive optimum bit-for-bit with a zero gap — while pruning.
fn certificate() -> Json {
    let generated = universe(12, 11, Scale::Reduced);
    let mube = engine(&generated);
    let spec = paper_spec(4);
    let (exact_ms, exact) = timed_solve(&mube, &spec, &BranchAndBound::default(), 11);
    let (_, sweep) = timed_solve(&mube, &spec, &Exhaustive::default(), 11);
    assert_eq!(
        exact.overall_quality.to_bits(),
        sweep.overall_quality.to_bits(),
        "bnb optimum {} != exhaustive optimum {}",
        exact.overall_quality,
        sweep.overall_quality
    );
    assert_eq!(exact.stats.gap, Some(0.0), "full run must close the gap");
    assert!(exact.stats.nodes_pruned > 0, "bounds never pruned");
    obj([
        ("sources", 12u32.into()),
        ("max_sources", 4u32.into()),
        ("quality", exact.overall_quality.into()),
        ("gap", 0.0.into()),
        ("matches_exhaustive", true.into()),
        ("nodes_expanded", exact.stats.nodes_expanded.into()),
        ("nodes_pruned", exact.stats.nodes_pruned.into()),
        ("exhaustive_evaluations", sweep.stats.evaluations.into()),
        ("millis", exact_ms.into()),
    ])
}

fn main() {
    let run = Run::from_args("bound_gap").expect("usage: [--smoke] [--out <path>]");
    let (sizes, m): (&[usize], usize) = if run.smoke {
        (&[20], 6)
    } else {
        (&[20, 40, 60], 10)
    };
    let certificate = certificate();
    let rows: Vec<Json> = sizes.iter().map(|&size| bench_size(size, m)).collect();
    run.write([
        ("scale", "reduced".into()),
        ("budgets", BUDGETS.to_vec().into()),
        ("units", obj([("millis", "single-run wall clock".into())])),
        (
            "note",
            "gap is the certified optimality gap: the true optimum lies in [quality, quality + \
             gap]; anytime rungs share one objective (warm memo cache); gaps are asserted \
             non-negative and non-increasing in-bin"
                .into(),
        ),
        ("certificate", certificate),
        ("sizes", rows.into()),
    ])
    .expect("artifact written");
}
