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

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mube_bench::{engine, paper_spec, universe, Scale};
use mube_opt::{
    BranchAndBound, Exhaustive, Greedy, Portfolio, Solver, StochasticLocalSearch, TabuSearch,
};

/// Node-budget ladder for the anytime arm (0 = bound the root and stop:
/// pure warm-started incumbent plus a one-node certificate).
const BUDGETS: &[u64] = &[0, 64, 512, 4096];

/// The heuristic incumbent portfolio branch-and-bound races.
fn portfolio() -> Portfolio {
    Portfolio {
        members: vec![
            Arc::new(TabuSearch::quick()),
            Arc::new(StochasticLocalSearch {
                restarts: 4,
                max_steps: 40,
                ..StochasticLocalSearch::default()
            }),
            Arc::new(Greedy),
        ],
        rounds: 2,
        cross_seed: true,
    }
}

fn bench_size(size: usize, m: usize, out: &mut String) {
    eprintln!("== n = {size} sources ==");
    let generated = universe(size, 7, Scale::Reduced);
    let mube = engine(&generated);
    let spec = paper_spec(m);
    let seed = 7u64;

    let portfolio_start = Instant::now();
    let best = mube
        .solve(&spec, &portfolio(), seed)
        .expect("paper spec is feasible");
    let portfolio_ms = portfolio_start.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "  portfolio {portfolio_ms:.1} ms, quality {:.6} (winner {})",
        best.overall_quality,
        best.stats.portfolio_member.unwrap_or("-"),
    );

    // One shared objective across the ladder: later rungs re-walk the same
    // deterministic prefix against a warm memo cache, so the curve isolates
    // gap closure from Match(S) cost.
    let objective = mube.objective(&spec).expect("paper spec is feasible");
    let warm: Vec<usize> = best.selected.iter().map(|id| id.index()).collect();
    let mut rungs: Vec<String> = Vec::new();
    let mut previous_gap = f64::INFINITY;
    for &budget in BUDGETS {
        let bnb = BranchAndBound {
            node_budget: budget,
            ..BranchAndBound::default()
        };
        let solver = bnb
            .with_warm_start(&warm)
            .expect("branch-and-bound supports warm starts");
        let rung_start = Instant::now();
        let result = solver.solve(&objective, seed);
        let rung_ms = rung_start.elapsed().as_secs_f64() * 1e3;
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
        eprintln!(
            "  bnb budget {budget:>5}: {rung_ms:8.1} ms, quality {:.6}, gap {:.6}, \
             {} expanded / {} pruned",
            result.objective, gap, result.nodes_expanded, result.nodes_pruned
        );
        rungs.push(format!(
            "{{\"budget\": {}, \"millis\": {:.3}, \"quality\": {:.6}, \"gap\": {:.6}, \
             \"certified_upper\": {:.6}, \"nodes_expanded\": {}, \"nodes_pruned\": {}, \
             \"evaluations\": {}}}",
            budget,
            rung_ms,
            result.objective,
            gap,
            result.objective + gap,
            result.nodes_expanded,
            result.nodes_pruned,
            result.evaluations,
        ));
    }

    let _ = write!(
        out,
        "    {{\"sources\": {}, \"attrs\": {}, \"max_sources\": {}, \
         \"portfolio\": {{\"millis\": {:.3}, \"quality\": {:.6}, \"winner\": \"{}\"}}, \
         \"anytime\": [{}]}}",
        size,
        generated.universe.total_attrs(),
        m,
        portfolio_ms,
        best.overall_quality,
        best.stats.portfolio_member.unwrap_or("-"),
        rungs.join(", "),
    );
}

/// The end-to-end exactness certificate: on a universe small enough to
/// enumerate, an unlimited branch-and-bound solve must reproduce the
/// exhaustive optimum bit-for-bit with a zero gap — while pruning.
fn certificate(out: &mut String) {
    let generated = universe(12, 11, Scale::Reduced);
    let mube = engine(&generated);
    let spec = paper_spec(4);
    let start = Instant::now();
    let exact = mube
        .solve(&spec, &BranchAndBound::default(), 11)
        .expect("spec is feasible");
    let exact_ms = start.elapsed().as_secs_f64() * 1e3;
    let sweep = mube
        .solve(&spec, &Exhaustive::default(), 11)
        .expect("spec is feasible");
    assert_eq!(
        exact.overall_quality.to_bits(),
        sweep.overall_quality.to_bits(),
        "bnb optimum {} != exhaustive optimum {}",
        exact.overall_quality,
        sweep.overall_quality
    );
    assert_eq!(exact.stats.gap, Some(0.0), "full run must close the gap");
    assert!(exact.stats.nodes_pruned > 0, "bounds never pruned");
    eprintln!(
        "== certificate: bnb == exhaustive at n=12 (quality {:.6}, {} expanded / {} pruned, \
         {exact_ms:.1} ms) ==",
        exact.overall_quality, exact.stats.nodes_expanded, exact.stats.nodes_pruned
    );
    let _ = write!(
        out,
        "{{\"sources\": 12, \"max_sources\": 4, \"quality\": {:.6}, \"gap\": 0.0, \
         \"matches_exhaustive\": true, \"nodes_expanded\": {}, \"nodes_pruned\": {}, \
         \"exhaustive_evaluations\": {}, \"millis\": {:.3}}}",
        exact.overall_quality,
        exact.stats.nodes_expanded,
        exact.stats.nodes_pruned,
        sweep.stats.evaluations,
        exact_ms,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_bound.json".to_owned());
    let (sizes, m): (&[usize], usize) = if smoke {
        (&[20], 6)
    } else {
        (&[20, 40, 60], 10)
    };

    let mut certificate_body = String::new();
    certificate(&mut certificate_body);

    let mut body = String::new();
    for (i, &size) in sizes.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        bench_size(size, m, &mut body);
    }
    let json = format!(
        "{{\n  \"bench\": \"bound_gap\",\n  \"mode\": \"{}\",\n  \"scale\": \"reduced\",\n  \
         \"budgets\": {:?},\n  \
         \"units\": {{\"millis\": \"single-run wall clock\", \"gap\": \"certified optimality gap: true optimum in [quality, quality + gap]\"}},\n  \
         \"note\": \"anytime rungs share one objective (warm memo cache); gaps are asserted non-negative and non-increasing in-bin\",\n  \
         \"certificate\": {},\n  \"sizes\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        BUDGETS,
        certificate_body,
        body
    );
    std::fs::write(&out_path, &json).expect("write BENCH json");
    for key in [
        "certified_upper",
        "nodes_expanded",
        "nodes_pruned",
        "matches_exhaustive",
        "certificate",
        "gap",
    ] {
        assert!(json.contains(key), "BENCH json lost key {key}");
    }
    println!("wrote {out_path}");
}
