//! Comparison against the related-work baseline (Section 8): quality-driven
//! source selection with Data Envelopment Analysis (Naumann et al.), plus a
//! naive top-cardinality heuristic.
//!
//! DEA scores each source independently by its best-case output/input
//! ratio, so it cannot account for schema coherence between the chosen
//! sources or overlap in their data. µBE's objective evaluates the *set*.
//! Expected shape: DEA and top-k match µBE on the per-source dimensions
//! (cardinality, MTTF) but lose on overall Q(S) — specifically on matching,
//! coverage-per-tuple, and redundancy.
//!
//! Run: `cargo run --release -p mube-bench --bin dea_baseline [--full]`

use std::time::Instant;

use mube_baseline::{DeaBaseline, TopCardinality};
use mube_bench::{engine, paper_spec, print_table, timed_solve, universe, Scale};
use mube_opt::TabuSearch;
use mube_schema::SourceId;

fn main() {
    let scale = Scale::from_env();
    let generated = universe(200, 42, scale);
    let mube = engine(&generated);
    let spec = paper_spec(20);

    // µBE (tabu search).
    let (mube_millis, mube_solution) = timed_solve(&mube, &spec, &TabuSearch::default(), 7);

    // DEA: score independently, take the top 20, then evaluate the set
    // under the SAME objective µBE used.
    let dea = DeaBaseline::paper_comparison();
    let dea_start = Instant::now();
    let dea_picks = dea.select(&generated.universe, 20);
    let dea_time = dea_start.elapsed();
    let dea_q = mube.evaluate(&spec, &dea_picks).expect("evaluable");

    // Naive top-cardinality.
    let top_picks = TopCardinality.select(&generated.universe, 20);
    let top_q = mube.evaluate(&spec, &top_picks).expect("evaluable");

    let gt = &generated.ground_truth;
    let score = |ids: &[SourceId]| {
        let objective = mube.objective(&spec).expect("valid spec");
        let outcome = objective.match_schema(ids);
        let schema = outcome.map(|o| o.schema).unwrap_or_default();
        gt.score(&schema, ids.iter().copied())
    };
    let mube_score = gt.score(
        &mube_solution.schema,
        mube_solution.selected.iter().copied(),
    );
    let dea_score = score(&dea_picks);
    let top_score = score(&top_picks);

    let rows = vec![
        vec![
            "µBE (tabu)".to_owned(),
            format!("{:.4}", mube_solution.overall_quality),
            mube_score.true_gas.to_string(),
            mube_score.false_gas.to_string(),
            format!("{:.2}", mube_millis / 1e3),
        ],
        vec![
            "DEA top-20".to_owned(),
            format!("{dea_q:.4}"),
            dea_score.true_gas.to_string(),
            dea_score.false_gas.to_string(),
            format!("{:.2}", dea_time.as_secs_f64()),
        ],
        vec![
            "top-cardinality".to_owned(),
            format!("{top_q:.4}"),
            top_score.true_gas.to_string(),
            top_score.false_gas.to_string(),
            "0.00".to_owned(),
        ],
    ];
    print_table(
        "DEA / top-k baselines vs µBE (universe 200, m = 20, same objective)",
        &["method", "Q(S)", "true GAs", "false GAs", "time (s)"],
        &rows,
    );

    // The scenario the baselines cannot handle at all: user constraints.
    // Per-source scoring has no notion of "this GA must appear" — its
    // selections are infeasible unless they accidentally contain every
    // required source; µBE treats constraints natively.
    let patch = mube_bench::constraint_variants(&generated, 42)
        .pop()
        .expect("variants nonempty")
        .1;
    let constrained = patch.apply(paper_spec(20));
    let (c_millis, c_solution) = timed_solve(&mube, &constrained, &TabuSearch::default(), 7);
    let required: Vec<SourceId> = {
        let mut c = mube_schema::Constraints::none();
        c.require_sources(patch.sources.iter().copied());
        for ga in &patch.gas {
            c.require_ga(ga.clone());
        }
        c.required_sources().into_iter().collect()
    };
    let dea_feasible = required.iter().all(|s| dea_picks.contains(s));
    let top_feasible = required.iter().all(|s| top_picks.contains(s));
    println!(
        "\nwith 5 source + 2 GA constraints: µBE Q = {:.4} in {:.2}s (all constraints \
         honored);\nDEA selection satisfies the source constraints: {dea_feasible}; \
         top-cardinality: {top_feasible}.",
        c_solution.overall_quality,
        c_millis / 1e3
    );

    // DEA cost scaling: one LP per source, each LP with one row per source.
    let mut scaling = Vec::new();
    for &n in &[25usize, 50, 100, 200] {
        let g = universe(n, 42, scale);
        let start = Instant::now();
        let _ = dea.select(&g.universe, 20.min(n));
        scaling.push(vec![
            n.to_string(),
            format!("{:.3}", start.elapsed().as_secs_f64()),
        ]);
    }
    print_table(
        "DEA scoring cost vs universe size (n LPs of n constraints each)",
        &["universe", "time (s)"],
        &scaling,
    );
    println!(
        "\npaper shape: µBE clearly beats DEA's per-source scoring on set-level quality.\n\
         Top-cardinality is competitive on this *unconstrained* instance because the\n\
         matching QEF saturates at θ = 0.75 — but no per-source heuristic can honor\n\
         user constraints, which is µBE's raison d'être. DEA's cost grows\n\
         superlinearly in the number of sources (the related work 'does not scale\n\
         beyond 10 to 20 sources')."
    );
}
