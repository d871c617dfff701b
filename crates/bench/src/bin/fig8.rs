//! Figure 8: sensitivity of the chosen solution's cardinality to the weight
//! of the Card QEF, sweeping 0.1 → 1.0 with the remaining weights equal.
//!
//! Expected shape (paper): cardinality of the chosen solution increases
//! with the weight, then flattens around weight ≈ 0.5 once µBE is already
//! choosing the top-cardinality sources that satisfy the matching
//! threshold.
//!
//! Run: `cargo run --release -p mube-bench --bin fig8 [--full]`

use mube_bench::{engine, paper_spec, print_table, timed_solve, universe, Scale};
use mube_opt::TabuSearch;
use mube_qef::Weights;

fn main() {
    let scale = Scale::from_env();
    let generated = universe(200, 42, scale);
    let mube = engine(&generated);
    let solver = TabuSearch::default();
    let m = 20;
    let total: u64 = generated.universe.total_cardinality();

    let mut rows = Vec::new();
    for step in 1..=10 {
        let w = f64::from(step) / 10.0;
        let weights = Weights::paper_defaults()
            .with_pinned("cardinality", w)
            .expect("valid pin");
        let spec = paper_spec(m).with_weights(weights);
        let (_, solution) = timed_solve(&mube, &spec, &solver, 7);
        let chosen: u64 = generated
            .universe
            .cardinality_of(solution.selected.iter().copied());
        rows.push(vec![
            format!("{w:.1}"),
            chosen.to_string(),
            format!("{:.3}", chosen as f64 / total as f64),
        ]);
    }
    print_table(
        "Figure 8: cardinality of the chosen solution vs Card-QEF weight",
        &["card weight", "tuples chosen", "fraction of universe"],
        &rows,
    );
    println!("\npaper shape: rises with the weight, flattens after ~0.5.");
}
