//! Extension experiment: precision/recall of the Match operator as the
//! matching threshold θ sweeps from loose to strict.
//!
//! The paper fixes θ = 0.75 and reports that µBE "never produced false
//! GAs". This sweep shows the tradeoff that sits behind that choice: a low
//! θ merges aggressively (more concepts found, but mixed/false GAs appear);
//! a high θ only clusters near-identical names (perfect precision, lower
//! recall). θ = 0.75 is comfortably inside the all-precision regime for
//! Web-form attribute names.
//!
//! Run: `cargo run --release -p mube-bench --bin theta_sweep [--full]`

use mube_bench::{engine, paper_spec, print_table, timed_solve, universe, Scale};
use mube_opt::TabuSearch;

fn main() {
    let scale = Scale::from_env();
    let generated = universe(200, 42, scale);
    let mube = engine(&generated);
    let solver = TabuSearch::default();

    let mut rows = Vec::new();
    for theta in [0.30, 0.45, 0.60, 0.75, 0.90] {
        let spec = paper_spec(20).with_theta(theta);
        let (_, solution) = timed_solve(&mube, &spec, &solver, 7);
        let score = generated
            .ground_truth
            .score(&solution.schema, solution.selected.iter().copied());
        rows.push(vec![
            format!("{theta:.2}"),
            solution.schema.len().to_string(),
            score.true_gas.to_string(),
            score.attrs_in_true_gas.to_string(),
            score.missed.to_string(),
            score.false_gas.to_string(),
            score.noise_gas.to_string(),
            format!("{:.4}", solution.qef_value("matching").unwrap_or(0.0)),
        ]);
    }
    print_table(
        "θ sweep: Match precision/recall (universe 200, m = 20)",
        &[
            "theta",
            "GAs",
            "true GAs",
            "attrs in true",
            "missed",
            "false GAs",
            "noise GAs",
            "F1",
        ],
        &rows,
    );
    println!(
        "\nshape: false GAs appear only at low θ; at the paper's θ = 0.75 precision is\n\
         perfect and recall is already near its ceiling (identical surface forms)."
    );
}
