//! Section 7.4 (text): robustness to weight perturbation.
//!
//! "We conducted several experiments where we randomly perturbed the values
//! of all the weights by up to 15%, and we found that perturbing the
//! weights caused at most 1 GA in the solution to change, and the selected
//! sources rarely changed."
//!
//! Robustness here is a property of the *iterative workflow*: the user
//! tweaks weights mid-session and µBE re-optimizes from the current
//! solution (warm start). Each perturbed problem is therefore solved
//! starting from the baseline solution; a cold re-search would measure the
//! metaheuristic's seed variance instead of the weights' effect.
//!
//! Run: `cargo run --release -p mube-bench --bin sensitivity [--full]`

use mube_bench::{engine, paper_spec, print_table, timed_solve, universe, Scale};
use mube_opt::TabuSearch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let scale = Scale::from_env();
    let generated = universe(200, 42, scale);
    let mube = engine(&generated);
    let solver = TabuSearch::default();
    let m = 20;

    let baseline_spec = paper_spec(m);
    let (_, baseline) = timed_solve(&mube, &baseline_spec, &solver, 7);

    let trials = 10u64;
    let mut rng = StdRng::seed_from_u64(1234);
    let mut rows = Vec::new();
    let mut max_ga_changes = 0usize;
    let mut source_change_trials = 0usize;
    for trial in 0..trials {
        // Perturb every weight by a factor in [0.85, 1.15], renormalize.
        let factors: Vec<f64> = (0..5).map(|_| rng.gen_range(0.85..=1.15)).collect();
        let weights = baseline_spec
            .weights
            .perturbed(&factors)
            .expect("perturbed weights valid");
        let spec = paper_spec(m).with_weights(weights);
        // Warm-start from the baseline solution, same solver seed: isolate
        // the weight effect.
        let warm = TabuSearch {
            warm_start: Some(baseline.selected.iter().map(|s| s.index()).collect()),
            ..TabuSearch::default()
        };
        let (_, solution) = timed_solve(&mube, &spec, &warm, 7);
        let ga_changes = baseline.schema.ga_changes(&solution.schema);
        let source_changes = baseline
            .selected
            .iter()
            .filter(|s| !solution.selected.contains(s))
            .count()
            + solution
                .selected
                .iter()
                .filter(|s| !baseline.selected.contains(s))
                .count();
        max_ga_changes = max_ga_changes.max(ga_changes);
        if source_changes > 0 {
            source_change_trials += 1;
        }
        rows.push(vec![
            trial.to_string(),
            format!("{ga_changes}"),
            format!("{source_changes}"),
            format!("{:.4}", solution.overall_quality),
        ]);
    }
    print_table(
        "Section 7.4: ±15% weight perturbation (universe 200, m = 20)",
        &["trial", "GA changes", "source changes", "Q(S)"],
        &rows,
    );
    println!(
        "\nmax GA symmetric-difference across trials: {max_ga_changes}; trials with any \
         source change: {source_change_trials}/{trials}"
    );
    println!(
        "paper shape: at most ~1 GA changes; selected sources rarely change.\n\
         (GA changes are counted as symmetric difference, so one changed GA counts 2.)"
    );
}
