//! Compares the four metaheuristics the paper evaluated (tabu search,
//! constrained simulated annealing, binary PSO, stochastic local search)
//! plus greedy and random baselines, on one µBE problem instance.
//!
//! The paper's finding — "we found that tabu search gives the best
//! results" — is reproduced quantitatively by the `optimizer_comparison`
//! bench binary; this example shows the API for plugging any solver in.
//!
//! Run with: `cargo run --release --example optimizer_shootout`

use mube::datagen::UniverseConfig;
use mube::prelude::*;

fn main() {
    let generated = UniverseConfig::small_test(120, 3).generate();
    let mube = MubeBuilder::new(&generated.universe)
        .sketches(generated.sketches.clone())
        .build();
    let spec = ProblemSpec::new(15);

    let solvers: Vec<Box<dyn Solver>> = vec![
        Box::new(TabuSearch::default()),
        Box::new(SimulatedAnnealing::default()),
        Box::new(BinaryPso::default()),
        Box::new(StochasticLocalSearch::default()),
        Box::new(Greedy),
        Box::new(RandomSearch::default()),
    ];

    println!(
        "{:<24} {:>8} {:>10} {:>10} {:>12}",
        "solver", "Q(S)", "evals", "match", "elapsed"
    );
    for solver in &solvers {
        // Average over three seeds for a fair glimpse; the bench harness
        // does this properly with more repetitions.
        let mut best_q = f64::NEG_INFINITY;
        let mut total_q = 0.0;
        let mut evals = 0u64;
        let mut matches = 0u64;
        let mut elapsed = std::time::Duration::ZERO;
        const SEEDS: u64 = 3;
        for seed in 0..SEEDS {
            let solution = mube
                .solve(&spec, solver.as_ref(), seed)
                .expect("unconstrained problem always feasible");
            total_q += solution.overall_quality;
            best_q = best_q.max(solution.overall_quality);
            evals += solution.stats.evaluations;
            matches += solution.stats.match_calls;
            elapsed += solution.stats.elapsed;
        }
        println!(
            "{:<24} {:>8.4} {:>10} {:>10} {:>12?}   (best {best_q:.4})",
            solver.name(),
            total_q / SEEDS as f64,
            evals / SEEDS,
            matches / SEEDS,
            elapsed / SEEDS as u32,
        );
    }
}
