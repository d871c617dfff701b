//! Sections 6 and 7.2 (text): the optimizer comparison.
//!
//! "To solve these problems, we tried using stochastic local search,
//! particle swarm optimization, constrained simulated annealing, and tabu
//! search, and we found that tabu search gives the best results. [...] Our
//! experiments showed that tabu search is more robust and generates higher
//! quality solutions than other optimization techniques."
//!
//! Compares all solvers on the paper's default problem, reporting mean,
//! worst (robustness), and best quality across seeds, plus effort.
//!
//! Run: `cargo run --release -p mube-bench --bin optimizer_comparison [--full]`

use mube_bench::{average_runs, engine, paper_spec, print_table, universe, Scale};
use mube_opt::{
    BinaryPso, Greedy, RandomSearch, SimulatedAnnealing, Solver, StochasticLocalSearch, TabuSearch,
};

fn main() {
    let scale = Scale::from_env();
    let generated = universe(200, 42, scale);
    let mube = engine(&generated);
    let m = 20;
    let reps = if scale == Scale::Full { 10 } else { 5 };

    // Each solver runs at its own tuned configuration (as in the paper's
    // methodology); tabu gets the thorough budget its memory structures are
    // built to exploit — the time column reports what that costs.
    let solvers: Vec<Box<dyn Solver>> = vec![
        Box::new(TabuSearch {
            max_iters: 2_400,
            stall_limit: 800,
            neighborhood_sample: 48,
            ..TabuSearch::default()
        }),
        Box::new(SimulatedAnnealing::default()),
        Box::new(BinaryPso::default()),
        Box::new(StochasticLocalSearch::default()),
        Box::new(Greedy),
        Box::new(RandomSearch::default()),
    ];

    let mut rows = Vec::new();
    for solver in &solvers {
        let summary = average_runs(&mube, &paper_spec(m), solver.as_ref(), reps);
        rows.push(vec![
            solver.name().to_owned(),
            format!("{:.4}", summary.mean_quality),
            format!("{:.4}", summary.worst_quality),
            format!("{:.4}", summary.best_quality),
            format!("{:.4}", summary.best_quality - summary.worst_quality),
            format!("{:.2}", summary.mean_time.as_secs_f64()),
        ]);
    }
    print_table(
        &format!("Optimizer comparison (universe 200, m = {m}, {reps} seeds)"),
        &[
            "solver", "mean Q", "worst Q", "best Q", "spread", "time (s)",
        ],
        &rows,
    );
    println!(
        "\npaper shape: tabu search gives the best (and most robust) quality; greedy and\n\
         random are the floors. Robustness = small worst-to-best spread."
    );
}
