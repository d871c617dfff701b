//! Table 1: quality of the GAs chosen by µBE — true GAs selected,
//! attributes in true GAs, and true GAs missed — choosing 10–50 sources
//! from a universe of 200, with no constraints.
//!
//! Expected shape (paper): as m grows, more of the 14 true GAs are found,
//! more attributes are covered, fewer are missed; and **no false GAs are
//! ever produced**.
//!
//! Run: `cargo run --release -p mube-bench --bin table1 [--full]`

use mube_bench::{engine, paper_spec, print_table, timed_solve, universe, Scale};
use mube_opt::TabuSearch;

fn main() {
    let scale = Scale::from_env();
    let generated = universe(200, 42, scale);
    let mube = engine(&generated);
    let solver = TabuSearch::default();

    let mut rows = Vec::new();
    let mut any_false = 0usize;
    for m in [10usize, 20, 30, 40, 50] {
        let (_, solution) = timed_solve(&mube, &paper_spec(m), &solver, 7);
        let score = generated
            .ground_truth
            .score(&solution.schema, solution.selected.iter().copied());
        any_false += score.false_gas;
        rows.push(vec![
            m.to_string(),
            score.true_gas.to_string(),
            score.attrs_in_true_gas.to_string(),
            score.missed.to_string(),
            score.false_gas.to_string(),
        ]);
    }
    print_table(
        "Table 1: quality of GAs (universe 200, no constraints)",
        &[
            "sources selected",
            "true GAs selected",
            "attrs in true GAs",
            "true GAs missed",
            "false GAs",
        ],
        &rows,
    );
    println!(
        "\npaper shape: true GAs and covered attributes rise with m, misses fall;\n\
         the paper reports 14 distinct concepts and zero false GAs (here: {any_false})."
    );

    if std::env::args().any(|a| a == "--concepts") {
        let (_, solution) = timed_solve(&mube, &paper_spec(50), &solver, 7);
        let report = generated
            .ground_truth
            .concept_report(&solution.schema, solution.selected.iter().copied());
        let rows: Vec<Vec<String>> = report
            .iter()
            .map(|c| {
                vec![
                    c.name.to_owned(),
                    if c.present { "yes" } else { "no" }.to_owned(),
                    if c.found { "yes" } else { "no" }.to_owned(),
                    format!("{}/{}", c.attrs_covered, c.attrs_available),
                ]
            })
            .collect();
        print_table(
            "Per-concept breakdown at m = 50",
            &["concept", "present", "found", "attrs covered"],
            &rows,
        );
    }
}
