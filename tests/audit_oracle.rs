//! Cross-solver oracle: every solver's output — exact or heuristic — must
//! pass the full invariant audit. The auditor re-derives the paper-§2 rules
//! independently of the engine, so agreement here means the solvers, the
//! matching algorithm, and the QEF arithmetic are mutually consistent.

use mube::datagen::UniverseConfig;
use mube::prelude::*;

fn engine_for(generated: &mube::datagen::GeneratedUniverse) -> Mube {
    MubeBuilder::new(&generated.universe)
        .sketches(generated.sketches.clone())
        .build()
}

/// Solves with each solver in turn and audits every solution.
fn audit_all_solvers(spec: &ProblemSpec, n_sources: usize, seed: u64) {
    let generated = UniverseConfig::small_test(n_sources, seed).generate();
    let mube = engine_for(&generated);
    let solvers: Vec<(&str, Box<dyn Solver>)> = vec![
        ("exhaustive", Box::new(Exhaustive::default())),
        ("greedy", Box::new(Greedy)),
        ("anneal", Box::new(SimulatedAnnealing::default())),
        ("tabu", Box::new(TabuSearch::quick())),
    ];
    for (name, solver) in solvers {
        let solution = mube
            .solve(spec, solver.as_ref(), seed)
            .unwrap_or_else(|e| panic!("{name} failed to solve: {e}"));
        let report = mube.audit(spec, &solution);
        assert!(
            report.is_clean(),
            "{name} produced an invariant-violating solution:\n{report}"
        );
    }
}

#[test]
fn all_solvers_pass_audit_unconstrained() {
    audit_all_solvers(&ProblemSpec::new(5), 18, 42);
}

#[test]
fn all_solvers_pass_audit_with_constraints() {
    let generated = UniverseConfig::small_test(20, 7).generate();
    let mube = engine_for(&generated);
    // Adopt a GA from a free solve so the constraint is satisfiable.
    let free = mube
        .solve(&ProblemSpec::new(8), &TabuSearch::quick(), 1)
        .expect("free solve");
    let adopted = free
        .schema
        .gas()
        .iter()
        .find(|ga| ga.len() >= 2)
        .expect("some GA with 2+ attrs")
        .clone();
    let spec = ProblemSpec::new(8)
        .with_source_constraint(SourceId(3))
        .with_ga_constraint(adopted);

    for solver in [
        Box::new(Exhaustive::default()) as Box<dyn Solver>,
        Box::new(Greedy),
        Box::new(SimulatedAnnealing::default()),
    ] {
        let solution = mube.solve(&spec, solver.as_ref(), 7).expect("feasible");
        let report = mube.audit(&spec, &solution);
        assert!(report.is_clean(), "{report}");
    }
}

#[test]
fn audit_flags_tampered_solution() {
    let generated = UniverseConfig::small_test(16, 3).generate();
    let mube = engine_for(&generated);
    let spec = ProblemSpec::new(6);
    let mut solution = mube.solve(&spec, &Greedy, 3).expect("solvable");
    // Corrupt the reported quality: the oracle must notice the mismatch
    // with the recomputed weighted QEF sum.
    solution.overall_quality = if solution.overall_quality > 0.5 {
        solution.overall_quality - 0.37
    } else {
        solution.overall_quality + 0.37
    };
    let report = mube.audit(&spec, &solution);
    assert!(
        report.has_code("quality.mismatch"),
        "tampered quality not flagged: {report}"
    );
}
