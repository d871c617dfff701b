//! End-to-end integration: generate a synthetic universe, build the engine,
//! solve, and check the solution against the problem contract and the
//! ground truth.

use mube::datagen::UniverseConfig;
use mube::prelude::*;

fn engine_for(generated: &mube::datagen::GeneratedUniverse) -> Mube {
    MubeBuilder::new(&generated.universe)
        .sketches(generated.sketches.clone())
        .build()
}

#[test]
fn solve_respects_problem_contract() {
    let generated = UniverseConfig::small_test(80, 42).generate();
    let mube = engine_for(&generated);
    let spec = ProblemSpec::new(10);
    let solution = mube
        .solve(&spec, &TabuSearch::quick(), 1)
        .expect("solvable");

    // |S| ≤ m.
    assert!(solution.num_sources() <= 10);
    // Q(S) is a convex combination of [0,1] QEFs.
    assert!((0.0..=1.0).contains(&solution.overall_quality));
    // The schema is a valid mediated schema: disjoint GAs, every GA valid.
    assert!(solution.schema.gas_disjoint());
    for ga in solution.schema.gas() {
        assert!(!ga.is_empty());
        let sources: Vec<_> = ga.sources().collect();
        let mut dedup = sources.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(
            sources.len(),
            dedup.len(),
            "GA has two attrs from one source"
        );
        // Every GA attribute belongs to a selected source.
        for s in sources {
            assert!(
                solution.selected.contains(&s),
                "GA references unselected {s}"
            );
        }
    }
    // Reported QEF values are all in range and cover the weighted names.
    for (name, (w, v)) in &solution.qef_values {
        assert!((0.0..=1.0).contains(v), "{name} = {v}");
        assert!((0.0..=1.0).contains(w));
    }
    assert!(solution.qef_values.contains_key("matching"));
    assert!(solution.qef_values.contains_key("coverage"));
}

#[test]
fn constraints_all_honored_together() {
    let generated = UniverseConfig::small_test(60, 7).generate();
    let mube = engine_for(&generated);

    // Pick a GA constraint from an unconstrained solution so it is
    // guaranteed satisfiable.
    let free = mube
        .solve(&ProblemSpec::new(8), &TabuSearch::quick(), 3)
        .unwrap();
    let adopted = free
        .schema
        .gas()
        .iter()
        .find(|ga| ga.len() >= 2)
        .expect("some GA with 2+ attrs")
        .clone();

    let spec = ProblemSpec::new(8)
        .with_source_constraint(SourceId(5))
        .with_ga_constraint(adopted.clone());
    let solution = mube
        .solve(&spec, &TabuSearch::quick(), 3)
        .expect("feasible");

    assert!(solution.selected.contains(&SourceId(5)));
    for s in adopted.sources() {
        assert!(
            solution.selected.contains(&s),
            "GA-implied source {s} missing"
        );
    }
    assert!(solution.schema.subsumes_gas([&adopted]));
}

#[test]
fn ground_truth_quality_improves_with_budget() {
    let generated = UniverseConfig::small_test(100, 11).generate();
    let mube = engine_for(&generated);
    let gt = &generated.ground_truth;

    let small = mube
        .solve(&ProblemSpec::new(5), &TabuSearch::quick(), 2)
        .unwrap();
    let large = mube
        .solve(&ProblemSpec::new(30), &TabuSearch::quick(), 2)
        .unwrap();
    let score_small = gt.score(&small.schema, small.selected.iter().copied());
    let score_large = gt.score(&large.schema, large.selected.iter().copied());

    assert!(
        score_large.true_gas >= score_small.true_gas,
        "more sources should find at least as many concepts: {score_small:?} vs {score_large:?}"
    );
    assert!(score_large.attrs_in_true_gas >= score_small.attrs_in_true_gas);
    // The headline claim: no false GAs.
    assert_eq!(score_small.false_gas, 0);
    assert_eq!(score_large.false_gas, 0);
}

#[test]
fn deterministic_across_full_pipeline() {
    let run = || {
        let generated = UniverseConfig::small_test(50, 99).generate();
        let mube = engine_for(&generated);
        let solution = mube
            .solve(&ProblemSpec::new(10), &TabuSearch::quick(), 5)
            .unwrap();
        (
            solution.selected.clone(),
            solution.schema.clone(),
            solution.overall_quality,
        )
    };
    let (s1, m1, q1) = run();
    let (s2, m2, q2) = run();
    assert_eq!(s1, s2);
    assert_eq!(m1, m2);
    assert_eq!(q1, q2);
}

#[test]
fn every_solver_produces_feasible_solutions() {
    let generated = UniverseConfig::small_test(40, 17).generate();
    let mube = engine_for(&generated);
    let spec = ProblemSpec::new(6).with_source_constraint(SourceId(2));
    let solvers: Vec<Box<dyn Solver>> = vec![
        Box::new(TabuSearch::quick()),
        Box::new(SimulatedAnnealing::default()),
        Box::new(BinaryPso::default()),
        Box::new(StochasticLocalSearch::default()),
        Box::new(Greedy),
        Box::new(RandomSearch { samples: 200 }),
    ];
    for solver in solvers {
        let solution = mube
            .solve(&spec, solver.as_ref(), 1)
            .unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()));
        assert!(solution.num_sources() <= 6, "{}", solver.name());
        assert!(
            solution.selected.contains(&SourceId(2)),
            "{}",
            solver.name()
        );
        assert!(
            (0.0..=1.0).contains(&solution.overall_quality),
            "{}: {}",
            solver.name(),
            solution.overall_quality
        );
    }
}

#[test]
fn uncooperative_universe_still_solvable() {
    // No sketches at all: coverage/redundancy degrade to 0 but solving works.
    let generated = UniverseConfig::small_test(30, 23).generate();
    let mube = MubeBuilder::new(&generated.universe).build(); // no sketches
    let solution = mube
        .solve(&ProblemSpec::new(5), &TabuSearch::default(), 1)
        .unwrap();
    assert_eq!(solution.qef_value("coverage"), Some(0.0));
    assert!(solution.qef_value("matching").unwrap() > 0.0);
}
