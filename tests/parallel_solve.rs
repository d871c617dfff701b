//! Concurrency integration tests: the shared `Q(S)` objective hammered from
//! many threads, and portfolio solves audited against the paper-§2
//! invariant oracle.

use std::sync::Arc;

use mube::datagen::UniverseConfig;
use mube::opt::SubsetProblem;
use mube::prelude::*;

fn engine_for(generated: &mube::datagen::GeneratedUniverse) -> Mube {
    MubeBuilder::new(&generated.universe)
        .sketches(generated.sketches.clone())
        .build()
}

/// Eight threads evaluate overlapping subset streams against one objective:
/// every value must equal the serial reference (the cache can never serve a
/// wrong value, whatever the interleaving), and the miss/hit accounting
/// must stay consistent.
#[test]
fn shared_objective_cache_survives_thread_hammer() {
    let generated = UniverseConfig::small_test(30, 5).generate();
    let mube = engine_for(&generated);
    let spec = ProblemSpec::new(6);
    let objective = mube.objective(&spec).expect("valid spec");
    let n = generated.universe.len();

    // A pool of subsets with heavy overlap between threads.
    let subsets: Vec<mube::opt::Subset> = (0..64)
        .map(|k| {
            mube::opt::Subset::from_indices(
                n,
                [k % n, (k * 3 + 1) % n, (k * 7 + 2) % n, (k / 2) % n],
            )
        })
        .collect();
    let reference: Vec<f64> = subsets.iter().map(|s| objective.evaluate(s)).collect();

    std::thread::scope(|scope| {
        for t in 0..8usize {
            let objective = &objective;
            let subsets = &subsets;
            let reference = &reference;
            scope.spawn(move || {
                // Each thread walks the pool from a different offset, twice.
                for pass in 0..2 {
                    for i in 0..subsets.len() {
                        let j = (i + t * 8 + pass) % subsets.len();
                        let v = objective.evaluate(&subsets[j]);
                        assert_eq!(
                            v, reference[j],
                            "thread {t} got a divergent value for subset {j}"
                        );
                    }
                }
            });
        }
    });

    // Everything after the reference pass was a cache hit (no eviction at
    // this scale), so misses stay bounded by the distinct-subset count.
    assert!(objective.match_calls() <= subsets.len() as u64);
    assert!(objective.cache_hits() >= 8 * 2 * subsets.len() as u64);
    assert_eq!(objective.evictions(), 0);
}

/// The portfolio winner must pass the full invariant audit, carry coherent
/// member accounting, and be reproducible run to run.
#[test]
fn portfolio_solve_passes_audit_and_is_deterministic() {
    let generated = UniverseConfig::small_test(30, 13).generate();
    let mube = engine_for(&generated);
    let spec = ProblemSpec::new(6);
    let portfolio = Portfolio {
        members: vec![
            Arc::new(TabuSearch::quick()),
            Arc::new(StochasticLocalSearch {
                restarts: 4,
                max_steps: 40,
                ..Default::default()
            }),
            Arc::new(Greedy),
        ],
        rounds: 2,
    };

    let solution = mube.solve(&spec, &portfolio, 17).expect("solvable");
    let report = mube.audit(&spec, &solution);
    assert!(
        report.is_clean(),
        "portfolio winner failed audit:\n{report}"
    );

    // Per-member rows come from running the portfolio directly on the
    // engine's objective; that path must agree with the engine solve.
    let outcome = portfolio.run(&mube.objective(&spec).expect("valid spec"), 17);
    let members = outcome.members;
    let raced: Vec<SourceId> = outcome
        .result
        .best
        .iter()
        .map(|i| SourceId(i as u32))
        .collect();
    assert_eq!(solution.selected, raced);
    assert_eq!(
        solution.overall_quality.to_bits(),
        outcome.result.objective.to_bits()
    );

    assert_eq!(members.len(), 3);
    assert_eq!(members.iter().filter(|m| m.won).count(), 1);
    let winner = members.iter().find(|m| m.won).expect("one winner");
    assert_eq!(solution.stats.portfolio_member, Some(winner.name));
    // Total effort is the sum over members, and every member at least ran.
    assert_eq!(
        solution.stats.evaluations,
        members.iter().map(|m| m.evaluations).sum::<u64>()
    );
    for m in &members {
        assert_eq!(m.rounds, 2);
        assert!(m.evaluations > 0, "{} never evaluated", m.name);
        assert!(solution.overall_quality >= m.objective);
    }

    let again = mube.solve(&spec, &portfolio, 17).expect("solvable");
    let members_again = portfolio
        .run(&mube.objective(&spec).expect("valid spec"), 17)
        .members;
    assert_eq!(solution.selected, again.selected);
    assert_eq!(solution.overall_quality, again.overall_quality);
    assert_eq!(
        solution.stats.portfolio_member,
        again.stats.portfolio_member
    );
    assert_eq!(members, members_again);

    // Greedy is a member and ignores its seed, so the portfolio is
    // guaranteed to at least match a standalone greedy solve.
    let greedy = mube.solve(&spec, &Greedy, 17).expect("solvable");
    assert!(solution.overall_quality >= greedy.overall_quality - 1e-9);
}
