//! Exact branch-and-bound against the full µBE objective: the QEF bounds
//! (`component_bound` / `lp_relaxation`) must be admissible on generated
//! universes, and `Mube::solve` with a default `BranchAndBound` must
//! certify the same optimum the exhaustive enumerator finds —
//! bit-identically.

use proptest::prelude::*;

use mube_core::{MubeBuilder, ProblemSpec};
use mube_opt::{BranchAndBound, Exhaustive, Solver, Subset, SubsetProblem};
use mube_qef::Weights;
use mube_schema::SourceId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The component bound dominates every feasible completion of a random
    /// partial assignment: enumerate all subsets of the universe, keep
    /// those compatible with (decided-in, decided-out) and the budget, and
    /// check none beats the reported bound.
    #[test]
    fn component_bound_dominates_all_completions(
        size in 5usize..9,
        universe_seed in 0u64..500,
        m in 2usize..6,
        in_mask in 0u32..8,
        out_mask in 8u32..64,
    ) {
        let generated = mube_datagen::UniverseConfig::small_test(size, universe_seed).generate();
        let mube = MubeBuilder::new(&generated.universe)
            .sketches(generated.sketches.clone())
            .build();
        let spec = ProblemSpec::new(m).with_weights(Weights::paper_defaults());
        let objective = mube.objective(&spec).unwrap();
        let n = generated.universe.len();
        let decided_in = Subset::from_indices(n, (0..n).filter(|i| in_mask & (1 << i) != 0));
        let decided_out = Subset::from_indices(
            n,
            (0..n).filter(|i| out_mask & (1 << i) != 0 && !decided_in.contains(*i)),
        );
        let bound = objective
            .component_bound(&decided_in, &decided_out)
            .expect("µBE objective always reports a component bound");
        for mask in 0u64..(1 << n) {
            let t = Subset::from_indices(n, (0..n).filter(|i| mask & (1 << i) != 0));
            let compatible = decided_in.iter().all(|i| t.contains(i))
                && decided_out.iter().all(|i| !t.contains(i))
                && t.len() <= m;
            if !compatible {
                continue;
            }
            let v = objective.evaluate(&t);
            prop_assert!(
                v <= bound,
                "completion {t:?} scores {v} above bound {bound}"
            );
        }
    }

    /// Exact branch-and-bound certifies the optimum the exhaustive
    /// enumerator finds, bit-for-bit, with a zero gap — on universes small
    /// enough to sweep.
    #[test]
    fn branch_and_bound_certifies_the_exhaustive_optimum(
        size in 4usize..9,
        universe_seed in 0u64..500,
        m in 2usize..5,
    ) {
        let generated = mube_datagen::UniverseConfig::small_test(size, universe_seed).generate();
        let mube = MubeBuilder::new(&generated.universe)
            .sketches(generated.sketches.clone())
            .build();
        let spec = ProblemSpec::new(m).with_weights(Weights::paper_defaults());
        let exact = mube.solve(&spec, &BranchAndBound::default(), 7).unwrap();
        let sweep = mube.solve(&spec, &Exhaustive::default(), 7).unwrap();
        prop_assert_eq!(
            exact.overall_quality.to_bits(),
            sweep.overall_quality.to_bits(),
            "bnb {} vs exhaustive {}",
            exact.overall_quality,
            sweep.overall_quality
        );
        prop_assert_eq!(exact.stats.gap, Some(0.0));
        prop_assert!(exact.stats.nodes_expanded > 0);
        // The bounds must actually prune on these universes — otherwise
        // branch-and-bound is a slow exhaustive sweep.
        prop_assert!(exact.stats.nodes_pruned > 0);
    }
}

/// Pins (required sources) survive the exact solve, and the LP-tightened
/// root bound still admits the optimum.
#[test]
fn branch_and_bound_respects_source_constraints() {
    let generated = mube_datagen::UniverseConfig::small_test(8, 42).generate();
    let mube = MubeBuilder::new(&generated.universe)
        .sketches(generated.sketches.clone())
        .build();
    let spec = ProblemSpec::new(4)
        .with_weights(Weights::paper_defaults())
        .with_source_constraint(SourceId(3));
    let exact = mube.solve(&spec, &BranchAndBound::default(), 1).unwrap();
    assert!(exact.selected.contains(&SourceId(3)));
    assert_eq!(exact.stats.gap, Some(0.0));
    let sweep = mube.solve(&spec, &Exhaustive::default(), 1).unwrap();
    assert_eq!(
        exact.overall_quality.to_bits(),
        sweep.overall_quality.to_bits()
    );
}

/// Anytime behaviour on the full objective: growing node budgets yield
/// monotonically non-increasing certified gaps, every incumbent-plus-gap
/// interval contains the true optimum, and the unlimited run closes it.
#[test]
fn node_budgets_shrink_the_certified_gap() {
    let generated = mube_datagen::UniverseConfig::small_test(10, 9).generate();
    let mube = MubeBuilder::new(&generated.universe)
        .sketches(generated.sketches.clone())
        .build();
    let spec = ProblemSpec::new(5).with_weights(Weights::paper_defaults());
    let optimum = mube
        .solve(&spec, &BranchAndBound::default(), 3)
        .unwrap()
        .overall_quality;
    let objective = mube.objective(&spec).unwrap();
    let mut previous = f64::INFINITY;
    for budget in [1u64, 4, 16, 64, 4096] {
        let bnb = BranchAndBound {
            node_budget: budget,
            ..BranchAndBound::default()
        };
        let result = bnb.solve(&objective, 3);
        let gap = result.gap.expect("bnb always certifies a gap");
        assert!(gap >= 0.0, "negative gap {gap} at budget {budget}");
        assert!(
            gap <= previous + 1e-12,
            "gap grew from {previous} to {gap} at budget {budget}"
        );
        assert!(
            result.objective + gap >= optimum - 1e-9,
            "interval [{}, {}] misses optimum {optimum} at budget {budget}",
            result.objective,
            result.objective + gap
        );
        previous = gap;
    }
}
