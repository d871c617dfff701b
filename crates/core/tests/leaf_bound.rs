//! The leaf bound greedy and tabu search prune by: at a fully decided
//! assignment `component_bound(S, S̄)` is every non-matching QEF's exact
//! value on `S` plus the matching weight, so it dominates `Q(S)` and sits
//! exactly `w_matching · (1 − F1(S))` above it. Solves that prune by it
//! must equal the full scan over the same objective with its bounds
//! hidden, bit for bit, while running fewer `Match(S)` calls.

use proptest::prelude::*;

use mube_core::{Mube, MubeBuilder, ProblemSpec};
use mube_opt::{Greedy, Solver, Subset, SubsetProblem, TabuSearch};
use mube_schema::SourceId;

/// Hides a problem's bounds: `component_bound` keeps the trait's `None`,
/// so greedy and tabu evaluate every candidate they propose.
struct Unbounded<'a>(&'a dyn SubsetProblem);

impl SubsetProblem for Unbounded<'_> {
    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }

    fn max_selected(&self) -> usize {
        self.0.max_selected()
    }

    fn pinned(&self) -> &[usize] {
        self.0.pinned()
    }

    fn evaluate(&self, subset: &Subset) -> f64 {
        self.0.evaluate(subset)
    }
}

fn engine(size: usize, seed: u64) -> Mube {
    let generated = mube_datagen::UniverseConfig::small_test(size, seed).generate();
    MubeBuilder::new(&generated.universe)
        .sketches(generated.sketches.clone())
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For a random `S`, the leaf bound dominates `Q(S)`; when `S` is
    /// feasible the excess is the matching term's headroom (plus the
    /// bound's 1e-9 slack). The bound reads the same whether `S`'s
    /// components come from the arena or are computed afresh.
    #[test]
    fn leaf_bound_is_exact_up_to_the_matching_term(
        size in 5usize..12,
        universe_seed in 0u64..500,
        mask in 1u32..4096,
        constrained in any::<bool>(),
    ) {
        let mube = engine(size, universe_seed);
        let n = mube.universe().len();
        let mut spec = ProblemSpec::new(n);
        if constrained {
            spec = spec.with_source_constraint(SourceId(0));
        }
        let objective = mube.objective(&spec).expect("valid spec");
        let s = Subset::from_indices(n, (0..n).filter(|i| mask & (1 << i) != 0));
        prop_assume!(!s.is_empty());
        let cold = objective
            .component_bound(&s, &s.complement())
            .expect("µBE objective always reports a component bound");
        let value = objective.evaluate(&s);
        let cached = objective
            .component_bound(&s, &s.complement())
            .expect("µBE objective always reports a component bound");
        prop_assert_eq!(cold.to_bits(), cached.to_bits());
        prop_assert!(value <= cold, "Q(S) = {value} above its leaf bound {cold}");
        if value.is_finite() {
            let ids: Vec<SourceId> = s.iter().map(|i| SourceId(i as u32)).collect();
            let (_, w, f1) = objective
                .component_values(&ids)
                .into_iter()
                .find(|(name, _, _)| name == "matching")
                .expect("the paper weights bind the matching QEF");
            let headroom = w * (1.0 - f1);
            prop_assert!(
                (cold - value - headroom).abs() <= 2e-9,
                "bound {cold} - Q(S) {value} = {} but w·(1 − F1) = {headroom}",
                cold - value
            );
        }
    }
}

/// Greedy and tabu through `Mube::solve` select what the unpruned full
/// scan selects, with the same quality bits and strictly fewer `Match(S)`
/// calls, on a few universes, budgets and a source constraint.
#[test]
fn pruned_solves_match_the_full_scan_with_fewer_match_calls() {
    let cases = [
        (40, 21, ProblemSpec::new(8)),
        (30, 5, ProblemSpec::new(6)),
        (
            30,
            13,
            ProblemSpec::new(5).with_source_constraint(SourceId(3)),
        ),
    ];
    for (size, universe_seed, spec) in cases {
        let mube = engine(size, universe_seed);
        let solvers: [Box<dyn Solver>; 2] = [Box::new(Greedy), Box::new(TabuSearch::quick())];
        for solver in solvers {
            let name = solver.name();
            let pruned = mube.solve(&spec, solver.as_ref(), 11).expect("solvable");
            let objective = mube.objective(&spec).expect("valid spec");
            let full = solver.solve(&Unbounded(&objective), 11);
            let selected: Vec<SourceId> = full.best.iter().map(|i| SourceId(i as u32)).collect();
            assert_eq!(pruned.selected, selected, "{name} selection diverged");
            assert_eq!(
                pruned.overall_quality.to_bits(),
                full.objective.to_bits(),
                "{name} quality diverged"
            );
            assert_eq!(pruned.stats.iterations, full.iterations);
            assert!(
                pruned.stats.match_calls < objective.match_calls(),
                "{name}: pruned {} vs full {} Match(S) calls",
                pruned.stats.match_calls,
                objective.match_calls()
            );
        }
    }
}
