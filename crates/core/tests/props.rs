//! Property tests for the delta-aware session core: recombining cached
//! component vectors under new weights must be indistinguishable — to the
//! bit — from evaluating cold.

use proptest::prelude::*;

use mube_core::{EvalArena, MubeBuilder, ProblemSpec, SimBackend, SimBackendKind, SpecDelta};
use mube_datagen::UniverseConfig;
use mube_opt::{Greedy, Subset, SubsetProblem};
use mube_qef::Weights;

/// Deterministic subsets from bitmasks (any size, including empty — the
/// objective must treat them identically whether cached or not).
fn subsets_from_masks(n: usize, masks: &[u32]) -> Vec<Subset> {
    masks
        .iter()
        .map(|mask| Subset::from_indices(n, (0..n).filter(|i| mask & (1 << (i % 32)) != 0)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn weights_only_recombination_bit_equals_cold_eval(
        size in 8usize..20,
        universe_seed in 0u64..1_000,
        factors_a in prop::collection::vec(0.5f64..1.5, 5),
        factors_b in prop::collection::vec(0.5f64..1.5, 5),
        masks in prop::collection::vec(any::<u32>(), 1..10),
    ) {
        let generated = UniverseConfig::small_test(size, universe_seed).generate();
        let mube = MubeBuilder::new(&generated.universe)
            .sketches(generated.sketches.clone())
            .build();
        let n = generated.universe.len();
        let subsets = subsets_from_masks(n, &masks);

        let defaults = Weights::paper_defaults();
        let spec_a = ProblemSpec::new(n).with_weights(defaults.perturbed(&factors_a).unwrap());
        let spec_b = ProblemSpec::new(n).with_weights(defaults.perturbed(&factors_b).unwrap());

        // Warm the arena under weights A.
        let arena = std::sync::Arc::new(EvalArena::new());
        {
            let obj_a = mube.objective_in(&spec_a, &arena).unwrap();
            for s in &subsets {
                obj_a.evaluate(s);
            }
        }

        // Re-point the arena at weights B: a weights-only delta (unless the
        // perturbations coincide). Every evaluation must recombine from
        // cache — zero Match(S) calls — and bit-equal a cold evaluation of
        // the same spec.
        let obj_b = mube.objective_in(&spec_b, &arena).unwrap();
        let delta = obj_b.spec_delta();
        prop_assert!(
            delta == Some(SpecDelta::WeightsOnly) || delta == Some(SpecDelta::Unchanged),
            "unexpected delta {delta:?}"
        );
        let cold = mube.objective(&spec_b).unwrap();
        for s in &subsets {
            let recombined = obj_b.evaluate(s);
            let reference = cold.evaluate(s);
            prop_assert_eq!(
                recombined.to_bits(),
                reference.to_bits(),
                "recombined {} != cold {} on {:?}",
                recombined,
                reference,
                s
            );
        }
        prop_assert_eq!(obj_b.match_calls(), 0);
    }

    #[test]
    fn sparse_routed_solve_bit_equals_dense(
        size in 8usize..20,
        universe_seed in 0u64..1_000,
        theta in prop::sample::select(vec![0.4f64, 0.6, 0.75, 0.9]),
        m in 3usize..8,
    ) {
        // An Auto engine whose budget forces the sparse backend must solve
        // to the bit like the dense engine: same sources, same mediated
        // schema, identical Q(S). The sparse store is lossless (τ = None)
        // by construction on this route.
        let generated = UniverseConfig::small_test(size, universe_seed).generate();
        let dense = MubeBuilder::new(&generated.universe)
            .sketches(generated.sketches.clone())
            .sim_backend(SimBackend::Dense)
            .try_build()
            .unwrap();
        let routed = MubeBuilder::new(&generated.universe)
            .sketches(generated.sketches.clone())
            .sim_backend(SimBackend::Auto { budget_bytes: 0 })
            .try_build()
            .unwrap();
        prop_assert_eq!(dense.similarity().backend_kind(), SimBackendKind::Dense);
        prop_assert_eq!(routed.similarity().backend_kind(), SimBackendKind::Sparse);

        let spec = ProblemSpec::new(m).with_theta(theta);
        let solver = Greedy;
        let a = dense.solve(&spec, &solver, 0).unwrap();
        let b = routed.solve(&spec, &solver, 0).unwrap();
        prop_assert_eq!(a.selected, b.selected);
        prop_assert_eq!(a.schema, b.schema);
        prop_assert_eq!(
            a.overall_quality.to_bits(),
            b.overall_quality.to_bits(),
            "Q diverged: dense {} vs sparse-routed {}",
            a.overall_quality,
            b.overall_quality
        );
    }
}
