//! Cross-crate property-based tests: invariants that must hold for *any*
//! universe, constraint set, and parameterization.

use proptest::prelude::*;

use mube::cluster::{match_sources, MatchConfig, MeasureAdapter};
use mube::opt::{Solver, Subset, SubsetProblem, TabuSearch};
use mube::pcsa::{PcsaSketch, TupleHasher};
use mube::prelude::*;
use mube::qef::{CardinalityQef, CoverageQef, Qef, QefContext, RedundancyQef};

/// Strategy: a universe of 2–10 sources, each with 1–5 attributes drawn
/// from a small vocabulary (so similarities and collisions actually occur),
/// cardinalities 1–1000.
fn arb_universe() -> impl Strategy<Value = Universe> {
    let vocab = prop::sample::select(vec![
        "title",
        "book title",
        "author",
        "author name",
        "keyword",
        "keywords",
        "isbn",
        "price",
        "publication year",
        "publication years",
        "venue",
        "quasar",
        "turbine",
    ]);
    let source = (prop::collection::vec(vocab, 1..5), 1u64..1000).prop_map(|(names, card)| {
        // Deduplicate names within a source (schemas can't repeat labels in
        // our builder contract — duplicates within a source are legal in
        // the model but make similarity-1 pairs inside one source, which is
        // fine; keep them to exercise the validity rule).
        (names, card)
    });
    prop::collection::vec(source, 2..10).prop_map(|sources| {
        let mut u = Universe::new();
        for (i, (names, card)) in sources.into_iter().enumerate() {
            u.add_source(
                SourceBuilder::new(format!("s{i}"))
                    .attributes(names)
                    .cardinality(card),
            )
            .unwrap();
        }
        u
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clustering_always_yields_valid_schemas(universe in arb_universe(), theta in 0.1f64..1.0) {
        let measure = NgramJaccard::default();
        let adapter = MeasureAdapter::new(&universe, &measure);
        let ids: Vec<SourceId> = universe.sources().iter().map(|s| s.id()).collect();
        let config = MatchConfig { theta, ..MatchConfig::default() };
        let outcome = match_sources(&universe, &ids, &Constraints::none(), &config, &adapter)
            .expect("no constraints -> always Some");
        // Disjoint GAs, each valid (≤ 1 attr per source), quality ≥ θ per GA.
        prop_assert!(outcome.schema.gas_disjoint());
        for ga in outcome.schema.gas() {
            let mut sources: Vec<_> = ga.sources().collect();
            sources.sort();
            let len_before = sources.len();
            sources.dedup();
            prop_assert_eq!(sources.len(), len_before);
            prop_assert!(ga.len() >= 2, "non-constraint GA below size 2: {}", ga);
            prop_assert!(
                mube::cluster::ga_quality(ga, &adapter) >= theta - 1e-9,
                "GA quality below theta"
            );
        }
        prop_assert!((0.0..=1.0).contains(&outcome.quality));
    }

    #[test]
    fn clustering_pruning_is_output_invariant(universe in arb_universe(), theta in 0.2f64..0.9) {
        let measure = NgramJaccard::default();
        let adapter = MeasureAdapter::new(&universe, &measure);
        let ids: Vec<SourceId> = universe.sources().iter().map(|s| s.id()).collect();
        let pruned = match_sources(
            &universe, &ids, &Constraints::none(),
            &MatchConfig { theta, prune: true, ..MatchConfig::default() }, &adapter).unwrap();
        let unpruned = match_sources(
            &universe, &ids, &Constraints::none(),
            &MatchConfig { theta, prune: false, ..MatchConfig::default() }, &adapter).unwrap();
        prop_assert_eq!(pruned.schema, unpruned.schema);
    }

    #[test]
    fn qefs_stay_in_unit_interval(universe in arb_universe(), bits in 0u32..1024) {
        // Sketches for a pseudo-random subset of sources; others opt out.
        let hasher = TupleHasher::default();
        let sketches: Vec<Option<PcsaSketch>> = universe
            .sources()
            .iter()
            .map(|s| {
                if s.id().0 % 2 == 0 {
                    let mut sk = PcsaSketch::new(64, hasher);
                    for t in 0..s.cardinality() {
                        sk.insert_u64(t * 31);
                    }
                    Some(sk)
                } else {
                    None
                }
            })
            .collect();
        let ctx = QefContext::new(std::sync::Arc::new(universe.clone()), sketches);
        let selection = SourceSelection::from_ids(
            universe.len(),
            (0..universe.len())
                .filter(|i| bits & (1 << (i % 32)) != 0)
                .map(|i| SourceId(i as u32)),
        );
        for qef in [&CardinalityQef as &dyn Qef, &CoverageQef, &RedundancyQef] {
            let v = qef.evaluate(&selection, &ctx);
            prop_assert!((0.0..=1.0).contains(&v), "{} = {v}", qef.name());
        }
    }

    #[test]
    fn tabu_solutions_always_structurally_feasible(
        universe in arb_universe(),
        m in 1usize..8,
        seed in 0u64..50,
    ) {
        let mube = MubeBuilder::new(&universe).build();
        let m = m.min(universe.len());
        let spec = ProblemSpec::new(m)
            .with_weights(Weights::new([("matching", 0.6), ("cardinality", 0.4)]).unwrap());
        let objective = mube.objective(&spec).unwrap();
        let result = TabuSearch::quick().solve(&objective, seed);
        prop_assert!(objective.is_structurally_feasible(&result.best));
        prop_assert!(result.best.len() <= m);
    }

    #[test]
    fn pcsa_merge_matches_union_sketch(
        a in prop::collection::btree_set(0u64..5000, 0..300),
        b in prop::collection::btree_set(0u64..5000, 0..300),
    ) {
        let build = |set: &std::collections::BTreeSet<u64>| {
            let mut s = PcsaSketch::new(32, TupleHasher::default());
            for &t in set {
                s.insert_u64(t);
            }
            s
        };
        let mut merged = build(&a);
        merged.merge(&build(&b));
        let union: std::collections::BTreeSet<u64> = a.union(&b).copied().collect();
        prop_assert_eq!(merged, build(&union));
    }

    #[test]
    fn subset_roundtrips_and_bounds(indices in prop::collection::btree_set(0usize..200, 0..50)) {
        let s = Subset::from_indices(200, indices.iter().copied());
        prop_assert_eq!(s.len(), indices.len());
        let collected: Vec<usize> = s.iter().collect();
        let expected: Vec<usize> = indices.into_iter().collect();
        prop_assert_eq!(collected, expected);
    }
}

#[test]
fn evaluate_matches_solver_view() {
    // The engine's evaluate() must agree with the objective the solver saw.
    let mut u = Universe::new();
    for (name, attrs) in [("a", ["title", "author"]), ("b", ["title", "isbn"])] {
        u.add_source(SourceBuilder::new(name).attributes(attrs).cardinality(10))
            .unwrap();
    }
    let mube = MubeBuilder::new(&u).build();
    let spec = ProblemSpec::new(2).with_weights(Weights::new([("matching", 1.0)]).unwrap());
    let solution = mube.solve(&spec, &TabuSearch::default(), 0).unwrap();
    let q = mube.evaluate(&spec, &solution.selected).unwrap();
    assert!((q - solution.overall_quality).abs() < 1e-12);
}
