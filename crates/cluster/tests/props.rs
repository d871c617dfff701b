//! Property tests for the Match operator: the Algorithm 1 output contract
//! over randomized universes and constraint sets.

use proptest::prelude::*;

use mube_cluster::{
    ga_quality, match_sources, match_sources_brute_force, AttrSimilarity, MatchConfig,
    MeasureAdapter,
};
use mube_schema::{
    attribute::normalize_name, AttrId, Constraints, GlobalAttribute, SourceBuilder, SourceId,
    Universe,
};
use mube_similarity::{NgramJaccard, SparseConfig, SparseSimilarity};

const VOCAB: &[&str] = &[
    "title",
    "book title",
    "author",
    "author name",
    "author names",
    "keyword",
    "keywords",
    "isbn",
    "price",
    "publication year",
    "publication years",
    "quasar",
    "turbine",
    "gearbox",
];

fn arb_universe() -> impl Strategy<Value = Universe> {
    prop::collection::vec(prop::collection::btree_set(0usize..VOCAB.len(), 1..5), 2..9).prop_map(
        |sources| {
            let mut u = Universe::new();
            for (i, words) in sources.into_iter().enumerate() {
                u.add_source(
                    SourceBuilder::new(format!("s{i}"))
                        .attributes(words.into_iter().map(|w| VOCAB[w].to_owned()))
                        .cardinality(100),
                )
                .unwrap();
            }
            u
        },
    )
}

fn run(
    universe: &Universe,
    constraints: &Constraints,
    config: &MatchConfig,
) -> Option<mube_cluster::MatchOutcome> {
    let measure = NgramJaccard::default();
    let adapter = MeasureAdapter::new(universe, &measure);
    let ids: Vec<SourceId> = universe.sources().iter().map(|s| s.id()).collect();
    match_sources(universe, &ids, constraints, config, &adapter)
}

/// Similarities rounded to f32, mirroring the engine's matrix-backed
/// production path: the sparse store behind [`SparseAdapter`] holds f32
/// scores, so the brute-force reference it is compared against must read
/// the same f32-rounded values. The kernel-equivalence tests share it, so
/// every kernel comparison runs on production-precision values.
struct F32Quantized<'a>(MeasureAdapter<'a>);

impl AttrSimilarity for F32Quantized<'_> {
    fn similarity(&self, a: AttrId, b: AttrId) -> f64 {
        f64::from(self.0.similarity(a, b) as f32)
    }
}

/// Runs both kernels on the same problem; panics on any divergence in
/// feasibility, schema, quality, or round count.
fn assert_kernels_equivalent(universe: &Universe, constraints: &Constraints, config: &MatchConfig) {
    let measure = NgramJaccard::default();
    let sim = F32Quantized(MeasureAdapter::new(universe, &measure));
    let ids: Vec<SourceId> = universe.sources().iter().map(|s| s.id()).collect();
    let incremental = match_sources(universe, &ids, constraints, config, &sim);
    let brute = match_sources_brute_force(universe, &ids, constraints, config, &sim);
    match (incremental, brute) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.schema, b.schema, "config={config:?}");
            assert!(
                a.quality.total_cmp(&b.quality).is_eq(),
                "quality {} != {} config={config:?}",
                a.quality,
                b.quality
            );
            assert_eq!(a.rounds, b.rounds, "config={config:?}");
        }
        (a, b) => panic!(
            "kernels disagree on feasibility: incremental={:?} brute={:?} config={config:?}",
            a.is_some(),
            b.is_some()
        ),
    }
}

/// θ over (0.05, 1.0), or exactly 0.0 — where every mergeable pair is a
/// candidate and the seed pass must take its dense sweep — half the time.
fn arb_theta() -> impl Strategy<Value = f64> {
    (any::<bool>(), 0.05f64..1.0).prop_map(|(zero, theta)| if zero { 0.0 } else { theta })
}

/// The sparse blocked similarity store behind the [`AttrSimilarity`]
/// contract, mirroring the engine's production adapter: flattened
/// attribute indices, classes = distinct-name slots, neighbor lists and
/// their scores from the CSR rows. Values are f32-rounded, exactly like the
/// dense matrix.
struct SparseAdapter {
    sparse: SparseSimilarity,
    offsets: Vec<u32>,
}

impl SparseAdapter {
    fn new(universe: &Universe) -> Self {
        let mut names: Vec<String> = Vec::new();
        let mut offsets = Vec::new();
        for source in universe.sources() {
            offsets.push(names.len() as u32);
            for attr in source.attributes() {
                names.push(normalize_name(attr));
            }
        }
        let sparse =
            SparseSimilarity::build(&names, &NgramJaccard::default(), &SparseConfig::default())
                .expect("the default measure is gram-blockable");
        Self { sparse, offsets }
    }

    fn flat(&self, a: AttrId) -> usize {
        self.offsets[a.source.index()] as usize + a.index as usize
    }
}

impl AttrSimilarity for SparseAdapter {
    fn similarity(&self, a: AttrId, b: AttrId) -> f64 {
        self.sparse.similarity(self.flat(a), self.flat(b))
    }

    fn class_of(&self, a: AttrId) -> Option<u32> {
        Some(self.sparse.distinct_slot(self.flat(a)))
    }

    fn neighbors_of_class(&self, class: u32) -> Option<&[u32]> {
        Some(self.sparse.neighbor_slots(class))
    }

    fn neighbor_scores_of_class(&self, class: u32) -> Option<&[f32]> {
        Some(self.sparse.neighbor_scores(class))
    }
}

/// Matches `ids` twice — the incremental kernel driven by the sparse
/// store's neighbor lists, and the brute-force kernel on f32-quantized
/// string-path values — and fails the case on any divergence. By the
/// GramIndex bit-identity contract the two stores agree bitwise, so a
/// divergence is a neighbor-skipping bug in the incremental kernel.
fn sparse_matches_brute(
    universe: &Universe,
    ids: &[SourceId],
    constraints: &Constraints,
    config: &MatchConfig,
) -> Result<(), TestCaseError> {
    let measure = NgramJaccard::default();
    let reference = F32Quantized(MeasureAdapter::new(universe, &measure));
    let sparse = SparseAdapter::new(universe);
    let incremental = match_sources(universe, ids, constraints, config, &sparse);
    let brute = match_sources_brute_force(universe, ids, constraints, config, &reference);
    match (incremental, brute) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            prop_assert_eq!(a.schema, b.schema);
            prop_assert!(
                a.quality.total_cmp(&b.quality).is_eq(),
                "quality {} != {}",
                a.quality,
                b.quality
            );
            prop_assert_eq!(a.rounds, b.rounds);
        }
        (a, b) => {
            prop_assert!(
                false,
                "feasibility disagrees: sparse={:?} brute={:?}",
                a.is_some(),
                b.is_some()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn output_contract_holds_for_any_theta(universe in arb_universe(), theta in 0.05f64..1.0) {
        let config = MatchConfig { theta, ..MatchConfig::default() };
        let outcome = run(&universe, &Constraints::none(), &config).expect("unconstrained");
        let measure = NgramJaccard::default();
        let adapter = MeasureAdapter::new(&universe, &measure);
        prop_assert!(outcome.schema.gas_disjoint());
        prop_assert!((0.0..=1.0).contains(&outcome.quality));
        for ga in outcome.schema.gas() {
            prop_assert!(ga.len() >= 2);
            prop_assert!(ga_quality(ga, &adapter) >= theta - 1e-9);
            // Definition 1: at most one attribute per source.
            let mut sources: Vec<SourceId> = ga.sources().collect();
            let before = sources.len();
            sources.sort();
            sources.dedup();
            prop_assert_eq!(sources.len(), before);
        }
    }

    #[test]
    fn lower_theta_never_reduces_matched_attrs(universe in arb_universe()) {
        let strict = run(
            &universe,
            &Constraints::none(),
            &MatchConfig { theta: 0.8, ..MatchConfig::default() },
        )
        .unwrap();
        let lax = run(
            &universe,
            &Constraints::none(),
            &MatchConfig { theta: 0.4, ..MatchConfig::default() },
        )
        .unwrap();
        prop_assert!(
            lax.schema.total_attrs() >= strict.schema.total_attrs(),
            "lax {} < strict {}",
            lax.schema.total_attrs(),
            strict.schema.total_attrs()
        );
    }

    #[test]
    fn ga_constraints_always_subsumed(universe in arb_universe(), a in 0u32..8, b in 0u32..8) {
        let n = universe.len() as u32;
        let (sa, sb) = (a % n, b % n);
        prop_assume!(sa != sb);
        let ga = GlobalAttribute::new([
            AttrId::new(SourceId(sa), 0),
            AttrId::new(SourceId(sb), 0),
        ])
        .unwrap();
        let mut constraints = Constraints::none();
        constraints.require_ga(ga.clone());
        let outcome = run(&universe, &constraints, &MatchConfig::default());
        // A GA constraint over sources present in S is always satisfiable
        // (the constraint cluster survives regardless of similarity), so
        // Match only fails if constraint sources are unmatched... they are
        // covered by the constraint GA itself, so it never fails here.
        let outcome = outcome.expect("constraint GA covers its own sources");
        prop_assert!(outcome.schema.subsumes_gas([&ga]));
    }

    #[test]
    fn only_identical_names_cluster_at_theta_near_one(universe in arb_universe()) {
        // At theta = 1.0 - eps, only identical names merge: a GA's single
        // linkage chain then links attributes of similarity 1 only.
        let config = MatchConfig {
            theta: 0.999,
            ..MatchConfig::default()
        };
        let out = run(&universe, &Constraints::none(), &config).unwrap();
        for ga in out.schema.gas() {
            let names: std::collections::BTreeSet<&str> = ga
                .attrs()
                .map(|a| universe.attr_name(a).unwrap())
                .collect();
            prop_assert_eq!(names.len(), 1, "mixed names at theta≈1");
        }
    }

    #[test]
    fn rounds_reported_positive(universe in arb_universe()) {
        let out = run(&universe, &Constraints::none(), &MatchConfig::default()).unwrap();
        prop_assert!(out.rounds >= 1);
    }

    #[test]
    fn incremental_kernel_matches_brute_force(
        universe in arb_universe(),
        theta in arb_theta(),
        beta in 1usize..4,
        prune in any::<bool>(),
    ) {
        let config = MatchConfig { theta, beta, prune };
        assert_kernels_equivalent(&universe, &Constraints::none(), &config);
    }

    #[test]
    fn incremental_kernel_matches_brute_force_under_constraints(
        universe in arb_universe(),
        theta in arb_theta(),
        a in 0u32..8,
        b in 0u32..8,
    ) {
        let n = universe.len() as u32;
        let (sa, sb) = (a % n, b % n);
        prop_assume!(sa != sb);
        // A GA constraint seeds a multi-attribute keep cluster, exercising
        // the kernels' handling of unmergeable rows and keep-flag pruning.
        let ga = GlobalAttribute::new([
            AttrId::new(SourceId(sa), 0),
            AttrId::new(SourceId(sb), 0),
        ])
        .unwrap();
        let mut constraints = Constraints::none();
        constraints.require_ga(ga);
        constraints.require_source(SourceId(sa));
        let config = MatchConfig { theta, ..MatchConfig::default() };
        assert_kernels_equivalent(&universe, &constraints, &config);
    }

    #[test]
    fn incremental_with_sparse_neighbors_matches_brute_with_dense_values(
        universe in arb_universe(),
        theta in 0.05f64..1.0,
        beta in 1usize..4,
        prune in any::<bool>(),
    ) {
        // The sparse-driven seed pass (neighbor lists over distinct-name
        // classes, implicit-zero misses) over every source. θ > 0 by
        // construction — the regime where skipping exact-zero pairs is
        // provably lossless.
        let ids: Vec<SourceId> = universe.sources().iter().map(|s| s.id()).collect();
        let config = MatchConfig { theta, beta, prune };
        sparse_matches_brute(&universe, &ids, &Constraints::none(), &config)?;
    }

    #[test]
    fn incremental_with_sparse_neighbors_matches_brute_on_a_strict_subset(
        universe in arb_universe(),
        keep in prop::collection::vec(any::<bool>(), 8),
        theta in 0.05f64..1.0,
        beta in 1usize..4,
        prune in any::<bool>(),
        with_ga in any::<bool>(),
    ) {
        // S leaves sources out, so neighbor rows list classes that have no
        // seed cluster in this Match call — a case the full-universe test
        // above never reaches. The optional GA constraint inside S adds a
        // multi-attribute seed cluster next to the classed singletons.
        let ids: Vec<SourceId> = universe
            .sources()
            .iter()
            .map(|s| s.id())
            .filter(|id| keep[id.index()])
            .collect();
        prop_assume!(!ids.is_empty() && ids.len() < universe.len());
        let mut constraints = Constraints::none();
        if with_ga && ids.len() >= 2 {
            constraints.require_ga(
                GlobalAttribute::new([AttrId::new(ids[0], 0), AttrId::new(ids[1], 0)]).unwrap(),
            );
        }
        let config = MatchConfig { theta, beta, prune };
        sparse_matches_brute(&universe, &ids, &constraints, &config)?;
    }
}
