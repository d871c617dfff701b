//! Algorithm 1: greedy constrained similarity clustering.
//!
//! Two round-loop kernels implement the same algorithm: [`match_sources`]
//! runs the incremental kernel, which maintains cluster-pair similarities
//! across rounds via Lance–Williams updates, and [`match_sources_brute_force`]
//! recomputes every alive pair from scratch each round and serves as the
//! reference oracle for equivalence tests and the Match benchmark.

use std::collections::BTreeSet;

use mube_schema::{AttrId, Constraints, GlobalAttribute, MediatedSchema, SourceId, Universe};

use crate::linkage::cluster_similarity;
use crate::quality::schema_quality;
use crate::similarity::AttrSimilarity;
use crate::source_mask::SourceMask;

/// Parameters of one `Match(S)` invocation.
///
/// `PartialEq` (not `Eq` — θ is a float) lets the session core classify
/// whether a feedback edit invalidates cached `Match(S)` outcomes by
/// comparing consecutive configurations field-for-field.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchConfig {
    /// Matching threshold θ: minimum cluster-pair similarity to merge, and
    /// the guaranteed lower bound on the quality of every generated GA.
    pub theta: f64,
    /// Minimum number of attributes β in any output GA that does not come
    /// from a user constraint. GAs below the floor are dropped after
    /// clustering (`∀g ∈ (M − G): |g| ≥ β`).
    pub beta: usize,
    /// When `true` (the paper's behaviour), clusters whose best similarity
    /// to every other cluster is below θ are eliminated each round. Turning
    /// it off leaves the output unchanged and only carries more clusters
    /// through each round; `prune: false` is the oracle the
    /// pruning-invariance tests compare against.
    pub prune: bool,
}

impl Default for MatchConfig {
    /// θ = 0.75 (the paper's experimental setting), β = 1, pruning on.
    fn default() -> Self {
        Self {
            theta: 0.75,
            beta: 1,
            prune: true,
        }
    }
}

/// A round loop (Algorithm 1, lines 5–23) over the seeded clusters: the
/// incremental kernel or the brute-force reference. Returns the number of
/// rounds run.
type RoundLoop = fn(&mut Vec<Cluster>, &MatchConfig, &dyn AttrSimilarity, &mut MatchStats) -> u32;

/// Work counters of one `Match(S)` call, for the perf benches
/// (`BENCH_match.json`) and the engine's [`SolveStats`] accounting.
///
/// [`SolveStats`]: https://docs.rs/mube-core
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Full cluster-pair linkage evaluations: single-linkage similarity
    /// computed by iterating the attribute-pair cross product (the trace of
    /// the end-to-end `benchmark/` package reports it as
    /// `cluster.linkage_evals`, hence the name). The brute-force kernel
    /// pays one per alive pair per round; the incremental kernel only pays
    /// them in the seed pass, one per class pair, including the pairs
    /// whose score it reads from a neighbor row.
    pub linkage_evals: u64,
    /// O(1) Lance–Williams derivations of a merged cluster's similarity
    /// from its parents' rows (incremental kernel only).
    pub lw_updates: u64,
    /// Candidate pairs enqueued (heap pushes, or sorted-vec inserts for the
    /// brute-force kernel).
    pub heap_pushes: u64,
    /// Heap entries discarded by lazy invalidation: their generation stamp
    /// or endpoint liveness showed the pair died before its round began.
    pub stale_pops: u64,
}

impl MatchStats {
    /// Accumulates another call's counters into this one.
    pub fn absorb(&mut self, other: &MatchStats) {
        self.linkage_evals += other.linkage_evals;
        self.lw_updates += other.lw_updates;
        self.heap_pushes += other.heap_pushes;
        self.stale_pops += other.stale_pops;
    }
}

/// Result of a successful `Match(S)` call.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchOutcome {
    /// The generated mediated schema.
    pub schema: MediatedSchema,
    /// Its matching quality (the `F1` value): mean GA quality.
    pub quality: f64,
    /// Number of outer clustering rounds executed (Algorithm 1, lines
    /// 5–23); both kernels report the same count.
    pub rounds: u32,
    /// Work counters (kernel-dependent; excluded from any semantic
    /// comparison between kernels).
    pub stats: MatchStats,
}

/// One cluster during the run.
#[derive(Debug, Clone)]
pub(crate) struct Cluster {
    pub(crate) attrs: Vec<AttrId>,
    /// Word-packed source membership: `can_merge` is the hottest predicate
    /// in both kernels' pair enumeration, so disjointness must be an AND
    /// over packed words, not a set walk.
    pub(crate) sources: SourceMask,
    /// User-constraint provenance: never eliminated. Propagates on merge.
    pub(crate) keep: bool,
    /// Has this cluster (or any ancestor) ever been produced by a merge?
    pub(crate) ever_merged: bool,
    /// Per-round: consumed by a merge this round.
    pub(crate) merged: bool,
    /// Per-round: partner was consumed; retry next round.
    pub(crate) merge_cand: bool,
    pub(crate) alive: bool,
}

impl Cluster {
    fn singleton(attr: AttrId) -> Self {
        Self {
            attrs: vec![attr],
            sources: SourceMask::singleton(attr.source),
            keep: false,
            ever_merged: false,
            merged: false,
            merge_cand: false,
            alive: true,
        }
    }

    fn from_ga(ga: &GlobalAttribute) -> Self {
        Self {
            attrs: ga.attrs().collect(),
            sources: SourceMask::from_ids(ga.sources()),
            keep: true,
            ever_merged: false,
            merged: false,
            merge_cand: false,
            alive: true,
        }
    }

    pub(crate) fn can_merge(&self, other: &Cluster) -> bool {
        self.sources.is_disjoint(&other.sources)
    }

    /// The cluster produced by merging `self` with `other` (Algorithm 1
    /// line 12): union of attributes and sources, `keep` propagates.
    pub(crate) fn merge_with(&self, other: &Cluster) -> Cluster {
        Cluster {
            attrs: {
                let mut a = self.attrs.clone();
                a.extend_from_slice(&other.attrs);
                a.sort_unstable();
                a
            },
            sources: self.sources.union(&other.sources),
            keep: self.keep || other.keep,
            ever_merged: true,
            merged: false,
            merge_cand: false,
            alive: true,
        }
    }
}

/// The `Match(S, C, G)` operator (Algorithm 1).
///
/// `sources` is the candidate set `S`; the caller must ensure it contains
/// every source required by `constraints` (the µBE engine guarantees
/// `C ⊆ S`). Returns `None` when no matching satisfies both the threshold
/// and the source constraints — i.e. the produced schema is not valid on `C`
/// — mirroring the paper's "return a null schema and 0 matching quality".
///
/// Runs the incremental kernel: one full all-pairs pass at seed time, then
/// O(alive) Lance–Williams derivations per merge, with candidate pairs kept
/// in a lazily-invalidated binary heap (see DESIGN.md §8).
pub fn match_sources(
    universe: &Universe,
    sources: &[SourceId],
    constraints: &Constraints,
    config: &MatchConfig,
    sim: &dyn AttrSimilarity,
) -> Option<MatchOutcome> {
    let outcome = match_sources_deferring_spans(universe, sources, constraints, config, sim)?;
    spans_checked(outcome, constraints)
}

/// [`match_sources`] on the brute-force reference round loop, which
/// recomputes every alive cluster pair from its attribute pairs each round
/// (the pre-optimization path). Same feasibility, schema, quality and
/// round count as [`match_sources`]; only the work counters differ. Kept
/// as the oracle the incremental kernel is equivalence-tested against and
/// as the Match benchmark's baseline.
pub fn match_sources_brute_force(
    universe: &Universe,
    sources: &[SourceId],
    constraints: &Constraints,
    config: &MatchConfig,
    sim: &dyn AttrSimilarity,
) -> Option<MatchOutcome> {
    let outcome = cluster(
        universe,
        sources,
        constraints,
        config,
        sim,
        brute_force_rounds,
    )?;
    spans_checked(outcome, constraints)
}

/// Line 24: M must be valid on the source constraints C.
fn spans_checked(outcome: MatchOutcome, constraints: &Constraints) -> Option<MatchOutcome> {
    outcome
        .schema
        .spans(constraints.sources().iter().copied())
        .then_some(outcome)
}

/// [`match_sources`] with the final spans-validity check (Line 24) left to
/// the caller: the clustered schema is returned even when it fails to span a
/// source in `C`, so `None` means only that a required source (including GA
/// constraint sources) is missing from `S` itself.
///
/// The µBE evaluation arena uses this to memoize constraint-independent
/// entries: the schema (and its quality) produced by clustering does not
/// depend on *which* sources are required — only the validity verdict does —
/// so the arena caches the outcome once and re-applies the spans check at
/// read time against whatever source constraints are current.
pub fn match_sources_deferring_spans(
    universe: &Universe,
    sources: &[SourceId],
    constraints: &Constraints,
    config: &MatchConfig,
    sim: &dyn AttrSimilarity,
) -> Option<MatchOutcome> {
    cluster(
        universe,
        sources,
        constraints,
        config,
        sim,
        crate::incremental::rounds,
    )
}

/// Algorithm 1 up to (not including) line 24's spans check, with the given
/// round loop.
fn cluster(
    universe: &Universe,
    sources: &[SourceId],
    constraints: &Constraints,
    config: &MatchConfig,
    sim: &dyn AttrSimilarity,
    round_loop: RoundLoop,
) -> Option<MatchOutcome> {
    let in_s: BTreeSet<SourceId> = sources.iter().copied().collect();
    // GA constraints referencing sources outside S can never be satisfied.
    for required in constraints.required_sources() {
        if !in_s.contains(&required) {
            return None;
        }
    }

    // Lines 1–4: seed clusters.
    let mut clusters: Vec<Cluster> = Vec::new();
    for ga in constraints.gas() {
        clusters.push(Cluster::from_ga(ga));
    }
    let constrained = constraints.constrained_attrs();
    for &sid in sources {
        let source = universe.expect_source(sid);
        for attr in source.attr_ids() {
            if !constrained.contains(&attr) {
                clusters.push(Cluster::singleton(attr));
            }
        }
    }

    // Lines 5–23: iterate rounds until no merge candidates remain.
    let mut stats = MatchStats::default();
    let rounds = round_loop(&mut clusters, config, sim, &mut stats);

    // Assemble M: alive clusters that represent GAs. Without pruning,
    // never-merged non-keep singletons are still floating around and are
    // dropped here so both configurations produce identical schemas.
    let gas: Vec<GlobalAttribute> = clusters
        .iter()
        .filter(|c| c.alive && (c.ever_merged || c.keep))
        .filter(|c| c.keep || c.attrs.len() >= config.beta)
        .map(|c| GlobalAttribute::from_valid_set(c.attrs.iter().copied().collect()))
        .collect();
    let schema = MediatedSchema::new(gas);

    debug_assert!(schema.gas_disjoint());
    let quality = schema_quality(&schema, sim);
    Some(MatchOutcome {
        schema,
        quality,
        rounds,
        stats,
    })
}

/// The reference round loop: rebuild the full alive-pair list each round,
/// sort it, and consume it in decreasing similarity.
fn brute_force_rounds(
    clusters: &mut Vec<Cluster>,
    config: &MatchConfig,
    sim: &dyn AttrSimilarity,
    stats: &mut MatchStats,
) -> u32 {
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let mut done = true;
        for c in clusters.iter_mut().filter(|c| c.alive) {
            c.merged = false;
            c.merge_cand = false;
        }

        // Line 8: all alive cluster pairs with similarity ≥ θ, best first.
        // Pairs with overlapping sources can never merge, so their linkage
        // similarity is never computed (nor can they flag merge candidates:
        // a pair that cannot merge carries no evidence either way).
        let alive: Vec<usize> = (0..clusters.len()).filter(|&i| clusters[i].alive).collect();
        let mut heap: Vec<(f64, usize, usize)> = Vec::new();
        for (pos, &i) in alive.iter().enumerate() {
            for &j in &alive[pos + 1..] {
                if !clusters[i].can_merge(&clusters[j]) {
                    continue;
                }
                let s = cluster_similarity(&clusters[i].attrs, &clusters[j].attrs, sim);
                stats.linkage_evals += 1;
                if s >= config.theta {
                    heap.push((s, i, j));
                }
            }
        }
        stats.heap_pushes += heap.len() as u64;
        // Total order: a NaN-poisoned similarity must not panic the sort
        // (the audit crate reports it; here it just sorts deterministically).
        heap.sort_by(|a, b| b.0.total_cmp(&a.0));

        // Lines 9–19: consume pairs in decreasing similarity.
        let mut new_clusters: Vec<Cluster> = Vec::new();
        for (_, i, j) in heap {
            let (mi, mj) = (clusters[i].merged, clusters[j].merged);
            match (mi, mj) {
                (false, false) => {
                    // Overlapping-source pairs were filtered out above.
                    debug_assert!(clusters[i].can_merge(&clusters[j]));
                    new_clusters.push(clusters[i].merge_with(&clusters[j]));
                    clusters[i].merged = true;
                    clusters[i].alive = false;
                    clusters[j].merged = true;
                    clusters[j].alive = false;
                }
                (true, false) => {
                    clusters[j].merge_cand = true;
                    done = false;
                }
                (false, true) => {
                    clusters[i].merge_cand = true;
                    done = false;
                }
                (true, true) => {}
            }
        }

        // Lines 20–22: eliminate hopeless clusters (see the crate-level
        // reconstruction note). New merged clusters always survive.
        if config.prune {
            for c in clusters.iter_mut().filter(|c| c.alive) {
                if !c.ever_merged && !c.merge_cand && !c.keep {
                    c.alive = false;
                }
            }
        }
        clusters.extend(new_clusters);

        if done {
            break;
        }
    }
    rounds
}

#[cfg(test)]
// Test-local hash tables: assertions never depend on iteration order,
// and the workspace ban guards production walk order only.
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use crate::similarity::MeasureAdapter;
    use mube_schema::SourceBuilder;
    use mube_similarity::NgramJaccard;

    /// Builds the four-attribute example of the paper's Figure 3:
    /// F name / First Name / Nom / Prenom. "F name" and "First Name" are
    /// similar; "Nom" and "Prenom" are similar; the two groups are not.
    fn figure3_universe() -> Universe {
        let mut u = Universe::new();
        u.add_source(SourceBuilder::new("en1").attributes(["F name", "city"]))
            .unwrap();
        u.add_source(SourceBuilder::new("en2").attributes(["First name", "town"]))
            .unwrap();
        u.add_source(SourceBuilder::new("fr1").attributes(["Prenom", "ville"]))
            .unwrap();
        u.add_source(SourceBuilder::new("fr2").attributes(["Le prenom", "cite"]))
            .unwrap();
        u
    }

    fn all_sources(u: &Universe) -> Vec<SourceId> {
        u.sources().iter().map(|s| s.id()).collect()
    }

    fn jaccard_match(
        u: &Universe,
        constraints: &Constraints,
        config: &MatchConfig,
    ) -> Option<MatchOutcome> {
        let measure = NgramJaccard::default();
        let adapter = MeasureAdapter::new(u, &measure);
        match_sources(u, &all_sources(u), constraints, config, &adapter)
    }

    /// [`jaccard_match`] on the brute-force reference kernel.
    fn jaccard_match_brute(
        u: &Universe,
        constraints: &Constraints,
        config: &MatchConfig,
    ) -> Option<MatchOutcome> {
        let measure = NgramJaccard::default();
        let adapter = MeasureAdapter::new(u, &measure);
        match_sources_brute_force(u, &all_sources(u), constraints, config, &adapter)
    }

    #[test]
    fn without_constraints_language_gap_stays_open() {
        let u = figure3_universe();
        let config = MatchConfig {
            theta: 0.4,
            ..MatchConfig::default()
        };
        let out = jaccard_match(&u, &Constraints::none(), &config).unwrap();
        // "F name"/"First name" and "Prenom"/"Le prenom" cluster; no GA
        // spans the English/French gap.
        for ga in out.schema.gas() {
            let names: Vec<&str> = ga.attrs().map(|a| u.attr_name(a).unwrap()).collect();
            let has_en = names.iter().any(|n| n.to_lowercase().contains("name"));
            let has_fr = names.iter().any(|n| n.to_lowercase().contains("prenom"));
            assert!(
                !(has_en && has_fr),
                "bridge appeared without a constraint: {names:?}"
            );
        }
        assert!(out.quality >= 0.4);
    }

    #[test]
    fn ga_constraint_bridges_the_gap() {
        let u = figure3_universe();
        let config = MatchConfig {
            theta: 0.4,
            ..MatchConfig::default()
        };
        // User knows F name == Prenom.
        let mut constraints = Constraints::none();
        constraints.require_ga(
            GlobalAttribute::new([AttrId::new(SourceId(0), 0), AttrId::new(SourceId(2), 0)])
                .unwrap(),
        );
        let out = jaccard_match(&u, &constraints, &config).unwrap();
        // The constraint GA must be subsumed...
        assert!(out.schema.subsumes_gas(constraints.gas()));
        // ...and must have grown to absorb both neighbours via bridging.
        let bridged = out
            .schema
            .ga_of(AttrId::new(SourceId(0), 0))
            .expect("constraint attr in schema");
        assert!(
            bridged.contains(AttrId::new(SourceId(1), 0)),
            "First name should join via F name: {bridged}"
        );
        assert!(
            bridged.contains(AttrId::new(SourceId(3), 0)),
            "Le prenom should join via Prenom: {bridged}"
        );
    }

    #[test]
    fn identical_names_cluster_across_sources() {
        let mut u = Universe::new();
        for name in ["s1", "s2", "s3"] {
            u.add_source(SourceBuilder::new(name).attributes(["keyword", "unrelated stuff"]))
                .unwrap();
        }
        let out = jaccard_match(&u, &Constraints::none(), &MatchConfig::default()).unwrap();
        // One GA with the three "keyword" attributes; quality 1.0 each;
        // wait: "unrelated stuff" also repeats identically across sources,
        // so it forms a GA too.
        assert_eq!(out.schema.len(), 2);
        assert!(out.schema.gas().iter().all(|g| g.len() == 3));
        assert!((out.quality - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_source_attrs_never_share_a_ga() {
        let mut u = Universe::new();
        u.add_source(SourceBuilder::new("dup").attributes(["date", "date time"]))
            .unwrap();
        u.add_source(SourceBuilder::new("other").attributes(["date"]))
            .unwrap();
        let config = MatchConfig {
            theta: 0.3,
            ..MatchConfig::default()
        };
        let out = jaccard_match(&u, &Constraints::none(), &config).unwrap();
        for ga in out.schema.gas() {
            let from_dup = ga.attrs().filter(|a| a.source == SourceId(0)).count();
            assert!(
                from_dup <= 1,
                "GA {ga} has {from_dup} attrs from one source"
            );
        }
    }

    #[test]
    fn threshold_gates_merging() {
        let mut u = Universe::new();
        u.add_source(SourceBuilder::new("a").attributes(["keyword"]))
            .unwrap();
        u.add_source(SourceBuilder::new("b").attributes(["keywords"]))
            .unwrap();
        let strict = MatchConfig {
            theta: 0.99,
            ..MatchConfig::default()
        };
        let out = jaccard_match(&u, &Constraints::none(), &strict).unwrap();
        assert!(out.schema.is_empty());
        assert_eq!(out.quality, 0.0);
        let lax = MatchConfig {
            theta: 0.5,
            ..MatchConfig::default()
        };
        let out = jaccard_match(&u, &Constraints::none(), &lax).unwrap();
        assert_eq!(out.schema.len(), 1);
    }

    #[test]
    fn quality_at_least_theta_for_unconstrained_gas() {
        let u = figure3_universe();
        let config = MatchConfig {
            theta: 0.4,
            ..MatchConfig::default()
        };
        let measure = NgramJaccard::default();
        let adapter = MeasureAdapter::new(&u, &measure);
        let out = match_sources(
            &u,
            &all_sources(&u),
            &Constraints::none(),
            &config,
            &adapter,
        )
        .unwrap();
        for ga in out.schema.gas() {
            assert!(crate::quality::ga_quality(ga, &adapter) >= config.theta);
        }
    }

    #[test]
    fn source_constraint_spanning_enforced() {
        let mut u = Universe::new();
        u.add_source(SourceBuilder::new("a").attributes(["keyword"]))
            .unwrap();
        u.add_source(SourceBuilder::new("b").attributes(["keyword"]))
            .unwrap();
        u.add_source(SourceBuilder::new("island").attributes(["zzzqqq"]))
            .unwrap();
        // Constraint: the island source must be spanned — but nothing
        // matches its only attribute, so Match must return None.
        let mut constraints = Constraints::none();
        constraints.require_source(SourceId(2));
        assert!(jaccard_match(&u, &constraints, &MatchConfig::default()).is_none());
        // Without the constraint the match succeeds (island unmatched).
        let out = jaccard_match(&u, &Constraints::none(), &MatchConfig::default()).unwrap();
        assert_eq!(out.schema.len(), 1);
    }

    #[test]
    fn ga_constraint_outside_s_returns_none() {
        let u = figure3_universe();
        let mut constraints = Constraints::none();
        constraints.require_ga(GlobalAttribute::new([AttrId::new(SourceId(3), 0)]).unwrap());
        let measure = NgramJaccard::default();
        let adapter = MeasureAdapter::new(&u, &measure);
        // S omits source 3.
        let s = vec![SourceId(0), SourceId(1), SourceId(2)];
        assert!(match_sources(&u, &s, &constraints, &MatchConfig::default(), &adapter).is_none());
    }

    #[test]
    fn beta_filters_small_gas() {
        let mut u = Universe::new();
        u.add_source(SourceBuilder::new("a").attributes(["keyword", "price"]))
            .unwrap();
        u.add_source(SourceBuilder::new("b").attributes(["keyword", "price"]))
            .unwrap();
        u.add_source(SourceBuilder::new("c").attributes(["keyword"]))
            .unwrap();
        let config = MatchConfig {
            beta: 3,
            ..MatchConfig::default()
        };
        let out = jaccard_match(&u, &Constraints::none(), &config).unwrap();
        // "keyword" spans 3 sources -> kept; "price" spans 2 -> dropped.
        assert_eq!(out.schema.len(), 1);
        assert_eq!(out.schema.gas()[0].len(), 3);
    }

    #[test]
    fn beta_does_not_apply_to_constraint_gas() {
        let mut u = Universe::new();
        u.add_source(SourceBuilder::new("a").attributes(["xaxa"]))
            .unwrap();
        u.add_source(SourceBuilder::new("b").attributes(["zbzb"]))
            .unwrap();
        let mut constraints = Constraints::none();
        constraints.require_ga(GlobalAttribute::new([AttrId::new(SourceId(0), 0)]).unwrap());
        let config = MatchConfig {
            beta: 2,
            ..MatchConfig::default()
        };
        let out = jaccard_match(&u, &constraints, &config).unwrap();
        assert_eq!(out.schema.len(), 1);
        assert_eq!(out.schema.gas()[0].len(), 1);
    }

    #[test]
    fn pruning_does_not_change_output() {
        let u = figure3_universe();
        for theta in [0.3, 0.5, 0.75] {
            let with = MatchConfig {
                theta,
                prune: true,
                ..MatchConfig::default()
            };
            let without = MatchConfig {
                theta,
                prune: false,
                ..MatchConfig::default()
            };
            let a = jaccard_match(&u, &Constraints::none(), &with).unwrap();
            let b = jaccard_match(&u, &Constraints::none(), &without).unwrap();
            assert_eq!(a.schema, b.schema, "theta={theta}");
            assert!((a.quality - b.quality).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_source_list_gives_empty_valid_schema() {
        let u = figure3_universe();
        let measure = NgramJaccard::default();
        let adapter = MeasureAdapter::new(&u, &measure);
        let out = match_sources(
            &u,
            &[],
            &Constraints::none(),
            &MatchConfig::default(),
            &adapter,
        )
        .unwrap();
        assert!(out.schema.is_empty());
        assert_eq!(out.quality, 0.0);
    }

    #[test]
    fn outcome_reports_rounds() {
        let u = figure3_universe();
        let out = jaccard_match(
            &u,
            &Constraints::none(),
            &MatchConfig {
                theta: 0.3,
                ..MatchConfig::default()
            },
        )
        .unwrap();
        assert!(out.rounds >= 1);
    }

    /// Runs both kernels on the same problem and asserts identical schema,
    /// quality and round count (work counters are kernel-specific).
    fn assert_kernels_agree(u: &Universe, constraints: &Constraints, config: &MatchConfig) {
        let incremental = jaccard_match(u, constraints, config);
        let brute = jaccard_match_brute(u, constraints, config);
        match (incremental, brute) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.schema, b.schema, "config={config:?}");
                assert!(a.quality.total_cmp(&b.quality).is_eq(), "config={config:?}");
                assert_eq!(a.rounds, b.rounds, "config={config:?}");
            }
            (a, b) => panic!(
                "kernels disagree on feasibility: incremental={:?} brute={:?} config={config:?}",
                a.is_some(),
                b.is_some()
            ),
        }
    }

    #[test]
    fn kernels_agree_on_figure3() {
        let u = figure3_universe();
        for theta in [0.0, 0.1, 0.3, 0.4, 0.5, 0.75, 0.99] {
            for prune in [true, false] {
                assert_kernels_agree(
                    &u,
                    &Constraints::none(),
                    &MatchConfig {
                        theta,
                        prune,
                        ..MatchConfig::default()
                    },
                );
            }
        }
    }

    #[test]
    fn kernels_agree_under_ga_constraints() {
        let u = figure3_universe();
        let mut constraints = Constraints::none();
        constraints.require_ga(
            GlobalAttribute::new([AttrId::new(SourceId(0), 0), AttrId::new(SourceId(2), 0)])
                .unwrap(),
        );
        for theta in [0.0, 0.2, 0.4, 0.6] {
            for beta in [1, 2, 3] {
                assert_kernels_agree(
                    &u,
                    &constraints,
                    &MatchConfig {
                        theta,
                        beta,
                        ..MatchConfig::default()
                    },
                );
            }
        }
    }

    /// Sources "alpha alphb", "alphb alphc", ... share n-gram overlap with
    /// their neighbours only: merges cascade over several rounds, exercising
    /// the Lance–Williams row derivations (including same-round sibling
    /// pairs) rather than just the seed pass.
    fn chain_universe() -> Universe {
        let mut u = Universe::new();
        let words = ["alpha", "alphb", "alphc", "alphd", "alphe", "alphf"];
        for (i, pair) in words.windows(2).enumerate() {
            u.add_source(SourceBuilder::new(format!("s{i}")).attributes([pair.join(" ")]))
                .unwrap();
        }
        u
    }

    #[test]
    fn kernels_agree_on_multi_round_chains() {
        let u = chain_universe();
        for theta in [0.0, 0.2, 0.35, 0.5, 0.8] {
            for prune in [true, false] {
                assert_kernels_agree(
                    &u,
                    &Constraints::none(),
                    &MatchConfig {
                        theta,
                        prune,
                        ..MatchConfig::default()
                    },
                );
            }
        }
    }

    /// [`MeasureAdapter`] plus normalized-name equality classes: attributes
    /// share a class iff their normalized names are equal, which satisfies
    /// the [`AttrSimilarity::class_of`] bitwise-identity contract because
    /// the adapter's similarity is a deterministic function of the two
    /// names' signatures. Exercises the class-grouped seed path that the
    /// engine's precomputed matrix enables in production.
    struct ClassedAdapter<'a> {
        inner: MeasureAdapter<'a>,
        class: std::collections::HashMap<AttrId, u32>,
    }

    impl<'a> ClassedAdapter<'a> {
        fn new(u: &'a Universe, measure: &'a NgramJaccard) -> Self {
            let mut slots: std::collections::HashMap<String, u32> = Default::default();
            let mut class = std::collections::HashMap::new();
            for source in u.sources() {
                for (j, name) in source.attributes().iter().enumerate() {
                    let normalized = mube_schema::attribute::normalize_name(name);
                    let next = slots.len() as u32;
                    let slot = *slots.entry(normalized).or_insert(next);
                    class.insert(AttrId::new(source.id(), j as u32), slot);
                }
            }
            Self {
                inner: MeasureAdapter::new(u, measure),
                class,
            }
        }
    }

    impl AttrSimilarity for ClassedAdapter<'_> {
        fn similarity(&self, a: AttrId, b: AttrId) -> f64 {
            self.inner.similarity(a, b)
        }

        fn class_of(&self, attr: AttrId) -> Option<u32> {
            self.class.get(&attr).copied()
        }
    }

    #[test]
    fn class_grouped_seeding_matches_per_pair_seeding() {
        // Names repeat across sources, as in real web-form schemas — the
        // class-grouped seed path gets non-trivial groups to collapse.
        let mut u = Universe::new();
        let schemas: [[&str; 2]; 6] = [
            ["title", "author"],
            ["title", "keyword"],
            ["author", "keyword"],
            ["title", "author"],
            ["keyword", "publisher"],
            ["publisher", "title"],
        ];
        for (i, attrs) in schemas.iter().enumerate() {
            u.add_source(SourceBuilder::new(format!("s{i}")).attributes(*attrs))
                .unwrap();
        }
        let measure = NgramJaccard::default();
        let classed = ClassedAdapter::new(&u, &measure);
        let plain = MeasureAdapter::new(&u, &measure);
        let ids = all_sources(&u);
        // A GA constraint seeds a multi-attribute cluster, which must take
        // the generic per-pair path alongside the classed singletons.
        let mut constrained = Constraints::none();
        constrained.require_ga(
            GlobalAttribute::new([AttrId::new(SourceId(0), 0), AttrId::new(SourceId(1), 0)])
                .unwrap(),
        );
        for constraints in [Constraints::none(), constrained] {
            for theta in [0.0, 0.2, 0.5, 0.75] {
                let config = MatchConfig {
                    theta,
                    ..MatchConfig::default()
                };
                let with_classes = match_sources(&u, &ids, &constraints, &config, &classed);
                let per_pair = match_sources(&u, &ids, &constraints, &config, &plain);
                let brute = match_sources_brute_force(&u, &ids, &constraints, &config, &plain);
                for other in [&per_pair, &brute] {
                    match (&with_classes, other) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert_eq!(a.schema, b.schema, "config={config:?}");
                            assert!(a.quality.total_cmp(&b.quality).is_eq());
                            assert_eq!(a.rounds, b.rounds, "config={config:?}");
                        }
                        (a, b) => panic!(
                            "feasibility disagreement: {:?} vs {:?} config={config:?}",
                            a.is_some(),
                            b.is_some()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_kernel_does_less_linkage_work() {
        let u = chain_universe();
        let config = MatchConfig {
            theta: 0.2,
            ..MatchConfig::default()
        };
        let inc = jaccard_match(&u, &Constraints::none(), &config).unwrap();
        let brute = jaccard_match_brute(&u, &Constraints::none(), &config).unwrap();
        assert!(
            inc.stats.linkage_evals < brute.stats.linkage_evals,
            "incremental {} vs brute {}",
            inc.stats.linkage_evals,
            brute.stats.linkage_evals
        );
        assert!(inc.stats.lw_updates > 0);
        assert_eq!(brute.stats.lw_updates, 0);
    }
}
