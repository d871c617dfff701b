//! Sparse-blocked similarity at scale: regenerates `BENCH_scale.json`.
//!
//! Two tiers, both over the blocking-stress universes of
//! `mube_datagen::scale` (heavy-tailed source sizes, Zipf concept
//! popularity, near-duplicate attribute names — the regime the n-gram
//! inverted index is built for):
//!
//! * **identity** — universe sizes where the dense triangle still fits.
//!   Times the dense fill against the sparse blocked fill, then asserts the
//!   losslessness claim *every run*: one similarity read per distinct-slot
//!   pair, dense vs. sparse, bit-for-bit. A greedy `m = 8` solve
//!   (matching + cardinality weights) must return the identical solution —
//!   same sources, same schema, bit-identical quality — from a
//!   [`SimBackend::Dense`] engine, a lossless [`SimBackend::Sparse`]
//!   engine, and a threshold-tier engine with τ = θ (exact here because
//!   Match runs single linkage with no GA constraints; DESIGN.md §14).
//!   A full run also asserts that the lossless sparse solve takes at most
//!   1.2x the dense one at every identity size — the median over five
//!   dense/sparse pairs of each pair's time ratio, where each side of a
//!   pair is the best of five back-to-back solves and the engine that goes
//!   first alternates — and stamps `"meets_thresholds": true` into the JSON.
//! * **scale** — a universe size where the dense triangle does *not* fit
//!   the memory budget: [`SimilarityMatrix::try_compute`] must refuse
//!   before allocating (`"dense_refused": true`), and the sparse backend —
//!   forced through its spill-to-disk pair store by a deliberately tiny
//!   run buffer — carries a full-universe `Match` and the same greedy
//!   solve anyway. Candidate/pruned-pair counters are reported per
//!   blocking tier.
//!
//! Usage:
//!   cargo run --release -p mube-bench --bin scale_match
//!   cargo run --release -p mube-bench --bin scale_match -- --smoke --out target/BENCH_scale.smoke.json

use mube_bench::{best_of, timed, Run};
use mube_cluster::{match_sources, AttrSimilarity, MatchConfig};
use mube_core::{Mube, MubeBuilder, ProblemSpec, SimBackend, SimBackendKind, SparseOptions};
use mube_datagen::{ScaleConfig, ScaleUniverse};
use mube_opt::Greedy;
use mube_qef::Weights;
use mube_schema::{attribute::normalize_name, AttrId, Constraints, SourceId, Universe};
use mube_serve::json::{obj, Json};
use mube_similarity::{NgramJaccard, SimilarityMatrix, SparseBuildStats};

/// The full run's ceiling on an identity-tier sparse solve, as a multiple
/// of the dense solve over the same universe.
const MAX_SPARSE_SOLVE_RATIO: f64 = 1.2;

/// The greedy-solve spec of both tiers: choose ≤ 8 sources under
/// matching + cardinality weights (the universes carry no sketches, so
/// coverage/redundancy would be identically zero anyway).
fn scale_spec() -> ProblemSpec {
    let mut spec = ProblemSpec::new(8);
    spec.weights = Weights::normalized([("matching", 1.0), ("cardinality", 1.0)])
        .expect("bench weights are valid");
    spec
}

/// One representative attribute per similarity-equivalence class, in class
/// order — the sweep domain for the bit-identity check. By the `class_of`
/// contract, covering every class pair covers every distinct similarity
/// value the backends can produce.
fn class_representatives(universe: &Universe, sim: &dyn AttrSimilarity) -> Vec<AttrId> {
    let mut seen: Vec<Option<AttrId>> = Vec::new();
    for attr in universe.all_attrs() {
        let class = sim.class_of(attr).expect("backends assign classes") as usize;
        if class >= seen.len() {
            seen.resize(class + 1, None);
        }
        seen[class].get_or_insert(attr);
    }
    seen.into_iter().flatten().collect()
}

/// One engine pair's greedy solves: `reps` pairs of sides, each side the
/// best of `reps` back-to-back solves of one engine.
struct SolvePair {
    /// Fastest reference-engine solve over all pairs.
    reference_millis: f64,
    /// Fastest candidate-engine solve over all pairs.
    candidate_millis: f64,
    /// The median over the pairs of candidate / reference side time. The
    /// two sides of a pair run back to back, so a shift in host speed
    /// reaches both, and a side's best-of-`reps` drops the single solves
    /// that a host hiccup slowed.
    median_ratio: f64,
    quality: f64,
}

/// Asserts two engines produce the identical greedy solution in each of
/// `reps` pairs of sides, and times them. Which engine goes first
/// alternates from pair to pair, so neither side always inherits the
/// other's cache and frequency state. Every `Mube::solve` starts on a
/// fresh arena, so each is a cold solve.
fn solve_pair(reference: &Mube, candidate: &Mube, label: &str, reps: u32) -> SolvePair {
    let spec = scale_spec();
    let side = |engine: &Mube| {
        best_of(reps, || {
            engine
                .solve(&spec, &Greedy, 0)
                .expect("bench problems are feasible")
        })
    };
    let mut ratios = Vec::new();
    let (mut reference_millis, mut candidate_millis) = (f64::INFINITY, f64::INFINITY);
    let mut quality = 0.0;
    for pair in 0..reps.max(1) {
        let ((ref_millis, ref_solution), (cand_millis, cand_solution)) = if pair % 2 == 0 {
            let reference_side = side(reference);
            (reference_side, side(candidate))
        } else {
            let candidate_side = side(candidate);
            (side(reference), candidate_side)
        };
        assert_eq!(
            ref_solution.selected, cand_solution.selected,
            "{label}: backends selected different sources"
        );
        assert_eq!(
            ref_solution.schema, cand_solution.schema,
            "{label}: backends produced different mediated schemas"
        );
        assert_eq!(
            ref_solution.overall_quality.to_bits(),
            cand_solution.overall_quality.to_bits(),
            "{label}: solve quality not bit-identical ({} vs {})",
            ref_solution.overall_quality,
            cand_solution.overall_quality
        );
        reference_millis = reference_millis.min(ref_millis);
        candidate_millis = candidate_millis.min(cand_millis);
        ratios.push(cand_millis / ref_millis.max(1e-9));
        quality = ref_solution.overall_quality;
    }
    ratios.sort_by(f64::total_cmp);
    SolvePair {
        reference_millis,
        candidate_millis,
        median_ratio: ratios[ratios.len() / 2],
        quality,
    }
}

fn stats_json(stats: &SparseBuildStats) -> Json {
    obj([
        ("dense_pairs", stats.dense_pairs.into()),
        ("candidate_pairs", stats.candidate_pairs.into()),
        ("length_pruned", stats.length_pruned.into()),
        ("scored_pairs", stats.scored_pairs.into()),
        ("score_pruned", stats.score_pruned.into()),
        ("kept_pairs", stats.kept_pairs.into()),
        ("spill_runs", stats.spill.runs.into()),
        ("spilled_triples", stats.spill.spilled_triples.into()),
        ("spilled_bytes", stats.spill.spilled_bytes.into()),
    ])
}

// ---- identity tier ------------------------------------------------------

/// One identity-tier row; with `gate`, also asserts the sparse/dense
/// solve-time ceiling.
fn bench_identity(sources: usize, reps: u32, gate: bool) -> Json {
    eprintln!("== identity tier, n = {sources} sources ==");
    let ScaleUniverse { universe, stats } = ScaleConfig::blocking_stress(sources, 42).generate();
    let measure = NgramJaccard::default();

    let (dense_fill_millis, dense) = best_of(reps, || {
        mube_core::MatrixSimilarity::with_backend(&universe, &measure, &SimBackend::Dense)
            .expect("dense backend is infallible")
    });
    let (sparse_fill_millis, sparse) = best_of(reps, || {
        mube_core::MatrixSimilarity::with_backend(
            &universe,
            &measure,
            &SimBackend::Sparse(SparseOptions::default()),
        )
        .expect("the default measure is gram-blockable")
    });
    assert_eq!(dense.backend_kind(), SimBackendKind::Dense);
    assert_eq!(sparse.backend_kind(), SimBackendKind::Sparse);
    let lossless_stats = *sparse.sparse_stats().expect("sparse backend has stats");

    // The losslessness claim, checked every run: one read per distinct-slot
    // pair (including the diagonal), dense vs. sparse, bit-for-bit.
    let reps_attrs = class_representatives(&universe, &dense);
    assert_eq!(reps_attrs.len(), lossless_stats.distinct);
    let mut pairs_checked = 0u64;
    for &a in &reps_attrs {
        for &b in &reps_attrs {
            let d = dense.similarity(a, b);
            let s = sparse.similarity(a, b);
            assert_eq!(
                d.to_bits(),
                s.to_bits(),
                "sparse/dense bit-identity broken at ({a:?}, {b:?}): dense {d} vs sparse {s}"
            );
            pairs_checked += 1;
        }
    }

    // Solve identity across the three engine configurations.
    let engine = |backend: SimBackend| {
        MubeBuilder::new(&universe)
            .sim_backend(backend)
            .try_build()
            .expect("identity-tier engines build")
    };
    let dense_engine = engine(SimBackend::Dense);
    let sparse_engine = engine(SimBackend::Sparse(SparseOptions::default()));
    let lossless = solve_pair(&dense_engine, &sparse_engine, "lossless tier", reps);

    // Threshold tier at τ = θ: exact for this Match configuration (single
    // linkage, no GA constraints), so the solve must still be identical.
    let tau = scale_spec().match_config.theta;
    let tau_engine = engine(SimBackend::Sparse(SparseOptions {
        tau: Some(tau),
        ..SparseOptions::default()
    }));
    let tau_solve = solve_pair(&dense_engine, &tau_engine, "threshold tier", reps);
    let tau_stats = *tau_engine
        .similarity()
        .sparse_stats()
        .expect("threshold tier is sparse");
    assert!(
        tau_stats.kept_pairs <= lossless_stats.kept_pairs,
        "threshold tier must not keep more pairs than the lossless tier"
    );

    // The sparse read path's target holds only for the timed full run on a
    // quiet machine; the committed artifact carries the verdict.
    if gate {
        assert!(
            lossless.median_ratio <= MAX_SPARSE_SOLVE_RATIO,
            "n={sources}: sparse solve is {:.2}x dense in the median pair \
             (limit {MAX_SPARSE_SOLVE_RATIO}x)",
            lossless.median_ratio,
        );
    }

    obj([
        ("sources", sources.into()),
        ("attrs", stats.total_attrs.into()),
        ("distinct", stats.distinct_names.into()),
        ("dense_fill_millis", dense_fill_millis.into()),
        ("sparse_fill_millis", sparse_fill_millis.into()),
        ("pairs_checked", pairs_checked.into()),
        ("bit_identical", true.into()),
        ("lossless", stats_json(&lossless_stats)),
        (
            "solve",
            obj([
                ("greedy_m", 8u32.into()),
                ("dense_millis", lossless.reference_millis.into()),
                ("sparse_millis", lossless.candidate_millis.into()),
                ("median_pair_ratio", lossless.median_ratio.into()),
                ("quality", lossless.quality.into()),
                ("solutions_identical", true.into()),
            ]),
        ),
        (
            "tau_arm",
            obj([
                ("tau", tau.into()),
                ("solve_millis", tau_solve.candidate_millis.into()),
                ("solutions_identical", true.into()),
                ("counters", stats_json(&tau_stats)),
            ]),
        ),
    ])
}

// ---- scale tier ---------------------------------------------------------

fn bench_scale(sources: usize, budget_bytes: u64, max_buffered_triples: usize) -> Json {
    eprintln!("== scale tier, n = {sources} sources ==");
    let ScaleUniverse { universe, stats } = ScaleConfig::blocking_stress(sources, 7).generate();
    let measure = NgramJaccard::default();

    // Dense refusal: the triangle over this universe's distinct names must
    // exceed the budget, and `try_compute` must say so *before* touching
    // the allocator.
    let names: Vec<String> = universe
        .sources()
        .iter()
        .flat_map(|s| s.attributes().iter().map(|a| normalize_name(a)))
        .collect();
    let refusal = SimilarityMatrix::try_compute(&names, &measure, budget_bytes)
        .expect_err("dense must refuse: triangle exceeds the scale-tier budget");
    assert!(refusal.required_bytes > u128::from(budget_bytes));

    // Sparse build through the spill tier: the tiny run buffer forces the
    // pair store out of core, so the merge path is exercised at scale.
    let spill_dir = std::env::temp_dir().join(format!("mube-scale-spill-{}", std::process::id()));
    let opts = SparseOptions {
        tau: None,
        max_buffered_triples,
        spill_dir: Some(spill_dir.clone()),
    };
    let (sparse_build_millis, engine) = timed(|| {
        MubeBuilder::new(&universe)
            .sim_backend(SimBackend::Sparse(opts))
            .try_build()
            .expect("sparse engine builds at scale")
    });
    let _ = std::fs::remove_dir_all(&spill_dir);
    let sparse_stats = *engine
        .similarity()
        .sparse_stats()
        .expect("scale engine is sparse");
    assert!(
        sparse_stats.spill.runs >= 1,
        "the scale tier must exercise the spill path (buffer {max_buffered_triples})"
    );

    // Full-universe Match: every source in S, paper θ, incremental kernel
    // driven by the sparse neighbor lists.
    let all: Vec<SourceId> = universe.all_ids().into_iter().collect();
    let config = MatchConfig::default();
    let (match_millis, outcome) = timed(|| {
        match_sources(
            &universe,
            &all,
            &Constraints::default(),
            &config,
            engine.similarity(),
        )
        .expect("unconstrained Match never returns null")
    });

    // Greedy m = 8 solve over the full candidate set.
    let (solve_millis, solution) = timed(|| {
        engine
            .solve(&scale_spec(), &Greedy, 0)
            .expect("bench problems are feasible")
    });

    obj([
        ("sources", sources.into()),
        ("attrs", stats.total_attrs.into()),
        ("distinct", stats.distinct_names.into()),
        ("budget_bytes", budget_bytes.into()),
        ("dense_required_bytes", refusal.required_bytes.into()),
        ("dense_refused", true.into()),
        ("sparse_build_millis", sparse_build_millis.into()),
        ("counters", stats_json(&sparse_stats)),
        (
            "match",
            obj([
                ("theta", config.theta.into()),
                ("millis", match_millis.into()),
                ("gas", outcome.schema.len().into()),
                ("rounds", outcome.rounds.into()),
                ("quality", outcome.quality.into()),
            ]),
        ),
        (
            "solve",
            obj([
                ("greedy_m", 8u32.into()),
                ("millis", solve_millis.into()),
                ("selected", solution.selected.len().into()),
                ("quality", solution.overall_quality.into()),
            ]),
        ),
    ])
}

fn main() {
    let run = Run::from_args("scale_match").expect("usage: [--smoke] [--out <path>]");
    // Identity sizes keep the dense triangle buildable; the scale size is
    // chosen so it is not (10k blocking-stress sources produce far more
    // distinct names than a 64 MiB triangle can hold). The tiny spill
    // buffer forces the external-sort path in both modes.
    let (identity_sizes, scale_sources, budget_bytes, spill_buffer, reps): (
        &[usize],
        usize,
        u64,
        usize,
        u32,
    ) = if run.smoke {
        (&[200], 1_000, 1 << 20, 1 << 14, 1)
    } else {
        (&[500, 2_000], 10_000, 64 << 20, 1 << 18, 5)
    };

    let identity: Vec<Json> = identity_sizes
        .iter()
        .map(|&sources| bench_identity(sources, reps, !run.smoke))
        .collect();
    let scale = bench_scale(scale_sources, budget_bytes, spill_buffer);
    let verdict = (!run.smoke).then(|| ("meets_thresholds", true.into()));
    run.write(
        [
            (
                "units",
                obj([(
                    "millis",
                    format!(
                        "best-of-{reps} wall clock (identity-tier fills), fastest of \
                         {reps} pairs of best-of-{reps} sides (identity-tier solves); \
                         single scale-tier runs"
                    )
                    .into(),
                )]),
            ),
            ("identity", identity.into()),
            ("scale", scale),
        ]
        .into_iter()
        .chain(verdict),
    )
    .expect("artifact written");
}
