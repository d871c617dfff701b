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
//!   1.2x the dense one at every identity size, and stamps
//!   `"meets_thresholds": true` into the JSON.
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

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mube_cluster::{match_sources, AttrSimilarity, MatchConfig};
use mube_core::{Mube, MubeBuilder, ProblemSpec, SimBackend, SimBackendKind, SparseOptions};
use mube_datagen::{ScaleConfig, ScaleUniverse};
use mube_opt::Greedy;
use mube_qef::Weights;
use mube_schema::{attribute::normalize_name, AttrId, Constraints, SourceId, Universe};
use mube_similarity::{NgramJaccard, SimilarityMatrix, SparseBuildStats};

/// The full run's ceiling on an identity-tier sparse solve, as a multiple
/// of the dense solve over the same universe.
const MAX_SPARSE_SOLVE_RATIO: f64 = 1.2;

/// Best-of-`reps` wall time of `run`, returning the last run's value.
fn best_of<T>(reps: u32, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = Duration::MAX;
    let mut value = None;
    for _ in 0..reps {
        let start = Instant::now();
        let v = run();
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
        }
        value = Some(v);
    }
    (best.as_secs_f64() * 1e3, value.expect("reps >= 1"))
}

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

/// Asserts two engines produce the identical greedy solution and returns
/// `(dense-ish millis, sparse-ish millis, quality)`, each the best of
/// `reps` solves. The engines take turns, so a shift in host speed during
/// the measurement reaches both sides; every `Mube::solve` starts on a
/// fresh arena, so each rep is a cold solve.
fn solve_pair(reference: &Mube, candidate: &Mube, label: &str, reps: u32) -> (f64, f64, f64) {
    let spec = scale_spec();
    let solver = Greedy;
    let solve = |engine: &Mube| {
        best_of(1, || {
            engine
                .solve(&spec, &solver, 0)
                .expect("bench problems are feasible")
        })
    };
    let (mut ref_millis, mut cand_millis) = (f64::INFINITY, f64::INFINITY);
    let mut solutions = None;
    for _ in 0..reps {
        let (millis, ref_solution) = solve(reference);
        ref_millis = ref_millis.min(millis);
        let (millis, cand_solution) = solve(candidate);
        cand_millis = cand_millis.min(millis);
        solutions = Some((ref_solution, cand_solution));
    }
    let (ref_solution, cand_solution) = solutions.expect("reps >= 1");
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
    (ref_millis, cand_millis, ref_solution.overall_quality)
}

fn stats_json(stats: &SparseBuildStats) -> String {
    format!(
        "{{\"dense_pairs\": {}, \"candidate_pairs\": {}, \"length_pruned\": {}, \
         \"scored_pairs\": {}, \"score_pruned\": {}, \"kept_pairs\": {}, \
         \"spill_runs\": {}, \"spilled_triples\": {}, \"spilled_bytes\": {}}}",
        stats.dense_pairs,
        stats.candidate_pairs,
        stats.length_pruned,
        stats.scored_pairs,
        stats.score_pruned,
        stats.kept_pairs,
        stats.spill.runs,
        stats.spill.spilled_triples,
        stats.spill.spilled_bytes,
    )
}

// ---- identity tier ------------------------------------------------------

struct Identity {
    sources: usize,
    attrs: usize,
    distinct: usize,
    dense_fill_millis: f64,
    sparse_fill_millis: f64,
    fill_speedup: f64,
    pairs_checked: u64,
    dense_solve_millis: f64,
    sparse_solve_millis: f64,
    solve_quality: f64,
    tau: f64,
    tau_solve_millis: f64,
    tau_stats: SparseBuildStats,
    lossless_stats: SparseBuildStats,
}

fn bench_identity(sources: usize, reps: u32) -> Identity {
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
    let dense_engine = MubeBuilder::new(&universe)
        .sim_backend(SimBackend::Dense)
        .try_build()
        .expect("dense engine builds");
    let sparse_engine = MubeBuilder::new(&universe)
        .sim_backend(SimBackend::Sparse(SparseOptions::default()))
        .try_build()
        .expect("sparse engine builds");
    let (dense_solve_millis, sparse_solve_millis, solve_quality) =
        solve_pair(&dense_engine, &sparse_engine, "lossless tier", reps);

    // Threshold tier at τ = θ: exact for this Match configuration (single
    // linkage, no GA constraints), so the solve must still be identical.
    let tau = scale_spec().match_config.theta;
    let tau_engine = MubeBuilder::new(&universe)
        .sim_backend(SimBackend::Sparse(SparseOptions {
            tau: Some(tau),
            ..SparseOptions::default()
        }))
        .try_build()
        .expect("threshold-tier engine builds");
    let (_, tau_solve_millis, _) = solve_pair(&dense_engine, &tau_engine, "threshold tier", reps);
    let tau_stats = *tau_engine
        .similarity()
        .sparse_stats()
        .expect("threshold tier is sparse");
    assert!(
        tau_stats.kept_pairs <= lossless_stats.kept_pairs,
        "threshold tier must not keep more pairs than the lossless tier"
    );

    Identity {
        sources,
        attrs: stats.total_attrs,
        distinct: stats.distinct_names,
        dense_fill_millis,
        sparse_fill_millis,
        fill_speedup: dense_fill_millis / sparse_fill_millis.max(1e-9),
        pairs_checked,
        dense_solve_millis,
        sparse_solve_millis,
        solve_quality,
        tau,
        tau_solve_millis,
        tau_stats,
        lossless_stats,
    }
}

// ---- scale tier ---------------------------------------------------------

struct ScaleRun {
    sources: usize,
    attrs: usize,
    distinct: usize,
    budget_bytes: u64,
    dense_required_bytes: u128,
    sparse_build_millis: f64,
    sparse_stats: SparseBuildStats,
    match_millis: f64,
    match_gas: usize,
    match_quality: f64,
    match_rounds: u32,
    solve_millis: f64,
    solve_selected: usize,
    solve_quality: f64,
}

fn bench_scale(sources: usize, budget_bytes: u64, max_buffered_triples: usize) -> ScaleRun {
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
    let (sparse_build_millis, engine) = best_of(1, || {
        MubeBuilder::new(&universe)
            .sim_backend(SimBackend::Sparse(opts.clone()))
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
    let constraints = Constraints::default();
    let (match_millis, outcome) = best_of(1, || {
        match_sources(&universe, &all, &constraints, &config, engine.similarity())
            .expect("unconstrained Match never returns null")
    });

    // Greedy m = 8 solve over the full candidate set.
    let spec = scale_spec();
    let (solve_millis, solution) = best_of(1, || {
        engine
            .solve(&spec, &Greedy, 0)
            .expect("bench problems are feasible")
    });

    ScaleRun {
        sources,
        attrs: stats.total_attrs,
        distinct: stats.distinct_names,
        budget_bytes,
        dense_required_bytes: refusal.required_bytes,
        sparse_build_millis,
        sparse_stats,
        match_millis,
        match_gas: outcome.schema.len(),
        match_quality: outcome.quality,
        match_rounds: outcome.rounds,
        solve_millis,
        solve_selected: solution.selected.len(),
        solve_quality: solution.overall_quality,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_scale.json".to_owned());
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
    ) = if smoke {
        (&[200], 1_000, 1 << 20, 1 << 14, 1)
    } else {
        (&[500, 2_000], 10_000, 64 << 20, 1 << 18, 5)
    };

    eprintln!(
        "== scale_match ({}) ==",
        if smoke { "smoke" } else { "full" }
    );

    let mut identity_rows = Vec::new();
    for &sources in identity_sizes {
        let row = bench_identity(sources, reps);
        eprintln!(
            "  identity n={}: {} attrs / {} distinct; fill dense {:.2} ms vs sparse {:.2} ms \
             ({:.2}x); {} pairs bit-identical; solves identical (dense {:.1} ms, sparse {:.1} ms, \
             tau {:.1} ms)",
            row.sources,
            row.attrs,
            row.distinct,
            row.dense_fill_millis,
            row.sparse_fill_millis,
            row.fill_speedup,
            row.pairs_checked,
            row.dense_solve_millis,
            row.sparse_solve_millis,
            row.tau_solve_millis,
        );
        identity_rows.push(row);
    }

    let scale = bench_scale(scale_sources, budget_bytes, spill_buffer);
    eprintln!(
        "  scale n={}: {} attrs / {} distinct; dense refused ({} B > {} B budget); sparse build \
         {:.1} ms ({} runs spilled); Match {:.1} ms ({} GAs, {} rounds); greedy solve {:.1} ms \
         ({} sources, Q={:.4})",
        scale.sources,
        scale.attrs,
        scale.distinct,
        scale.dense_required_bytes,
        scale.budget_bytes,
        scale.sparse_build_millis,
        scale.sparse_stats.spill.runs,
        scale.match_millis,
        scale.match_gas,
        scale.match_rounds,
        scale.solve_millis,
        scale.solve_selected,
        scale.solve_quality,
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"scale_match\",\n  \"mode\": \"{}\",\n  \
         \"units\": {{\"millis\": \"best-of-{} wall clock (identity tier); single scale-tier runs\"}},\n  \
         \"identity\": [",
        if smoke { "smoke" } else { "full" },
        reps,
    );
    for (k, row) in identity_rows.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"sources\": {}, \"attrs\": {}, \"distinct\": {}, \
             \"dense_fill_millis\": {:.3}, \"sparse_fill_millis\": {:.3}, \
             \"fill_speedup\": {:.3}, \"pairs_checked\": {}, \"bit_identical\": true,\n     \
             \"lossless\": {},\n     \
             \"solve\": {{\"greedy_m\": 8, \"dense_millis\": {:.3}, \"sparse_millis\": {:.3}, \
             \"quality\": {:.6}, \"solutions_identical\": true}},\n     \
             \"tau_arm\": {{\"tau\": {:.2}, \"solve_millis\": {:.3}, \
             \"solutions_identical\": true, \"counters\": {}}}}}",
            if k == 0 { "" } else { "," },
            row.sources,
            row.attrs,
            row.distinct,
            row.dense_fill_millis,
            row.sparse_fill_millis,
            row.fill_speedup,
            row.pairs_checked,
            stats_json(&row.lossless_stats),
            row.dense_solve_millis,
            row.sparse_solve_millis,
            row.solve_quality,
            row.tau,
            row.tau_solve_millis,
            stats_json(&row.tau_stats),
        );
    }
    let _ = write!(
        json,
        "\n  ],\n  \"scale\": {{\"sources\": {}, \"attrs\": {}, \"distinct\": {}, \
         \"budget_bytes\": {}, \"dense_required_bytes\": {}, \"dense_refused\": true,\n    \
         \"sparse_build_millis\": {:.3}, \"counters\": {},\n    \
         \"match\": {{\"theta\": 0.75, \"millis\": {:.3}, \"gas\": {}, \"rounds\": {}, \
         \"quality\": {:.6}}},\n    \
         \"solve\": {{\"greedy_m\": 8, \"millis\": {:.3}, \"selected\": {}, \
         \"quality\": {:.6}}}}}",
        scale.sources,
        scale.attrs,
        scale.distinct,
        scale.budget_bytes,
        scale.dense_required_bytes,
        scale.sparse_build_millis,
        stats_json(&scale.sparse_stats),
        scale.match_millis,
        scale.match_gas,
        scale.match_rounds,
        scale.match_quality,
        scale.solve_millis,
        scale.solve_selected,
        scale.solve_quality,
    );
    if smoke {
        json.push_str("\n}\n");
    } else {
        // The sparse read path's target holds only for the timed full run
        // on a quiet machine; the committed artifact carries the verdict and
        // check.sh greps for it.
        for row in &identity_rows {
            let ratio = row.sparse_solve_millis / row.dense_solve_millis;
            assert!(
                ratio <= MAX_SPARSE_SOLVE_RATIO,
                "n={}: sparse solve {:.1} ms is {ratio:.2}x dense {:.1} ms (limit {MAX_SPARSE_SOLVE_RATIO}x)",
                row.sources,
                row.sparse_solve_millis,
                row.dense_solve_millis,
            );
        }
        json.push_str(",\n  \"meets_thresholds\": true\n}\n");
    }
    std::fs::write(&out_path, &json).expect("write BENCH json");
    for key in [
        "identity",
        "scale",
        "bit_identical",
        "dense_refused",
        "candidate_pairs",
        "solutions_identical",
    ] {
        assert!(json.contains(key), "JSON schema lost key {key}");
    }
    eprintln!("  wrote {out_path}");
}
