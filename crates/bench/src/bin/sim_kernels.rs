//! Packed-kernel microbenches: regenerates `BENCH_kernels.json`.
//!
//! Times the three word-level kernels against their scalar/string
//! reference paths, asserting exact agreement in every mode:
//!
//! * **pairwise Jaccard** — per-pair string tokenization (pad, hash, merge
//!   per call) vs. the [`GramIndex`] packed-bitmap kernel, all pairs over
//!   the distinct attribute names of a 400-source universe. Scores must be
//!   bit-identical.
//! * **matrix fill** — the pre-PR `SimilarityMatrix` fill (per-name
//!   signatures, sorted-hash merges per pair) vs. the new gram-interned
//!   fill, same triangle bit-for-bit.
//! * **selection ops** — id-iteration set algebra (`iter`/`contains`
//!   loops, `from_ids` rebuilds) vs. the word-level
//!   `intersect_count`/`is_subset_of`/`union_with`/`from_words` kernels.
//!
//! A full run additionally asserts the acceptance thresholds (≥ 3x pairwise,
//! ≥ 2x matrix fill, each the ratio of the arm's two `millis` columns) and
//! stamps `"meets_thresholds": true` into the JSON;
//! the bench contract requires that flag of every full-run artifact, and
//! `scripts/check.sh` re-runs the bit-identity assertions via `--smoke`.
//!
//! Usage:
//!   cargo run --release -p mube-bench --bin sim_kernels
//!   cargo run --release -p mube-bench --bin sim_kernels -- --smoke --out target/BENCH_kernels.smoke.json

use mube_bench::{best_of, universe, Run, Scale};
use mube_schema::{attribute::normalize_name, SourceId, SourceSelection};
use mube_serve::json::{obj, Json};
use mube_similarity::{GramIndex, GramKind, NgramJaccard, SimilarityMatrix, SimilarityMeasure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The distinct normalized attribute names of a generated universe, in
/// first-seen order, capped at `max` for the quadratic arms.
fn distinct_names(sources: usize, max: usize) -> Vec<String> {
    let generated = universe(sources, 7, Scale::Reduced);
    let mut names: Vec<String> = Vec::new();
    for source in generated.universe.sources() {
        for raw in source.attributes() {
            let normalized = normalize_name(raw);
            if !names.contains(&normalized) {
                names.push(normalized);
            }
            if names.len() >= max {
                return names;
            }
        }
    }
    names
}

// ---- pairwise Jaccard ---------------------------------------------------

/// The pairwise arm; `gate` holds it to its acceptance threshold (≥ 3x).
fn bench_pairwise(names: &[String], reps: u32, gate: bool) -> Json {
    let measure = NgramJaccard::default();
    let d = names.len();
    let (string_millis, string_scores) = best_of(reps, || {
        let mut scores = Vec::with_capacity(d * (d - 1) / 2);
        for j in 1..d {
            for i in 0..j {
                scores.push(measure.similarity(&names[i], &names[j]));
            }
        }
        scores
    });
    // The packed arm pays its index build inside the timed region: that is
    // the whole cost the matrix path amortizes over the pair loop.
    let (packed_millis, packed_scores) = best_of(reps, || {
        let index = GramIndex::build(names, 3);
        let mut scores = Vec::with_capacity(d * (d - 1) / 2);
        for j in 1..d {
            for i in 0..j {
                scores.push(index.score(GramKind::Jaccard, i, j));
            }
        }
        scores
    });
    assert_eq!(string_scores.len(), packed_scores.len());
    for (k, (s, p)) in string_scores.iter().zip(&packed_scores).enumerate() {
        assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "pairwise bit-identity broken at pair {k}: string {s} vs packed {p}"
        );
    }
    let speedup = string_millis / packed_millis.max(1e-9);
    assert!(
        !gate || speedup >= 3.0,
        "pairwise jaccard below threshold: {speedup:.2}x < 3x"
    );
    obj([
        ("names", d.into()),
        ("pairs", string_scores.len().into()),
        ("string_millis", string_millis.into()),
        ("packed_millis", packed_millis.into()),
        ("bit_identical", true.into()),
    ])
}

// ---- matrix fill --------------------------------------------------------

/// The pre-PR `SimilarityMatrix` fill, ported faithfully: one signature per
/// distinct name, then a serial packed-triangle fill where every pair runs
/// the sorted-hash-merge `similarity_sig`. (The pre-PR parallel band split
/// is left out: the gains under test are per-pair kernel wins, not thread
/// wins, and the current fill is serial at this arm's name count too, below
/// `SimilarityMatrix`'s thread cutoff.)
fn pre_pr_fill(names: &[String], measure: &dyn SimilarityMeasure) -> Vec<f32> {
    let signatures: Vec<_> = names.iter().map(|n| measure.signature(n)).collect();
    let d = names.len();
    let mut tri = vec![0f32; d * (d.saturating_sub(1)) / 2];
    for j in 1..d {
        let base = j * (j - 1) / 2;
        for i in 0..j {
            tri[base + i] = measure
                .similarity_sig(&signatures[i], &signatures[j])
                .unwrap_or(0.0) as f32;
        }
    }
    tri
}

/// The matrix-fill arm; `gate` holds it to its acceptance threshold (≥ 2x).
fn bench_matrix(names: &[String], reps: u32, gate: bool) -> Json {
    let measure = NgramJaccard::default();
    let (pre_pr_millis, reference) = best_of(reps, || pre_pr_fill(names, &measure));
    let (packed_millis, matrix) = best_of(reps, || SimilarityMatrix::compute(names, &measure));
    // The names are distinct by construction, so matrix slot i == name i and
    // the whole pre-PR triangle must be reproduced bit-for-bit.
    assert_eq!(matrix.distinct_names(), names.len());
    for j in 1..names.len() {
        for i in 0..j {
            let got = matrix.similarity(i, j) as f32;
            let expect = reference[j * (j - 1) / 2 + i];
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "matrix bit-identity broken at ({i},{j})"
            );
        }
    }
    let speedup = pre_pr_millis / packed_millis.max(1e-9);
    assert!(
        !gate || speedup >= 2.0,
        "matrix fill below threshold: {speedup:.2}x < 2x"
    );
    obj([
        ("distinct", names.len().into()),
        ("pre_pr_millis", pre_pr_millis.into()),
        ("packed_millis", packed_millis.into()),
        ("bit_identical", true.into()),
    ])
}

// ---- selection algebra --------------------------------------------------

fn bench_selections(universe_size: usize, count: usize, reps: u32) -> Json {
    let mut rng = StdRng::seed_from_u64(11);
    let selections: Vec<SourceSelection> = (0..count)
        .map(|_| {
            let k = rng.gen_range(1..universe_size / 2);
            let mut sel = SourceSelection::empty(universe_size);
            for _ in 0..k {
                sel.insert(SourceId(rng.gen_range(0..universe_size as u32)));
            }
            sel
        })
        .collect();
    let id_lists: Vec<Vec<SourceId>> = selections.iter().map(|s| s.iter().collect()).collect();

    // Scalar arm: the set algebra as id loops — membership-probe
    // intersections and subset tests, per-id union inserts, and the pre-PR
    // `from_ids` rebuild feeding the fingerprint.
    let (scalar_millis, scalar_sums) = best_of(reps, || {
        let (mut inter, mut subsets, mut fp) = (0usize, 0usize, 0u64);
        for (i, a) in selections.iter().enumerate() {
            let b = &selections[(i + 1) % selections.len()];
            inter += id_lists[i].iter().filter(|&&id| b.contains(id)).count();
            subsets += usize::from(id_lists[i].iter().all(|&id| b.contains(id)));
            let mut u = a.clone();
            for &id in &id_lists[(i + 1) % selections.len()] {
                u.insert(id);
            }
            let rebuilt = SourceSelection::from_ids(universe_size, u.iter());
            fp ^= rebuilt.fingerprint();
        }
        (inter, subsets, fp)
    });
    // Packed arm: the same answers from the word-level kernels.
    let (packed_millis, packed_sums) = best_of(reps, || {
        let (mut inter, mut subsets, mut fp) = (0usize, 0usize, 0u64);
        for (i, a) in selections.iter().enumerate() {
            let b = &selections[(i + 1) % selections.len()];
            inter += a.intersect_count(b);
            subsets += usize::from(a.is_subset_of(b));
            let mut u = a.clone();
            u.union_with(b);
            let rebuilt = SourceSelection::from_words(universe_size, u.words());
            fp ^= rebuilt.fingerprint();
        }
        (inter, subsets, fp)
    });
    assert_eq!(
        scalar_sums, packed_sums,
        "selection kernels disagree with scalar loops"
    );
    obj([
        ("universe", universe_size.into()),
        ("selections", count.into()),
        ("scalar_millis", scalar_millis.into()),
        ("packed_millis", packed_millis.into()),
        ("results_equal", true.into()),
    ])
}

fn main() {
    let run = Run::from_args("sim_kernels").expect("usage: [--smoke] [--out <path>]");
    // 400 sources is the acceptance scale; the name cap bounds the
    // quadratic arms (the universe's distinct-name pool is smaller anyway).
    let (sources, name_cap, sel_count, reps) = if run.smoke {
        (40, 60, 64, 1)
    } else {
        (400, 400, 512, 9)
    };

    let names = distinct_names(sources, name_cap);
    eprintln!(
        "== {} distinct names from {sources} sources ==",
        names.len()
    );

    // The acceptance thresholds hold only for the timed full run on a quiet
    // machine; the committed artifact carries the verdict.
    let gate = !run.smoke;
    let body = [
        ("scale", "reduced".into()),
        (
            "units",
            obj([("millis", format!("best-of-{reps} wall clock").into())]),
        ),
        ("pairwise_jaccard", bench_pairwise(&names, reps, gate)),
        ("matrix_fill", bench_matrix(&names, reps, gate)),
        ("selection_ops", bench_selections(sources, sel_count, reps)),
    ];
    let verdict = gate.then(|| ("meets_thresholds", true.into()));
    run.write(body.into_iter().chain(verdict))
        .expect("artifact written");
}
