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
//! ≥ 2x matrix fill) and stamps `"meets_thresholds": true` into the JSON;
//! `scripts/check.sh` greps the committed artifact for that flag and re-runs
//! the bit-identity assertions via `--smoke`.
//!
//! Usage:
//!   cargo run --release -p mube-bench --bin sim_kernels
//!   cargo run --release -p mube-bench --bin sim_kernels -- --smoke --out target/BENCH_kernels.smoke.json

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mube_bench::{universe, Scale};
use mube_schema::{attribute::normalize_name, SourceId, SourceSelection};
use mube_similarity::{GramIndex, GramKind, NgramJaccard, SimilarityMatrix, SimilarityMeasure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

struct Pairwise {
    pairs: usize,
    string_millis: f64,
    packed_millis: f64,
    speedup: f64,
}

fn bench_pairwise(names: &[String], reps: u32) -> Pairwise {
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
    Pairwise {
        pairs: string_scores.len(),
        string_millis,
        packed_millis,
        speedup: string_millis / packed_millis.max(1e-9),
    }
}

// ---- matrix fill --------------------------------------------------------

struct MatrixFill {
    distinct: usize,
    pre_pr_millis: f64,
    packed_millis: f64,
    speedup: f64,
}

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

fn bench_matrix(names: &[String], reps: u32) -> MatrixFill {
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
    MatrixFill {
        distinct: names.len(),
        pre_pr_millis,
        packed_millis,
        speedup: pre_pr_millis / packed_millis.max(1e-9),
    }
}

// ---- selection algebra --------------------------------------------------

struct SelectionOps {
    selections: usize,
    scalar_millis: f64,
    packed_millis: f64,
    speedup: f64,
}

fn bench_selections(universe_size: usize, count: usize, reps: u32) -> SelectionOps {
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
    SelectionOps {
        selections: count,
        scalar_millis,
        packed_millis,
        speedup: scalar_millis / packed_millis.max(1e-9),
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
        .unwrap_or_else(|| "BENCH_kernels.json".to_owned());
    // 400 sources is the acceptance scale; the name cap bounds the
    // quadratic arms (the universe's distinct-name pool is smaller anyway).
    let (sources, name_cap, sel_count, reps) = if smoke {
        (40, 60, 64, 1)
    } else {
        (400, 400, 512, 9)
    };

    let names = distinct_names(sources, name_cap);
    eprintln!(
        "== sim_kernels ({}) : {} distinct names from {} sources ==",
        if smoke { "smoke" } else { "full" },
        names.len(),
        sources
    );

    let pairwise = bench_pairwise(&names, reps);
    eprintln!(
        "  pairwise jaccard: string {:.2} ms, packed {:.2} ms ({:.2}x) over {} pairs",
        pairwise.string_millis, pairwise.packed_millis, pairwise.speedup, pairwise.pairs
    );
    let matrix = bench_matrix(&names, reps);
    eprintln!(
        "  matrix fill: pre-PR {:.2} ms, packed {:.2} ms ({:.2}x) over {} names",
        matrix.pre_pr_millis, matrix.packed_millis, matrix.speedup, matrix.distinct
    );
    let selections = bench_selections(sources, sel_count, reps);
    eprintln!(
        "  selection ops: scalar {:.3} ms, packed {:.3} ms ({:.2}x)",
        selections.scalar_millis, selections.packed_millis, selections.speedup
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"sim_kernels\",\n  \"mode\": \"{}\",\n  \"scale\": \"reduced\",\n  \
         \"units\": {{\"millis\": \"best-of-{} wall clock\"}},\n  \
         \"pairwise_jaccard\": {{\"names\": {}, \"pairs\": {}, \"string_millis\": {:.3}, \
         \"packed_millis\": {:.3}, \"speedup\": {:.3}, \"bit_identical\": true}},\n  \
         \"matrix_fill\": {{\"distinct\": {}, \"pre_pr_millis\": {:.3}, \
         \"packed_millis\": {:.3}, \"speedup\": {:.3}, \"bit_identical\": true}},\n  \
         \"selection_ops\": {{\"universe\": {}, \"selections\": {}, \"scalar_millis\": {:.3}, \
         \"packed_millis\": {:.3}, \"speedup\": {:.3}, \"results_equal\": true}}",
        if smoke { "smoke" } else { "full" },
        reps,
        names.len(),
        pairwise.pairs,
        pairwise.string_millis,
        pairwise.packed_millis,
        pairwise.speedup,
        matrix.distinct,
        matrix.pre_pr_millis,
        matrix.packed_millis,
        matrix.speedup,
        sources,
        selections.selections,
        selections.scalar_millis,
        selections.packed_millis,
        selections.speedup,
    );
    if smoke {
        json.push_str("\n}\n");
    } else {
        // Acceptance thresholds hold only for the timed full run on a quiet
        // machine; the committed artifact carries the verdict and check.sh
        // greps for it.
        assert!(
            pairwise.speedup >= 3.0,
            "pairwise jaccard below threshold: {:.2}x < 3x",
            pairwise.speedup
        );
        assert!(
            matrix.speedup >= 2.0,
            "matrix fill below threshold: {:.2}x < 2x",
            matrix.speedup
        );
        json.push_str(",\n  \"meets_thresholds\": true\n}\n");
    }
    std::fs::write(&out_path, &json).expect("write BENCH json");
    for key in [
        "pairwise_jaccard",
        "matrix_fill",
        "selection_ops",
        "bit_identical",
        "speedup",
    ] {
        assert!(json.contains(key), "BENCH json lost key {key}");
    }
    println!("wrote {out_path}");
}
