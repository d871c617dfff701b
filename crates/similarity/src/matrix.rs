//! Precomputed all-pairs similarity over a fixed list of attribute names.
//!
//! µBE's optimizer calls `Match(S)` once per objective evaluation, and every
//! call needs pairwise similarities among the attributes of the candidate
//! sources. Computing Jaccard from scratch on each lookup would dominate the
//! run time, so we precompute the full matrix once per universe.
//!
//! Two space/time optimizations, both behaviour-preserving:
//!
//! * **Name deduplication.** Web-form schemas repeat names heavily ("keyword"
//!   appears in many sources), so similarities are computed among *distinct
//!   normalized names* only and attributes map onto them.
//! * **Packed triangle.** Only the strict upper triangle of the
//!   distinct-name matrix is stored, as `f32` (the measure's precision is far
//!   below 1e-7 anyway).
//!
//! Above a size cutoff the triangle is filled by scoped threads, each owning
//! a contiguous band of rows; the result is byte-identical to the serial
//! fill (same entries, same positions, one writer per entry) — the threads
//! only change who computes what.

use crate::gram_index::GramIndex;
use crate::measure::SimilarityMeasure;

/// Index of the first packed-triangle entry of row `j`: rows `1..j` occupy
/// the prefix `[0, j*(j-1)/2)` of the triangle.
fn tri_offset(j: usize) -> usize {
    j * j.saturating_sub(1) / 2
}

/// Distinct-name count below which the triangle is filled serially: the fill
/// is ~`d²/2` pair scores, and under this size thread spawn/join overhead
/// outweighs the work being split. Measured on a 2-vCPU Xeon VM with the
/// gram-interned pair kernel (`compute`, 41 runs per size): two threads lost
/// at 109 names (median 0.84–1.03 ms against 0.52–0.56 ms serial), won
/// their best runs from 194 names up (2.1–2.5 ms against 2.8–3.2 ms), and
/// won in the median at 1,711 names (149–160 ms against 218–234 ms).
const PARALLEL_CUTOFF: usize = 192;

/// Fills `rows` — the packed entries of triangle rows `start..end` — exactly
/// as the serial loop would: entry `(i, j)`, `i < j`, at local offset
/// `tri_offset(j) - tri_offset(start) + i`. `score` is the pair kernel:
/// either a signature comparison or a packed gram-index lookup.
fn fill_rows<F: Fn(usize, usize) -> f32>(rows: &mut [f32], start: usize, end: usize, score: &F) {
    let origin = tri_offset(start);
    for j in start..end {
        let base = tri_offset(j) - origin;
        for i in 0..j {
            rows[base + i] = score(i, j);
        }
    }
}

/// Fills the packed strict upper triangle over `d` distinct names with
/// `score`, serially below [`PARALLEL_CUTOFF`] and row-striped across scoped
/// threads above it. The parallel fill is byte-identical to the serial one:
/// each worker owns a contiguous band of rows whose packed entries are a
/// contiguous slice of the triangle (handed out via `split_at_mut`), so the
/// threads only change who computes what. Band boundaries are chosen where
/// the packed prefix crosses `t/workers` of the triangle: equal *entry*
/// counts, not equal row counts, since row length grows with the row index.
fn fill_triangle<F: Fn(usize, usize) -> f32 + Sync>(d: usize, score: F) -> Vec<f32> {
    let mut tri = vec![0f32; d * (d.saturating_sub(1)) / 2];
    // Below the cutoff the worker count is not asked for: the query reads
    // cgroup files and took about 25 µs on a 2-vCPU VM, 5–8% of a 108-name
    // fill.
    let workers = if d < PARALLEL_CUTOFF {
        1
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    if workers < 2 {
        fill_rows(&mut tri, 1, d, &score);
    } else {
        let total = tri.len();
        let score = &score;
        std::thread::scope(|scope| {
            let mut rest: &mut [f32] = &mut tri;
            let mut row = 1usize;
            for t in 1..=workers {
                let target = total * t / workers;
                let mut end = row;
                while end < d && tri_offset(end) < target {
                    end += 1;
                }
                let band_len = tri_offset(end) - tri_offset(row);
                let (band, tail) = rest.split_at_mut(band_len);
                rest = tail;
                if !band.is_empty() {
                    let start = row;
                    scope.spawn(move || fill_rows(band, start, end, score));
                }
                row = end;
            }
        });
    }
    tri
}

/// Deduplicates `names` preserving first-seen order: returns the distinct
/// name list plus, per original index, the distinct slot it maps to. The
/// dedup table is entry/get only and never iterated, so hash order cannot
/// leak into the slot assignment (that follows first-seen push order).
pub(crate) fn dedup_names(names: &[String]) -> (Vec<&str>, Vec<u32>) {
    let mut distinct: Vec<&str> = Vec::new();
    #[allow(clippy::disallowed_types)]
    let mut slot_of_name: std::collections::HashMap<&str, u32> =
        std::collections::HashMap::with_capacity(names.len());
    let mut distinct_of = Vec::with_capacity(names.len());
    for name in names {
        let slot = *slot_of_name.entry(name.as_str()).or_insert_with(|| {
            distinct.push(name.as_str());
            (distinct.len() - 1) as u32
        });
        distinct_of.push(slot);
    }
    (distinct, distinct_of)
}

/// The dense triangle over `distinct` names would exceed the caller's
/// memory budget. Returned by [`SimilarityMatrix::try_compute`] *before*
/// any allocation is attempted, so callers can route to the sparse backend
/// instead of aborting on OOM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseBudgetExceeded {
    /// Distinct-name count the triangle would cover.
    pub distinct: usize,
    /// Bytes the packed `f32` triangle would need: `4 · d(d−1)/2`.
    pub required_bytes: u128,
    /// The caller's budget.
    pub budget_bytes: u64,
}

impl std::fmt::Display for DenseBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dense similarity triangle over {} distinct names needs {} bytes, budget is {}",
            self.distinct, self.required_bytes, self.budget_bytes
        )
    }
}

impl std::error::Error for DenseBudgetExceeded {}

/// All-pairs similarity among `names`, addressable by the original indices.
#[derive(Debug, Clone)]
pub struct SimilarityMatrix {
    /// Per original index: which distinct-name slot it refers to.
    distinct_of: Vec<u32>,
    /// Number of distinct names.
    distinct_count: usize,
    /// Packed strict upper triangle among distinct names: entry for
    /// `(i, j)` with `i < j` lives at `j*(j-1)/2 + i`.
    tri: Vec<f32>,
    /// Self-similarity per distinct name (1.0 for non-empty names; 0.0 for
    /// empty ones, mirroring the measures' "no evidence" convention).
    self_sim: Vec<f32>,
}

impl SimilarityMatrix {
    /// Computes the matrix for `names` (already normalized) under `measure`.
    pub fn compute(names: &[String], measure: &dyn SimilarityMeasure) -> Self {
        let (distinct, distinct_of) = dedup_names(names);
        Self::compute_inner(distinct, distinct_of, measure)
    }

    /// Like [`SimilarityMatrix::compute`], but refuses — before allocating
    /// anything — when the packed triangle over the distinct names would
    /// exceed `budget_bytes`. Large universes used to reach the allocator
    /// and abort on OOM; the structured error lets callers fall back to the
    /// sparse backend instead.
    pub fn try_compute(
        names: &[String],
        measure: &dyn SimilarityMeasure,
        budget_bytes: u64,
    ) -> Result<Self, DenseBudgetExceeded> {
        let (distinct, distinct_of) = dedup_names(names);
        let d = distinct.len() as u128;
        let required_bytes = d * d.saturating_sub(1) / 2 * std::mem::size_of::<f32>() as u128;
        if required_bytes > u128::from(budget_bytes) {
            return Err(DenseBudgetExceeded {
                distinct: distinct.len(),
                required_bytes,
                budget_bytes,
            });
        }
        Ok(Self::compute_inner(distinct, distinct_of, measure))
    }

    /// Shared body of [`SimilarityMatrix::compute`] /
    /// [`SimilarityMatrix::try_compute`] over an already-deduplicated
    /// universe.
    fn compute_inner(
        distinct: Vec<&str>,
        distinct_of: Vec<u32>,
        measure: &dyn SimilarityMeasure,
    ) -> Self {
        let d = distinct.len();
        // Gram-set measures declare a `GramSpec`: intern the distinct names'
        // grams once into a `GramIndex` and fill the triangle with packed
        // bitmap/merge kernels — bit-identical to the signature path by the
        // measure's `gram_spec` contract. Everything else goes through
        // per-name signatures, still hoisting preprocessing out of the
        // O(d²) pair loop.
        let (tri, self_sim) = if let Some(spec) = measure.gram_spec() {
            let index = GramIndex::build(&distinct, spec.n);
            let tri = fill_triangle(d, |i, j| index.score(spec.kind, i, j) as f32);
            let self_sim = (0..d)
                .map(|i| index.score(spec.kind, i, i) as f32)
                .collect();
            (tri, self_sim)
        } else {
            let signatures: Vec<_> = distinct.iter().map(|n| measure.signature(n)).collect();
            // A kind mismatch is impossible here: every signature comes from
            // this same `measure`. Degrade to "no evidence" anyway rather
            // than poisoning the fill.
            let tri = fill_triangle(d, |i, j| {
                measure
                    .similarity_sig(&signatures[i], &signatures[j])
                    .unwrap_or(0.0) as f32
            });
            let self_sim = signatures
                .iter()
                .map(|sig| measure.similarity_sig(sig, sig).unwrap_or(0.0) as f32)
                .collect();
            (tri, self_sim)
        };
        Self {
            distinct_of,
            distinct_count: d,
            tri,
            self_sim,
        }
    }

    /// Number of attributes (original indices) covered.
    pub fn len(&self) -> usize {
        self.distinct_of.len()
    }

    /// Whether the matrix covers no attributes.
    pub fn is_empty(&self) -> bool {
        self.distinct_of.is_empty()
    }

    /// Number of distinct normalized names among the attributes.
    pub fn distinct_names(&self) -> usize {
        self.distinct_count
    }

    /// The distinct-name slot attribute `i` maps to. Attributes with equal
    /// slots are similarity-identical: they compare equal (bitwise) against
    /// every third attribute, because every lookup goes through the slot.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn distinct_slot(&self, i: usize) -> u32 {
        self.distinct_of[i]
    }

    /// Similarity between attributes `i` and `j` (original indices).
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn similarity(&self, i: usize, j: usize) -> f64 {
        let di = self.distinct_of[i] as usize;
        let dj = self.distinct_of[j] as usize;
        if di == dj {
            return f64::from(self.self_sim[di]);
        }
        let (lo, hi) = if di < dj { (di, dj) } else { (dj, di) };
        f64::from(self.tri[hi * (hi - 1) / 2 + lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::NgramJaccard;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn matrix_matches_direct_computation() {
        let m = NgramJaccard::default();
        let ns = names(&["author", "author name", "keyword", "key word", "isbn"]);
        let matrix = SimilarityMatrix::compute(&ns, &m);
        for i in 0..ns.len() {
            for j in 0..ns.len() {
                let expect = m.similarity(&ns[i], &ns[j]) as f32;
                let got = matrix.similarity(i, j) as f32;
                assert!((expect - got).abs() < 1e-6, "({i},{j}): {expect} vs {got}");
            }
        }
    }

    #[test]
    fn duplicates_share_slots() {
        let m = NgramJaccard::default();
        let ns = names(&["keyword", "title", "keyword", "keyword"]);
        let matrix = SimilarityMatrix::compute(&ns, &m);
        assert_eq!(matrix.len(), 4);
        assert_eq!(matrix.distinct_names(), 2);
        assert_eq!(matrix.similarity(0, 2), 1.0);
        assert_eq!(matrix.similarity(2, 3), 1.0);
        assert!(matrix.similarity(0, 1) < 1.0);
    }

    #[test]
    fn symmetric_lookups() {
        let m = NgramJaccard::default();
        let ns = names(&["event name", "event type", "venue"]);
        let matrix = SimilarityMatrix::compute(&ns, &m);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(matrix.similarity(i, j), matrix.similarity(j, i));
            }
        }
    }

    #[test]
    fn empty_names_self_similarity_is_zero() {
        let m = NgramJaccard::default();
        let ns = names(&["", ""]);
        let matrix = SimilarityMatrix::compute(&ns, &m);
        assert_eq!(matrix.similarity(0, 1), 0.0);
        assert_eq!(matrix.similarity(0, 0), 0.0);
    }

    #[test]
    fn empty_matrix() {
        let m = NgramJaccard::default();
        let matrix = SimilarityMatrix::compute(&[], &m);
        assert!(matrix.is_empty());
        assert_eq!(matrix.len(), 0);
    }

    #[test]
    fn single_name() {
        let m = NgramJaccard::default();
        let matrix = SimilarityMatrix::compute(&names(&["title"]), &m);
        assert_eq!(matrix.similarity(0, 0), 1.0);
    }

    #[test]
    fn parallel_fill_matches_serial_reference_bitwise() {
        let m = NgramJaccard::default();
        // Enough distinct names to cross PARALLEL_CUTOFF and engage the
        // threaded fill (on multi-core hosts; single-core falls back and
        // the comparison is trivially exact).
        let ns: Vec<String> = (0..240)
            .map(|i| format!("attr {} field {i}", i % 30))
            .collect();
        assert!(ns.len() >= PARALLEL_CUTOFF);
        let matrix = SimilarityMatrix::compute(&ns, &m);
        let sigs: Vec<_> = ns.iter().map(|n| m.signature(n)).collect();
        for j in 0..ns.len() {
            for i in 0..j {
                let expect = m.similarity_sig(&sigs[i], &sigs[j]).unwrap() as f32;
                let got = matrix.similarity(i, j) as f32;
                assert_eq!(got.to_bits(), expect.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn chars_signature_fallback_matches_direct() {
        // Levenshtein has no gram spec -> exercises the signature fallback
        // path with the hoisted `Signature::Chars` decode.
        let m = crate::levenshtein::NormalizedLevenshtein;
        let ns = names(&["author", "actor", "", "venue", "avenue", "éé"]);
        let matrix = SimilarityMatrix::compute(&ns, &m);
        for i in 0..ns.len() {
            for j in 0..ns.len() {
                let expect = m.similarity(&ns[i], &ns[j]) as f32;
                let got = matrix.similarity(i, j) as f32;
                assert_eq!(got.to_bits(), expect.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn try_compute_within_budget_matches_compute() {
        let m = NgramJaccard::default();
        let ns = names(&["author", "author name", "keyword", "keyword", "isbn"]);
        // 4 distinct names -> 6 triangle entries -> 24 bytes.
        let a = SimilarityMatrix::compute(&ns, &m);
        let b = SimilarityMatrix::try_compute(&ns, &m, 24).unwrap();
        for i in 0..ns.len() {
            for j in 0..ns.len() {
                assert_eq!(a.similarity(i, j).to_bits(), b.similarity(i, j).to_bits());
            }
        }
    }

    #[test]
    fn try_compute_refuses_over_budget_before_allocating() {
        let m = NgramJaccard::default();
        let ns = names(&["author", "author name", "keyword", "keyword", "isbn"]);
        let err = SimilarityMatrix::try_compute(&ns, &m, 23).unwrap_err();
        assert_eq!(err.distinct, 4);
        assert_eq!(err.required_bytes, 24);
        assert_eq!(err.budget_bytes, 23);
        // The budget arithmetic is exact even where d*(d-1)/2*4 would
        // overflow u64: a refusal at usize::MAX-scale counts must not wrap.
        let big: Vec<String> = (0..2000).map(|i| format!("name {i}")).collect();
        let err = SimilarityMatrix::try_compute(&big, &m, 0).unwrap_err();
        assert_eq!(err.required_bytes, 2000u128 * 1999 / 2 * 4);
    }

    #[test]
    fn tri_offsets_are_row_prefix_sums() {
        assert_eq!(tri_offset(0), 0);
        assert_eq!(tri_offset(1), 0);
        assert_eq!(tri_offset(2), 1);
        assert_eq!(tri_offset(5), 10);
        for j in 1..50 {
            assert_eq!(tri_offset(j + 1) - tri_offset(j), j);
        }
    }
}
