//! Sparse-by-construction similarity: n-gram inverted-index blocking over
//! the distinct names, scored pairs stored in a symmetric CSR.
//!
//! [`crate::SimilarityMatrix`] materializes all `d(d−1)/2` distinct-name
//! pairs — impossible at the 10k–100k-source universes µBE's deep-web
//! setting implies. But for the paper's n-gram measures the dense triangle
//! is overwhelmingly *exact zeros*: two names with disjoint gram sets have
//! Jaccard (and Dice) exactly `0.0`. [`SparseSimilarity`] exploits that by
//! construction: it builds an inverted index from interned gram ids
//! (reusing [`GramIndex`]'s dense, frequency-ranked ids) to the names
//! containing them, and scores only pairs that share at least one indexed
//! gram. Everything else is an implicit zero.
//!
//! Two blocking tiers:
//!
//! * **Lossless** ([`SparseConfig::tau`] `= None`): every gram is indexed,
//!   so every pair with a non-zero score is generated and scored by the
//!   same [`GramIndex`] kernels the dense fill uses. Stored scores are the
//!   same `f64 → f32` roundings the dense triangle holds, and missed pairs
//!   are exactly `0.0` on the dense path too — sparse and dense lookups are
//!   bit-identical, pair for pair.
//! * **Threshold-aware** ([`SparseConfig::tau`] `= Some(τ)`): additionally
//!   applies the classic length filter and prefix filter from set-similarity
//!   joins, keeping only pairs whose *stored* (f32-rounded) score reaches τ.
//!   Both filters are exact for "score ≥ τ" — no kept pair is lost — but
//!   sub-τ scores are dropped, so this tier is only safe where the consumer
//!   discards sub-θ similarities anyway (τ = θ); see `DESIGN.md` §14 for
//!   the exactness condition.
//!
//! Candidate generation streams surviving pairs through a
//! [`TripleSink`](crate::spill::TripleSink), so peak memory is bounded by
//! the spill buffer plus the final CSR even when the candidate set is
//! large; at 100k names the sink's disk tier keeps generation out-of-core.

use crate::gram_index::{GramIndex, GramKind};
use crate::matrix::dedup_names;
use crate::measure::SimilarityMeasure;
use crate::spill::{CsrMatrix, SpillConfig, SpillError, SpillStats, TripleSink};

/// How a [`SparseSimilarity`] is built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseConfig {
    /// Score threshold for the threshold-aware tier: pairs whose stored
    /// (f32-rounded) score is `< τ` are dropped and read back as `0.0`.
    /// `None` selects the lossless tier (bit-identical to dense).
    /// Must lie in `(0, 1]` when present.
    pub tau: Option<f64>,
    /// Spill behaviour of the pair store during candidate generation.
    pub spill: SpillConfig,
}

/// Why a sparse build was refused or failed.
#[derive(Debug)]
pub enum SparseError {
    /// The measure declares no [`GramSpec`](crate::GramSpec): blocking by
    /// shared grams is only lossless for set-based n-gram coefficients, so
    /// other measures must use the dense matrix.
    NotBlockable,
    /// [`SparseConfig::tau`] outside `(0, 1]` (or NaN).
    InvalidTau(
        /// The rejected value.
        f64,
    ),
    /// The spill-to-disk pair store failed.
    Spill(
        /// The underlying spill error.
        SpillError,
    ),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::NotBlockable => {
                write!(f, "measure has no gram spec; gram blocking would be lossy")
            }
            SparseError::InvalidTau(t) => write!(f, "sparse tau {t} outside (0, 1]"),
            SparseError::Spill(e) => write!(f, "sparse pair store: {e}"),
        }
    }
}

impl std::error::Error for SparseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparseError::Spill(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpillError> for SparseError {
    fn from(e: SpillError) -> Self {
        SparseError::Spill(e)
    }
}

/// Counters from one sparse build, reported per blocking tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseBuildStats {
    /// Distinct normalized names the index covers.
    pub distinct: usize,
    /// Distinct grams across those names.
    pub vocab: usize,
    /// Unordered pairs the dense triangle would have scored: `d(d−1)/2`.
    pub dense_pairs: u128,
    /// Unordered pairs generated by the inverted index (shared indexed
    /// gram), before any filter.
    pub candidate_pairs: u64,
    /// Candidates discarded by the length filter without being scored
    /// (threshold tier only).
    pub length_pruned: u64,
    /// Candidates actually scored by the gram kernels.
    pub scored_pairs: u64,
    /// Scored pairs whose stored score fell below τ (threshold tier only).
    pub score_pruned: u64,
    /// Unordered pairs stored in the CSR.
    pub kept_pairs: u64,
    /// Pair-store spill counters.
    pub spill: SpillStats,
}

/// Per-name prefix lengths for candidate generation: how many of the
/// name's grams are indexed/probed. Lossless tier indexes all of them; the
/// threshold tier indexes only the `k − ⌈t·k⌉ + 1` rarest (prefix filter).
fn prefix_len(k: usize, t: Option<f64>) -> usize {
    match t {
        None => k,
        Some(t) => {
            if k == 0 {
                return 0;
            }
            // ⌈t·k⌉ without float-to-int edge cases at representable
            // integers: the smallest integer m with m ≥ t·k.
            let mut m = (t * k as f64).floor() as usize;
            if (m as f64) < t * k as f64 {
                m += 1;
            }
            k - m.min(k) + 1
        }
    }
}

/// The Jaccard-scale threshold equivalent to `tau` under `kind`: the
/// filters reason about shared-gram counts, i.e. Jaccard, and
/// `Dice ≥ τ ⇔ Jaccard ≥ τ / (2 − τ)`.
fn jaccard_equivalent(kind: GramKind, tau: f64) -> f64 {
    match kind {
        GramKind::Jaccard => tau,
        GramKind::Dice => tau / (2.0 - tau),
    }
}

/// Sparse all-pairs similarity among `names`, addressable by the original
/// indices — the drop-in counterpart of [`crate::SimilarityMatrix`] for
/// gram-set measures, with implicit-zero misses.
#[derive(Debug, Clone)]
pub struct SparseSimilarity {
    /// Per original index: which distinct-name slot it refers to.
    distinct_of: Vec<u32>,
    /// Number of distinct names.
    distinct_count: usize,
    /// Symmetric CSR over distinct slots: both `(i, j)` and `(j, i)` are
    /// stored, so any row read yields the full neighbor set.
    csr: CsrMatrix,
    /// Self-similarity per distinct name (1.0 for names with grams, 0.0
    /// for gram-less ones, mirroring the measures' convention).
    self_sim: Vec<f32>,
    /// Build counters.
    stats: SparseBuildStats,
    /// The threshold the build pruned against, if any.
    tau: Option<f64>,
}

impl SparseSimilarity {
    /// Builds the sparse matrix for `names` (already normalized) under
    /// `measure`. Fails fast when the measure is not gram-blockable or the
    /// config is invalid; spill failures surface as [`SparseError::Spill`].
    pub fn build(
        names: &[String],
        measure: &dyn SimilarityMeasure,
        config: &SparseConfig,
    ) -> Result<Self, SparseError> {
        let spec = measure.gram_spec().ok_or(SparseError::NotBlockable)?;
        if let Some(t) = config.tau {
            if !(t > 0.0 && t <= 1.0) {
                return Err(SparseError::InvalidTau(t));
            }
        }
        let (distinct, distinct_of) = dedup_names(names);
        let d = distinct.len();
        let index = GramIndex::build(&distinct, spec.n);
        // The filters reason on the Jaccard scale; convert a Dice τ once.
        let jt = config.tau.map(|t| jaccard_equivalent(spec.kind, t));

        // Indexed prefix per name: the *suffix* of its sorted id span.
        // Ids are frequency-ranked ascending-by-commonness, so the span
        // suffix holds the rarest grams — the canonical prefix-filter order
        // (ascending frequency) is descending id.
        let prefix_of = |i: usize| {
            let span = index.gram_ids(i);
            &span[span.len() - prefix_len(span.len(), jt)..]
        };

        // Counted-CSR inverted index over the indexed grams: two passes,
        // no hash containers, posting lists sorted by name id for free.
        let vocab = index.vocab_size();
        let mut posting_offsets = vec![0u32; vocab + 1];
        for i in 0..d {
            for &g in prefix_of(i) {
                posting_offsets[g as usize + 1] += 1;
            }
        }
        for g in 0..vocab {
            posting_offsets[g + 1] += posting_offsets[g];
        }
        let total = posting_offsets[vocab] as usize;
        let mut postings = vec![0u32; total];
        let mut cursor = posting_offsets.clone();
        for i in 0..d {
            for &g in prefix_of(i) {
                postings[cursor[g as usize] as usize] = i as u32;
                cursor[g as usize] += 1;
            }
        }

        let mut stats = SparseBuildStats {
            distinct: d,
            vocab,
            dense_pairs: {
                let dd = d as u128;
                dd * dd.saturating_sub(1) / 2
            },
            ..SparseBuildStats::default()
        };
        let mut sink = TripleSink::new(config.spill.clone());

        // Candidate generation: for each name j, walk the posting lists of
        // its indexed grams and pair with every earlier name i < j seen
        // there. `seen` is a stamp array so each unordered pair is
        // processed once per j regardless of how many grams it shares.
        let mut seen = vec![0u32; d];
        for j in 0..d {
            let stamp = j as u32 + 1;
            let kj = index.gram_count(j);
            for &g in prefix_of(j) {
                let list =
                    &postings[posting_offsets[g as usize] as usize..cursor[g as usize] as usize];
                for &iu in list {
                    let i = iu as usize;
                    if i >= j {
                        // Posting lists are sorted ascending by name id.
                        break;
                    }
                    if seen[i] == stamp {
                        continue;
                    }
                    seen[i] = stamp;
                    stats.candidate_pairs += 1;
                    if let Some(t) = jt {
                        // Length filter: J ≤ min(k_i, k_j) / max(k_i, k_j).
                        let ki = index.gram_count(i);
                        let (lo, hi) = (ki.min(kj), ki.max(kj));
                        if (lo as f64) < t * hi as f64 {
                            stats.length_pruned += 1;
                            continue;
                        }
                    }
                    stats.scored_pairs += 1;
                    let score = index.score(spec.kind, i, j) as f32;
                    // Verify against the *stored* rounding: consumers read
                    // back `f64::from(score)` and compare to θ, so the τ
                    // gate must use the identical value or pairs at the
                    // rounding boundary would diverge from dense.
                    if let Some(t) = config.tau {
                        if f64::from(score) < t {
                            stats.score_pruned += 1;
                            continue;
                        }
                    }
                    stats.kept_pairs += 1;
                    sink.push(iu, j as u32, score)?;
                    sink.push(j as u32, iu, score)?;
                }
            }
        }

        let (csr, spill_stats) = sink.into_csr(d)?;
        stats.spill = spill_stats;
        let self_sim = (0..d)
            .map(|i| index.score(spec.kind, i, i) as f32)
            .collect();
        Ok(Self {
            distinct_of,
            distinct_count: d,
            csr,
            self_sim,
            stats,
            tau: config.tau,
        })
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

    /// The distinct-name slot attribute `i` maps to — same contract as
    /// [`crate::SimilarityMatrix::distinct_slot`].
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn distinct_slot(&self, i: usize) -> u32 {
        self.distinct_of[i]
    }

    /// Build counters.
    pub fn stats(&self) -> &SparseBuildStats {
        &self.stats
    }

    /// The threshold the build pruned against (`None` on the lossless
    /// tier).
    pub fn tau(&self) -> Option<f64> {
        self.tau
    }

    /// Sorted distinct slots with a stored (non-zero) similarity to `slot`,
    /// excluding `slot` itself. Slots absent here have similarity exactly
    /// `0.0` on the lossless tier, and `< τ` on the threshold tier.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn neighbor_slots(&self, slot: u32) -> &[u32] {
        self.csr.row_cols(slot as usize)
    }

    /// The stored scores of [`SparseSimilarity::neighbor_slots`]`(slot)`,
    /// position for position — the values [`SparseSimilarity::similarity`]
    /// reads for those pairs.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn neighbor_scores(&self, slot: u32) -> &[f32] {
        self.csr.row_vals(slot as usize)
    }

    /// Similarity between attributes `i` and `j` (original indices) —
    /// same signature and semantics as
    /// [`crate::SimilarityMatrix::similarity`], with implicit-zero misses.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn similarity(&self, i: usize, j: usize) -> f64 {
        let di = self.distinct_of[i] as usize;
        let dj = self.distinct_of[j] as usize;
        if di == dj {
            return f64::from(self.self_sim[di]);
        }
        match self.csr.get(di, dj as u32) {
            Some(v) => f64::from(v),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SimilarityMatrix;
    use crate::measure::{NgramDice, NgramJaccard};
    use crate::NormalizedLevenshtein;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn sample() -> Vec<String> {
        names(&[
            "author",
            "author name",
            "keyword",
            "key word",
            "isbn",
            "",
            "x",
            "éé",
            "title",
            "keyword",
            "publisher",
            "publish date",
        ])
    }

    #[test]
    fn lossless_tier_is_bit_identical_to_dense() {
        let ns = sample();
        for measure in [
            &NgramJaccard::default() as &dyn SimilarityMeasure,
            &NgramDice::default(),
        ] {
            let dense = SimilarityMatrix::compute(&ns, measure);
            let sparse = SparseSimilarity::build(&ns, measure, &SparseConfig::default()).unwrap();
            for i in 0..ns.len() {
                for j in 0..ns.len() {
                    assert_eq!(
                        sparse.similarity(i, j).to_bits(),
                        dense.similarity(i, j).to_bits(),
                        "({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn slots_match_dense_assignment() {
        let ns = sample();
        let m = NgramJaccard::default();
        let dense = SimilarityMatrix::compute(&ns, &m);
        let sparse = SparseSimilarity::build(&ns, &m, &SparseConfig::default()).unwrap();
        assert_eq!(sparse.len(), dense.len());
        assert_eq!(sparse.distinct_names(), dense.distinct_names());
        for i in 0..ns.len() {
            assert_eq!(sparse.distinct_slot(i), dense.distinct_slot(i));
        }
    }

    #[test]
    fn neighbor_slots_are_sorted_symmetric_and_complete() {
        let ns = sample();
        let m = NgramJaccard::default();
        let sparse = SparseSimilarity::build(&ns, &m, &SparseConfig::default()).unwrap();
        let d = sparse.distinct_names();
        // Recover one original index per slot for similarity probes.
        let mut rep = vec![usize::MAX; d];
        for i in 0..ns.len() {
            let s = sparse.distinct_slot(i) as usize;
            if rep[s] == usize::MAX {
                rep[s] = i;
            }
        }
        for c in 0..d as u32 {
            let nbrs = sparse.neighbor_slots(c);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "slot {c} unsorted");
            assert!(!nbrs.contains(&c), "slot {c} lists itself");
            for &n in nbrs {
                assert!(
                    sparse.neighbor_slots(n).contains(&c),
                    "{c}<->{n} asymmetric"
                );
            }
            // Completeness: every non-neighbor slot pair scores exactly 0.
            for o in 0..d as u32 {
                if o != c && !nbrs.contains(&o) {
                    let s = sparse.similarity(rep[c as usize], rep[o as usize]);
                    assert_eq!(s, 0.0, "missing pair ({c},{o}) has score {s}");
                }
            }
        }
    }

    #[test]
    fn threshold_tier_keeps_exactly_the_pairs_at_or_above_tau() {
        let ns = sample();
        let m = NgramJaccard::default();
        let tau = 0.3;
        let dense = SimilarityMatrix::compute(&ns, &m);
        let cfg = SparseConfig {
            tau: Some(tau),
            ..SparseConfig::default()
        };
        let sparse = SparseSimilarity::build(&ns, &m, &cfg).unwrap();
        for i in 0..ns.len() {
            for j in 0..ns.len() {
                let full = dense.similarity(i, j);
                let got = sparse.similarity(i, j);
                if full >= tau {
                    assert_eq!(got.to_bits(), full.to_bits(), "kept pair ({i},{j})");
                } else if sparse.distinct_slot(i) != sparse.distinct_slot(j) {
                    assert_eq!(got, 0.0, "pruned pair ({i},{j})");
                }
            }
        }
        let s = sparse.stats();
        assert!(s.length_pruned + s.score_pruned > 0, "τ=0.3 should prune");
        assert_eq!(s.scored_pairs, s.kept_pairs + s.score_pruned);
    }

    #[test]
    fn dice_threshold_tier_is_exact_at_tau() {
        // Dice τ exercises the Dice→Jaccard conversion in both filters.
        let ns = sample();
        let m = NgramDice::default();
        let tau = 0.45;
        let dense = SimilarityMatrix::compute(&ns, &m);
        let cfg = SparseConfig {
            tau: Some(tau),
            ..SparseConfig::default()
        };
        let sparse = SparseSimilarity::build(&ns, &m, &cfg).unwrap();
        for i in 0..ns.len() {
            for j in 0..ns.len() {
                let full = dense.similarity(i, j);
                if full >= tau {
                    assert_eq!(
                        sparse.similarity(i, j).to_bits(),
                        full.to_bits(),
                        "kept pair ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn counters_account_for_every_candidate() {
        let ns = sample();
        let m = NgramJaccard::default();
        let sparse = SparseSimilarity::build(&ns, &m, &SparseConfig::default()).unwrap();
        let s = sparse.stats();
        assert_eq!(s.candidate_pairs, s.scored_pairs + s.length_pruned);
        assert_eq!(s.scored_pairs, s.kept_pairs + s.score_pruned);
        assert_eq!(s.length_pruned, 0, "lossless tier never length-prunes");
        assert_eq!(s.score_pruned, 0, "lossless tier never score-prunes");
        assert!(u128::from(s.candidate_pairs) <= s.dense_pairs);
        assert_eq!(s.spill.pushed, 2 * s.kept_pairs);
    }

    #[test]
    fn non_gram_measures_are_refused() {
        let ns = sample();
        let err = SparseSimilarity::build(&ns, &NormalizedLevenshtein, &SparseConfig::default());
        assert!(matches!(err, Err(SparseError::NotBlockable)));
    }

    #[test]
    fn invalid_tau_is_refused() {
        let ns = sample();
        let m = NgramJaccard::default();
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let cfg = SparseConfig {
                tau: Some(bad),
                ..SparseConfig::default()
            };
            assert!(
                matches!(
                    SparseSimilarity::build(&ns, &m, &cfg),
                    Err(SparseError::InvalidTau(_))
                ),
                "tau {bad} accepted"
            );
        }
    }

    #[test]
    fn empty_universe() {
        let m = NgramJaccard::default();
        let sparse = SparseSimilarity::build(&[], &m, &SparseConfig::default()).unwrap();
        assert!(sparse.is_empty());
        assert_eq!(sparse.distinct_names(), 0);
        assert_eq!(sparse.stats().kept_pairs, 0);
    }

    #[test]
    fn gramless_names_are_isolated() {
        // Empty and sub-n names produce no grams: no candidates, zero
        // self-similarity — identical to the dense convention.
        let ns = names(&["", "ab", "x", ""]);
        let m = NgramJaccard::default();
        let dense = SimilarityMatrix::compute(&ns, &m);
        let sparse = SparseSimilarity::build(&ns, &m, &SparseConfig::default()).unwrap();
        for i in 0..ns.len() {
            for j in 0..ns.len() {
                assert_eq!(
                    sparse.similarity(i, j).to_bits(),
                    dense.similarity(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
        assert_eq!(sparse.stats().candidate_pairs, 0);
    }

    #[test]
    fn spilled_build_is_identical_to_buffered_build() {
        let ns: Vec<String> = (0..120)
            .map(|i| format!("attr {} field {i}", i % 20))
            .collect();
        let m = NgramJaccard::default();
        let buffered = SparseSimilarity::build(&ns, &m, &SparseConfig::default()).unwrap();
        let spilled_cfg = SparseConfig {
            tau: None,
            spill: SpillConfig {
                max_buffered_triples: 64,
                dir: Some(
                    std::env::temp_dir().join(format!("mube-sparse-test-{}", std::process::id())),
                ),
            },
        };
        let spilled = SparseSimilarity::build(&ns, &m, &spilled_cfg).unwrap();
        assert!(spilled.stats().spill.runs > 1, "build must actually spill");
        for i in 0..ns.len() {
            for j in 0..ns.len() {
                assert_eq!(
                    spilled.similarity(i, j).to_bits(),
                    buffered.similarity(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
        if let Some(dir) = &spilled_cfg.spill.dir {
            let _ = std::fs::remove_dir(dir);
        }
    }

    #[test]
    fn prefix_len_formula() {
        // k − ⌈t·k⌉ + 1, clamped into [1, k] for k > 0.
        assert_eq!(prefix_len(10, None), 10);
        assert_eq!(prefix_len(0, Some(0.5)), 0);
        assert_eq!(prefix_len(10, Some(0.5)), 6);
        assert_eq!(prefix_len(10, Some(0.75)), 3);
        assert_eq!(prefix_len(10, Some(1.0)), 1);
        assert_eq!(prefix_len(7, Some(0.3)), 5); // ⌈2.1⌉ = 3 → 7−3+1
        assert_eq!(prefix_len(3, Some(1.0 / 3.0)), 3); // ⌈1.0…⌉ = 1
    }

    #[test]
    fn jaccard_equivalent_conversion() {
        assert_eq!(jaccard_equivalent(GramKind::Jaccard, 0.75), 0.75);
        let j = jaccard_equivalent(GramKind::Dice, 0.5);
        assert!((j - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard_equivalent(GramKind::Dice, 1.0), 1.0);
    }
}
