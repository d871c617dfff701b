//! Universe-wide precomputed attribute similarity.

use mube_cluster::AttrSimilarity;
use mube_schema::attribute::normalize_name;
use mube_schema::{AttrId, Universe};
use mube_similarity::{
    SimilarityMatrix, SimilarityMeasure, SparseBuildStats, SparseConfig, SparseSimilarity,
    SpillConfig,
};

use crate::error::MubeError;
use crate::problem::{SimBackend, SparseOptions};

/// Which storage a [`MatrixSimilarity`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimBackendKind {
    /// Packed `f32` triangle over all distinct-name pairs.
    Dense,
    /// Blocked CSR over shared-gram pairs with implicit-zero misses.
    Sparse,
}

/// The resolved similarity store.
#[derive(Debug, Clone)]
enum Backend {
    Dense(SimilarityMatrix),
    Sparse(SparseSimilarity),
}

/// All-pairs attribute similarity for one universe, computed once and shared
/// by every `Match(S)` call the optimizer makes.
///
/// Internally this flattens all attributes into one index space (source
/// order, then attribute order) and delegates to either the dense
/// [`mube_similarity::SimilarityMatrix`] or the blocked
/// [`mube_similarity::SparseSimilarity`] — both deduplicate identical
/// normalized names into the same first-seen slot order, so the
/// [`AttrSimilarity::class_of`] classes are backend-independent. On the
/// sparse lossless tier every lookup is bit-identical to the dense matrix;
/// the sparse backend additionally exposes per-class non-zero neighbor
/// lists that the incremental Match kernel uses to skip the quadratic seed
/// sweep.
#[derive(Debug, Clone)]
pub struct MatrixSimilarity {
    backend: Backend,
    /// Per source id: the flat index of its first attribute.
    offsets: Vec<u32>,
}

/// Flattens a universe's normalized attribute names plus per-source offsets.
fn flatten_names(universe: &Universe) -> (Vec<String>, Vec<u32>) {
    let mut offsets = Vec::with_capacity(universe.len());
    let mut names: Vec<String> = Vec::with_capacity(universe.total_attrs());
    for source in universe.sources() {
        offsets.push(names.len() as u32);
        for attr in source.attributes() {
            names.push(normalize_name(attr));
        }
    }
    (names, offsets)
}

impl MatrixSimilarity {
    /// Precomputes the dense matrix for `universe` under `measure`,
    /// unconditionally — the infallible fallback of
    /// [`crate::MubeBuilder::build`].
    pub(crate) fn dense(universe: &Universe, measure: &dyn SimilarityMeasure) -> Self {
        let (names, offsets) = flatten_names(universe);
        Self {
            backend: Backend::Dense(SimilarityMatrix::compute(&names, measure)),
            offsets,
        }
    }

    /// Precomputes the similarity store under an explicit backend policy.
    ///
    /// `Auto` routes on the dense triangle's size: within budget builds
    /// dense; over budget builds the lossless sparse tier when `measure`
    /// declares a [`mube_similarity::GramSpec`], and falls back to dense
    /// otherwise (non-blockable measures have no sparse representation).
    pub fn with_backend(
        universe: &Universe,
        measure: &dyn SimilarityMeasure,
        backend: &SimBackend,
    ) -> Result<Self, MubeError> {
        let (names, offsets) = flatten_names(universe);
        let backend = match backend {
            SimBackend::Dense => Backend::Dense(SimilarityMatrix::compute(&names, measure)),
            SimBackend::Sparse(opts) => Backend::Sparse(build_sparse(&names, measure, opts)?),
            SimBackend::Auto { budget_bytes } => {
                match SimilarityMatrix::try_compute(&names, measure, *budget_bytes) {
                    Ok(dense) => Backend::Dense(dense),
                    Err(_) if measure.gram_spec().is_some() => {
                        Backend::Sparse(build_sparse(&names, measure, &SparseOptions::default())?)
                    }
                    Err(_) => Backend::Dense(SimilarityMatrix::compute(&names, measure)),
                }
            }
        };
        Ok(Self { backend, offsets })
    }

    fn flat(&self, attr: AttrId) -> usize {
        self.offsets[attr.source.index()] as usize + attr.index as usize
    }

    /// Which storage the constructor resolved to.
    pub fn backend_kind(&self) -> SimBackendKind {
        match &self.backend {
            Backend::Dense(_) => SimBackendKind::Dense,
            Backend::Sparse(_) => SimBackendKind::Sparse,
        }
    }

    /// The sparse build's blocking counters, when the sparse backend is
    /// active.
    pub fn sparse_stats(&self) -> Option<&SparseBuildStats> {
        match &self.backend {
            Backend::Dense(_) => None,
            Backend::Sparse(s) => Some(s.stats()),
        }
    }

    /// Number of attributes covered.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Dense(m) => m.len(),
            Backend::Sparse(s) => s.len(),
        }
    }

    /// Whether the universe had no attributes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builds the sparse backend, wrapping its error for [`MubeError`].
fn build_sparse(
    names: &[String],
    measure: &dyn SimilarityMeasure,
    opts: &SparseOptions,
) -> Result<SparseSimilarity, MubeError> {
    let config = SparseConfig {
        tau: opts.tau,
        spill: SpillConfig {
            max_buffered_triples: opts.max_buffered_triples,
            dir: opts.spill_dir.clone(),
        },
    };
    SparseSimilarity::build(names, measure, &config).map_err(|e| MubeError::SimBackend {
        reason: e.to_string(),
    })
}

impl AttrSimilarity for MatrixSimilarity {
    fn similarity(&self, a: AttrId, b: AttrId) -> f64 {
        match &self.backend {
            Backend::Dense(m) => m.similarity(self.flat(a), self.flat(b)),
            Backend::Sparse(s) => s.similarity(self.flat(a), self.flat(b)),
        }
    }

    /// The distinct normalized name's slot. Every lookup in either backend
    /// resolves through the slot, so equal slots satisfy the trait's
    /// bitwise-identity contract by construction — and both backends assign
    /// slots in the same first-seen order.
    fn class_of(&self, attr: AttrId) -> Option<u32> {
        match &self.backend {
            Backend::Dense(m) => Some(m.distinct_slot(self.flat(attr))),
            Backend::Sparse(s) => Some(s.distinct_slot(self.flat(attr))),
        }
    }

    /// Sparse backend only: the sorted distinct slots with a stored
    /// similarity to `class`. Absent pairs read back as exactly `0.0` from
    /// [`AttrSimilarity::similarity`], which is precisely the trait's
    /// neighbor contract — the dense backend stays `None` and kernels keep
    /// their full sweeps.
    fn neighbors_of_class(&self, class: u32) -> Option<&[u32]> {
        match &self.backend {
            Backend::Dense(_) => None,
            Backend::Sparse(s) => Some(s.neighbor_slots(class)),
        }
    }

    /// Sparse backend only: the stored scores of
    /// [`AttrSimilarity::neighbors_of_class`], which
    /// [`AttrSimilarity::similarity`] widens from the same `f32` values.
    fn neighbor_scores_of_class(&self, class: u32) -> Option<&[f32]> {
        match &self.backend {
            Backend::Dense(_) => None,
            Backend::Sparse(s) => Some(s.neighbor_scores(class)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mube_cluster::MeasureAdapter;
    use mube_schema::{SourceBuilder, SourceId};
    use mube_similarity::{NgramJaccard, NormalizedLevenshtein};

    fn dense(u: &Universe, m: &dyn SimilarityMeasure) -> MatrixSimilarity {
        MatrixSimilarity::with_backend(u, m, &SimBackend::Dense).unwrap()
    }

    fn universe() -> Universe {
        let mut u = Universe::new();
        u.add_source(SourceBuilder::new("a").attributes(["Author", "Title", "ISBN"]))
            .unwrap();
        u.add_source(SourceBuilder::new("b").attributes(["author name", "keyword"]))
            .unwrap();
        u.add_source(SourceBuilder::new("c").attributes(["title"]))
            .unwrap();
        u
    }

    #[test]
    fn agrees_with_on_the_fly_adapter() {
        let u = universe();
        let m = NgramJaccard::default();
        let matrix = dense(&u, &m);
        let adapter = MeasureAdapter::new(&u, &m);
        let attrs: Vec<AttrId> = u.all_attrs().collect();
        for &a in &attrs {
            for &b in &attrs {
                let expect = adapter.similarity(a, b);
                let got = matrix.similarity(a, b);
                assert!((expect - got).abs() < 1e-6, "{a} vs {b}: {expect} vs {got}");
            }
        }
    }

    #[test]
    fn identical_normalized_names_are_fully_similar() {
        let u = universe();
        let matrix = dense(&u, &NgramJaccard::default());
        // "Title" (0,1) vs "title" (2,0).
        assert_eq!(
            matrix.similarity(AttrId::new(SourceId(0), 1), AttrId::new(SourceId(2), 0)),
            1.0
        );
    }

    #[test]
    fn len_counts_attrs() {
        let u = universe();
        let matrix = dense(&u, &NgramJaccard::default());
        assert_eq!(matrix.len(), 6);
        assert!(!matrix.is_empty());
        assert_eq!(matrix.backend_kind(), SimBackendKind::Dense);
        assert!(matrix.sparse_stats().is_none());
    }

    #[test]
    fn sparse_backend_is_bit_identical_to_dense() {
        let u = universe();
        let m = NgramJaccard::default();
        let dense = dense(&u, &m);
        let sparse =
            MatrixSimilarity::with_backend(&u, &m, &SimBackend::Sparse(SparseOptions::default()))
                .unwrap();
        assert_eq!(sparse.backend_kind(), SimBackendKind::Sparse);
        assert!(sparse.sparse_stats().is_some());
        let attrs: Vec<AttrId> = u.all_attrs().collect();
        for &a in &attrs {
            for &b in &attrs {
                assert_eq!(
                    sparse.similarity(a, b).to_bits(),
                    dense.similarity(a, b).to_bits(),
                    "{a} vs {b}"
                );
                assert_eq!(sparse.class_of(a), dense.class_of(a));
            }
        }
    }

    #[test]
    fn auto_routes_on_the_budget() {
        let u = universe();
        let m = NgramJaccard::default();
        // 5 distinct names ("Title"/"title" dedup) -> 10 entries -> 40 bytes.
        let within =
            MatrixSimilarity::with_backend(&u, &m, &SimBackend::Auto { budget_bytes: 40 }).unwrap();
        assert_eq!(within.backend_kind(), SimBackendKind::Dense);
        let over =
            MatrixSimilarity::with_backend(&u, &m, &SimBackend::Auto { budget_bytes: 39 }).unwrap();
        assert_eq!(over.backend_kind(), SimBackendKind::Sparse);
        let attrs: Vec<AttrId> = u.all_attrs().collect();
        for &a in &attrs {
            for &b in &attrs {
                assert_eq!(
                    over.similarity(a, b).to_bits(),
                    within.similarity(a, b).to_bits()
                );
            }
        }
    }

    #[test]
    fn auto_with_non_blockable_measure_stays_dense() {
        let u = universe();
        let m = NormalizedLevenshtein;
        let sim =
            MatrixSimilarity::with_backend(&u, &m, &SimBackend::Auto { budget_bytes: 0 }).unwrap();
        assert_eq!(sim.backend_kind(), SimBackendKind::Dense);
    }

    #[test]
    fn explicit_sparse_with_non_blockable_measure_errors() {
        let u = universe();
        let m = NormalizedLevenshtein;
        let err =
            MatrixSimilarity::with_backend(&u, &m, &SimBackend::Sparse(SparseOptions::default()));
        assert!(matches!(err, Err(MubeError::SimBackend { .. })));
    }

    #[test]
    fn neighbor_lists_match_the_trait_contract() {
        let u = universe();
        let m = NgramJaccard::default();
        let dense = dense(&u, &m);
        let sparse =
            MatrixSimilarity::with_backend(&u, &m, &SimBackend::Sparse(SparseOptions::default()))
                .unwrap();
        assert!(dense.neighbors_of_class(0).is_none());
        assert!(dense.neighbor_scores_of_class(0).is_none());
        let attrs: Vec<AttrId> = u.all_attrs().collect();
        for &a in &attrs {
            for &b in &attrs {
                let (ca, cb) = (sparse.class_of(a).unwrap(), sparse.class_of(b).unwrap());
                if ca == cb {
                    continue;
                }
                let row = sparse.neighbors_of_class(ca).unwrap();
                let scores = sparse.neighbor_scores_of_class(ca).unwrap();
                assert_eq!(row.len(), scores.len());
                if let Some(k) = row.iter().position(|&d| d == cb) {
                    assert!(sparse.neighbors_of_class(cb).unwrap().contains(&ca));
                    assert_eq!(
                        f64::from(scores[k]).to_bits(),
                        sparse.similarity(a, b).to_bits(),
                        "{a} vs {b}"
                    );
                } else {
                    assert_eq!(sparse.similarity(a, b), 0.0, "{a} vs {b}");
                }
            }
        }
    }
}
