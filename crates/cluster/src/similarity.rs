//! Attribute-level similarity access for the clustering algorithm.

// Imported for the get-only signature cache in `MeasureAdapter` below.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

use mube_schema::attribute::normalize_name;
use mube_schema::{AttrId, Universe};
use mube_similarity::SimilarityMeasure;

/// Similarity between two attributes of a universe.
///
/// The clustering algorithm only needs pairwise lookups; implementations may
/// compute on the fly (see [`MeasureAdapter`]) or serve from a precomputed
/// matrix (the engine crate does this for the optimizer's hot path).
pub trait AttrSimilarity {
    /// Similarity of the named attributes, in `[0, 1]`.
    fn similarity(&self, a: AttrId, b: AttrId) -> f64;

    /// Optional similarity-equivalence class of an attribute.
    ///
    /// Contract: whenever `class_of(a) == class_of(b)` (and both are
    /// `Some`), then for every attribute `x`, `similarity(a, x)` and
    /// `similarity(b, x)` return the *bitwise-identical* value, and
    /// `similarity(a, b) == similarity(a, a)`. Kernels may then evaluate one
    /// representative per class pair and reuse the value for every member
    /// pair — the incremental kernel's seed pass does exactly this. The
    /// default (no class information) keeps every pair individually
    /// evaluated, which is always correct.
    fn class_of(&self, _attr: AttrId) -> Option<u32> {
        None
    }

    /// Optional sparse neighbor structure over the equivalence classes of
    /// [`AttrSimilarity::class_of`].
    ///
    /// Contract: when this returns `Some`, it must do so for *every* class
    /// the source assigns, and the slice must hold exactly the classes `d ≠
    /// class` whose members have non-zero similarity to members of `class` —
    /// sorted ascending, symmetric (`d` lists `class` iff `class` lists
    /// `d`). Any class pair absent from each other's lists must satisfy
    /// `similarity(a, b) == 0.0` exactly, for all members `a`, `b`. Kernels
    /// may then skip absent class pairs entirely wherever a 0.0 similarity
    /// cannot matter (the incremental seed pass does this for θ > 0). The
    /// default (`None`) keeps every class pair evaluated, which is always
    /// correct.
    fn neighbors_of_class(&self, _class: u32) -> Option<&[u32]> {
        None
    }

    /// Optional scores of [`AttrSimilarity::neighbors_of_class`], position
    /// for position.
    ///
    /// Contract: when this returns `Some`, `neighbors_of_class(class)`
    /// returns a slice of the same length, and for every position `k`,
    /// `f64::from(scores[k])` is bitwise `similarity(a, b)` for all members
    /// `a` of `class` and `b` of class `neighbors[k]`. The incremental seed
    /// pass then reads a class pair's similarity from the row it found the
    /// pair in instead of asking [`AttrSimilarity::similarity`] again. The
    /// default (`None`) keeps that lookup, which is always correct.
    fn neighbor_scores_of_class(&self, _class: u32) -> Option<&[f32]> {
        None
    }
}

/// Computes similarities on demand from a universe and a string measure,
/// caching per-attribute normalized names and token signatures.
// The signature cache is read through keyed `get` only (never iterated),
// so hash order cannot reach any result.
#[allow(clippy::disallowed_types)]
pub struct MeasureAdapter<'a> {
    measure: &'a dyn SimilarityMeasure,
    signatures: HashMap<AttrId, mube_similarity::measure::Signature>,
}

#[allow(clippy::disallowed_types)]
impl<'a> MeasureAdapter<'a> {
    /// Prepares signatures for every attribute of `universe`.
    pub fn new(universe: &Universe, measure: &'a dyn SimilarityMeasure) -> Self {
        let mut signatures = HashMap::with_capacity(universe.total_attrs());
        for source in universe.sources() {
            for (j, name) in source.attributes().iter().enumerate() {
                let attr = AttrId::new(source.id(), j as u32);
                signatures.insert(attr, measure.signature(&normalize_name(name)));
            }
        }
        Self {
            measure,
            signatures,
        }
    }
}

impl AttrSimilarity for MeasureAdapter<'_> {
    fn similarity(&self, a: AttrId, b: AttrId) -> f64 {
        match (self.signatures.get(&a), self.signatures.get(&b)) {
            // A kind mismatch is impossible (both signatures come from
            // `self.measure`); treat it as "no evidence" regardless.
            (Some(sa), Some(sb)) => self.measure.similarity_sig(sa, sb).unwrap_or(0.0),
            // An attribute outside the prepared universe carries no
            // similarity evidence.
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mube_schema::{SourceBuilder, SourceId};
    use mube_similarity::NgramJaccard;

    fn universe() -> Universe {
        let mut u = Universe::new();
        u.add_source(SourceBuilder::new("a").attributes(["Author", "Title"]))
            .unwrap();
        u.add_source(SourceBuilder::new("b").attributes(["author", "keyword"]))
            .unwrap();
        u
    }

    #[test]
    fn adapter_matches_direct_measure_on_normalized_names() {
        let u = universe();
        let m = NgramJaccard::default();
        let adapter = MeasureAdapter::new(&u, &m);
        let a = AttrId::new(SourceId(0), 0); // "Author"
        let b = AttrId::new(SourceId(1), 0); // "author"
        assert_eq!(adapter.similarity(a, b), 1.0);
        let t = AttrId::new(SourceId(0), 1); // "Title"
        let k = AttrId::new(SourceId(1), 1); // "keyword"
        assert_eq!(adapter.similarity(t, k), m.similarity("title", "keyword"));
    }

    #[test]
    fn adapter_is_symmetric() {
        let u = universe();
        let m = NgramJaccard::default();
        let adapter = MeasureAdapter::new(&u, &m);
        let a = AttrId::new(SourceId(0), 1);
        let b = AttrId::new(SourceId(1), 1);
        assert_eq!(adapter.similarity(a, b), adapter.similarity(b, a));
    }
}
