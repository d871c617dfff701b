//! Cluster-to-cluster similarity: single linkage.
//!
//! The paper defines cluster similarity as "the maximum similarity between
//! an attribute from the first cluster and an attribute from the second
//! cluster". Single linkage is what lets GA constraints bridge dissimilar
//! attributes: a cluster containing the dissimilar pair `{a, b}` still
//! attracts attributes similar to *either* seed.

use mube_schema::AttrId;

use crate::similarity::AttrSimilarity;

/// Total-order maximum over similarity scores: deterministic even when a
/// buggy measure yields NaN (which sorts above every number under
/// [`f64::total_cmp`], so poison surfaces instead of being silently dropped
/// the way `f64::max` would).
pub(crate) fn total_max(a: f64, b: f64) -> f64 {
    if a.total_cmp(&b).is_lt() {
        b
    } else {
        a
    }
}

/// Single-linkage similarity between two attribute groups: the total-order
/// maximum over their attribute-pair similarities, starting from 0.0, so an
/// empty group scores 0.0.
pub fn cluster_similarity(a: &[AttrId], b: &[AttrId], sim: &dyn AttrSimilarity) -> f64 {
    let mut best = 0.0f64;
    for &x in a {
        for &y in b {
            best = total_max(best, sim.similarity(x, y));
        }
    }
    best
}

#[cfg(test)]
// Test-local hash tables: assertions never depend on iteration order,
// and the workspace ban guards production walk order only.
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use mube_schema::SourceId;
    use std::collections::HashMap;

    struct TableSim(HashMap<(u32, u32), f64>);

    impl AttrSimilarity for TableSim {
        fn similarity(&self, a: AttrId, b: AttrId) -> f64 {
            let (x, y) = (a.source.0, b.source.0);
            let key = if x <= y { (x, y) } else { (y, x) };
            *self.0.get(&key).unwrap_or(&0.0)
        }
    }

    fn attr(s: u32) -> AttrId {
        AttrId::new(SourceId(s), 0)
    }

    fn table() -> TableSim {
        let mut t = HashMap::new();
        t.insert((0, 2), 0.9);
        t.insert((0, 3), 0.1);
        t.insert((1, 2), 0.5);
        t.insert((1, 3), 0.3);
        TableSim(t)
    }

    #[test]
    fn single_takes_max() {
        let s = cluster_similarity(&[attr(0), attr(1)], &[attr(2), attr(3)], &table());
        assert_eq!(s, 0.9);
    }

    #[test]
    fn empty_groups_are_zero() {
        assert_eq!(cluster_similarity(&[], &[attr(0)], &table()), 0.0);
        assert_eq!(cluster_similarity(&[attr(0)], &[], &table()), 0.0);
    }
}
