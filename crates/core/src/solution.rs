//! The solved data integration system.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use mube_schema::{MediatedSchema, SchemaMapping, SourceId, Universe};

use crate::arena::SpecDelta;

/// Search-effort statistics for one solve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Certified optimality gap, when the solver proves one: the true
    /// optimum lies in `[Q, Q + gap]` for the reported quality `Q`.
    /// `Some(0.0)` is a proof of optimality (exact branch-and-bound ran to
    /// completion); positive values are anytime bounds under a node
    /// budget; `None` means the solver makes no optimality claim
    /// (heuristics, portfolios won by a heuristic member).
    pub gap: Option<f64>,
    /// Branch-and-bound nodes expanded (zero for non-exact solvers).
    pub nodes_expanded: u64,
    /// Branch-and-bound nodes pruned by bound, dominance, or the final
    /// incumbent-covers-everything closure (zero for non-exact solvers).
    pub nodes_pruned: u64,
    /// Objective evaluations (including memoized hits).
    pub evaluations: u64,
    /// Solver iterations.
    pub iterations: u64,
    /// `Match(S)` invocations (cache misses only — the expensive part).
    pub match_calls: u64,
    /// Evaluations served from the memo cache.
    pub cache_hits: u64,
    /// Full cluster-pair linkage evaluations inside `Match(S)` calls
    /// (attribute-pair cross products — the clustering kernel's unit of
    /// work; see `MatchStats` in `mube-cluster`).
    pub linkage_evals: u64,
    /// Incremental-kernel Lance–Williams row derivations inside `Match(S)`
    /// calls.
    pub lw_updates: u64,
    /// Memoized `Q(S)` entries dropped by capacity eviction: zero unless
    /// the arena reached its fixed budget of roughly a million entries.
    pub evictions: u64,
    /// Evaluations served by arena entries that survived from an *earlier*
    /// session iteration (zero for one-shot solves on a fresh arena).
    pub reused: u64,
    /// The subset of [`SolveStats::reused`] recombined under weights that
    /// differ from the ones the entry was computed with — the weights-only
    /// fast path (component vectors re-weighted, zero `Match(S)` calls).
    pub recombined: u64,
    /// Arena entries invalidated by the spec edit that led to this solve
    /// (nonzero only after a `MatchInvalidating` edit in a session).
    pub invalidated: u64,
    /// How this solve's spec differed from the previous spec evaluated on
    /// the same arena (`None` for one-shot solves on a fresh arena).
    pub spec_delta: Option<SpecDelta>,
    /// Whether the solve started from a warm-start solver primed with the
    /// previous iteration's solution. `false` when the solve was cold —
    /// including the case where a session requested warm restarts but the
    /// configured solver does not support them.
    pub warm_start: bool,
    /// Whether the solve was cut short by a
    /// [`CancelToken`](crate::CancelToken): the solution is the honest
    /// best incumbent at the stop point (audited like any other), and the
    /// effort counters cover only the work actually done. Always `false`
    /// for runs that completed — an armed token that never fires changes
    /// nothing.
    pub cancelled: bool,
    /// For portfolio solves, the name of the member solver that produced
    /// the solution; `None` for single-solver runs.
    pub portfolio_member: Option<&'static str>,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
}

/// A data integration system chosen by µBE: the selected sources, the
/// automatically generated mediated schema over them, and the quality
/// breakdown.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The selected sources `S`, in id order.
    pub selected: Vec<SourceId>,
    /// The mediated schema `M = Match(S)`.
    pub schema: MediatedSchema,
    /// The overall quality `Q(S)` the optimizer maximized.
    pub overall_quality: f64,
    /// Per-QEF `(weight, value)` breakdown, keyed by QEF name.
    pub qef_values: BTreeMap<String, (f64, f64)>,
    /// Search-effort statistics.
    pub stats: SolveStats,
}

impl Solution {
    /// The value of one QEF on this solution, if it was weighted.
    pub fn qef_value(&self, name: &str) -> Option<f64> {
        self.qef_values.get(name).map(|&(_, v)| v)
    }

    /// Number of selected sources.
    pub fn num_sources(&self) -> usize {
        self.selected.len()
    }

    /// Materializes the source-to-mediated-schema mapping of this system
    /// (the third component of the paper's data integration system
    /// definition), ready for query translation.
    pub fn mapping(&self, universe: &Universe) -> SchemaMapping {
        SchemaMapping::new(universe, &self.schema, self.selected.iter().copied())
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "solution: {} sources, Q = {:.4} ({} GAs, {} match calls, {:?})",
            self.selected.len(),
            self.overall_quality,
            self.schema.len(),
            self.stats.match_calls,
            self.stats.elapsed,
        )?;
        write!(f, "  sources:")?;
        for id in &self.selected {
            write!(f, " {id}")?;
        }
        writeln!(f)?;
        for (name, (w, v)) in &self.qef_values {
            writeln!(f, "  {name}: {v:.4} (weight {w:.2})")?;
        }
        write!(f, "{}", self.schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s = Solution {
            selected: vec![SourceId(1), SourceId(4)],
            schema: MediatedSchema::empty(),
            overall_quality: 0.5,
            qef_values: [("matching".to_owned(), (0.25, 0.8))].into_iter().collect(),
            stats: SolveStats::default(),
        };
        assert_eq!(s.num_sources(), 2);
        assert_eq!(s.qef_value("matching"), Some(0.8));
        assert_eq!(s.qef_value("coverage"), None);
        let text = s.to_string();
        assert!(text.contains("2 sources"));
        assert!(text.contains("matching: 0.8000"));
    }
}
