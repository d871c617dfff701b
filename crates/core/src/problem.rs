//! The per-iteration problem specification.

use mube_cluster::MatchConfig;
use mube_qef::Weights;
use mube_schema::{Constraints, GaConstraint, SourceId};

/// Tuning for the sparse similarity backend (see [`SimBackend::Sparse`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseOptions {
    /// Score threshold for threshold-aware blocking: pairs below τ are
    /// pruned and read back as `0.0`. `None` (the default) keeps the
    /// lossless tier, bit-identical to the dense matrix. Only set this to
    /// the spec's θ, and only when θ > 0 and the spec has no GA
    /// constraints — see `DESIGN.md` §14 for the exactness condition.
    pub tau: Option<f64>,
    /// Triples buffered in memory by the pair store before a sorted run is
    /// cut (see [`mube_similarity::SpillConfig`]).
    pub max_buffered_triples: usize,
    /// Directory for spill runs during the build. `None` keeps runs in
    /// memory.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Default for SparseOptions {
    fn default() -> Self {
        Self {
            tau: None,
            max_buffered_triples: mube_similarity::spill::DEFAULT_BUFFERED_TRIPLES,
            spill_dir: None,
        }
    }
}

/// Which attribute-similarity backend the engine builds.
///
/// This is a [`crate::MubeBuilder`] knob, not a [`ProblemSpec`] field: the
/// backend is part of the engine's iteration-independent precomputation
/// (like the measure and the sketches), chosen once per universe. Putting
/// it on the spec would force the session delta classifier to treat a
/// backend flip as yet another invalidation class for no benefit — specs
/// vary per iteration, the similarity store does not.
#[derive(Debug, Clone, PartialEq)]
pub enum SimBackend {
    /// Always build the dense packed triangle, whatever its size.
    Dense,
    /// Always build the sparse blocked backend (requires an n-gram set
    /// measure; fails on others).
    Sparse(
        /// Sparse build tuning.
        SparseOptions,
    ),
    /// Build dense when the packed triangle fits `budget_bytes`, otherwise
    /// fall back to the lossless sparse tier when the measure supports
    /// blocking (n-gram set measures), and to dense regardless when it does
    /// not (a non-blockable measure has no sparse representation — the
    /// pre-existing allocate-and-hope behaviour, now taken knowingly).
    Auto {
        /// Dense-triangle budget in bytes (default 256 MiB ≈ 11.5k distinct
        /// names).
        budget_bytes: u64,
    },
}

impl SimBackend {
    /// The default auto budget: 256 MiB of packed `f32` triangle.
    pub const DEFAULT_BUDGET_BYTES: u64 = 256 * 1024 * 1024;
}

impl Default for SimBackend {
    /// Auto-routing under [`SimBackend::DEFAULT_BUDGET_BYTES`].
    fn default() -> Self {
        SimBackend::Auto {
            budget_bytes: Self::DEFAULT_BUDGET_BYTES,
        }
    }
}

/// Everything the user edits between µBE iterations: weights, constraints,
/// the source budget `m`, and the matching parameters θ and β.
///
/// "The user can specify new constraints on sources and mediated schema
/// attributes to include, set new weights for the quality metrics, and
/// define new quality metrics. µBE solves this new optimization problem,
/// and the iterative feedback process continues."
#[derive(Debug, Clone)]
pub struct ProblemSpec {
    /// QEF weights (`W`). Names bind to the `"matching"` QEF, a registered
    /// QEF, or a source characteristic.
    pub weights: Weights,
    /// Source and GA constraints (`C` and `G`).
    pub constraints: Constraints,
    /// Maximum number of sources to select (`m`).
    pub max_sources: usize,
    /// Matching parameters: θ, β, pruning.
    pub match_config: MatchConfig,
}

impl ProblemSpec {
    /// A spec with the paper's default weights and matching configuration,
    /// choosing at most `max_sources` sources, no constraints.
    pub fn new(max_sources: usize) -> Self {
        Self {
            weights: Weights::paper_defaults(),
            constraints: Constraints::none(),
            max_sources,
            match_config: MatchConfig::default(),
        }
    }

    /// Sets the weights (builder style).
    pub fn with_weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// Adds a source constraint (builder style).
    pub fn with_source_constraint(mut self, id: SourceId) -> Self {
        self.constraints.require_source(id);
        self
    }

    /// Adds a GA constraint (builder style).
    pub fn with_ga_constraint(mut self, ga: GaConstraint) -> Self {
        self.constraints.require_ga(ga);
        self
    }

    /// Sets the matching threshold θ (builder style).
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.match_config.theta = theta;
        self
    }

    /// Sets the minimum GA size β (builder style).
    pub fn with_beta(mut self, beta: usize) -> Self {
        self.match_config.beta = beta;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mube_schema::{AttrId, GlobalAttribute};

    #[test]
    fn builder_style_composes() {
        let ga = GlobalAttribute::new([AttrId::new(SourceId(1), 0)]).unwrap();
        let spec = ProblemSpec::new(20)
            .with_theta(0.6)
            .with_beta(2)
            .with_source_constraint(SourceId(3))
            .with_ga_constraint(ga.clone());
        assert_eq!(spec.max_sources, 20);
        assert_eq!(spec.match_config.theta, 0.6);
        assert_eq!(spec.match_config.beta, 2);
        assert!(spec.constraints.sources().contains(&SourceId(3)));
        assert_eq!(spec.constraints.gas(), &[ga]);
        // Implied source from the GA constraint.
        assert!(spec.constraints.required_sources().contains(&SourceId(1)));
    }

    #[test]
    fn defaults_match_paper() {
        let spec = ProblemSpec::new(10);
        assert_eq!(spec.match_config.theta, 0.75);
        assert_eq!(spec.weights.get("matching"), 0.25);
        assert!(spec.constraints.is_empty());
    }
}
