//! The [`Mube`] engine and its builder.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mube_audit::{AuditReport, SolutionAuditor, SolutionFacts};
use mube_opt::{CancelToken, SolveResult, Solver, SubsetProblem};
use mube_pcsa::PcsaSketch;
use mube_qef::{CardinalityQef, CharacteristicQef, CoverageQef, Qef, QefContext, RedundancyQef};
use mube_schema::{SourceId, Universe};
use mube_similarity::{NgramJaccard, SimilarityMeasure};

use crate::arena::EvalArena;
use crate::error::MubeError;
use crate::matrix_sim::MatrixSimilarity;
use crate::objective::{MubeObjective, QefBinding};
use crate::problem::{ProblemSpec, SimBackend};
use crate::snapshot::UniverseSnapshot;
use crate::solution::{Solution, SolveStats};

/// The µBE engine: a cheap, cloneable handle over one immutable
/// [`UniverseSnapshot`].
///
/// The snapshot holds everything expensive and iteration-independent (the
/// all-pairs attribute similarity store, the cached PCSA signatures, the
/// registered QEFs); the engine adds the solve orchestration on top.
/// Cloning a `Mube` clones an `Arc`, so engines can be handed to threads
/// and sessions freely — all clones share the one snapshot.
/// Per-iteration inputs live in [`ProblemSpec`].
#[derive(Clone)]
pub struct Mube {
    snapshot: Arc<UniverseSnapshot>,
}

/// Builder for [`Mube`].
pub struct MubeBuilder {
    universe: Arc<Universe>,
    sketches: Option<Vec<Option<PcsaSketch>>>,
    measure: Option<Box<dyn SimilarityMeasure>>,
    extra_qefs: Vec<Box<dyn Qef>>,
    sim_backend: SimBackend,
}

impl MubeBuilder {
    /// Starts a builder for `universe` (cloned into a shared handle; use
    /// [`MubeBuilder::from_arc`] to avoid the copy when the caller already
    /// holds an `Arc`).
    pub fn new(universe: &Universe) -> Self {
        Self::from_arc(Arc::new(universe.clone()))
    }

    /// Starts a builder that shares `universe` instead of cloning it.
    pub fn from_arc(universe: Arc<Universe>) -> Self {
        Self {
            universe,
            sketches: None,
            measure: None,
            extra_qefs: Vec::new(),
            sim_backend: SimBackend::default(),
        }
    }

    /// Supplies the per-source PCSA signatures (index = source id). Without
    /// them, coverage and redundancy degrade to the paper's uncooperative
    /// mode (0-valued).
    pub fn sketches(mut self, sketches: Vec<Option<PcsaSketch>>) -> Self {
        self.sketches = Some(sketches);
        self
    }

    /// Overrides the attribute similarity measure (default: 3-gram
    /// Jaccard, the paper's choice). Only consulted while building — the
    /// snapshot stores the computed matrix, not the measure.
    pub fn measure(mut self, measure: Box<dyn SimilarityMeasure>) -> Self {
        self.measure = Some(measure);
        self
    }

    /// Registers a user-defined QEF ("users ... can define new quality
    /// metrics"). Its [`Qef::name`] becomes bindable from weights.
    pub fn qef(mut self, qef: Box<dyn Qef>) -> Self {
        self.extra_qefs.push(qef);
        self
    }

    /// Selects the similarity backend (default: [`SimBackend::Auto`] with a
    /// 256 MiB dense budget — dense for small universes, sparse blocked
    /// storage when the packed triangle would not fit).
    pub fn sim_backend(mut self, backend: SimBackend) -> Self {
        self.sim_backend = backend;
        self
    }

    /// Builds the engine, computing the similarity store.
    ///
    /// Kept infallible for the common path: if the configured backend fails
    /// to build (e.g. an explicit [`SimBackend::Sparse`] under a
    /// non-blockable measure, or a spill I/O failure), this falls back to
    /// the dense matrix — the historical behaviour. Use
    /// [`MubeBuilder::try_build`] to surface backend errors instead.
    pub fn build(self) -> Mube {
        let MubeBuilder {
            universe,
            sketches,
            measure,
            extra_qefs,
            sim_backend,
        } = self;
        let default_measure = NgramJaccard::default();
        let measure: &dyn SimilarityMeasure = measure.as_deref().unwrap_or(&default_measure);
        let sim = MatrixSimilarity::with_backend(&universe, measure, &sim_backend)
            .unwrap_or_else(|_| MatrixSimilarity::dense(&universe, measure));
        Self::assemble(universe, sketches, extra_qefs, sim)
    }

    /// Builds the engine, surfacing similarity-backend failures as
    /// [`MubeError::SimBackend`] instead of falling back to dense.
    pub fn try_build(self) -> Result<Mube, MubeError> {
        let MubeBuilder {
            universe,
            sketches,
            measure,
            extra_qefs,
            sim_backend,
        } = self;
        let default_measure = NgramJaccard::default();
        let measure: &dyn SimilarityMeasure = measure.as_deref().unwrap_or(&default_measure);
        let sim = MatrixSimilarity::with_backend(&universe, measure, &sim_backend)?;
        Ok(Self::assemble(universe, sketches, extra_qefs, sim))
    }

    /// Assembles the engine around an already-built similarity store.
    fn assemble(
        universe: Arc<Universe>,
        sketches: Option<Vec<Option<PcsaSketch>>>,
        extra_qefs: Vec<Box<dyn Qef>>,
        sim: MatrixSimilarity,
    ) -> Mube {
        let ctx = match sketches {
            Some(sketches) => QefContext::new(universe, sketches),
            None => QefContext::without_sketches(universe),
        };
        let mut qefs: Vec<Box<dyn Qef>> = vec![
            Box::new(CardinalityQef),
            Box::new(CoverageQef),
            Box::new(RedundancyQef),
        ];
        qefs.extend(extra_qefs);
        Mube {
            snapshot: Arc::new(UniverseSnapshot::new(ctx, sim, qefs)),
        }
    }
}

impl Mube {
    /// The engine's universe.
    pub fn universe(&self) -> &Universe {
        self.snapshot.universe()
    }

    /// The shared immutable snapshot backing this engine — hand clones of
    /// this `Arc` (or of the whole engine) to other threads to run
    /// concurrent sessions over one universe.
    pub fn snapshot(&self) -> &Arc<UniverseSnapshot> {
        &self.snapshot
    }

    /// The precomputed attribute similarity.
    pub fn similarity(&self) -> &MatrixSimilarity {
        self.snapshot.similarity()
    }

    /// The QEF evaluation context (sketches, ranges).
    pub fn context(&self) -> &QefContext {
        self.snapshot.context()
    }

    /// Validates a spec and resolves its weights into QEF bindings.
    fn resolve_bindings(&self, spec: &ProblemSpec) -> Result<Vec<(f64, QefBinding)>, MubeError> {
        let mut bindings = Vec::with_capacity(spec.weights.len());
        for (name, w) in spec.weights.iter() {
            let binding = if name == "matching" {
                QefBinding::Matching
            } else if let Some(idx) = self.snapshot.qefs().iter().position(|q| q.name() == name) {
                QefBinding::Registered(idx)
            } else if self.snapshot.context().characteristic_range(name).is_some() {
                QefBinding::Characteristic(CharacteristicQef::new(
                    name,
                    mube_qef::Aggregation::WeightedSum,
                ))
            } else {
                return Err(MubeError::UnknownQef {
                    name: name.to_owned(),
                });
            };
            bindings.push((w, binding));
        }
        Ok(bindings)
    }

    fn validate_spec(&self, spec: &ProblemSpec) -> Result<(), MubeError> {
        spec.constraints.validate(self.universe())?;
        if spec.max_sources == 0 {
            return Err(MubeError::ZeroMaxSources);
        }
        let required = spec.constraints.required_sources().len();
        if spec.max_sources < required {
            return Err(MubeError::MaxSourcesTooSmall {
                max_sources: spec.max_sources,
                required,
            });
        }
        let theta = spec.match_config.theta;
        if !(0.0..=1.0).contains(&theta) || !theta.is_finite() {
            return Err(MubeError::InvalidTheta { theta });
        }
        Ok(())
    }

    /// Builds the optimizer-facing objective for a spec, memoizing into a
    /// fresh private arena that dies with the objective. Exposed for
    /// benches and tests that want to drive solvers directly.
    pub fn objective(&self, spec: &ProblemSpec) -> Result<MubeObjective, MubeError> {
        self.objective_in(spec, &Arc::new(EvalArena::new()))
    }

    /// Builds the optimizer-facing objective for a spec on a caller-owned
    /// [`EvalArena`]. The spec is validated and its weight names resolved
    /// first; only a spec that passes both points the arena at itself
    /// (classifying the delta against the previous spec and invalidating
    /// accordingly — see the [`arena`](crate::arena) docs), so a rejected spec leaves
    /// the arena untouched. Entries memoized during the solve persist in
    /// the arena for the next call.
    ///
    /// The arena must only ever be used with *this* engine: entries are
    /// keyed by subset alone, so feeding them to a different universe,
    /// similarity matrix, or sketch set would alias unrelated evaluations
    /// (a universe-*size* change is detected and clears the arena; an
    /// equal-sized different universe is not detectable).
    pub fn objective_in(
        &self,
        spec: &ProblemSpec,
        arena: &Arc<EvalArena>,
    ) -> Result<MubeObjective, MubeError> {
        self.validate_spec(spec)?;
        let bindings = self.resolve_bindings(spec)?;
        let prepared = arena.prepare(spec, self.universe().len());
        Ok(MubeObjective::new(
            Arc::clone(&self.snapshot),
            bindings,
            spec.constraints.clone(),
            spec.match_config.clone(),
            spec.max_sources.min(self.universe().len().max(1)),
            Arc::clone(arena),
            prepared,
        ))
    }

    /// Turns a solver result into a [`Solution`]: reconstructs the winning
    /// schema, reports per-QEF values, and collects the solve stats
    /// (including the parallel-evaluation fields carried on the result).
    ///
    /// A cancelled result with a feasible incumbent still produces a full,
    /// audited solution (flagged via [`SolveStats::cancelled`]); a
    /// cancelled result that never saw a feasible candidate surfaces as
    /// [`MubeError::Cancelled`] rather than the misleading
    /// [`MubeError::NoFeasibleSolution`].
    fn finish(
        &self,
        spec: &ProblemSpec,
        objective: &MubeObjective,
        result: &SolveResult,
        started: Instant,
    ) -> Result<Solution, MubeError> {
        if !result.is_feasible() {
            return Err(if result.cancelled {
                MubeError::Cancelled
            } else {
                MubeError::NoFeasibleSolution
            });
        }
        let selected: Vec<SourceId> = result.best.iter().map(|i| SourceId(i as u32)).collect();
        let outcome = objective
            .match_schema(&selected)
            .ok_or(MubeError::InconsistentSolverResult)?;
        let qef_values: BTreeMap<String, (f64, f64)> = objective
            .component_values_given(&selected, outcome.quality)
            .into_iter()
            .map(|(name, w, v)| (name, (w, v)))
            .collect();
        let solution = Solution {
            selected,
            schema: outcome.schema,
            overall_quality: result.objective,
            qef_values,
            stats: {
                let match_stats = objective.match_stats();
                SolveStats {
                    gap: result.gap,
                    nodes_expanded: result.nodes_expanded,
                    nodes_pruned: result.nodes_pruned,
                    evaluations: result.evaluations,
                    iterations: result.iterations,
                    match_calls: objective.match_calls(),
                    cache_hits: objective.cache_hits(),
                    linkage_evals: match_stats.linkage_evals,
                    lw_updates: match_stats.lw_updates,
                    evictions: objective.evictions(),
                    reused: objective.reused(),
                    recombined: objective.recombined(),
                    invalidated: objective.invalidated(),
                    spec_delta: objective.spec_delta(),
                    portfolio_member: result.winner,
                    // Cold unless the caller (Session) primed a warm-start
                    // solver; it overwrites this field after the solve.
                    warm_start: false,
                    cancelled: result.cancelled,
                    elapsed: started.elapsed(),
                }
            },
        };
        // Debug-mode oracle: every solve must satisfy the paper's §2
        // invariants — including cancelled solves, whose incumbent is a
        // fully evaluated feasible candidate like any other. Release builds
        // skip the check; tests and benches can call `Mube::audit`
        // explicitly.
        #[cfg(debug_assertions)]
        self.audit(spec, &solution).assert_clean("Mube::solve");
        #[cfg(not(debug_assertions))]
        let _ = spec;
        Ok(solution)
    }

    /// Wall-clock sample for [`SolveStats::elapsed`] telemetry. The timing
    /// never feeds back into any result, which is why this is the one
    /// permitted `Instant::now` in the determinism-scoped crates (paired
    /// with the `no-ambient-entropy` allowlist entry and clippy.toml's
    /// `disallowed-methods` mirror).
    #[allow(clippy::disallowed_methods)]
    fn clock_now() -> Instant {
        Instant::now()
    }

    /// Solves one iteration's optimization problem with the given solver,
    /// memoizing into a fresh arena that dies with the solve.
    ///
    /// This is the one solve entry point: a [`mube_opt::Portfolio`] or an
    /// exact [`mube_opt::BranchAndBound`] is just another [`Solver`]. A
    /// portfolio race shares one objective (and so one memo arena) across
    /// its members; [`SolveStats::portfolio_member`] names the winner, and
    /// per-member rows come from [`mube_opt::Portfolio::run`] over
    /// [`Mube::objective`]. An unlimited branch-and-bound solve carries
    /// `stats.gap == Some(0.0)`, a certificate that no subset under the
    /// spec scores higher.
    pub fn solve(
        &self,
        spec: &ProblemSpec,
        solver: &dyn Solver,
        seed: u64,
    ) -> Result<Solution, MubeError> {
        self.solve_with(spec, solver, seed, &Arc::new(EvalArena::new()), None)
    }

    /// The solve behind [`Mube::solve`] and [`crate::Session::iterate`]:
    /// objective construction on `arena`, optional cancellation arming,
    /// the search, and result assembly.
    ///
    /// Arena values are bit-identical to cold evaluations, so for a fixed
    /// seed a session arena changes only how much is recomputed, never the
    /// solution. An armed `cancel` token is polled at the solver's round /
    /// generation / node boundaries: a cancellation stops the search with its
    /// best incumbent (flagged via [`SolveStats::cancelled`] and audited
    /// like any other solution), or [`MubeError::Cancelled`] when no
    /// feasible candidate had been seen yet. A token that never fires
    /// leaves the result bit-identical to an unarmed solve.
    pub(crate) fn solve_with(
        &self,
        spec: &ProblemSpec,
        solver: &dyn Solver,
        seed: u64,
        arena: &Arc<EvalArena>,
        cancel: Option<&CancelToken>,
    ) -> Result<Solution, MubeError> {
        let started = Self::clock_now();
        let mut objective = self.objective_in(spec, arena)?;
        if let Some(token) = cancel {
            objective.arm_cancel(token);
        }
        let result = solver.solve(&objective, seed);
        self.finish(spec, &objective, &result, started)
    }

    /// Statically verifies a solution against the paper's §2 invariants
    /// (GA validity and disjointness, constraint subsumption and spanning,
    /// β/θ floors, `|S| ≤ m`, `C ⊆ S`, QEF ranges and weight simplex).
    ///
    /// Debug builds run this automatically after every [`Mube::solve`];
    /// call it directly to audit externally constructed or stored solutions.
    pub fn audit(&self, spec: &ProblemSpec, solution: &Solution) -> AuditReport {
        let qef_breakdown: Vec<(String, f64, f64)> = solution
            .qef_values
            .iter()
            .map(|(name, &(w, v))| (name.clone(), w, v))
            .collect();
        SolutionAuditor::new(self.universe())
            .constraints(&spec.constraints)
            .theta(spec.match_config.theta)
            .beta(spec.match_config.beta)
            .similarity(self.similarity())
            .max_sources(spec.max_sources.min(self.universe().len().max(1)))
            .audit(&SolutionFacts {
                selected: &solution.selected,
                schema: &solution.schema,
                qef_breakdown: &qef_breakdown,
                overall_quality: solution.overall_quality,
            })
    }

    /// Evaluates `Q(S)` for an explicit source set without searching —
    /// useful for what-if analysis in sessions.
    pub fn evaluate(&self, spec: &ProblemSpec, ids: &[SourceId]) -> Result<f64, MubeError> {
        let objective = self.objective(spec)?;
        let subset =
            mube_opt::Subset::from_indices(self.universe().len(), ids.iter().map(|id| id.index()));
        Ok(objective.evaluate(&subset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mube_opt::TabuSearch;
    use mube_qef::Weights;
    use mube_schema::SourceBuilder;

    /// A fresh arena, as [`Mube::solve`] uses.
    fn cold() -> Arc<EvalArena> {
        Arc::new(EvalArena::new())
    }

    fn tiny_universe() -> Universe {
        let mut u = Universe::new();
        for (name, attrs, card) in [
            ("a", vec!["title", "author"], 100u64),
            ("b", vec!["title", "author", "isbn"], 200),
            ("c", vec!["zzz", "qqq"], 300),
            ("d", vec!["title", "price"], 150),
        ] {
            u.add_source(
                SourceBuilder::new(name)
                    .attributes(attrs)
                    .cardinality(card)
                    .characteristic("mttf", card as f64),
            )
            .unwrap();
        }
        u
    }

    #[test]
    fn solve_picks_matching_sources() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2).with_weights(Weights::new([("matching", 1.0)]).unwrap());
        let solution = mube.solve(&spec, &TabuSearch::default(), 1).unwrap();
        assert_eq!(solution.num_sources(), 2);
        // The best pair for pure matching excludes source c.
        assert!(!solution.selected.contains(&SourceId(2)));
        assert!(solution.overall_quality > 0.9);
        assert!(!solution.schema.is_empty());
    }

    #[test]
    fn cardinality_weight_pulls_in_big_sources() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2).with_weights(Weights::new([("cardinality", 1.0)]).unwrap());
        let solution = mube.solve(&spec, &TabuSearch::default(), 2).unwrap();
        // b (200) + c (300) dominate.
        assert!(solution.selected.contains(&SourceId(1)));
        assert!(solution.selected.contains(&SourceId(2)));
    }

    #[test]
    fn unknown_qef_weight_is_an_error() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2).with_weights(Weights::new([("nonsense", 1.0)]).unwrap());
        assert!(matches!(
            mube.solve(&spec, &TabuSearch::default(), 0),
            Err(MubeError::UnknownQef { .. })
        ));
    }

    #[test]
    fn characteristic_weight_binds_automatically() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2).with_weights(Weights::new([("mttf", 1.0)]).unwrap());
        let solution = mube.solve(&spec, &TabuSearch::default(), 3).unwrap();
        assert!(solution.qef_value("mttf").is_some());
    }

    #[test]
    fn constraints_are_respected() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2)
            .with_weights(Weights::new([("matching", 1.0)]).unwrap())
            .with_source_constraint(SourceId(3));
        let solution = mube.solve(&spec, &TabuSearch::default(), 4).unwrap();
        assert!(solution.selected.contains(&SourceId(3)));
    }

    #[test]
    fn unmatched_constraint_source_makes_problem_infeasible() {
        // Source c's attributes match nothing, so M can never span C = {c}:
        // the paper's Match returns a null schema and the whole problem is
        // infeasible.
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2)
            .with_weights(Weights::new([("matching", 1.0)]).unwrap())
            .with_source_constraint(SourceId(2));
        assert!(matches!(
            mube.solve(&spec, &TabuSearch::default(), 4),
            Err(MubeError::NoFeasibleSolution)
        ));
    }

    #[test]
    fn max_sources_too_small_rejected() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(1)
            .with_source_constraint(SourceId(0))
            .with_source_constraint(SourceId(1));
        assert!(matches!(
            mube.solve(&spec, &TabuSearch::default(), 0),
            Err(MubeError::MaxSourcesTooSmall { .. })
        ));
    }

    #[test]
    fn invalid_theta_rejected() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2).with_theta(1.5);
        assert!(matches!(
            mube.solve(&spec, &TabuSearch::default(), 0),
            Err(MubeError::InvalidTheta { .. })
        ));
    }

    #[test]
    fn evaluate_explicit_sets() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(3).with_weights(Weights::new([("matching", 1.0)]).unwrap());
        let good = mube.evaluate(&spec, &[SourceId(0), SourceId(1)]).unwrap();
        let bad = mube.evaluate(&spec, &[SourceId(2)]).unwrap();
        assert!(good > bad);
    }

    #[test]
    fn solution_deterministic_per_seed() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2);
        let a = mube.solve(&spec, &TabuSearch::default(), 9).unwrap();
        let b = mube.solve(&spec, &TabuSearch::default(), 9).unwrap();
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.schema, b.schema);
    }

    #[test]
    fn cloned_engines_share_one_snapshot() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let clone = mube.clone();
        assert!(Arc::ptr_eq(mube.snapshot(), clone.snapshot()));
        let spec = ProblemSpec::new(2);
        let a = mube.solve(&spec, &TabuSearch::default(), 9).unwrap();
        let b = clone.solve(&spec, &TabuSearch::default(), 9).unwrap();
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.overall_quality.to_bits(), b.overall_quality.to_bits());
    }

    #[test]
    fn unfired_cancel_token_is_bit_identical_to_plain_solve() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2);
        let plain = mube.solve(&spec, &TabuSearch::default(), 9).unwrap();
        let token = CancelToken::new();
        let armed = mube
            .solve_with(&spec, &TabuSearch::default(), 9, &cold(), Some(&token))
            .unwrap();
        assert!(!armed.stats.cancelled);
        assert_eq!(plain.selected, armed.selected);
        assert_eq!(plain.schema, armed.schema);
        assert_eq!(
            plain.overall_quality.to_bits(),
            armed.overall_quality.to_bits()
        );
    }

    #[test]
    fn cancel_fired_before_arming_does_not_abort() {
        // Epoch semantics: a cancellation consumed (or simply issued)
        // before a solve starts must not abort that solve — each solve
        // captures the epoch at arming time.
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2);
        let token = CancelToken::new();
        token.cancel();
        let solution = mube
            .solve_with(&spec, &TabuSearch::default(), 9, &cold(), Some(&token))
            .unwrap();
        assert!(!solution.stats.cancelled);
        let plain = mube.solve(&spec, &TabuSearch::default(), 9).unwrap();
        assert_eq!(plain.selected, solution.selected);
    }

    #[test]
    fn mid_solve_cancel_returns_audited_incumbent() {
        use mube_schema::SourceSelection;
        use std::sync::atomic::{AtomicU64, Ordering};

        // A QEF that fires the cancel token on its Nth evaluation — a
        // deterministic stand-in for a user hitting cancel mid-solve.
        struct Tripwire {
            token: CancelToken,
            calls: AtomicU64,
            after: u64,
        }
        impl Qef for Tripwire {
            fn name(&self) -> &str {
                "tripwire"
            }
            fn evaluate(&self, _s: &SourceSelection, _c: &QefContext) -> f64 {
                if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.after {
                    self.token.cancel();
                }
                0.0
            }
        }

        let u = tiny_universe();
        let token = CancelToken::new();
        let mube = MubeBuilder::new(&u)
            .qef(Box::new(Tripwire {
                token: token.clone(),
                calls: AtomicU64::new(0),
                after: 3,
            }))
            .build();
        let spec = ProblemSpec::new(2)
            .with_weights(Weights::new([("matching", 0.5), ("tripwire", 0.5)]).unwrap());
        let cancelled = mube
            .solve_with(&spec, &TabuSearch::default(), 9, &cold(), Some(&token))
            .unwrap();
        assert!(cancelled.stats.cancelled);
        assert!(cancelled.overall_quality.is_finite());
        mube.audit(&spec, &cancelled)
            .assert_clean("cancelled solve");
    }

    #[test]
    fn custom_qef_registers_and_binds() {
        use mube_qef::QefContext;
        use mube_schema::SourceSelection;

        /// A user-defined QEF: prefers selections containing source 0.
        struct FavoriteSource;
        impl mube_qef::Qef for FavoriteSource {
            fn name(&self) -> &str {
                "favorite"
            }
            fn evaluate(&self, selection: &SourceSelection, _ctx: &QefContext) -> f64 {
                f64::from(u8::from(selection.contains(SourceId(0))))
            }
        }

        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).qef(Box::new(FavoriteSource)).build();
        let spec = ProblemSpec::new(1).with_weights(Weights::new([("favorite", 1.0)]).unwrap());
        let solution = mube.solve(&spec, &TabuSearch::default(), 0).unwrap();
        assert_eq!(solution.selected, vec![SourceId(0)]);
        assert_eq!(solution.qef_value("favorite"), Some(1.0));
    }

    #[test]
    fn registered_qef_shadows_characteristic_of_same_name() {
        use mube_qef::QefContext;
        use mube_schema::SourceSelection;

        // A registered QEF named "mttf" must win over the auto-derived
        // characteristic binding (registration order is deliberate: the
        // user's definition is more specific).
        struct ConstantHalf;
        impl mube_qef::Qef for ConstantHalf {
            fn name(&self) -> &str {
                "mttf"
            }
            fn evaluate(&self, _s: &SourceSelection, _c: &QefContext) -> f64 {
                0.5
            }
        }
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).qef(Box::new(ConstantHalf)).build();
        let spec = ProblemSpec::new(1).with_weights(Weights::new([("mttf", 1.0)]).unwrap());
        let solution = mube.solve(&spec, &TabuSearch::default(), 0).unwrap();
        assert_eq!(solution.qef_value("mttf"), Some(0.5));
        assert!((solution.overall_quality - 0.5).abs() < 1e-12);
    }

    #[test]
    fn beta_propagates_into_matching() {
        // With β = 3, only GAs spanning 3+ sources survive; the tiny
        // universe's best 3-source "title" cluster qualifies but "author"
        // (2 sources) does not.
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(3)
            .with_weights(Weights::new([("matching", 1.0)]).unwrap())
            .with_beta(3);
        let solution = mube.solve(&spec, &TabuSearch::default(), 1).unwrap();
        for ga in solution.schema.gas() {
            assert!(ga.len() >= 3, "GA below beta: {ga}");
        }
    }

    #[test]
    fn m_larger_than_universe_is_clamped() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(100);
        let solution = mube.solve(&spec, &TabuSearch::default(), 0).unwrap();
        assert!(solution.num_sources() <= u.len());
    }

    #[test]
    fn solve_reports_linkage_work() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2);
        let solution = mube.solve(&spec, &TabuSearch::default(), 5).unwrap();
        // The default spec weights "matching", so Match(S) ran and its
        // kernel counters must have propagated into the solve stats.
        assert!(solution.stats.linkage_evals > 0);
    }

    #[test]
    fn cache_reduces_match_calls() {
        let u = tiny_universe();
        let mube = MubeBuilder::new(&u).build();
        let spec = ProblemSpec::new(2);
        let solution = mube.solve(&spec, &TabuSearch::default(), 5).unwrap();
        assert!(
            solution.stats.cache_hits > 0,
            "tabu revisits should hit cache"
        );
        assert!(solution.stats.match_calls <= solution.stats.evaluations);
    }

    /// A tightly capacity-bounded arena still returns correct values —
    /// eviction only costs recomputation — and reports its evictions.
    #[test]
    fn bounded_cache_evicts_but_stays_correct() {
        let generated = mube_datagen::UniverseConfig::small_test(24, 9).generate();
        let mube = MubeBuilder::new(&generated.universe)
            .sketches(generated.sketches.clone())
            .build();
        let spec = ProblemSpec::new(6);
        let bounded = Arc::new(EvalArena::with_capacity(16));

        let a = mube
            .solve(&spec, &TabuSearch::quick(), 3)
            .expect("solvable");
        let b = mube
            .solve_with(&spec, &TabuSearch::quick(), 3, &bounded, None)
            .expect("solvable");
        // Same search, same answer — the cache is transparent.
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.overall_quality, b.overall_quality);
        assert_eq!(a.stats.evaluations, b.stats.evaluations);
        // The tiny budget must actually have evicted (tabu evaluates far more
        // than 16 distinct subsets here) and paid with extra Match(S) calls.
        assert_eq!(a.stats.evictions, 0);
        assert!(b.stats.evictions > 0, "16-entry cap never evicted");
        assert!(b.stats.match_calls >= a.stats.match_calls);
    }
}
