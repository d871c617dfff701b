//! The iterative user-feedback loop (Section 6).
//!
//! "By design, the constraints provided by the user (the input) have the
//! same structure and format as the mediated schema generated by µBE (the
//! output). We leverage this and allow the user to add constraints for the
//! next iteration by modifying the output of the current iteration."
//!
//! A [`Session`] models exactly that protocol programmatically: run an
//! iteration, inspect the solution, adopt GAs from its schema (possibly
//! edited) as constraints, pin sources, reweight, and re-run.
//!
//! Each session owns a persistent [`EvalArena`]: component vectors
//! memoized in one iteration survive into the next and are selectively
//! invalidated by the classified spec delta (see the arena docs), so a
//! weights-only re-solve performs zero `Match(S)` calls. Arena values are
//! bit-identical to cold evaluations, so the arena never changes *what* a
//! session computes — only how much of it is recomputed.

use std::sync::Arc;

use mube_opt::{CancelToken, Solver, TabuSearch};
use mube_qef::Weights;
use mube_schema::{GaConstraint, SourceId};

use crate::arena::EvalArena;
use crate::engine::Mube;
use crate::error::MubeError;
use crate::problem::ProblemSpec;
use crate::solution::Solution;

/// An iterative µBE exploration over one universe.
///
/// Owns a cheap clone of the engine (an `Arc` over the shared
/// [`UniverseSnapshot`](crate::UniverseSnapshot)), so sessions are `Send`
/// and any number of them can run concurrently over one snapshot — each
/// with its own spec, history, seed stream, and evaluation arena.
///
/// Every [`Session::iterate`] runs with the session's [`CancelToken`]
/// armed: clone it via [`Session::cancel_handle`] before handing the
/// session to a worker thread, and `cancel()` from anywhere to stop the
/// in-flight solve at its next checkpoint. A cancelled iterate returns the
/// audited incumbent (or [`MubeError::Cancelled`] if none was found) and
/// records it in [`Session::last_cancelled`] — *not* in the history, so
/// the seed sequence and warm-start lineage of completed iterations stay
/// exactly as if the cancelled attempt had never run.
pub struct Session {
    mube: Mube,
    spec: ProblemSpec,
    solver: Box<dyn Solver>,
    seed: u64,
    history: Vec<Solution>,
    arena: Arc<EvalArena>,
    cancel: CancelToken,
    last_cancelled: Option<Solution>,
}

impl Session {
    /// Starts a session with the paper's default solver (tabu search).
    /// Cloning the engine is cheap — both handles share one snapshot.
    pub fn new(mube: &Mube, spec: ProblemSpec) -> Self {
        Self {
            mube: mube.clone(),
            spec,
            solver: Box::new(TabuSearch::default()),
            seed: 0,
            history: Vec::new(),
            arena: Arc::new(EvalArena::new()),
            cancel: CancelToken::new(),
            last_cancelled: None,
        }
    }

    /// Replaces the solver.
    pub fn with_solver(mut self, solver: Box<dyn Solver>) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the base RNG seed (each iteration offsets it by its index, so
    /// reruns of a whole session are reproducible).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The current problem spec (what the next iteration will solve).
    pub fn spec(&self) -> &ProblemSpec {
        &self.spec
    }

    /// The session's persistent evaluation arena.
    pub fn arena(&self) -> &EvalArena {
        &self.arena
    }

    /// User feedback: pin a source for all subsequent iterations.
    pub fn require_source(&mut self, id: SourceId) -> &mut Self {
        self.spec.constraints.require_source(id);
        self
    }

    /// User feedback: adopt a GA (typically taken — possibly edited — from
    /// the previous solution's schema) as a constraint.
    pub fn adopt_ga(&mut self, ga: GaConstraint) -> &mut Self {
        self.spec.constraints.require_ga(ga);
        self
    }

    /// User feedback: change the QEF weights.
    pub fn set_weights(&mut self, weights: Weights) -> &mut Self {
        self.spec.weights = weights;
        self
    }

    /// User feedback: change the matching threshold θ.
    ///
    /// # Errors
    /// Rejects θ outside `[0, 1]` (or non-finite) immediately, leaving the
    /// spec unchanged — feedback edits fail at the mutation site, not at
    /// the next [`Session::iterate`].
    pub fn set_theta(&mut self, theta: f64) -> Result<&mut Self, MubeError> {
        if !(0.0..=1.0).contains(&theta) || !theta.is_finite() {
            return Err(MubeError::InvalidTheta { theta });
        }
        self.spec.match_config.theta = theta;
        Ok(self)
    }

    /// User feedback: change the source budget `m`.
    ///
    /// # Errors
    /// Rejects `m = 0` immediately, leaving the spec unchanged — feedback
    /// edits fail at the mutation site, not at the next
    /// [`Session::iterate`]. (An `m` smaller than the current required
    /// sources is still reported by `iterate`, which knows the full
    /// constraint set.)
    pub fn set_max_sources(&mut self, m: usize) -> Result<&mut Self, MubeError> {
        if m == 0 {
            return Err(MubeError::ZeroMaxSources);
        }
        self.spec.max_sources = m;
        Ok(self)
    }

    /// A handle that cancels this session's in-flight solve. Clone it
    /// freely and `cancel()` from any thread: the current
    /// [`Session::iterate`] (if one is running) stops at its next
    /// checkpoint. Firing it between iterations is harmless — each iterate
    /// captures the token's epoch when it starts, so stale cancellations
    /// never abort later solves.
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The incumbent of the most recent *cancelled* iterate, if any. Kept
    /// out of [`Session::history`] so cancelled attempts never perturb the
    /// seed sequence or warm-start lineage of completed iterations.
    pub fn last_cancelled(&self) -> Option<&Solution> {
        self.last_cancelled.as_ref()
    }

    /// Runs one iteration and records the solution.
    ///
    /// Every iteration after the first warm-starts the solver from the
    /// previous solution when the solver supports it, so small feedback
    /// changes *refine* the current system instead of re-searching from
    /// scratch — the behaviour behind the paper's Section 7.4 stability
    /// observation. Solvers that do not implement
    /// [`Solver::with_warm_start`] start cold; [`SolveStats::warm_start`]
    /// on each recorded solution says which happened. Iteration `k` (from
    /// 0) solves with seed `seed + k`.
    ///
    /// The solve runs with the session's [`CancelToken`] armed. If it is
    /// cancelled mid-solve, the best incumbent found so far is returned
    /// (audited like any completed solution, `stats.cancelled == true`)
    /// but stored in [`Session::last_cancelled`] instead of the history:
    /// the next iterate reuses the same seed and warm-start point, so a
    /// session's *completed* history is bit-identical whether or not
    /// cancelled attempts happened in between. A solve cancelled before
    /// any feasible candidate was seen returns [`MubeError::Cancelled`];
    /// the session stays fully usable either way.
    ///
    /// [`SolveStats::warm_start`]: crate::SolveStats::warm_start
    pub fn iterate(&mut self) -> Result<&Solution, MubeError> {
        let iteration_seed = self.seed.wrapping_add(self.history.len() as u64);
        let warm_solver = self.latest().and_then(|last| {
            let items: Vec<usize> = last.selected.iter().map(|s| s.index()).collect();
            self.solver.with_warm_start(&items)
        });
        let warm_used = warm_solver.is_some();
        let solver: &dyn Solver = warm_solver.as_deref().unwrap_or(self.solver.as_ref());
        let mut solution = self.mube.solve_with(
            &self.spec,
            solver,
            iteration_seed,
            &self.arena,
            Some(&self.cancel),
        )?;
        solution.stats.warm_start = warm_used;
        if solution.stats.cancelled {
            return Ok(self.last_cancelled.insert(solution));
        }
        self.history.push(solution);
        Ok(&self.history[self.history.len() - 1])
    }

    /// The most recent solution, if any iteration has run.
    pub fn latest(&self) -> Option<&Solution> {
        self.history.last()
    }

    /// All solutions so far, oldest first.
    pub fn history(&self) -> &[Solution] {
        &self.history
    }

    /// Diff between the two most recent solutions, if at least two
    /// iterations have run — what changed since the last feedback.
    pub fn diff_latest(&self) -> Option<crate::diff::SolutionDiff> {
        let n = self.history.len();
        if n < 2 {
            return None;
        }
        Some(crate::diff::SolutionDiff::between(
            &self.history[n - 2],
            &self.history[n - 1],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::SpecDelta;
    use crate::engine::MubeBuilder;
    use mube_opt::Exhaustive;
    use mube_schema::{AttrId, GlobalAttribute, SourceBuilder, Universe};

    fn universe() -> Universe {
        let mut u = Universe::new();
        for (i, (name, attrs)) in [
            ("en1", vec!["first name", "city"]),
            ("en2", vec!["first names", "town"]),
            ("fr1", vec!["prenom", "ville"]),
            ("fr2", vec!["le prenom", "cite"]),
        ]
        .into_iter()
        .enumerate()
        {
            u.add_source(
                SourceBuilder::new(name)
                    .attributes(attrs)
                    .cardinality(100)
                    .characteristic("mttf", 80.0 + 10.0 * i as f64),
            )
            .unwrap();
        }
        u
    }

    #[test]
    fn iterating_accumulates_history() {
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(4).with_theta(0.5));
        session.iterate().unwrap();
        session.iterate().unwrap();
        assert_eq!(session.history().len(), 2);
        assert!(session.latest().is_some());
    }

    #[test]
    fn feedback_loop_bridges_languages() {
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(4).with_theta(0.5));
        let first = session.iterate().unwrap();
        // No GA should span English and French initially.
        assert!(first
            .schema
            .ga_of(AttrId::new(SourceId(0), 0))
            .is_none_or(|ga| !ga.contains(AttrId::new(SourceId(2), 0))));
        // The user bridges: first name == prenom.
        let bridge =
            GlobalAttribute::new([AttrId::new(SourceId(0), 0), AttrId::new(SourceId(2), 0)])
                .unwrap();
        session.adopt_ga(bridge.clone());
        let second = session.iterate().unwrap();
        assert!(second.schema.subsumes_gas([&bridge]));
        let grown = second.schema.ga_of(AttrId::new(SourceId(0), 0)).unwrap();
        assert!(grown.len() >= 3, "bridged GA should grow: {grown}");
    }

    #[test]
    fn reweighting_changes_spec() {
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(2));
        session.set_weights(Weights::new([("cardinality", 1.0)]).unwrap());
        assert_eq!(session.spec().weights.get("cardinality"), 1.0);
        session.set_theta(0.6).unwrap();
        assert_eq!(session.spec().match_config.theta, 0.6);
        session.set_max_sources(3).unwrap();
        assert_eq!(session.spec().max_sources, 3);
    }

    #[test]
    fn set_theta_rejects_invalid_at_mutation_site() {
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(2).with_theta(0.5));
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(session.set_theta(bad), Err(MubeError::InvalidTheta { .. })),
                "θ = {bad} must be rejected eagerly"
            );
            // The failed edit must not have touched the spec.
            assert_eq!(session.spec().match_config.theta, 0.5);
        }
        // And the session still iterates fine afterwards.
        session.iterate().unwrap();
    }

    #[test]
    fn set_max_sources_rejects_zero_at_mutation_site() {
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(2).with_theta(0.5));
        assert!(matches!(
            session.set_max_sources(0),
            Err(MubeError::ZeroMaxSources)
        ));
        assert_eq!(session.spec().max_sources, 2);
        session.set_max_sources(3).unwrap();
        assert_eq!(session.spec().max_sources, 3);
    }

    #[test]
    fn sessions_are_reproducible() {
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let run = |seed: u64| {
            let mut s = Session::new(&mube, ProblemSpec::new(3).with_theta(0.5)).with_seed(seed);
            s.iterate().unwrap();
            s.iterate().unwrap();
            (
                s.history()[0].selected.clone(),
                s.history()[1].selected.clone(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn warm_restart_stabilizes_unchanged_specs() {
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(3).with_theta(0.5));
        session.iterate().unwrap();
        session.iterate().unwrap();
        // No feedback between iterations: the warm-started re-solve must
        // keep (or improve on) the previous solution, never regress.
        let h = session.history();
        assert!(h[1].overall_quality >= h[0].overall_quality - 1e-12);
        let diff = session.diff_latest().unwrap();
        assert!(
            diff.quality_delta >= -1e-12,
            "warm restart regressed: {diff}"
        );
    }

    #[test]
    fn warm_start_recorded_in_stats() {
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        // Tabu search supports warm starts: first iteration cold, second warm.
        let mut session = Session::new(&mube, ProblemSpec::new(3).with_theta(0.5));
        assert!(!session.iterate().unwrap().stats.warm_start);
        assert!(session.iterate().unwrap().stats.warm_start);
        // Exhaustive enumeration does not: the requested warm restart
        // silently falls back to cold, and the stats say so.
        let mut session = Session::new(&mube, ProblemSpec::new(3).with_theta(0.5))
            .with_solver(Box::new(Exhaustive::default()));
        assert!(!session.iterate().unwrap().stats.warm_start);
        assert!(!session.iterate().unwrap().stats.warm_start);
    }

    #[test]
    fn diff_latest_requires_two_iterations() {
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(3).with_theta(0.5));
        assert!(session.diff_latest().is_none());
        session.iterate().unwrap();
        assert!(session.diff_latest().is_none());
        session.iterate().unwrap();
        let diff = session.diff_latest().unwrap();
        // Same spec, different seed offsets; the diff exists either way.
        assert!(diff.quality_delta.is_finite());
    }

    #[test]
    fn required_source_sticks_across_iterations() {
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(2).with_theta(0.5));
        session.require_source(SourceId(1));
        for _ in 0..2 {
            let sol = session.iterate().unwrap();
            assert!(sol.selected.contains(&SourceId(1)));
        }
    }

    #[test]
    fn weights_only_iteration_makes_zero_match_calls() {
        // The acceptance criterion of the delta-aware core: after a
        // weights-only edit, the next iteration recombines cached component
        // vectors and never invokes Match(S). Exhaustive enumeration visits
        // the same candidate set regardless of weights, so every
        // evaluation of iteration 2 is a recombination.
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(3).with_theta(0.5))
            .with_solver(Box::new(Exhaustive::default()));
        let first = session.iterate().unwrap();
        assert!(first.stats.match_calls > 0, "cold iteration runs Match");
        session.set_weights(
            Weights::new([
                ("matching", 0.1),
                ("cardinality", 0.4),
                ("coverage", 0.2),
                ("redundancy", 0.15),
                ("mttf", 0.15),
            ])
            .unwrap(),
        );
        let second = session.iterate().unwrap();
        assert_eq!(second.stats.spec_delta, Some(SpecDelta::WeightsOnly));
        assert_eq!(
            second.stats.match_calls, 0,
            "weights-only re-solve must not call Match(S)"
        );
        assert!(
            second.stats.recombined > 0,
            "reads recombine cached vectors"
        );
        assert_eq!(second.stats.recombined, second.stats.reused);
        assert_eq!(second.stats.invalidated, 0);
    }

    #[test]
    fn spec_delta_classes_surface_in_stats() {
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(3).with_theta(0.5));
        assert_eq!(session.iterate().unwrap().stats.spec_delta, None);
        // No edit: unchanged, with cross-iteration reuse.
        let repeat = session.iterate().unwrap();
        assert_eq!(repeat.stats.spec_delta, Some(SpecDelta::Unchanged));
        assert!(repeat.stats.reused > 0);
        // Pin a source: feasibility-only, nothing invalidated.
        session.require_source(SourceId(0));
        let pinned = session.iterate().unwrap();
        assert_eq!(pinned.stats.spec_delta, Some(SpecDelta::FeasibilityOnly));
        assert_eq!(pinned.stats.invalidated, 0);
        // Tighten θ: match-invalidating, cached match parts flushed.
        session.set_theta(0.6).unwrap();
        let tightened = session.iterate().unwrap();
        assert_eq!(
            tightened.stats.spec_delta,
            Some(SpecDelta::MatchInvalidating)
        );
        assert!(tightened.stats.invalidated > 0);
    }

    #[test]
    fn arena_on_and_off_histories_are_bit_identical() {
        // The arena must never change what a session computes — only how
        // much of it is recomputed. Each iteration of a feedback script
        // must bit-equal a cold `Mube::solve` of the same spec with the
        // session's seed and warm start (one delta class per step).
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(3).with_theta(0.5)).with_seed(11);
        let mut warm: Option<Vec<usize>> = None;
        for step in 0..4u64 {
            match step {
                1 => {
                    session.set_weights(
                        Weights::new([("matching", 0.5), ("cardinality", 0.5)]).unwrap(),
                    );
                }
                2 => {
                    session.require_source(SourceId(1));
                }
                // Far enough from 0.5 that a match part cached under the
                // old θ would change the answer if it were not stripped.
                3 => {
                    session.set_theta(0.3).unwrap();
                }
                _ => {}
            }
            let base = TabuSearch::default();
            let warm_solver = warm
                .as_deref()
                .and_then(|items| base.with_warm_start(items));
            let solver: &dyn Solver = warm_solver.as_deref().unwrap_or(&base);
            let cold = mube.solve(session.spec(), solver, 11 + step).unwrap();
            let kept = session.iterate().unwrap();
            assert_eq!(kept.selected, cold.selected, "step {step}");
            assert_eq!(kept.schema, cold.schema, "step {step}");
            assert_eq!(
                kept.overall_quality.to_bits(),
                cold.overall_quality.to_bits(),
                "step {step}"
            );
            warm = Some(cold.selected.iter().map(|s| s.index()).collect());
        }
        assert_eq!(session.history().len(), 4);
        assert!(session.history()[1..].iter().all(|s| s.stats.warm_start));
    }

    #[test]
    fn rejected_spec_leaves_the_arena_untouched() {
        // A spec naming an unknown QEF is rejected before the arena is
        // pointed at it: the cached entries survive, and restoring the
        // weights re-solves as an unchanged spec with nothing invalidated.
        let u = universe();
        let mube = MubeBuilder::new(&u).build();
        let mut session = Session::new(&mube, ProblemSpec::new(3).with_theta(0.5));
        session.iterate().unwrap();
        let cached = session.arena().len();
        assert!(cached > 0, "the first iteration memoizes evaluations");
        let weights = session.spec().weights.clone();
        session.set_weights(Weights::new([("matching", 0.5), ("mtff", 0.5)]).unwrap());
        assert!(matches!(
            session.iterate(),
            Err(MubeError::UnknownQef { .. })
        ));
        assert_eq!(session.arena().len(), cached);
        session.set_weights(weights);
        let restored = session.iterate().unwrap();
        assert_eq!(restored.stats.spec_delta, Some(SpecDelta::Unchanged));
        assert_eq!(restored.stats.invalidated, 0);
    }
}
