//! The [`Solver`] trait and its result type.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::problem::{CountingProblem, SubsetProblem};
use crate::subset::Subset;

/// Outcome of one solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The best subset found.
    pub best: Subset,
    /// Its objective value (may be `NEG_INFINITY` if the solver never found
    /// a feasible candidate).
    pub objective: f64,
    /// Number of objective evaluations performed.
    pub evaluations: u64,
    /// Number of solver iterations (meaning is solver-specific: tabu steps,
    /// SA steps, PSO generations, restarts × climbs, ...).
    pub iterations: u64,
    /// Best-objective-so-far trace, one entry per iteration, for convergence
    /// plots and robustness comparisons.
    pub trajectory: Vec<f64>,
    /// For portfolio runs, the [`Solver::name`] of the member that produced
    /// `best`; `None` for plain solvers.
    pub winner: Option<&'static str>,
    /// Certified optimality gap, exact solvers only: the true optimum lies
    /// in `[objective, objective + gap]`. `Some(0.0)` is a proof of
    /// optimality; `Some(g > 0)` is an anytime result under a node budget;
    /// `None` means the solver makes no optimality claim (all
    /// heuristics).
    pub gap: Option<f64>,
    /// Branch-and-bound nodes expanded (0 for non-tree solvers).
    pub nodes_expanded: u64,
    /// Branch-and-bound nodes pruned by bound or dominance (0 for
    /// non-tree solvers).
    pub nodes_pruned: u64,
    /// Whether the solver stopped early because the problem reported a
    /// cancellation request (see [`crate::CancelToken`]). `best` is then
    /// the honest incumbent at the stop point — feasible whenever any
    /// feasible candidate had been seen. Runs that complete normally (even
    /// with a token attached) always report `false`.
    pub cancelled: bool,
}

impl SolveResult {
    /// Whether the run found any feasible candidate.
    pub fn is_feasible(&self) -> bool {
        self.objective.is_finite()
    }
}

/// A subset-selection solver. All solvers are deterministic given `seed`.
///
/// `Send + Sync` so solvers can be raced against each other from worker
/// threads (see [`crate::portfolio::Portfolio`]); solver configurations are
/// plain data, so this costs implementations nothing.
pub trait Solver: Send + Sync {
    /// Runs the search on `problem` and returns the best solution found.
    fn solve(&self, problem: &dyn SubsetProblem, seed: u64) -> SolveResult;

    /// Short name for experiment reports (e.g. `"tabu"`).
    fn name(&self) -> &'static str;

    /// Returns a variant of this solver that starts its search from the
    /// given items instead of constructing a fresh starting point, or
    /// `None` if the solver has no warm-start notion. Iterative µBE
    /// sessions use this to *refine* the previous solution after small
    /// feedback changes rather than re-searching from scratch.
    fn with_warm_start(&self, _items: &[usize]) -> Option<Box<dyn Solver>> {
        None
    }
}

/// Shared harness used by solver implementations: wraps the problem with an
/// evaluation counter, seeds the RNG, and runs `body`.
pub(crate) fn run_counted<'p, F>(
    problem: &'p (dyn SubsetProblem + 'p),
    seed: u64,
    body: F,
) -> SolveResult
where
    F: FnOnce(
        &CountingProblem<'p, dyn SubsetProblem + 'p>,
        &mut StdRng,
    ) -> (Subset, f64, u64, Vec<f64>),
{
    let counted = CountingProblem::new(problem);
    let mut rng = StdRng::seed_from_u64(seed);
    let (best, objective, iterations, trajectory) = body(&counted, &mut rng);
    debug_assert!(problem.is_structurally_feasible(&best));
    SolveResult {
        best,
        objective,
        evaluations: counted.evals(),
        iterations,
        trajectory,
        winner: None,
        gap: None,
        nodes_expanded: 0,
        nodes_pruned: 0,
        cancelled: false,
    }
}

/// Builds a feasible starting point: the pins plus random items up to the
/// cardinality bound (solvers that want a different start size can trim).
pub(crate) fn random_start(problem: &dyn SubsetProblem, rng: &mut StdRng) -> Subset {
    let pins: Vec<usize> = problem.pinned().to_vec();
    let k = problem
        .max_selected()
        .min(problem.universe_size())
        .max(pins.len());
    Subset::random_with_pins(problem.universe_size(), k, &pins, rng)
}

/// Scores every free item as `evaluate(pins ∪ {i})` and returns the item
/// ordering (best first) plus the constructed top-`m` starting subset.
/// Deterministic, costs `n` evaluations, in item order. The ordering
/// doubles as the tabu candidate list (see
/// [`crate::moves::sample_moves_biased`]).
pub(crate) fn singleton_greedy_start<P: SubsetProblem + ?Sized>(
    problem: &P,
) -> (Subset, Vec<usize>) {
    let n = problem.universe_size();
    let pins: Vec<usize> = problem.pinned().to_vec();
    let base = Subset::from_indices(n, pins.iter().copied());
    let budget = problem.max_selected().min(n).saturating_sub(base.len());
    let mut scored: Vec<(f64, usize)> = base
        .complement_iter()
        .map(|i| {
            let mut candidate = base.clone();
            candidate.insert(i);
            (problem.evaluate(&candidate), i)
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let ordering: Vec<usize> = scored.iter().map(|&(_, i)| i).collect();
    let mut start = base;
    for &i in ordering.iter().take(budget) {
        start.insert(i);
    }
    (start, ordering)
}

/// Picks the candidate a full evaluate-then-scan would pick, evaluating
/// best leaf bound first and skipping what the bounds rule out. Greedy
/// and tabu search select every move through this.
///
/// The candidates are `candidate(0) .. candidate(count - 1)`, built on
/// demand: each is built to be bounded and again if it is evaluated, and
/// dropped in between, so a round holds one candidate at a time instead of
/// the whole batch.
///
/// Candidate `k` is *eligible* when `bar(k)` is `None` or its value
/// strictly exceeds `bar(k)`. The result is `(k, value)` for the maximum
/// value among eligible candidates, ties going to the lowest index, or
/// `None` when no candidate is eligible.
///
/// Each candidate's leaf bound is
/// `problem.component_bound(c, &c.complement())`, an upper bound on
/// `evaluate(c)` by the trait's admissibility contract. Candidates without
/// a bound are evaluated first, in index order. Bounded candidates are then
/// evaluated in descending bound order (ties by index), skipping any whose
/// bound is at most its `bar` (it could never be eligible) and stopping at
/// the first bound below the best eligible value so far (nothing after it
/// can win or tie). A bound *equal* to the best value is still evaluated:
/// it may tie at a lower index.
pub(crate) fn select_best<P: SubsetProblem + ?Sized>(
    problem: &P,
    count: usize,
    candidate: impl Fn(usize) -> Subset,
    bar: impl Fn(usize) -> Option<f64>,
) -> Option<(usize, f64)> {
    let bounds: Vec<Option<f64>> = (0..count)
        .map(|k| {
            let c = candidate(k);
            problem.component_bound(&c, &c.complement())
        })
        .collect();
    let eligible = |k: usize, value: f64| bar(k).is_none_or(|floor| value > floor);
    let mut best: Option<(usize, f64)> = None;
    let offer = |best: &mut Option<(usize, f64)>, k: usize, value: f64| {
        let better = best.is_none_or(|(bk, bv)| value > bv || (value == bv && k < bk));
        if better && eligible(k, value) {
            *best = Some((k, value));
        }
    };
    for k in (0..count).filter(|&k| bounds[k].is_none()) {
        offer(&mut best, k, problem.evaluate(&candidate(k)));
    }
    let mut ranked: Vec<(usize, f64)> = bounds
        .iter()
        .enumerate()
        .filter_map(|(k, b)| b.map(|b| (k, b)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for (k, bound) in ranked {
        if best.is_some_and(|(_, bv)| bound < bv) {
            break;
        }
        if bar(k).is_some_and(|floor| bound <= floor) {
            continue;
        }
        offer(&mut best, k, problem.evaluate(&candidate(k)));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testutil::TopValues;

    #[test]
    fn run_counted_reports_evaluations() {
        let p = TopValues::new(vec![1.0, 2.0], 1, vec![]);
        let result = run_counted(&p, 0, |counted, _rng| {
            let s = Subset::from_indices(2, [1]);
            let obj = counted.evaluate(&s);
            (s, obj, 1, vec![obj])
        });
        assert_eq!(result.evaluations, 1);
        assert_eq!(result.objective, 2.0);
        assert!(result.is_feasible());
    }

    fn result_with(objective: f64, trajectory: Vec<f64>) -> SolveResult {
        SolveResult {
            best: Subset::empty(4),
            objective,
            evaluations: trajectory.len() as u64,
            iterations: trajectory.len() as u64,
            trajectory,
            winner: None,
            gap: None,
            nodes_expanded: 0,
            nodes_pruned: 0,
            cancelled: false,
        }
    }

    #[test]
    fn infeasible_result_detected() {
        let r = result_with(f64::NEG_INFINITY, vec![]);
        assert!(!r.is_feasible());
    }

    #[test]
    fn random_start_is_feasible_and_full_size() {
        let p = TopValues::new(vec![0.0; 12], 5, vec![3, 4]);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let s = random_start(&p, &mut rng);
            assert_eq!(s.len(), 5);
            assert!(p.is_structurally_feasible(&s));
        }
    }
}
