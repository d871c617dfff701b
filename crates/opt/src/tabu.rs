//! Tabu search — the solver µBE uses by default.
//!
//! "Tabu search is a combinatorial optimization algorithm whose key feature
//! is that it partially remembers its path through the search space and uses
//! this memory to declare parts of the search space as tabu for some time."
//! (Section 6, citing Glover & Laguna.)
//!
//! Implementation: recency-based tabu on *items* — after a move flips an
//! item's membership, moves re-flipping that item are tabu for `tenure`
//! iterations — with the standard **aspiration criterion** (a tabu move is
//! allowed if it would beat the best solution found so far). Constraints are
//! handled as *permanently tabu regions*: moves that would drop a pinned
//! item are never generated (see [`crate::moves`]).

use crate::moves::sample_moves_biased;
use crate::problem::SubsetProblem;
use crate::solver::{run_counted, select_best, singleton_greedy_start, SolveResult, Solver};
use crate::subset::Subset;

/// Tabu search configuration.
#[derive(Debug, Clone)]
pub struct TabuSearch {
    /// Number of iterations (moves taken) on an unconstrained problem;
    /// pinned problems get a budget scaled to their free decision space.
    pub max_iters: u64,
    /// Tabu tenure: how many iterations a flipped item stays tabu.
    pub tenure: u64,
    /// How many candidate moves to sample and evaluate per iteration.
    pub neighborhood_sample: usize,
    /// Stop early after this many iterations without improving the best
    /// solution (0 disables early stopping).
    pub stall_limit: u64,
    /// Grow the sampled neighborhood with the instance:
    /// `sample = max(neighborhood_sample, n / 8)`. Larger universes have
    /// larger real neighborhoods; evaluating proportionally more of them
    /// keeps solution quality flat across scales — and is what makes the
    /// execution time grow with the universe size, as in the paper's
    /// Figure 5.
    pub scale_sample_to_universe: bool,
    /// Start from this subset (item indices) instead of constructing one.
    /// Pins are added and excess items trimmed to satisfy the structural
    /// constraints. This is how an iterative µBE session
    /// re-solves after the user tweaks weights: refine the *current*
    /// solution rather than searching from scratch (Section 7.4's
    /// "perturbing the weights caused at most 1 GA to change" presumes
    /// exactly this warm-start behaviour).
    pub warm_start: Option<Vec<usize>>,
}

impl Default for TabuSearch {
    fn default() -> Self {
        Self {
            max_iters: 1200,
            tenure: 10,
            neighborhood_sample: 40,
            stall_limit: 400,
            scale_sample_to_universe: true,
            warm_start: None,
        }
    }
}

impl TabuSearch {
    /// A configuration scaled for quick interactive runs.
    pub fn quick() -> Self {
        Self {
            max_iters: 120,
            tenure: 8,
            neighborhood_sample: 12,
            stall_limit: 50,
            scale_sample_to_universe: false,
            warm_start: None,
        }
    }

    /// The iteration/stall budget for a given problem shape. With `p` items
    /// pinned it is scaled to the *free* decision space: that space is
    /// roughly `C(n−p, m−p)` instead of `C(n, m)`, so both budgets are
    /// multiplied by `((m−p)·ln(n−p)) / (m·ln n)`. This is how µBE's "adding
    /// constraints reduces the execution time, since it restricts the space
    /// to be searched" manifests.
    fn budget(&self, n: usize, m: usize, pins: usize) -> (u64, u64) {
        if pins == 0 || n <= pins || m <= pins {
            let full = if m <= pins && pins > 0 {
                1
            } else {
                self.max_iters
            };
            return (full, self.stall_limit);
        }
        let m = m.min(n);
        let factor =
            ((m - pins) as f64 * ((n - pins) as f64).ln()) / (m as f64 * (n as f64).ln().max(1.0));
        let factor = factor.clamp(0.05, 1.0);
        (
            ((self.max_iters as f64) * factor).ceil() as u64,
            ((self.stall_limit as f64) * factor).ceil() as u64,
        )
    }
}

impl Solver for TabuSearch {
    fn solve(&self, problem: &dyn SubsetProblem, seed: u64) -> SolveResult {
        let mut was_cancelled = false;
        let mut result = run_counted(problem, seed, |counted, rng| {
            let n = counted.universe_size();
            let (max_iters, stall_limit) =
                self.budget(n, counted.max_selected(), counted.pinned().len());
            let sample = if self.scale_sample_to_universe {
                self.neighborhood_sample.max(n / 8)
            } else {
                self.neighborhood_sample
            };
            let (mut current, preference) = if let Some(items) = &self.warm_start {
                let mut start = Subset::from_indices(n, counted.pinned().iter().copied());
                for &i in items {
                    if start.len() >= counted.max_selected() {
                        break;
                    }
                    if i < n {
                        start.insert(i);
                    }
                }
                (start, None)
            } else {
                // Score every item as a singleton (plus the pins) and take
                // the top `m`: `n` extra evaluations up front that make the
                // search far more robust than a random start — part of why
                // tabu search "generates higher quality solutions" than the
                // restart-based alternatives.
                let (start, ordering) = singleton_greedy_start(counted);
                (start, Some(ordering))
            };
            let mut current_obj = counted.evaluate(&current);
            let mut best = current.clone();
            let mut best_obj = current_obj;
            // tabu_until[i]: first iteration at which flipping item i is
            // allowed again.
            let mut tabu_until = vec![0u64; n];
            let mut trajectory = Vec::with_capacity(max_iters as usize);
            let mut stall = 0u64;
            let mut iters = 0u64;

            for iter in 0..max_iters {
                // Round boundary: a fired cancellation stops the search
                // here, keeping the incumbent found so far. An unfired
                // check changes nothing about the trajectory.
                if counted.cancelled() {
                    was_cancelled = true;
                    break;
                }
                iters = iter + 1;
                let moves =
                    sample_moves_biased(counted, &current, sample, rng, preference.as_deref());
                if moves.is_empty() {
                    trajectory.push(best_obj);
                    break;
                }
                // Propose the whole neighborhood first, then pick the best
                // non-tabu move, best leaf bound first; a tabu move passes
                // only via aspiration (it would improve on the global best),
                // so its bar is `best_obj`. Selection returns the move a
                // scan over every value in candidate order would, so the
                // pruning the bounds allow never changes the move. Each
                // neighbor is built only when selection needs it.
                let next = |k: usize| moves[k].applied_to(&current);
                let chosen = select_best(counted, moves.len(), next, |k| {
                    let (a, b) = moves[k].touched();
                    let tabu = tabu_until[a] > iter || b.is_some_and(|b| tabu_until[b] > iter);
                    tabu.then_some(best_obj)
                });
                if let Some((k, obj)) = chosen {
                    let (a, b) = moves[k].touched();
                    tabu_until[a] = iter + 1 + self.tenure;
                    if let Some(b) = b {
                        tabu_until[b] = iter + 1 + self.tenure;
                    }
                    current = moves[k].applied_to(&current);
                    current_obj = obj;
                    if current_obj > best_obj {
                        best_obj = current_obj;
                        best = current.clone();
                        stall = 0;
                    } else {
                        stall += 1;
                    }
                } else {
                    // Whole sampled neighborhood tabu and non-aspiring:
                    // count as a stall step.
                    stall += 1;
                }
                trajectory.push(best_obj);
                if stall_limit > 0 && stall >= stall_limit {
                    break;
                }
            }
            (best, best_obj, iters, trajectory)
        });
        result.cancelled = was_cancelled;
        result
    }

    fn name(&self) -> &'static str {
        "tabu"
    }

    fn with_warm_start(&self, items: &[usize]) -> Option<Box<dyn Solver>> {
        Some(Box::new(TabuSearch {
            warm_start: Some(items.to_vec()),
            ..self.clone()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testutil::{PairBonus, TopValues};

    #[test]
    fn finds_top_values_optimum() {
        let values: Vec<f64> = (0..30).map(|i| f64::from(i % 7) + 0.1).collect();
        let p = TopValues::new(values, 6, vec![]);
        let r = TabuSearch::default().solve(&p, 42);
        assert!(
            (r.objective - p.optimum()).abs() < 1e-9,
            "got {}, optimum {}",
            r.objective,
            p.optimum()
        );
    }

    #[test]
    fn respects_pins() {
        let p = TopValues::new(vec![9.0, 0.0, 8.0, 0.0, 7.0], 3, vec![1, 3]);
        let r = TabuSearch::default().solve(&p, 1);
        assert!(r.best.contains(1) && r.best.contains(3));
        assert!(r.best.len() <= 3);
        // Best remaining slot is item 0.
        assert!((r.objective - 9.0).abs() < 1e-9, "got {}", r.objective);
    }

    #[test]
    fn solves_pair_interactions() {
        let p = PairBonus::new(20, 6);
        let r = TabuSearch::default().solve(&p, 7);
        // Optimum: 3 complete pairs = 9.0.
        assert!((r.objective - 9.0).abs() < 1e-9, "got {}", r.objective);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = PairBonus::new(16, 4);
        let t = TabuSearch::default();
        let a = t.solve(&p, 5);
        let b = t.solve(&p, 5);
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn trajectory_is_monotone() {
        let p = PairBonus::new(20, 6);
        let r = TabuSearch::default().solve(&p, 3);
        assert!(r.trajectory.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*r.trajectory.last().unwrap(), r.objective);
    }

    #[test]
    fn fully_constrained_problem_returns_pins() {
        let p = TopValues::new(vec![1.0, 2.0], 2, vec![0, 1]);
        let r = TabuSearch::default().solve(&p, 0);
        assert_eq!(r.best.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(r.objective, 3.0);
    }

    #[test]
    fn pinning_reduces_search_effort() {
        // With effort scaling, pinned problems take fewer iterations.
        let free = TopValues::new(vec![1.0; 40], 10, vec![]);
        let pinned = TopValues::new(vec![1.0; 40], 10, vec![0, 1, 2, 3, 4]);
        let t = TabuSearch {
            stall_limit: 0,
            ..TabuSearch::default()
        };
        let r_free = t.solve(&free, 3);
        let r_pinned = t.solve(&pinned, 3);
        assert!(
            r_pinned.iterations < r_free.iterations,
            "pinned {} vs free {}",
            r_pinned.iterations,
            r_free.iterations
        );
    }

    #[test]
    fn stall_limit_stops_early() {
        let p = TopValues::new(vec![1.0; 10], 3, vec![]);
        let t = TabuSearch {
            max_iters: 10_000,
            stall_limit: 5,
            ..TabuSearch::default()
        };
        let r = t.solve(&p, 2);
        assert!(r.iterations < 10_000);
    }
}
