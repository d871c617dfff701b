//! Stochastic local search: random-restart best-improvement hill climbing —
//! another alternative the paper compared against tabu search.

use crate::moves::sample_moves;
use crate::problem::SubsetProblem;
use crate::solver::{random_start, run_counted, SolveResult, Solver};
use crate::subset::Subset;

/// Stochastic local search configuration.
#[derive(Debug, Clone)]
pub struct StochasticLocalSearch {
    /// Number of random restarts.
    pub restarts: u64,
    /// Maximum climbing steps per restart.
    pub max_steps: u64,
    /// Moves sampled and evaluated per step.
    pub neighborhood_sample: usize,
    /// Start the first restart from this subset (item indices) instead of a
    /// random one — see [`Solver::with_warm_start`]. Pins are added and
    /// excess items trimmed.
    pub warm_start: Option<Vec<usize>>,
}

impl Default for StochasticLocalSearch {
    fn default() -> Self {
        Self {
            restarts: 8,
            max_steps: 80,
            neighborhood_sample: 24,
            warm_start: None,
        }
    }
}

impl Solver for StochasticLocalSearch {
    fn solve(&self, problem: &dyn SubsetProblem, seed: u64) -> SolveResult {
        let mut was_cancelled = false;
        let mut result = run_counted(problem, seed, |counted, rng| {
            let mut best = if let Some(items) = &self.warm_start {
                let n = counted.universe_size();
                let mut start = Subset::from_indices(n, counted.pinned().iter().copied());
                for &i in items {
                    if start.len() >= counted.max_selected() {
                        break;
                    }
                    if i < n {
                        start.insert(i);
                    }
                }
                start
            } else {
                random_start(counted, rng)
            };
            let mut best_obj = counted.evaluate(&best);
            let mut trajectory = Vec::new();
            let mut iters = 0u64;

            'restarts: for restart in 0..self.restarts {
                let mut current = if restart == 0 {
                    best.clone()
                } else {
                    random_start(counted, rng)
                };
                let mut current_obj = counted.evaluate(&current);
                for _ in 0..self.max_steps {
                    // Step boundary: a fired cancellation abandons this and
                    // every remaining restart, keeping the incumbent.
                    if counted.cancelled() {
                        was_cancelled = true;
                        break 'restarts;
                    }
                    iters += 1;
                    let moves = sample_moves(counted, &current, self.neighborhood_sample, rng);
                    // Best-improvement: propose the whole sample, evaluate
                    // it in order, take the best strictly improving move;
                    // stop at a local optimum.
                    let nexts: Vec<Subset> =
                        moves.iter().map(|mv| mv.applied_to(&current)).collect();
                    let mut improved = false;
                    let mut best_move: Option<(usize, f64)> = None;
                    for (k, next) in nexts.iter().enumerate() {
                        let obj = counted.evaluate(next);
                        if obj > current_obj && best_move.as_ref().is_none_or(|(_, b)| obj > *b) {
                            best_move = Some((k, obj));
                        }
                    }
                    if let Some((k, obj)) = best_move {
                        current = nexts[k].clone();
                        current_obj = obj;
                        improved = true;
                    }
                    if current_obj > best_obj {
                        best_obj = current_obj;
                        best = current.clone();
                    }
                    trajectory.push(best_obj);
                    if !improved {
                        break;
                    }
                }
            }
            (best, best_obj, iters, trajectory)
        });
        result.cancelled = was_cancelled;
        result
    }

    fn name(&self) -> &'static str {
        "stochastic-local-search"
    }

    fn with_warm_start(&self, items: &[usize]) -> Option<Box<dyn Solver>> {
        // The first "restart" climbs from the provided subset instead of a
        // random one; later restarts still diversify randomly.
        Some(Box::new(StochasticLocalSearch {
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
        let values: Vec<f64> = (0..25).map(|i| f64::from((i * 7) % 13)).collect();
        let p = TopValues::new(values, 5, vec![]);
        let r = StochasticLocalSearch::default().solve(&p, 21);
        assert!(
            (r.objective - p.optimum()).abs() < 1e-9,
            "got {}, optimum {}",
            r.objective,
            p.optimum()
        );
    }

    #[test]
    fn respects_pins() {
        let p = TopValues::new(vec![1.0; 10], 3, vec![9]);
        let r = StochasticLocalSearch::default().solve(&p, 2);
        assert!(r.best.contains(9));
        assert!(r.best.len() <= 3);
    }

    #[test]
    fn improves_on_pair_problem() {
        let p = PairBonus::new(16, 4);
        let r = StochasticLocalSearch::default().solve(&p, 1);
        assert!(r.objective >= 5.0, "got {}", r.objective);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = PairBonus::new(12, 4);
        let s = StochasticLocalSearch::default();
        assert_eq!(s.solve(&p, 77).best, s.solve(&p, 77).best);
    }

    #[test]
    fn warm_start_is_used_and_feasible() {
        let p = TopValues::new(vec![9.0, 0.0, 8.0, 0.0, 7.0], 3, vec![1]);
        let warmed = StochasticLocalSearch::default()
            .with_warm_start(&[0, 2])
            .expect("sls supports warm starts");
        let r = warmed.solve(&p, 5);
        assert!(r.best.contains(1));
        assert!(r.best.len() <= 3);
        assert!((r.objective - 17.0).abs() < 1e-9, "got {}", r.objective);
    }
}
