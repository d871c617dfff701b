//! Binary particle swarm optimization — another alternative the paper
//! compared against tabu search.
//!
//! Kennedy & Eberhart's discrete PSO: each particle keeps a real-valued
//! velocity per item; the sigmoid of the velocity gives the probability of
//! selecting that item. Because sampled positions generally violate the
//! cardinality bound and pins, each position is **repaired** to feasibility:
//! pins are forced in, then items are kept in decreasing-velocity order
//! until the bound.

use rand::Rng;

use crate::problem::SubsetProblem;
use crate::solver::{run_counted, SolveResult, Solver};
use crate::subset::Subset;

/// Binary PSO configuration.
///
/// Updates are *synchronous*: every particle's velocity update reads the
/// global best from the end of the previous generation, and only once the
/// whole generation's repaired positions are proposed are they evaluated
/// and the personal/global bests advanced (in particle order). This is the
/// textbook synchronous PSO: no particle's update can observe a
/// mid-generation gbest.
#[derive(Debug, Clone)]
pub struct BinaryPso {
    /// Number of particles.
    pub particles: usize,
    /// Number of generations.
    pub generations: u64,
    /// Inertia weight.
    pub inertia: f64,
    /// Cognitive (personal-best) acceleration.
    pub cognitive: f64,
    /// Social (global-best) acceleration.
    pub social: f64,
    /// Velocity clamp.
    pub v_max: f64,
}

impl Default for BinaryPso {
    fn default() -> Self {
        Self {
            particles: 24,
            generations: 150,
            inertia: 0.72,
            cognitive: 1.5,
            social: 1.5,
            v_max: 4.0,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Repairs a desired-membership vector into a feasible subset: pins first,
/// then the highest-velocity desired items, then (if the position selects
/// fewer than one item) nothing further — empty-but-for-pins is feasible.
fn repair(problem: &dyn SubsetProblem, desired: &[bool], velocity: &[f64]) -> Subset {
    let n = problem.universe_size();
    let m = problem.max_selected();
    let mut s = Subset::from_indices(n, problem.pinned().iter().copied());
    let mut wanted: Vec<usize> = (0..n).filter(|&i| desired[i] && !s.contains(i)).collect();
    wanted.sort_by(|&a, &b| velocity[b].total_cmp(&velocity[a]));
    for i in wanted {
        if s.len() >= m {
            break;
        }
        s.insert(i);
    }
    s
}

impl Solver for BinaryPso {
    fn solve(&self, problem: &dyn SubsetProblem, seed: u64) -> SolveResult {
        let mut was_cancelled = false;
        let mut result = run_counted(problem, seed, |counted, rng| {
            let n = counted.universe_size();
            let mut velocities: Vec<Vec<f64>> = (0..self.particles)
                .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let mut positions: Vec<Subset> = velocities
                .iter()
                .map(|v| {
                    let desired: Vec<bool> =
                        v.iter().map(|&vi| rng.gen::<f64>() < sigmoid(vi)).collect();
                    repair(counted, &desired, v)
                })
                .collect();
            let mut pbest = positions.clone();
            let mut pbest_obj: Vec<f64> = positions.iter().map(|p| counted.evaluate(p)).collect();
            let gbest_idx = pbest_obj
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut gbest = pbest[gbest_idx].clone();
            let mut gbest_obj = pbest_obj[gbest_idx];
            let mut trajectory = Vec::with_capacity(self.generations as usize);
            let mut iters = 0u64;

            for _ in 0..self.generations {
                // Generation boundary: stop with the incumbent gbest on a
                // fired cancellation.
                if counted.cancelled() {
                    was_cancelled = true;
                    break;
                }
                iters += 1;
                // Generation step: update every velocity against the
                // *previous* generation's gbest and sample the desired
                // membership (this is where the RNG is consumed, in fixed
                // particle order) ...
                let proposals: Vec<Subset> = velocities
                    .iter_mut()
                    .enumerate()
                    .map(|(pi, vel)| {
                        for (i, v) in vel.iter_mut().enumerate() {
                            let x = f64::from(u8::from(positions[pi].contains(i)));
                            let p = f64::from(u8::from(pbest[pi].contains(i)));
                            let g = f64::from(u8::from(gbest.contains(i)));
                            let r1: f64 = rng.gen();
                            let r2: f64 = rng.gen();
                            *v = (self.inertia * *v
                                + self.cognitive * r1 * (p - x)
                                + self.social * r2 * (g - x))
                                .clamp(-self.v_max, self.v_max);
                        }
                        let desired: Vec<bool> = vel
                            .iter()
                            .map(|&vi| rng.gen::<f64>() < sigmoid(vi))
                            .collect();
                        repair(counted, &desired, vel)
                    })
                    .collect();
                // ... then evaluate the generation and advance personal and
                // global bests, in particle order.
                for (pi, proposal) in proposals.iter().enumerate() {
                    let obj = counted.evaluate(proposal);
                    if obj > pbest_obj[pi] {
                        pbest_obj[pi] = obj;
                        pbest[pi] = proposal.clone();
                        if obj > gbest_obj {
                            gbest_obj = obj;
                            gbest = proposal.clone();
                        }
                    }
                }
                positions = proposals;
                trajectory.push(gbest_obj);
            }
            (gbest, gbest_obj, iters, trajectory)
        });
        result.cancelled = was_cancelled;
        result
    }

    fn name(&self) -> &'static str {
        "binary-pso"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testutil::{PairBonus, TopValues};

    #[test]
    fn finds_top_values_optimum() {
        let values: Vec<f64> = (0..18).map(|i| f64::from((i * 5) % 9)).collect();
        let p = TopValues::new(values, 4, vec![]);
        let r = BinaryPso::default().solve(&p, 33);
        assert!(
            (r.objective - p.optimum()).abs() < 1e-9,
            "got {}, optimum {}",
            r.objective,
            p.optimum()
        );
    }

    #[test]
    fn repair_enforces_pins_and_bound() {
        let p = TopValues::new(vec![1.0; 10], 3, vec![0]);
        let desired = vec![true; 10];
        let velocity: Vec<f64> = (0..10).map(f64::from).collect();
        let s = repair(&p, &desired, &velocity);
        assert!(s.contains(0));
        assert_eq!(s.len(), 3);
        // Highest-velocity items win the free slots.
        assert!(s.contains(9) && s.contains(8));
    }

    #[test]
    fn respects_pins_end_to_end() {
        let p = TopValues::new(vec![1.0; 12], 4, vec![5, 6]);
        let r = BinaryPso::default().solve(&p, 3);
        assert!(r.best.contains(5) && r.best.contains(6));
        assert!(r.best.len() <= 4);
    }

    #[test]
    fn improves_on_pair_problem() {
        let p = PairBonus::new(12, 4);
        let r = BinaryPso::default().solve(&p, 19);
        assert!(r.objective >= 5.0, "got {}", r.objective);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = PairBonus::new(10, 3);
        let s = BinaryPso::default();
        assert_eq!(s.solve(&p, 8).best, s.solve(&p, 8).best);
    }
}
