//! Exact anytime branch-and-bound over subset partial assignments.
//!
//! The search state is a partial assignment: a set of *decided-in* items
//! (always containing the pins), a set of *decided-out* items, and a free
//! tail. Nodes are explored best-first by an admissible upper bound on the
//! objective over every structurally feasible completion, supplied by the
//! problem through two hooks:
//!
//! * [`SubsetProblem::component_bound`] — a cheap bound from component-wise
//!   monotone relaxations (for µBE: Card/Coverage evaluated on
//!   `decided_in ∪ free`, non-monotone QEFs capped at their range maximum);
//! * [`SubsetProblem::lp_relaxation`] — an LP whose optimum plus a constant
//!   also upper-bounds the completions; it is solved at shallow nodes
//!   (`depth < lp_depth`) for fractional tightening, and the node keeps the
//!   minimum of the two bounds.
//!
//! A stalled LP ([`LpOutcome::IterationLimit`]) yields the objective of the
//! last feasible basic point — a *lower* bound on the LP optimum under
//! maximization — so it can never tighten or certify anything here; such
//! nodes simply keep the component bound. `LpOutcome::Infeasible`, by the
//! relaxation contract, proves the node has no feasible completion.
//!
//! The solver is *anytime*: under a `node_budget` it returns the incumbent
//! plus a certified optimality gap (`SolveResult::gap`), the distance from
//! the incumbent to the largest bound still open. Child bounds are clamped
//! by their parent's bound (valid, as a child's completion set is a subset
//! of its parent's), so the reported gap is monotonically non-increasing as
//! the budget grows. Exhausting the open list certifies optimality
//! (`gap = Some(0.0)`).
//!
//! Pruned and expanded prefixes are recorded MARCO-style in a closed set
//! keyed by the `(decided_in, decided_out)` [`Subset::fingerprint`] pair:
//! dominated or infeasible regions are never re-expanded even if a
//! duplicate route reaches them. Deadlines are expressed as node budgets
//! rather than wall-clock time so runs are bit-reproducible.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

use crate::lp::{self, LpOutcome};
use crate::problem::{CountingProblem, SubsetProblem};
use crate::solver::{SolveResult, Solver};
use crate::subset::Subset;

/// Slack added on top of LP-derived bounds so floating-point error in the
/// simplex can never push an admissible bound below the true completion
/// optimum (which would prune the optimum away).
const LP_SLACK: f64 = 1e-9;

/// Best-first branch-and-bound with admissible component/LP bounds.
///
/// Exact when run to completion; anytime under [`node_budget`]. All
/// configuration is plain data and the search is fully deterministic — the
/// seed is ignored.
///
/// [`node_budget`]: BranchAndBound::node_budget
#[derive(Debug, Clone)]
pub struct BranchAndBound {
    /// Maximum number of nodes to expand before stopping with the incumbent
    /// and a certified gap. `u64::MAX` means run to completion.
    pub node_budget: u64,
    /// Nodes shallower than this depth additionally solve the problem's LP
    /// relaxation to tighten their bound. 0 disables the LP entirely.
    pub lp_depth: usize,
    /// Per-phase pivot cap handed to the LP solver; a stalled LP falls back
    /// to the component bound.
    pub lp_pivot_cap: usize,
    /// Items seeding the initial incumbent (on top of the pins), typically
    /// a heuristic solution whose value immediately tightens pruning.
    pub warm_start: Option<Vec<usize>>,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        Self {
            node_budget: u64::MAX,
            lp_depth: 4,
            lp_pivot_cap: 2_000,
            warm_start: None,
        }
    }
}

/// An open node: the partial assignment plus its admissible bound. `depth`
/// indexes the free-item order — items `free[..depth]` are decided, the
/// rest are the free tail.
struct Node {
    bound: f64,
    /// Push counter, the deterministic tie-break (later pushes win ties,
    /// which deepens promising branches first).
    seq: u64,
    depth: usize,
    decided_in: Subset,
    decided_out: Subset,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for Node {}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then(self.seq.cmp(&other.seq))
    }
}

impl BranchAndBound {
    /// The admissible bound for a partial assignment: the problem's
    /// component bound, tightened by the LP relaxation at shallow depths.
    /// `f64::INFINITY` when the problem offers no bound (nothing prunable),
    /// `f64::NEG_INFINITY` when the region is proven empty.
    fn node_bound<P: SubsetProblem + ?Sized>(
        &self,
        problem: &P,
        decided_in: &Subset,
        decided_out: &Subset,
        depth: usize,
        incumbent: f64,
    ) -> f64 {
        let Some(mut bound) = problem.component_bound(decided_in, decided_out) else {
            return f64::INFINITY;
        };
        // The LP can only help while the node is still alive and finite.
        if depth < self.lp_depth && bound.is_finite() && bound > incumbent {
            if let Some((relaxation, constant)) = problem.lp_relaxation(decided_in, decided_out) {
                match lp::solve_with_pivot_cap(&relaxation, self.lp_pivot_cap) {
                    LpOutcome::Optimal { objective, .. } => {
                        let lp_bound = constant + objective + LP_SLACK;
                        if lp_bound < bound {
                            bound = lp_bound;
                        }
                    }
                    // A relaxation with no feasible point proves the region
                    // has no feasible completion at all.
                    LpOutcome::Infeasible => bound = f64::NEG_INFINITY,
                    // Unbounded: the relaxation is uninformative. Stalled
                    // (IterationLimit): the reported value is a *lower*
                    // bound on the LP optimum, never an upper bound on the
                    // completions — valid only as "no tightening", never as
                    // a certificate.
                    LpOutcome::Unbounded | LpOutcome::IterationLimit { .. } => {}
                }
            }
        }
        bound
    }
}

impl Solver for BranchAndBound {
    fn solve(&self, problem: &dyn SubsetProblem, _seed: u64) -> SolveResult {
        let counted = CountingProblem::new(problem);
        let n = problem.universe_size();
        let pins: Vec<usize> = problem.pinned().to_vec();
        let m = problem.max_selected().min(n);
        let free: Vec<usize> = (0..n).filter(|i| !pins.contains(i)).collect();

        let root_in = Subset::from_indices(n, pins.iter().copied());
        let root_out = Subset::empty(n);
        let mut best = root_in.clone();
        let mut incumbent = counted.evaluate(&root_in);

        // Warm start: a heuristic solution's value prunes from node one.
        if let Some(items) = &self.warm_start {
            let mut seeded = root_in.clone();
            for &i in items {
                if i < n {
                    seeded.insert(i);
                }
            }
            if seeded.len() <= m {
                let value = counted.evaluate(&seeded);
                if value > incumbent {
                    incumbent = value;
                    best = seeded;
                }
            }
        }

        let mut heap: BinaryHeap<Node> = BinaryHeap::new();
        // Closed prefixes (expanded, dominated, or infeasible), keyed by the
        // fingerprints of both decided sets.
        let mut closed: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut seq = 0u64;
        let mut nodes_expanded = 0u64;
        let mut nodes_pruned = 0u64;
        let mut trajectory = vec![incumbent];
        let mut gap = 0.0f64;
        let mut was_cancelled = false;

        if !free.is_empty() && root_in.len() < m {
            let bound = self.node_bound(&counted, &root_in, &root_out, 0, incumbent);
            if bound > incumbent {
                heap.push(Node {
                    bound,
                    seq,
                    depth: 0,
                    decided_in: root_in,
                    decided_out: root_out,
                });
                seq += 1;
            }
        }

        // Best-first: the top bound dominates every open node, so once it
        // sinks to the incumbent the incumbent is optimal.
        while let Some(top) = heap.peek() {
            let top_bound = top.bound;
            if top_bound <= incumbent {
                nodes_pruned += heap.len() as u64;
                break;
            }
            if nodes_expanded >= self.node_budget {
                gap = (top_bound - incumbent).max(0.0);
                break;
            }
            // Node boundary: a cancellation stops the search exactly like an
            // exhausted node budget, with the same honestly certified gap.
            if counted.cancelled() {
                was_cancelled = true;
                gap = (top_bound - incumbent).max(0.0);
                break;
            }
            let Some(node) = heap.pop() else { break };
            let key = (
                node.decided_in.fingerprint(),
                node.decided_out.fingerprint(),
            );
            if !closed.insert(key) {
                nodes_pruned += 1;
                continue;
            }
            nodes_expanded += 1;

            let Some(&item) = free.get(node.depth) else {
                continue; // fully decided: its value was taken at creation
            };
            let child_depth = node.depth + 1;

            // In-child: decide `item` into the selection and evaluate the
            // new prefix (every prefix is itself a feasible candidate).
            if node.decided_in.len() < m {
                let mut child_in = node.decided_in.clone();
                child_in.insert(item);
                let value = counted.evaluate(&child_in);
                if value > incumbent {
                    incumbent = value;
                    best = child_in.clone();
                }
                // Interior node only while items and budget both remain.
                if child_depth < free.len() && child_in.len() < m {
                    let bound = self
                        .node_bound(
                            &counted,
                            &child_in,
                            &node.decided_out,
                            child_depth,
                            incumbent,
                        )
                        .min(node.bound);
                    if bound > incumbent {
                        heap.push(Node {
                            bound,
                            seq,
                            depth: child_depth,
                            decided_in: child_in,
                            decided_out: node.decided_out.clone(),
                        });
                        seq += 1;
                    } else {
                        closed.insert((child_in.fingerprint(), node.decided_out.fingerprint()));
                        nodes_pruned += 1;
                    }
                }
            }

            // Out-child: decide `item` out; the prefix value is unchanged,
            // so only the bound needs recomputing.
            if child_depth < free.len() {
                let mut child_out = node.decided_out.clone();
                child_out.insert(item);
                let bound = self
                    .node_bound(
                        &counted,
                        &node.decided_in,
                        &child_out,
                        child_depth,
                        incumbent,
                    )
                    .min(node.bound);
                if bound > incumbent {
                    heap.push(Node {
                        bound,
                        seq,
                        depth: child_depth,
                        decided_in: node.decided_in,
                        decided_out: child_out,
                    });
                    seq += 1;
                } else {
                    closed.insert((node.decided_in.fingerprint(), child_out.fingerprint()));
                    nodes_pruned += 1;
                }
            }
            trajectory.push(incumbent);
        }

        debug_assert!(problem.is_structurally_feasible(&best));
        SolveResult {
            best,
            objective: incumbent,
            evaluations: counted.evals(),
            iterations: nodes_expanded,
            trajectory,
            winner: None,
            gap: Some(gap),
            nodes_expanded,
            nodes_pruned,
            cancelled: was_cancelled,
        }
    }

    fn name(&self) -> &'static str {
        "bnb"
    }

    fn with_warm_start(&self, items: &[usize]) -> Option<Box<dyn Solver>> {
        Some(Box::new(Self {
            warm_start: Some(items.to_vec()),
            ..self.clone()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;
    use crate::problem::testutil::{PairBonus, TopValues};

    #[test]
    fn exact_on_modular_objective() {
        let values = vec![2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 0.5, 3.0];
        let p = TopValues::new(values, 3, vec![]);
        let r = BranchAndBound::default().solve(&p, 0);
        let exact = Exhaustive::default().solve(&p, 0);
        assert_eq!(r.objective.to_bits(), exact.objective.to_bits());
        assert_eq!(r.gap, Some(0.0));
    }

    #[test]
    fn exact_on_pair_interactions_with_monotone_bound() {
        let p = PairBonus::new(12, 5);
        let r = BranchAndBound::default().solve(&p, 0);
        let exact = Exhaustive::default().solve(&p, 0);
        assert_eq!(r.objective.to_bits(), exact.objective.to_bits());
        assert_eq!(r.gap, Some(0.0));
    }

    #[test]
    fn respects_pins() {
        let p = TopValues::new(vec![5.0, 1.0, 4.0], 2, vec![1]);
        let r = BranchAndBound::default().solve(&p, 0);
        assert!(r.best.contains(1));
        assert!((r.objective - 6.0).abs() < 1e-12);
        assert_eq!(r.gap, Some(0.0));
    }

    #[test]
    fn prunes_against_exhaustive_enumeration() {
        // With a tight modular bound the tree should be far smaller than
        // the full 2^12 enumeration.
        let values: Vec<f64> = (0..12).map(|i| f64::from((i * 7) % 13)).collect();
        let p = TopValues::new(values, 4, vec![]);
        let r = BranchAndBound::default().solve(&p, 0);
        let exact = Exhaustive::default().solve(&p, 0);
        assert_eq!(r.objective.to_bits(), exact.objective.to_bits());
        assert!(r.nodes_pruned > 0, "bound never pruned");
        assert!(
            r.evaluations < exact.evaluations,
            "bnb ({}) should beat enumeration ({})",
            r.evaluations,
            exact.evaluations
        );
    }

    #[test]
    fn node_budget_yields_anytime_gap() {
        let values: Vec<f64> = (0..14).map(|i| f64::from((i * 5) % 17)).collect();
        let p = TopValues::new(values, 5, vec![]);
        let full = BranchAndBound::default().solve(&p, 0);
        assert_eq!(full.gap, Some(0.0));
        let mut previous_gap = f64::INFINITY;
        for budget in [0u64, 1, 2, 4, 8, 16, 64, 1024] {
            let r = BranchAndBound {
                node_budget: budget,
                ..BranchAndBound::default()
            }
            .solve(&p, 0);
            let g = r.gap.expect("bnb always certifies a gap");
            assert!(g >= 0.0, "negative gap {g}");
            assert!(
                g <= previous_gap + 1e-12,
                "gap must not grow with budget: {g} after {previous_gap}"
            );
            // The incumbent plus its certified gap always covers the optimum.
            assert!(r.objective + g >= full.objective - 1e-9);
            previous_gap = g;
        }
    }

    #[test]
    fn warm_start_seeds_the_incumbent() {
        let p = TopValues::new(vec![5.0, 1.0, 4.0, 3.0, 2.0, 6.0], 3, vec![]);
        let warmed = BranchAndBound::default()
            .with_warm_start(&[0, 2, 5])
            .expect("bnb supports warm starts");
        // Even with a zero node budget the warm-started incumbent stands.
        let r = warmed.solve(&p, 0);
        assert!((r.objective - 15.0).abs() < 1e-9, "got {}", r.objective);
        let budgetless = BranchAndBound {
            node_budget: 0,
            warm_start: Some(vec![0, 2, 5]),
            ..BranchAndBound::default()
        }
        .solve(&p, 0);
        assert!((budgetless.objective - 15.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_runs_and_seeds() {
        let p = PairBonus::new(14, 6);
        let a = BranchAndBound::default().solve(&p, 1);
        let b = BranchAndBound::default().solve(&p, 999);
        assert_eq!(a.best, b.best);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.nodes_expanded, b.nodes_expanded);
        assert_eq!(a.nodes_pruned, b.nodes_pruned);
    }

    #[test]
    fn empty_universe_edge_case() {
        let p = TopValues::new(vec![], 0, vec![]);
        let r = BranchAndBound::default().solve(&p, 0);
        assert_eq!(r.best.len(), 0);
        assert_eq!(r.gap, Some(0.0));
    }

    #[test]
    fn lp_depth_zero_still_exact() {
        let values: Vec<f64> = (0..10).map(|i| f64::from((i * 3) % 7)).collect();
        let p = TopValues::new(values, 4, vec![2]);
        let no_lp = BranchAndBound {
            lp_depth: 0,
            ..BranchAndBound::default()
        }
        .solve(&p, 0);
        let exact = Exhaustive::default().solve(&p, 0);
        assert_eq!(no_lp.objective.to_bits(), exact.objective.to_bits());
    }
}
