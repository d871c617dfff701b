//! The subset-selection problem abstraction.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::lp::LpProblem;
use crate::subset::Subset;

/// A maximization problem over subsets of `0..universe_size()`.
///
/// Feasibility contract shared by all solvers:
///
/// * candidates contain every pinned item (source constraints / implied GA
///   constraint sources — the paper's "permanently tabu" regions);
/// * candidates have `pinned().len() ≤ |S| ≤ max_selected()`;
/// * `evaluate` may additionally return [`f64::NEG_INFINITY`] for candidates
///   that violate problem-internal constraints the solver cannot see (µBE's
///   GA-constraint subsumption); solvers treat those as strictly worse than
///   any feasible candidate but may still walk through them.
///
/// Problems are `Sync`: `evaluate` takes `&self` and a
/// [`crate::Portfolio`]'s members hammer one problem from many threads, so
/// any evaluation-local state (memo caches, counters) must be thread-safe.
/// Evaluation must also be *pure* — the same subset always yields the same
/// value — which is what keeps a member's search independent of what the
/// other members evaluated first.
pub trait SubsetProblem: Sync {
    /// Number of items to choose from (`N = |U|`).
    fn universe_size(&self) -> usize;

    /// Maximum subset size (`m`, "the maximum number of sources that the
    /// user is willing to select").
    fn max_selected(&self) -> usize;

    /// Items that must be present in every candidate, sorted ascending.
    fn pinned(&self) -> &[usize];

    /// The objective to maximize; `NEG_INFINITY` marks infeasible.
    fn evaluate(&self, subset: &Subset) -> f64;

    /// Whether `subset` satisfies the structural constraints (pins and
    /// cardinality bound). Solvers uphold this by construction; it is used
    /// in assertions and tests.
    fn is_structurally_feasible(&self, subset: &Subset) -> bool {
        subset.len() <= self.max_selected() && self.pinned().iter().all(|&i| subset.contains(i))
    }

    /// An admissible upper bound on `evaluate(T)` over every structurally
    /// feasible completion `T` of the partial assignment — i.e. every `T`
    /// with `decided_in ⊆ T`, `T ∩ decided_out = ∅` and
    /// `|T| ≤ max_selected()`. Returns `None` when the problem offers no
    /// bound (branch-and-bound then cannot prune below such nodes);
    /// `f64::NEG_INFINITY` asserts no feasible completion exists.
    ///
    /// Greedy and tabu search ask for *leaf* bounds — `decided_in` a
    /// candidate and `decided_out` its complement, so the bound covers that
    /// candidate alone — and skip evaluating candidates the bounds prove
    /// cannot be selected. The tighter the leaf bound, the more they skip.
    ///
    /// Admissibility is the implementor's contract: a value below the true
    /// completion optimum makes [`crate::bnb::BranchAndBound`] prune the
    /// optimum away and voids its exactness guarantee, and can make greedy
    /// and tabu search select a different candidate than a full scan.
    fn component_bound(&self, _decided_in: &Subset, _decided_out: &Subset) -> Option<f64> {
        None
    }

    /// An LP relaxation of the completion problem at
    /// (`decided_in`, `decided_out`): `(lp, constant)` such that
    /// `constant + optimum(lp)` upper-bounds `evaluate(T)` over the same
    /// completions as [`SubsetProblem::component_bound`]. Branch-and-bound
    /// solves it at shallow nodes and takes the minimum with the component
    /// bound; `None` when no useful relaxation exists.
    fn lp_relaxation(
        &self,
        _decided_in: &Subset,
        _decided_out: &Subset,
    ) -> Option<(LpProblem, f64)> {
        None
    }

    /// Whether the caller has requested that the current solve stop early
    /// (see [`crate::CancelToken`]). Solvers poll this at round /
    /// generation / node boundaries; when it returns `true` they abandon
    /// further search and return their best incumbent with
    /// [`crate::SolveResult::cancelled`] set. A problem that is never
    /// cancellable simply keeps the default `false`.
    ///
    /// Polling is observation-only: a check that returns `false` must not
    /// change anything about the search, so runs that complete are
    /// bit-identical with or without a token attached.
    fn cancelled(&self) -> bool {
        false
    }
}

/// Wraps a problem and counts objective evaluations, used by experiments to
/// compare search effort across solvers. The counter is atomic because the
/// wrapper is shared like the problem it wraps; the total is exact (every
/// `evaluate` call increments it once) regardless of evaluation order.
pub struct CountingProblem<'a, P: SubsetProblem + ?Sized> {
    inner: &'a P,
    evals: AtomicU64,
}

impl<'a, P: SubsetProblem + ?Sized> CountingProblem<'a, P> {
    /// Wraps `inner` with a fresh counter.
    pub fn new(inner: &'a P) -> Self {
        Self {
            inner,
            evals: AtomicU64::new(0),
        }
    }

    /// Number of `evaluate` calls so far.
    pub fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }
}

impl<P: SubsetProblem + ?Sized> SubsetProblem for CountingProblem<'_, P> {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn max_selected(&self) -> usize {
        self.inner.max_selected()
    }

    fn pinned(&self) -> &[usize] {
        self.inner.pinned()
    }

    fn evaluate(&self, subset: &Subset) -> f64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(subset)
    }

    // Bound queries are not objective evaluations; forward them uncounted so
    // experiment effort comparisons stay about `evaluate` calls.
    fn component_bound(&self, decided_in: &Subset, decided_out: &Subset) -> Option<f64> {
        self.inner.component_bound(decided_in, decided_out)
    }

    fn lp_relaxation(&self, decided_in: &Subset, decided_out: &Subset) -> Option<(LpProblem, f64)> {
        self.inner.lp_relaxation(decided_in, decided_out)
    }

    fn cancelled(&self) -> bool {
        self.inner.cancelled()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared toy problems for solver tests.

    use super::*;
    use crate::lp::{LpConstraint, Relation};

    /// Maximize the sum of item values, a modular objective whose optimum is
    /// the top-`m` items (plus pins). Every solver should nail this.
    pub struct TopValues {
        pub values: Vec<f64>,
        pub m: usize,
        pub pins: Vec<usize>,
    }

    impl TopValues {
        pub fn new(values: Vec<f64>, m: usize, pins: Vec<usize>) -> Self {
            Self { values, m, pins }
        }

        /// The optimal objective value.
        pub fn optimum(&self) -> f64 {
            let pinned_sum: f64 = self.pins.iter().map(|&i| self.values[i]).sum();
            let mut free: Vec<f64> = (0..self.values.len())
                .filter(|i| !self.pins.contains(i))
                .map(|i| self.values[i])
                .collect();
            free.sort_by(|a, b| b.total_cmp(a));
            pinned_sum
                + free
                    .iter()
                    .take(self.m - self.pins.len())
                    .filter(|v| **v > 0.0)
                    .sum::<f64>()
        }
    }

    impl SubsetProblem for TopValues {
        fn universe_size(&self) -> usize {
            self.values.len()
        }

        fn max_selected(&self) -> usize {
            self.m
        }

        fn pinned(&self) -> &[usize] {
            &self.pins
        }

        fn evaluate(&self, subset: &Subset) -> f64 {
            subset.iter().map(|i| self.values[i]).sum()
        }

        fn component_bound(&self, decided_in: &Subset, decided_out: &Subset) -> Option<f64> {
            if self.pins.iter().any(|&p| decided_out.contains(p)) {
                return Some(f64::NEG_INFINITY);
            }
            let base: f64 = decided_in.iter().map(|i| self.values[i]).sum();
            let mut free: Vec<f64> = (0..self.values.len())
                .filter(|&i| !decided_in.contains(i) && !decided_out.contains(i))
                .map(|i| self.values[i])
                .filter(|v| *v > 0.0)
                .collect();
            free.sort_by(|a, b| b.total_cmp(a));
            let budget = self.m.saturating_sub(decided_in.len());
            Some(base + free.iter().take(budget).sum::<f64>())
        }

        fn lp_relaxation(
            &self,
            decided_in: &Subset,
            decided_out: &Subset,
        ) -> Option<(LpProblem, f64)> {
            // Fractional knapsack over the free items: exercises the bnb LP
            // path; for a modular objective its optimum matches the
            // component bound exactly.
            let base: f64 = decided_in.iter().map(|i| self.values[i]).sum();
            let free: Vec<usize> = (0..self.values.len())
                .filter(|&i| !decided_in.contains(i) && !decided_out.contains(i))
                .collect();
            let budget = self.m.saturating_sub(decided_in.len());
            let n = free.len();
            let mut constraints = vec![LpConstraint {
                coeffs: vec![1.0; n],
                rel: Relation::Le,
                rhs: budget as f64,
            }];
            for i in 0..n {
                let mut coeffs = vec![0.0; n];
                coeffs[i] = 1.0;
                constraints.push(LpConstraint {
                    coeffs,
                    rel: Relation::Le,
                    rhs: 1.0,
                });
            }
            let objective = free.iter().map(|&i| self.values[i]).collect();
            let lp = LpProblem {
                objective,
                constraints,
            };
            Some((lp, base))
        }
    }

    /// A deceptive objective with interactions: pairs (2i, 2i+1) give a bonus
    /// only when both are selected, so pure greedy item-by-item selection is
    /// suboptimal. Used to show metaheuristics beat greedy.
    pub struct PairBonus {
        pub n: usize,
        pub m: usize,
        empty_pins: Vec<usize>,
    }

    impl PairBonus {
        pub fn new(n: usize, m: usize) -> Self {
            assert!(n.is_multiple_of(2));
            Self {
                n,
                m,
                empty_pins: Vec::new(),
            }
        }
    }

    impl SubsetProblem for PairBonus {
        fn universe_size(&self) -> usize {
            self.n
        }

        fn max_selected(&self) -> usize {
            self.m
        }

        fn pinned(&self) -> &[usize] {
            &self.empty_pins
        }

        fn evaluate(&self, subset: &Subset) -> f64 {
            let mut score = 0.0;
            for i in 0..self.n / 2 {
                let a = subset.contains(2 * i);
                let b = subset.contains(2 * i + 1);
                match (a, b) {
                    (true, true) => score += 3.0,
                    (true, false) | (false, true) => score += 1.0,
                    (false, false) => {}
                }
            }
            score
        }

        fn component_bound(&self, decided_in: &Subset, decided_out: &Subset) -> Option<f64> {
            // The objective is monotone nondecreasing in the selection, so
            // evaluating the largest completion candidate (everything not
            // decided out) is admissible even though it ignores the
            // cardinality budget.
            let _ = decided_in;
            Some(self.evaluate(&decided_out.complement()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::TopValues;
    use super::*;

    #[test]
    fn counting_wrapper_counts() {
        let p = TopValues::new(vec![1.0, 2.0, 3.0], 2, vec![]);
        let counting = CountingProblem::new(&p);
        let s = Subset::from_indices(3, [0, 2]);
        assert_eq!(counting.evals(), 0);
        assert_eq!(counting.evaluate(&s), 4.0);
        counting.evaluate(&s);
        assert_eq!(counting.evals(), 2);
        assert_eq!(counting.universe_size(), 3);
        assert_eq!(counting.max_selected(), 2);
    }

    #[test]
    fn structural_feasibility() {
        let p = TopValues::new(vec![1.0; 5], 3, vec![1]);
        assert!(p.is_structurally_feasible(&Subset::from_indices(5, [1, 2])));
        assert!(!p.is_structurally_feasible(&Subset::from_indices(5, [2, 3])));
        assert!(!p.is_structurally_feasible(&Subset::from_indices(5, [1, 2, 3, 4])));
    }

    #[test]
    fn top_values_optimum() {
        let p = TopValues::new(vec![5.0, 1.0, 4.0, 3.0], 2, vec![]);
        assert_eq!(p.optimum(), 9.0);
        let p = TopValues::new(vec![5.0, 1.0, 4.0, 3.0], 2, vec![1]);
        assert_eq!(p.optimum(), 6.0);
    }
}
