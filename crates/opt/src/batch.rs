//! Concurrent evaluation of candidate batches, and best-first selection.
//!
//! The local-search solvers spend essentially all their time in
//! `SubsetProblem::evaluate` (for µBE, one `Match(S)` run per uncached
//! call), and every iteration evaluates a whole sampled neighborhood whose
//! members are independent of each other. [`BatchEvaluator`] exploits
//! exactly that independence: the solver *proposes* its full candidate
//! batch first (consuming the RNG in the usual order), then evaluates the
//! batch here — serially, or striped across a scoped thread pool — and gets
//! the values back in input order.
//!
//! Because evaluation is pure (see [`SubsetProblem`]'s contract), the
//! returned values are identical whichever width runs them, each candidate
//! is evaluated exactly once in both modes, and the solver's subsequent
//! move selection sees exactly the same numbers: batched and serial
//! searches are bit-identical per seed.
//!
//! Greedy and tabu search only need the *best* eligible candidate of a
//! batch, not every value, so they go through `BatchEvaluator::select`
//! instead: it ranks the candidates by their leaf bound
//! ([`SubsetProblem::component_bound`] of the candidate against its
//! complement) and evaluates best bound first, stopping once no remaining
//! bound can reach the best value found. It returns exactly the candidate
//! a full scan would, while skipping the evaluations the bounds rule out.

use std::sync::OnceLock;

use crate::problem::SubsetProblem;
use crate::subset::Subset;

/// Evaluates slices of candidate subsets, optionally on a scoped thread
/// pool. `Copy` configuration — embed it in solver configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEvaluator {
    /// Worker threads. `0` resolves to the machine's available parallelism
    /// (overridable with the `MUBE_BATCH_THREADS` environment variable,
    /// which CI uses to force determinism passes onto one thread); `1`
    /// evaluates serially on the calling thread.
    pub threads: usize,
    /// Batches smaller than this run serially even when `threads > 1`:
    /// spawn overhead would dominate tiny neighborhoods.
    pub min_batch: usize,
}

impl Default for BatchEvaluator {
    /// Serial evaluation — the conservative default keeps every existing
    /// solver configuration byte-for-byte reproducible and overhead-free on
    /// cheap objectives; opt into parallelism with [`BatchEvaluator::parallel`].
    fn default() -> Self {
        Self::serial()
    }
}

/// `MUBE_BATCH_THREADS`, parsed once. The knob only selects the worker
/// *count* — results are width-invariant (check.sh forces width 1 and
/// re-runs the property suite) — so this ambient read is allowlisted for
/// `no-ambient-entropy` rather than threaded through `ProblemSpec`.
#[allow(clippy::disallowed_methods)]
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("MUBE_BATCH_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&t| t > 0)
    })
}

impl BatchEvaluator {
    /// Serial evaluation on the calling thread.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            min_batch: 8,
        }
    }

    /// Auto-width parallel evaluation (one worker per available core).
    pub fn parallel() -> Self {
        Self {
            threads: 0,
            min_batch: 8,
        }
    }

    /// Parallel evaluation with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            min_batch: 8,
        }
    }

    /// The resolved worker width this evaluator will use.
    pub fn width(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Evaluates every candidate, returning values in input order.
    ///
    /// Contiguous stripes of the batch go to each worker, so candidate `i`'s
    /// value lands at index `i` no matter how the threads interleave. Each
    /// candidate is evaluated exactly once — identical evaluation counts to
    /// the serial path. Solvers that need every value (SLS, PSO, the
    /// singleton start) call this; greedy and tabu, which only need the
    /// best eligible candidate, go through `select` and evaluate less.
    pub fn evaluate<P: SubsetProblem + ?Sized>(
        &self,
        problem: &P,
        candidates: &[Subset],
    ) -> Vec<f64> {
        self.map(candidates, |c| problem.evaluate(c))
    }

    /// Applies a pure `f` to every item, returning values in input order:
    /// serially below `min_batch` or at width 1, otherwise on contiguous
    /// stripes across scoped worker threads.
    fn map<T: Sync>(&self, items: &[T], f: impl Fn(&T) -> f64 + Sync) -> Vec<f64> {
        let width = self.width();
        if width < 2 || items.len() < self.min_batch.max(2) {
            return items.iter().map(f).collect();
        }
        let mut out = vec![0.0f64; items.len()];
        let chunk = items.len().div_ceil(width);
        let f = &f;
        std::thread::scope(|scope| {
            for (xs, ys) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (x, y) in xs.iter().zip(ys.iter_mut()) {
                        *y = f(x);
                    }
                });
            }
        });
        out
    }

    /// Picks the candidate a full evaluate-then-scan would pick, evaluating
    /// best leaf bound first and skipping what the bounds rule out.
    ///
    /// Candidate `k` is *eligible* when `bar(k)` is `None` or its value
    /// strictly exceeds `bar(k)`. The result is `(k, value)` for the
    /// maximum value among eligible candidates, ties going to the lowest
    /// index, or `None` when no candidate is eligible.
    ///
    /// Each candidate's leaf bound is
    /// `problem.component_bound(c, &c.complement())`, an upper bound on
    /// `evaluate(c)` by the trait's admissibility contract. The bound pass
    /// runs on the calling thread: for µBE a leaf bound costs about as much
    /// as the cheap QEFs, so spawning workers for it costs more than it
    /// saves. Candidates without a bound are evaluated first, as one batch
    /// exactly as [`Self::evaluate`] would. Bounded candidates are then
    /// evaluated one at a time in descending bound order (ties by index),
    /// skipping any whose bound is at most its `bar` (it could never be
    /// eligible) and stopping at the first bound below the best eligible
    /// value so far (nothing after it can win or tie). A bound *equal* to
    /// the best value is still evaluated: it may tie at a lower index.
    ///
    /// Which candidates get evaluated depends only on the values and the
    /// bounds, never on the width, so evaluation counts stay
    /// width-invariant.
    pub(crate) fn select<P: SubsetProblem + ?Sized>(
        &self,
        problem: &P,
        candidates: &[Subset],
        bar: impl Fn(usize) -> Option<f64>,
    ) -> Option<(usize, f64)> {
        let bounds: Vec<Option<f64>> = candidates
            .iter()
            .map(|c| problem.component_bound(c, &c.complement()))
            .collect();
        let eligible = |k: usize, value: f64| bar(k).is_none_or(|floor| value > floor);
        let mut best: Option<(usize, f64)> = None;
        let offer = |best: &mut Option<(usize, f64)>, k: usize, value: f64| {
            let better = best.is_none_or(|(bk, bv)| value > bv || (value == bv && k < bk));
            if better && eligible(k, value) {
                *best = Some((k, value));
            }
        };
        let unbounded: Vec<usize> = (0..candidates.len())
            .filter(|&k| bounds[k].is_none())
            .collect();
        let values = self.map(&unbounded, |&k| problem.evaluate(&candidates[k]));
        for (&k, &value) in unbounded.iter().zip(&values) {
            offer(&mut best, k, value);
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
            offer(&mut best, k, problem.evaluate(&candidates[k]));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testutil::TopValues;
    use crate::problem::CountingProblem;

    fn candidates(n: usize, count: usize) -> Vec<Subset> {
        (0..count)
            .map(|k| Subset::from_indices(n, [k % n, (k * 7 + 1) % n]))
            .collect()
    }

    #[test]
    fn serial_and_parallel_values_agree_in_order() {
        let p = TopValues::new((0..32).map(|i| i as f64 * 0.5).collect(), 6, vec![]);
        let batch = candidates(32, 40);
        let serial = BatchEvaluator::serial().evaluate(&p, &batch);
        let parallel = BatchEvaluator::with_threads(4).evaluate(&p, &batch);
        assert_eq!(serial, parallel);
        // Order check against direct evaluation.
        for (c, v) in batch.iter().zip(&serial) {
            assert_eq!(p.evaluate(c), *v);
        }
    }

    #[test]
    fn evaluation_counts_match_serial() {
        let p = TopValues::new(vec![1.0; 16], 4, vec![]);
        let batch = candidates(16, 33);
        let counted = CountingProblem::new(&p);
        BatchEvaluator::with_threads(3).evaluate(&counted, &batch);
        assert_eq!(counted.evals(), 33);
        let counted = CountingProblem::new(&p);
        BatchEvaluator::serial().evaluate(&counted, &batch);
        assert_eq!(counted.evals(), 33);
    }

    #[test]
    fn small_batches_stay_serial_and_empty_is_fine() {
        let p = TopValues::new(vec![1.0; 8], 3, vec![]);
        let ev = BatchEvaluator::with_threads(4);
        assert_eq!(ev.evaluate(&p, &[]).len(), 0);
        let batch = candidates(8, 3);
        assert_eq!(ev.evaluate(&p, &batch).len(), 3);
    }

    #[test]
    fn width_resolution() {
        assert_eq!(BatchEvaluator::serial().width(), 1);
        assert_eq!(BatchEvaluator::with_threads(7).width(), 7);
        assert!(BatchEvaluator::parallel().width() >= 1);
    }
}
