//! A racing portfolio of solvers with a shared best-incumbent.
//!
//! Different metaheuristics win on different instances (the paper's Section
//! 6 comparison found tabu best *on average*, not always). A [`Portfolio`]
//! hedges: it runs N member solvers concurrently on worker threads against
//! the *same* problem — which, for µBE, also means against the same shared
//! `Q(S)` memo cache, so members amortize each other's `Match(S)` work.
//! Rounds are barriers: every member finishes round r before any member
//! starts round r + 1. Between rounds, members that support
//! [`Solver::with_warm_start`] are re-seeded from the incumbent — the best
//! subset any member found in any round so far — so good basins found by
//! one member are exploited by the others.
//!
//! Determinism: each member's seed stream is derived from the outer seed,
//! the member index and the round alone; members never exchange state
//! mid-round; and both the incumbent and the winner are chosen by
//! objective, ties going to the lowest member index and then the earliest
//! round. Thread finish order therefore changes nothing: not a member's
//! trajectory, not a warm start, not the winner.

use std::sync::Arc;

use crate::problem::SubsetProblem;
use crate::solver::{SolveResult, Solver};
use crate::subset::Subset;

/// Per-member outcome of a portfolio run, for experiment reports.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioMember {
    /// The member's [`Solver::name`].
    pub name: &'static str,
    /// Best objective the member itself reached (across its rounds).
    pub objective: f64,
    /// Objective evaluations the member spent.
    pub evaluations: u64,
    /// Solver iterations the member spent.
    pub iterations: u64,
    /// Rounds the member completed.
    pub rounds: u32,
    /// Whether this member produced the portfolio's returned solution.
    pub won: bool,
}

/// Result of [`Portfolio::run`]: the winning [`SolveResult`] plus
/// per-member accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioOutcome {
    /// The winning member's result, with [`SolveResult::winner`] set to the
    /// member's name and [`SolveResult::evaluations`] summed over *all*
    /// members (total search effort).
    pub result: SolveResult,
    /// One entry per member, in configuration order.
    pub members: Vec<PortfolioMember>,
}

/// Races member solvers on worker threads with a shared incumbent.
///
/// Members are `Arc`'d so warm-started variants can be derived per round
/// without cloning solver configurations that are not `Clone` at the trait
/// level.
#[derive(Clone)]
pub struct Portfolio {
    /// The competing solvers, run one-per-thread.
    pub members: Vec<Arc<dyn Solver>>,
    /// Rounds per member. Round 0 runs the member as configured; later
    /// rounds re-derive the member from the shared incumbent via
    /// [`Solver::with_warm_start`] (members without warm-start support
    /// re-run cold on a fresh derived seed — still useful for restart-based
    /// searches).
    pub rounds: u32,
}

impl std::fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Portfolio")
            .field(
                "members",
                &self.members.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .field("rounds", &self.rounds)
            .finish()
    }
}

/// SplitMix64-style mixing so member/round seed streams are decorrelated
/// from the outer seed and from each other.
fn derive_seed(seed: u64, member: usize, round: u32) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(1 + member as u64))
        .wrapping_add(0x1656_67b1_9e37_79f9_u64.wrapping_mul(1 + u64::from(round)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The best of `results` (indexed by member, then round): the highest
/// objective under `total_cmp`, ties going to the lowest member index and
/// then the earliest round — configuration order, never finish order.
fn best_of(results: &[Vec<SolveResult>]) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize, f64)> = None;
    for (idx, rs) in results.iter().enumerate() {
        for (round, r) in rs.iter().enumerate() {
            if best.is_none_or(|(_, _, b)| r.objective.total_cmp(&b) == std::cmp::Ordering::Greater)
            {
                best = Some((idx, round, r.objective));
            }
        }
    }
    best.map(|(idx, round, _)| (idx, round))
}

impl Portfolio {
    /// The default µBE portfolio: tabu (the paper's winner), stochastic
    /// local search, and binary PSO, two rounds with cross-seeding.
    pub fn standard() -> Self {
        Self {
            members: vec![
                Arc::new(crate::tabu::TabuSearch::default()),
                Arc::new(crate::sls::StochasticLocalSearch::default()),
                Arc::new(crate::pso::BinaryPso::default()),
            ],
            rounds: 2,
        }
    }

    /// Runs the race and returns the winner plus per-member stats.
    ///
    /// Each round is one thread scope, one thread per member, and its join
    /// is the barrier. A member whose thread panics posts no result for
    /// that round and sits out the later ones; the remaining members decide
    /// the outcome (an empty or fully-panicked portfolio returns an
    /// infeasible result).
    pub fn run(&self, problem: &dyn SubsetProblem, seed: u64) -> PortfolioOutcome {
        // results[member][round]: every round the member completed.
        let mut results: Vec<Vec<SolveResult>> = vec![Vec::new(); self.members.len()];
        let mut live = vec![true; self.members.len()];
        for round in 0..self.rounds.max(1) {
            // The incumbent over rounds < `round`; infeasible results never
            // seed anyone.
            let warm: Option<Vec<usize>> = best_of(&results)
                .map(|(idx, r)| &results[idx][r])
                .filter(|r| r.objective > f64::NEG_INFINITY)
                .map(|r| r.best.iter().collect());
            let posted: Vec<Option<SolveResult>> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .members
                    .iter()
                    .enumerate()
                    .map(|(idx, member)| {
                        let warm = warm.as_deref();
                        live[idx].then(|| {
                            scope.spawn(move || {
                                let warmed = warm.and_then(|items| member.with_warm_start(items));
                                let solver = warmed.as_deref().unwrap_or(member.as_ref());
                                solver.solve(problem, derive_seed(seed, idx, round))
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.and_then(|h| h.join().ok()))
                    .collect()
            });
            let mut cancelled = false;
            for (idx, r) in posted.into_iter().enumerate() {
                match r {
                    Some(r) => {
                        cancelled |= r.cancelled;
                        results[idx].push(r);
                    }
                    None => live[idx] = false,
                }
            }
            // Round boundary: a cancelled member run means the token fired —
            // later rounds would only spin through their own immediate
            // cancellation checks.
            if cancelled {
                break;
            }
        }

        let total_evals: u64 = results.iter().flatten().map(|r| r.evaluations).sum();
        // The portfolio ran cancelled if any member round did: the winning
        // round itself may have completed before the token fired, but the
        // race as a whole was cut short.
        let any_cancelled = results.iter().flatten().any(|r| r.cancelled);
        let winner = best_of(&results);

        let members: Vec<PortfolioMember> = results
            .iter()
            .enumerate()
            .map(|(idx, rs)| PortfolioMember {
                name: self.members[idx].name(),
                objective: rs
                    .iter()
                    .map(|r| r.objective)
                    .fold(f64::NEG_INFINITY, f64::max),
                evaluations: rs.iter().map(|r| r.evaluations).sum(),
                iterations: rs.iter().map(|r| r.iterations).sum(),
                rounds: rs.len() as u32,
                won: winner.is_some_and(|(w, _)| w == idx),
            })
            .collect();

        let result = match winner {
            Some((idx, round)) => SolveResult {
                evaluations: total_evals,
                winner: Some(self.members[idx].name()),
                cancelled: any_cancelled,
                ..results[idx][round].clone()
            },
            None => SolveResult {
                best: Subset::empty(problem.universe_size()),
                objective: f64::NEG_INFINITY,
                evaluations: total_evals,
                iterations: 0,
                trajectory: Vec::new(),
                winner: None,
                gap: None,
                nodes_expanded: 0,
                nodes_pruned: 0,
                cancelled: any_cancelled,
            },
        };
        PortfolioOutcome { result, members }
    }
}

impl Solver for Portfolio {
    fn solve(&self, problem: &dyn SubsetProblem, seed: u64) -> SolveResult {
        self.run(problem, seed).result
    }

    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn with_warm_start(&self, items: &[usize]) -> Option<Box<dyn Solver>> {
        // Warm-start every member that supports it; others stay cold.
        let members: Vec<Arc<dyn Solver>> = self
            .members
            .iter()
            .map(|m| match m.with_warm_start(items) {
                Some(w) => Arc::<dyn Solver>::from(w),
                None => Arc::clone(m),
            })
            .collect();
        Some(Box::new(Portfolio {
            members,
            ..self.clone()
        }))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::problem::testutil::{PairBonus, TopValues};
    use crate::sls::StochasticLocalSearch;
    use crate::tabu::TabuSearch;

    #[test]
    fn finds_optimum_and_reports_members() {
        let values: Vec<f64> = (0..24).map(|i| f64::from((i * 5) % 11)).collect();
        let p = TopValues::new(values, 5, vec![]);
        let outcome = Portfolio::standard().run(&p, 7);
        assert!((outcome.result.objective - p.optimum()).abs() < 1e-9);
        assert_eq!(outcome.members.len(), 3);
        assert_eq!(outcome.members.iter().filter(|m| m.won).count(), 1);
        let won = outcome.members.iter().find(|m| m.won).expect("one winner");
        assert_eq!(outcome.result.winner, Some(won.name));
        // Total effort is the sum of member effort.
        assert_eq!(
            outcome.result.evaluations,
            outcome.members.iter().map(|m| m.evaluations).sum::<u64>()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let p = PairBonus::new(20, 6);
        let portfolio = Portfolio::standard();
        let a = portfolio.run(&p, 11);
        let b = portfolio.run(&p, 11);
        assert_eq!(a.result.best, b.result.best);
        assert_eq!(a.result.objective, b.result.objective);
        assert_eq!(a.result.winner, b.result.winner);
        assert_eq!(a.members, b.members);
    }

    #[test]
    fn single_round_matches_best_member_run_standalone() {
        let p = PairBonus::new(16, 4);
        let portfolio = Portfolio {
            members: vec![
                Arc::new(TabuSearch::default()),
                Arc::new(StochasticLocalSearch::default()),
            ],
            rounds: 1,
        };
        let outcome = portfolio.run(&p, 3);
        // Each member, run standalone with the derived seed, must reproduce
        // its portfolio objective exactly — the race adds no nondeterminism.
        let tabu = TabuSearch::default().solve(&p, derive_seed(3, 0, 0));
        let sls = StochasticLocalSearch::default().solve(&p, derive_seed(3, 1, 0));
        assert_eq!(outcome.members[0].objective, tabu.objective);
        assert_eq!(outcome.members[1].objective, sls.objective);
        let best = tabu.objective.max(sls.objective);
        assert_eq!(outcome.result.objective, best);
    }

    /// A member that returns a fixed subset (sleeping first in a cold round
    /// when `slow`) and records the warm start of every round it runs.
    #[derive(Clone)]
    struct Scripted {
        items: Vec<usize>,
        slow: bool,
        warm: Option<Vec<usize>>,
        seen: Arc<Mutex<Vec<Option<Vec<usize>>>>>,
    }

    impl Solver for Scripted {
        fn solve(&self, problem: &dyn SubsetProblem, _seed: u64) -> SolveResult {
            if self.slow && self.warm.is_none() {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            self.seen.lock().unwrap().push(self.warm.clone());
            let best = Subset::from_indices(problem.universe_size(), self.items.iter().copied());
            SolveResult {
                objective: problem.evaluate(&best),
                best,
                evaluations: 1,
                iterations: 1,
                trajectory: Vec::new(),
                winner: None,
                gap: None,
                nodes_expanded: 0,
                nodes_pruned: 0,
                cancelled: false,
            }
        }

        fn name(&self) -> &'static str {
            "scripted"
        }

        fn with_warm_start(&self, items: &[usize]) -> Option<Box<dyn Solver>> {
            Some(Box::new(Scripted {
                warm: Some(items.to_vec()),
                ..self.clone()
            }))
        }
    }

    #[test]
    fn rounds_are_barriers() {
        // The fast member finishes round 0 long before the slow one posts
        // the better subset; its round-1 warm start must still be that
        // subset, not its own. The sleep only makes a race without a
        // barrier lose; with one, the outcome does not depend on timing.
        let p = TopValues::new(vec![1.0, 1.0, 5.0, 5.0], 2, vec![]);
        let script = |items: Vec<usize>, slow: bool| Scripted {
            items,
            slow,
            warm: None,
            seen: Arc::new(Mutex::new(Vec::new())),
        };
        let fast = script(vec![0, 1], false);
        let slow = script(vec![2, 3], true);
        let portfolio = Portfolio {
            members: vec![Arc::new(fast.clone()), Arc::new(slow.clone())],
            rounds: 2,
        };
        let outcome = portfolio.run(&p, 0);
        assert_eq!(*fast.seen.lock().unwrap(), vec![None, Some(vec![2, 3])]);
        assert_eq!(*slow.seen.lock().unwrap(), vec![None, Some(vec![2, 3])]);
        assert_eq!(outcome.result.objective, 10.0);
        // Ties go to the lowest member index, then the earliest round: the
        // slow member's round 0 wins over both warm-started round 1 runs.
        assert!(outcome.members[1].won);
        assert_eq!(outcome.members[1].rounds, 2);
    }

    #[test]
    fn empty_portfolio_is_infeasible_not_a_panic() {
        let p = TopValues::new(vec![1.0; 4], 2, vec![]);
        let outcome = Portfolio {
            members: vec![],
            rounds: 1,
        }
        .run(&p, 0);
        assert!(!outcome.result.is_feasible());
        assert!(outcome.members.is_empty());
    }

    #[test]
    fn cross_seeded_rounds_never_lose_quality() {
        let p = PairBonus::new(24, 8);
        let one = Portfolio {
            rounds: 1,
            ..Portfolio::standard()
        }
        .run(&p, 5);
        let two = Portfolio {
            rounds: 2,
            ..Portfolio::standard()
        }
        .run(&p, 5);
        assert!(two.result.objective >= one.result.objective);
    }

    #[test]
    fn warm_started_portfolio_solves() {
        let p = TopValues::new(vec![5.0, 1.0, 4.0, 3.0, 2.0, 6.0], 3, vec![]);
        let warmed = Portfolio::standard()
            .with_warm_start(&[0, 5])
            .expect("portfolio supports warm starts");
        let r = warmed.solve(&p, 2);
        assert!((r.objective - 15.0).abs() < 1e-9, "got {}", r.objective);
    }
}
