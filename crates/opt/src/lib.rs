//! Combinatorial subset-selection optimization for µBE.
//!
//! Section 6 of the paper: "To solve these problems, we tried using
//! stochastic local search, particle swarm optimization, constrained
//! simulated annealing, and tabu search, and we found that tabu search gives
//! the best results." This crate implements *all four*, plus greedy, random,
//! and exhaustive baselines, behind one [`Solver`] trait, so the paper's
//! optimizer comparison is reproducible.
//!
//! The problem shape is fixed and matches µBE's: choose a subset `S` of a
//! universe of `n` items with `|S| ≤ m`, subject to *pinned* items that must
//! be selected (the paper's source constraints define "permanently tabu
//! regions of the space" — moves that would unpin them are never generated),
//! maximizing a black-box objective `f(S)`. Objectives may return
//! [`f64::NEG_INFINITY`] to mark a candidate infeasible (e.g. µBE's GA
//! constraints unsatisfied).
//!
//! All solvers are deterministic given a seed, generate only candidates that
//! respect the cardinality bound and the pins, and report evaluation counts
//! so experiments can compare search effort.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod anneal;
pub mod bnb;
pub mod cancel;
pub mod exhaustive;
pub mod greedy;
pub mod lp;
pub mod moves;
pub mod portfolio;
pub mod problem;
pub mod pso;
pub mod random;
pub mod sls;
pub mod solver;
pub mod subset;
pub mod tabu;

pub use anneal::SimulatedAnnealing;
pub use bnb::BranchAndBound;
pub use cancel::CancelToken;
pub use exhaustive::Exhaustive;
pub use greedy::Greedy;
pub use lp::{
    solve as lp_solve, solve_with_pivot_cap as lp_solve_with_pivot_cap, LpConstraint, LpOutcome,
    LpProblem, Relation,
};
pub use portfolio::{Portfolio, PortfolioMember, PortfolioOutcome};
pub use problem::{CountingProblem, SubsetProblem};
pub use pso::BinaryPso;
pub use random::RandomSearch;
pub use sls::StochasticLocalSearch;
pub use solver::{SolveResult, Solver};
pub use subset::Subset;
pub use tabu::TabuSearch;
