//! Property tests for the optimization framework: every solver, on random
//! problems, must return structurally feasible solutions and never beat the
//! exact optimum.

use std::sync::Arc;

use proptest::prelude::*;

use mube_opt::{
    lp_solve, BinaryPso, BranchAndBound, Exhaustive, Greedy, LpConstraint, LpOutcome, LpProblem,
    Portfolio, RandomSearch, Relation, SimulatedAnnealing, Solver, StochasticLocalSearch, Subset,
    SubsetProblem, TabuSearch,
};

/// A random modular-plus-pairwise objective:
/// `f(S) = Σ_{i∈S} v_i + Σ_{i<j∈S} w_ij` with small synergy terms.
#[derive(Debug, Clone)]
struct RandomQuadratic {
    values: Vec<f64>,
    synergy: Vec<Vec<f64>>,
    m: usize,
    pins: Vec<usize>,
}

impl SubsetProblem for RandomQuadratic {
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
        let items: Vec<usize> = subset.iter().collect();
        let mut f: f64 = items.iter().map(|&i| self.values[i]).sum();
        for (a, &i) in items.iter().enumerate() {
            for &j in &items[a + 1..] {
                f += self.synergy[i][j];
            }
        }
        f
    }

    fn component_bound(&self, decided_in: &Subset, decided_out: &Subset) -> Option<f64> {
        if self.pins.iter().any(|&p| decided_out.contains(p)) {
            return Some(f64::NEG_INFINITY);
        }
        // Modular part: decided-in values plus the best `budget` positive
        // free values. Synergy part: every positive pair not touching a
        // decided-out item. Any completion T scores at most this; the 1e-9
        // slack absorbs summation-order float differences.
        let n = self.values.len();
        let base: f64 = decided_in.iter().map(|i| self.values[i]).sum();
        let mut free_vals: Vec<f64> = (0..n)
            .filter(|&i| !decided_in.contains(i) && !decided_out.contains(i))
            .map(|i| self.values[i])
            .filter(|v| *v > 0.0)
            .collect();
        free_vals.sort_by(|a, b| b.total_cmp(a));
        let budget = self.m.saturating_sub(decided_in.len());
        let modular: f64 = base + free_vals.iter().take(budget).sum::<f64>();
        let candidates: Vec<usize> = (0..n).filter(|&i| !decided_out.contains(i)).collect();
        let mut synergy = 0.0;
        for (a, &i) in candidates.iter().enumerate() {
            for &j in &candidates[a + 1..] {
                if self.synergy[i][j] > 0.0 {
                    synergy += self.synergy[i][j];
                }
            }
        }
        Some(modular + synergy + 1e-9)
    }
}

/// Hides a problem's bounds: `component_bound` keeps the trait's `None`,
/// so greedy and tabu evaluate every candidate — the full-scan reference
/// their bound-pruned selection must reproduce.
struct Unbounded<'a>(&'a dyn SubsetProblem);

impl SubsetProblem for Unbounded<'_> {
    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }

    fn max_selected(&self) -> usize {
        self.0.max_selected()
    }

    fn pinned(&self) -> &[usize] {
        self.0.pinned()
    }

    fn evaluate(&self, subset: &Subset) -> f64 {
        self.0.evaluate(subset)
    }
}

/// `RandomQuadratic` rounded to halves, so candidates often tie, with a
/// leaf bound of its exact value plus 0–3 thousandths keyed by the subset:
/// many bounds are exact, and tied candidates rank in varied bound order.
/// Greedy and tabu only ask for leaf bounds, so other nodes get `None`.
struct Coarse<'a>(&'a RandomQuadratic);

impl SubsetProblem for Coarse<'_> {
    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }

    fn max_selected(&self) -> usize {
        self.0.max_selected()
    }

    fn pinned(&self) -> &[usize] {
        self.0.pinned()
    }

    fn evaluate(&self, subset: &Subset) -> f64 {
        (self.0.evaluate(subset) * 2.0).round() / 2.0
    }

    fn component_bound(&self, decided_in: &Subset, decided_out: &Subset) -> Option<f64> {
        let leaf = decided_in.len() + decided_out.len() == self.universe_size();
        leaf.then(|| self.evaluate(decided_in) + (decided_in.fingerprint() % 4) as f64 * 1e-3)
    }
}

fn arb_problem() -> impl Strategy<Value = RandomQuadratic> {
    arb_quadratic(3usize..10, 1usize..5)
}

/// Larger instances (universes up to 15) for the branch-and-bound vs
/// exhaustive bit-identity tests.
fn arb_bnb_problem() -> impl Strategy<Value = RandomQuadratic> {
    arb_quadratic(3usize..16, 1usize..7)
}

fn arb_quadratic(
    n_range: std::ops::Range<usize>,
    m_range: std::ops::Range<usize>,
) -> impl Strategy<Value = RandomQuadratic> {
    (n_range, m_range, any::<u64>()).prop_map(|(n, m, seed)| {
        // Deterministic pseudo-random coefficients from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        };
        let values: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut synergy = vec![vec![0.0; n]; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in i + 1..n {
                let w = (next() - 0.5) * 0.4;
                synergy[i][j] = w;
                synergy[j][i] = w;
            }
        }
        let m = m.min(n);
        let pins = if m >= 2 && n >= 2 {
            vec![n / 2]
        } else {
            vec![]
        };
        RandomQuadratic {
            values,
            synergy,
            m,
            pins,
        }
    })
}

fn all_solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(TabuSearch::quick()),
        Box::new(SimulatedAnnealing {
            max_iters: 500,
            ..SimulatedAnnealing::default()
        }),
        Box::new(BinaryPso {
            particles: 10,
            generations: 30,
            ..BinaryPso::default()
        }),
        Box::new(StochasticLocalSearch {
            restarts: 3,
            max_steps: 30,
            ..StochasticLocalSearch::default()
        }),
        Box::new(Greedy),
        Box::new(RandomSearch { samples: 200 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn solvers_feasible_and_never_beat_exhaustive(problem in arb_problem(), seed in 0u64..100) {
        let exact = Exhaustive::default().solve(&problem, 0);
        prop_assert!(problem.is_structurally_feasible(&exact.best));
        for solver in all_solvers() {
            let r = solver.solve(&problem, seed);
            prop_assert!(
                problem.is_structurally_feasible(&r.best),
                "{} returned infeasible subset",
                solver.name()
            );
            prop_assert!(
                r.objective <= exact.objective + 1e-9,
                "{} beat the exact optimum: {} > {}",
                solver.name(),
                r.objective,
                exact.objective
            );
            // The reported objective matches re-evaluating the subset.
            prop_assert!((problem.evaluate(&r.best) - r.objective).abs() < 1e-9);
        }
    }

    #[test]
    fn tabu_matches_exhaustive_on_tiny_problems(problem in arb_problem()) {
        // These instances have at most C(9, 4) ≈ 126 candidates; tabu with
        // hundreds of evaluations should be exact.
        let exact = Exhaustive::default().solve(&problem, 0);
        let tabu = TabuSearch::default().solve(&problem, 1);
        prop_assert!(
            (tabu.objective - exact.objective).abs() < 1e-9,
            "tabu {} vs exact {}",
            tabu.objective,
            exact.objective
        );
    }

    #[test]
    fn solvers_are_deterministic_per_seed(problem in arb_problem(), seed in 0u64..20) {
        for solver in all_solvers() {
            let a = solver.solve(&problem, seed);
            let b = solver.solve(&problem, seed);
            prop_assert_eq!(a.best, b.best, "{} nondeterministic", solver.name());
            prop_assert_eq!(a.evaluations, b.evaluations);
        }
    }

    #[test]
    fn portfolio_is_deterministic_sound_and_never_worse_than_members(
        problem in arb_problem(),
        seed in 0u64..50,
    ) {
        let portfolio = Portfolio {
            members: vec![
                Arc::new(TabuSearch::quick()),
                Arc::new(StochasticLocalSearch { restarts: 3, max_steps: 30, ..Default::default() }),
                Arc::new(Greedy),
            ],
            rounds: 2,
        };
        let exact = Exhaustive::default().solve(&problem, 0);
        let a = portfolio.run(&problem, seed);
        let b = portfolio.run(&problem, seed);
        // Deterministic despite racing threads.
        prop_assert_eq!(&a.result.best, &b.result.best);
        prop_assert_eq!(a.result.objective, b.result.objective);
        prop_assert_eq!(&a.result.trajectory, &b.result.trajectory);
        prop_assert_eq!(a.result.winner, b.result.winner);
        prop_assert_eq!(&a.members, &b.members);
        // Sound: feasible, consistent with re-evaluation, bounded by exact.
        prop_assert!(problem.is_structurally_feasible(&a.result.best));
        prop_assert!((problem.evaluate(&a.result.best) - a.result.objective).abs() < 1e-9);
        prop_assert!(a.result.objective <= exact.objective + 1e-9);
        // The returned result is the best any member achieved.
        for m in &a.members {
            prop_assert!(a.result.objective >= m.objective);
        }
        // Greedy is a member, so the portfolio at least matches greedy.
        let greedy = Greedy.solve(&problem, 0);
        prop_assert!(a.result.objective >= greedy.objective - 1e-9);
    }
}

proptest! {
    // More cases than the solver suite: a wrong prune shows only where
    // the bounds and a tie line up.
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bound_pruned_selection_matches_the_full_scan(
        problem in arb_problem(),
        seed in 0u64..50,
    ) {
        // On the problem's own loose bound and on the tie-heavy, tightly
        // bounded `Coarse`: the pruned solve must equal the unbounded full
        // scan in everything but effort.
        let coarse = Coarse(&problem);
        let problems: [&dyn SubsetProblem; 2] = [&problem, &coarse];
        for p in problems {
            let solvers: Vec<Box<dyn Solver>> =
                vec![Box::new(Greedy), Box::new(TabuSearch::quick())];
            for solver in solvers {
                let pruned = solver.solve(p, seed);
                let full = solver.solve(&Unbounded(p), seed);
                prop_assert_eq!(&pruned.best, &full.best, "{}", solver.name());
                prop_assert_eq!(pruned.objective.to_bits(), full.objective.to_bits());
                prop_assert_eq!(&pruned.trajectory, &full.trajectory);
                prop_assert_eq!(pruned.iterations, full.iterations);
                prop_assert!(
                    pruned.evaluations <= full.evaluations,
                    "{} evaluated more with bounds: {} > {}",
                    solver.name(),
                    pruned.evaluations,
                    full.evaluations
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bnb_matches_exhaustive_bit_identically(problem in arb_bnb_problem()) {
        let exact = Exhaustive::default().solve(&problem, 0);
        let r = BranchAndBound::default().solve(&problem, 0);
        prop_assert!(problem.is_structurally_feasible(&r.best));
        prop_assert_eq!(
            r.objective.to_bits(),
            exact.objective.to_bits(),
            "bnb {} vs exhaustive {}",
            r.objective,
            exact.objective
        );
        prop_assert_eq!(r.gap, Some(0.0));
        prop_assert!((problem.evaluate(&r.best) - r.objective).abs() < 1e-12);
    }

    #[test]
    fn bnb_gap_monotone_and_sound_under_node_budgets(problem in arb_bnb_problem()) {
        let exact = Exhaustive::default().solve(&problem, 0);
        let mut previous = f64::INFINITY;
        for budget in [0u64, 4, 32, 256, u64::MAX] {
            let r = BranchAndBound { node_budget: budget, ..BranchAndBound::default() }
                .solve(&problem, 0);
            let g = r.gap.expect("bnb always certifies a gap");
            prop_assert!(g >= 0.0, "negative gap {g}");
            prop_assert!(g <= previous + 1e-12, "gap grew from {previous} to {g}");
            // The certificate is sound: incumbent + gap covers the optimum.
            prop_assert!(r.objective + g >= exact.objective - 1e-9);
            previous = g;
        }
        // An unbounded budget runs to completion: gap exactly zero.
        prop_assert_eq!(previous.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn bnb_warm_start_preserves_exactness(problem in arb_bnb_problem(), seed in 0u64..20) {
        let heuristic = TabuSearch::quick().solve(&problem, seed);
        let items: Vec<usize> = heuristic.best.iter().collect();
        let warmed = BranchAndBound::default()
            .with_warm_start(&items)
            .expect("bnb supports warm starts");
        let exact = Exhaustive::default().solve(&problem, 0);
        let r = warmed.solve(&problem, 0);
        prop_assert_eq!(r.objective.to_bits(), exact.objective.to_bits());
        prop_assert_eq!(r.gap, Some(0.0));
    }
}

/// Random small LPs: max c·x s.t. A·x ≤ b with b ≥ 0 — always feasible
/// (x = 0) and bounded when every objective-positive column has a positive
/// constraint coefficient somewhere. We only assert the *soundness* side:
/// any reported optimum satisfies the constraints and is reproducible.
fn arb_lp() -> impl Strategy<Value = LpProblem> {
    let coeff = -3i32..6;
    (1usize..4, 1usize..5)
        .prop_flat_map(move |(nvars, nrows)| {
            (
                prop::collection::vec(coeff.clone(), nvars),
                prop::collection::vec((prop::collection::vec(0i32..5, nvars), 1i32..20), nrows),
            )
        })
        .prop_map(|(c, rows)| LpProblem {
            objective: c.into_iter().map(f64::from).collect(),
            constraints: rows
                .into_iter()
                .map(|(a, b)| LpConstraint {
                    coeffs: a.into_iter().map(f64::from).collect(),
                    rel: Relation::Le,
                    rhs: f64::from(b),
                })
                .collect(),
        })
}

/// Random ≤3-variable LPs for the vertex-enumeration cross-check: `Le`
/// rows with non-negative coefficients, an explicit per-variable box
/// `x_i ≤ 6` (so the polyhedron is bounded and line-free), and sometimes a
/// `Ge` row that may contradict the box — exercising the Infeasible
/// classification as well as optimal values.
fn arb_bounded_lp() -> impl Strategy<Value = LpProblem> {
    (1usize..4, 1usize..4)
        .prop_flat_map(|(nvars, nrows)| {
            (
                prop::collection::vec(-3i32..6, nvars),
                prop::collection::vec((prop::collection::vec(0i32..5, nvars), 0i32..20), nrows),
                (0i32..2, prop::collection::vec(0i32..3, nvars), 0i32..25),
            )
        })
        .prop_map(|(c, rows, (ge_on, ge_coeffs, ge_rhs))| {
            let ge = (ge_on == 1).then_some((ge_coeffs, ge_rhs));
            let nvars = c.len();
            let mut constraints: Vec<LpConstraint> = rows
                .into_iter()
                .map(|(a, b)| LpConstraint {
                    coeffs: a.into_iter().map(f64::from).collect(),
                    rel: Relation::Le,
                    rhs: f64::from(b),
                })
                .collect();
            for i in 0..nvars {
                let mut coeffs = vec![0.0; nvars];
                coeffs[i] = 1.0;
                constraints.push(LpConstraint {
                    coeffs,
                    rel: Relation::Le,
                    rhs: 6.0,
                });
            }
            if let Some((a, b)) = ge {
                constraints.push(LpConstraint {
                    coeffs: a.into_iter().map(f64::from).collect(),
                    rel: Relation::Ge,
                    rhs: f64::from(b),
                });
            }
            LpProblem {
                objective: c.into_iter().map(f64::from).collect(),
                constraints,
            }
        })
}

/// Every constraint of `p` (plus `x ≥ 0`) as a half-space `a·x ≤ b`.
fn halfspaces(p: &LpProblem) -> Vec<(Vec<f64>, f64)> {
    let n = p.objective.len();
    let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
    for con in &p.constraints {
        match con.rel {
            Relation::Le => rows.push((con.coeffs.clone(), con.rhs)),
            Relation::Ge => rows.push((con.coeffs.iter().map(|a| -a).collect(), -con.rhs)),
            Relation::Eq => {
                rows.push((con.coeffs.clone(), con.rhs));
                rows.push((con.coeffs.iter().map(|a| -a).collect(), -con.rhs));
            }
        }
    }
    for i in 0..n {
        let mut coeffs = vec![0.0; n];
        coeffs[i] = -1.0;
        rows.push((coeffs, 0.0));
    }
    rows
}

/// All `k`-element index combinations of `items`.
fn combinations(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if items.len() < k {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, &first) in items.iter().enumerate() {
        for mut rest in combinations(&items[i + 1..], k - 1) {
            rest.insert(0, first);
            out.push(rest);
        }
    }
    out
}

/// Solves the n×n system where each row's half-space holds with equality,
/// by Gaussian elimination with partial pivoting. `None` for (near-)
/// singular systems — those active sets do not define a vertex.
fn solve_square(rows: &[&(Vec<f64>, f64)]) -> Option<Vec<f64>> {
    let n = rows.len();
    let mut m: Vec<Vec<f64>> = rows
        .iter()
        .map(|(a, b)| {
            let mut row = a.clone();
            row.push(*b);
            row
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))?;
        if m[pivot][col].abs() < 1e-9 {
            return None;
        }
        m.swap(col, pivot);
        let pivot_row = m[col].clone();
        for (row, r) in m.iter_mut().enumerate() {
            if row != col {
                let factor = r[col] / pivot_row[col];
                for (dst, src) in r[col..=n].iter_mut().zip(&pivot_row[col..=n]) {
                    *dst -= factor * src;
                }
            }
        }
    }
    Some((0..n).map(|i| m[i][n] / m[i][i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lp_optima_are_feasible_and_consistent(p in arb_lp()) {
        match lp_solve(&p) {
            LpOutcome::Optimal { x, objective } => {
                // Primal feasibility.
                for con in &p.constraints {
                    let lhs: f64 = con.coeffs.iter().zip(&x).map(|(a, v)| a * v).sum();
                    prop_assert!(lhs <= con.rhs + 1e-6, "violated: {lhs} > {}", con.rhs);
                }
                for &v in &x {
                    prop_assert!(v >= -1e-9, "negative variable {v}");
                }
                // Objective consistency.
                let z: f64 = p.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
                prop_assert!((z - objective).abs() < 1e-6, "{z} vs {objective}");
                // x = 0 is feasible, so the optimum is ≥ 0 whenever some
                // c_j ≤ 0 path exists... simply: optimum ≥ 0 because the
                // origin scores 0 and we maximize.
                prop_assert!(objective >= -1e-9);
                // Determinism.
                prop_assert_eq!(lp_solve(&p), LpOutcome::Optimal { x, objective });
            }
            LpOutcome::Unbounded => {
                // Only possible if some positive-objective variable has no
                // positive coefficient in any row.
                let escape = (0..p.objective.len()).any(|j| {
                    p.objective[j] > 0.0
                        && p.constraints.iter().all(|c| c.coeffs[j] <= 0.0)
                });
                prop_assert!(escape, "claimed unbounded without an escape direction");
            }
            LpOutcome::Infeasible => {
                prop_assert!(false, "x = 0 is always feasible for these instances");
            }
            LpOutcome::IterationLimit { .. } => {
                prop_assert!(false, "tiny LPs must never exhaust the default pivot cap");
            }
        }
    }

    #[test]
    fn lp_matches_brute_force_vertex_enumeration(p in arb_bounded_lp()) {
        // Ground truth: enumerate every vertex of the (boxed, hence bounded
        // and line-free) polyhedron by solving all n×n subsystems of active
        // constraints. Feasible LPs have their optimum at some vertex.
        let rows = halfspaces(&p);
        let n = p.objective.len();
        let mut best: Option<f64> = None;
        let row_ids: Vec<usize> = (0..rows.len()).collect();
        for combo in combinations(&row_ids, n) {
            let system: Vec<&(Vec<f64>, f64)> = combo.iter().map(|&i| &rows[i]).collect();
            let Some(x) = solve_square(&system) else { continue };
            if rows.iter().all(|(a, b)| {
                a.iter().zip(&x).map(|(ai, xi)| ai * xi).sum::<f64>() <= b + 1e-6
            }) {
                let z: f64 = p.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
                best = Some(best.map_or(z, |b: f64| b.max(z)));
            }
        }
        match (lp_solve(&p), best) {
            (LpOutcome::Optimal { objective, .. }, Some(brute)) => {
                prop_assert!(
                    (objective - brute).abs() < 1e-5,
                    "simplex {objective} vs vertex enumeration {brute}"
                );
            }
            (LpOutcome::Infeasible, None) => {}
            (outcome, brute) => {
                prop_assert!(
                    false,
                    "classification mismatch: simplex {outcome:?}, brute force {brute:?}"
                );
            }
        }
    }
}
