//! Perf trajectory for the parallel solve stack: regenerates
//! `BENCH_solve.json`.
//!
//! Three arms per universe size, all solving the paper's default problem:
//!
//! * `serial` — tabu search on the calling thread; run twice with the same
//!   seed and asserted byte-identical (selection, quality, evaluation
//!   count), the determinism contract everything else rests on.
//! * `multistart` — the portfolio members run *sequentially, each against a
//!   fresh objective* (cold caches): what racing the same solvers without
//!   the shared evaluation pool costs. This is the honest baseline for the
//!   portfolio arm even on a single-core host.
//! * `portfolio` — the same members raced as one `Portfolio` solver
//!   through [`Mube::solve`] against one shared objective: members amortize
//!   each other's `Match(S)` work through the shared memo arena, and later
//!   rounds warm-start from the shared incumbent. The per-member rows come
//!   from an untimed `Portfolio::run` over [`Mube::objective`], which
//!   replays the timed race exactly.
//!
//! Plus one `pruned` arm per size: greedy and tabu search solved directly
//! through [`Mube::solve`], where each round evaluates best leaf bound first
//! and skips the candidates the bound rules out, versus the same solver
//! over the objective with its bounds hidden (the full scan). The arm
//! asserts on every run that both select the same sources with the same
//! quality bits, records `match_calls`, `evaluations` and wall time for
//! both, and stamps `"pruned_identical": true`.
//!
//! Every arm's `millis` is a best-of-reps wall clock; multistart over
//! portfolio `millis` is the shared-cache saving, real on any core count.
//! See DESIGN.md §9 for how to read the file.
//!
//! Usage:
//!   cargo run --release -p mube-bench --bin solve_portfolio
//!   cargo run --release -p mube-bench --bin solve_portfolio -- --smoke --out target/BENCH_solve.smoke.json

use mube_bench::{best_of, engine, paper_spec, quick_portfolio, universe, Run, Scale};
use mube_core::{Mube, ProblemSpec, Solution};
use mube_opt::{Greedy, Solver, Subset, SubsetProblem, TabuSearch};
use mube_schema::SourceId;
use mube_serve::json::{obj, Json};

/// Hides a problem's bounds: `component_bound` keeps the trait's `None`,
/// so greedy and tabu evaluate every candidate — the full scan the
/// `pruned` arm compares against.
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

/// The `pruned` arm for one solver: best-of-`reps` wall clock of the
/// direct (bound-pruned) solve and of the full scan over the bound-hiding
/// wrapper, asserting that both return the same selection and quality bits.
fn pruned_arm(
    mube: &Mube,
    spec: &ProblemSpec,
    solver: &dyn Solver,
    seed: u64,
    reps: u32,
) -> (&'static str, Json) {
    let (direct_millis, direct) = best_of(reps, || {
        mube.solve(spec, solver, seed)
            .expect("paper spec is feasible")
    });
    let (full_millis, (full, full_match)) = best_of(reps, || {
        let objective = mube.objective(spec).expect("paper spec is feasible");
        let full = solver.solve(&Unbounded(&objective), seed);
        (full, objective.match_calls())
    });
    let selected: Vec<SourceId> = full.best.iter().map(|i| SourceId(i as u32)).collect();
    assert_eq!(
        direct.selected,
        selected,
        "{}: pruned selection diverged from the full scan",
        solver.name()
    );
    assert_eq!(
        direct.overall_quality.to_bits(),
        full.objective.to_bits(),
        "{}: pruned quality diverged from the full scan",
        solver.name()
    );
    let counts = |millis: f64, evaluations: u64, match_calls: u64| {
        obj([
            ("millis", millis.into()),
            ("evaluations", evaluations.into()),
            ("match_calls", match_calls.into()),
        ])
    };
    let direct = counts(
        direct_millis,
        direct.stats.evaluations,
        direct.stats.match_calls,
    );
    let full_scan = counts(full_millis, full.evaluations, full_match);
    (
        solver.name(),
        obj([("direct", direct), ("full_scan", full_scan)]),
    )
}

/// The columns of one timed solve.
fn arm(millis: f64, s: &Solution) -> [(&'static str, Json); 6] {
    [
        ("millis", millis.into()),
        ("evaluations", s.stats.evaluations.into()),
        ("match_calls", s.stats.match_calls.into()),
        ("cache_hits", s.stats.cache_hits.into()),
        ("evictions", s.stats.evictions.into()),
        ("quality", s.overall_quality.into()),
    ]
}

fn bench_size(size: usize, reps: u32) -> Json {
    eprintln!("== n = {size} sources ==");
    let generated = universe(size, 7, Scale::Reduced);
    let mube = engine(&generated);
    let spec = paper_spec(10);
    let seed = 7u64;

    // Serial reference (best-of-`reps` wall clock), plus the byte-identical
    // re-run contract: every repetition must reproduce the first exactly.
    let mut runs = Vec::new();
    let (serial_millis, ()) = best_of(reps.max(2), || {
        runs.push(
            mube.solve(&spec, &TabuSearch::quick(), seed)
                .expect("paper spec is feasible"),
        );
    });
    let serial = &runs[0];
    for again in &runs[1..] {
        assert_eq!(
            serial.selected, again.selected,
            "serial solve not reproducible"
        );
        assert_eq!(
            serial.overall_quality.to_bits(),
            again.overall_quality.to_bits()
        );
        assert_eq!(serial.stats.evaluations, again.stats.evaluations);
    }

    // Multistart baseline: every member, every round, cold caches, serially.
    let portfolio = quick_portfolio();
    let (multistart_millis, multistart) = best_of(reps, || {
        let mut solutions = Vec::new();
        for round in 0..u64::from(portfolio.rounds) {
            for (i, member) in portfolio.members.iter().enumerate() {
                let seed = seed ^ (round * 31 + i as u64);
                solutions.push(
                    mube.solve(&spec, member.as_ref(), seed)
                        .expect("paper spec is feasible"),
                );
            }
        }
        solutions
    });

    // Portfolio arm: same members and rounds, one shared objective.
    let (portfolio_millis, best) = best_of(reps, || {
        mube.solve(&spec, &portfolio, seed)
            .expect("paper spec is feasible")
    });
    let member_stats = portfolio
        .run(
            &mube.objective(&spec).expect("paper spec is feasible"),
            seed,
        )
        .members;

    // Pruned arm: best-leaf-bound-first greedy and tabu vs the full scan.
    let pruned = obj([
        pruned_arm(&mube, &spec, &Greedy, seed, reps),
        pruned_arm(&mube, &spec, &TabuSearch::quick(), seed, reps),
        ("pruned_identical", true.into()),
    ]);

    let members = member_stats.iter().map(|m| {
        obj([
            ("name", m.name.into()),
            ("objective", m.objective.into()),
            ("evaluations", m.evaluations.into()),
            ("won", m.won.into()),
        ])
    });
    let multistart_best = multistart
        .iter()
        .map(|s| s.overall_quality)
        .fold(f64::NEG_INFINITY, f64::max);
    let multistart_sum = |count: fn(&Solution) -> u64| multistart.iter().map(count).sum::<u64>();
    obj([
        ("sources", size.into()),
        ("attrs", generated.universe.total_attrs().into()),
        ("serial", obj(arm(serial_millis, serial))),
        (
            "multistart",
            obj([
                ("millis", multistart_millis.into()),
                (
                    "evaluations",
                    multistart_sum(|s| s.stats.evaluations).into(),
                ),
                (
                    "match_calls",
                    multistart_sum(|s| s.stats.match_calls).into(),
                ),
                ("best_quality", multistart_best.into()),
            ]),
        ),
        (
            "portfolio",
            obj(arm(portfolio_millis, &best).into_iter().chain([
                ("winner", best.stats.portfolio_member.unwrap_or("-").into()),
                ("members", Json::Arr(members.collect())),
            ])),
        ),
        ("pruned", pruned),
    ])
}

fn main() {
    let run = Run::from_args("solve_portfolio").expect("usage: [--smoke] [--out <path>]");
    let (sizes, reps): (&[usize], u32) = if run.smoke {
        (&[30], 1)
    } else {
        (&[50, 100, 200, 400], 3)
    };
    let rows: Vec<Json> = sizes.iter().map(|&size| bench_size(size, reps)).collect();
    run.write([
        ("scale", "reduced".into()),
        ("rounds", quick_portfolio().rounds.into()),
        ("units", obj([("millis", "best-of-reps wall clock".into())])),
        (
            "note",
            "multistart over portfolio millis measures the shared Q(S) cache vs cold \
             multistart on any host"
                .into(),
        ),
        ("sizes", rows.into()),
    ])
    .expect("artifact written");
}
