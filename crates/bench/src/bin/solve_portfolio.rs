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
//! * `portfolio` — the same members raced as one [`Portfolio`] solver
//!   through [`Mube::solve`] against one shared objective: members amortize
//!   each other's `Match(S)` work through the sharded memo cache, and later
//!   rounds warm-start from the shared incumbent. The per-member rows come
//!   from an untimed [`Portfolio::run`] over [`Mube::objective`], which
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
//! `speedup_portfolio` is multistart-vs-portfolio wall clock (shared-cache
//! savings are real on any core count). See DESIGN.md §9 for how to read
//! the file.
//!
//! Usage:
//!   cargo run --release -p mube-bench --bin solve_portfolio
//!   cargo run --release -p mube-bench --bin solve_portfolio -- --smoke --out target/BENCH_solve.smoke.json

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mube_bench::{engine, paper_spec, universe, Scale};
use mube_core::{Mube, ProblemSpec, Solution};
use mube_opt::{
    Greedy, Portfolio, Solver, StochasticLocalSearch, Subset, SubsetProblem, TabuSearch,
};
use mube_schema::SourceId;

/// The racing members every portfolio-side arm uses. `quick` configurations:
/// the bench sweeps four universe sizes and the point is relative cost, not
/// absolute solution quality.
fn members() -> Vec<Arc<dyn Solver>> {
    vec![
        Arc::new(TabuSearch::quick()),
        Arc::new(StochasticLocalSearch {
            restarts: 4,
            max_steps: 40,
            ..StochasticLocalSearch::default()
        }),
        Arc::new(Greedy),
    ]
}

/// Rounds per member in the portfolio and multistart arms.
const ROUNDS: u32 = 2;

/// One timed single-solver solve against a fresh objective.
fn timed_solve(mube: &Mube, spec: &ProblemSpec, solver: &dyn Solver, seed: u64) -> (f64, Solution) {
    let start = Instant::now();
    let solution = mube
        .solve(spec, solver, seed)
        .expect("paper spec is feasible");
    (start.elapsed().as_secs_f64() * 1e3, solution)
}

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
/// wrapper, asserting on every run that both return the same selection
/// and quality bits.
fn pruned_arm(
    mube: &Mube,
    spec: &ProblemSpec,
    solver: &dyn Solver,
    seed: u64,
    reps: u32,
) -> String {
    let mut direct_ms = f64::INFINITY;
    let mut full_ms = f64::INFINITY;
    let mut counts = (0, 0, 0, 0);
    for _ in 0..reps.max(1) {
        let (ms, direct) = timed_solve(mube, spec, solver, seed);
        direct_ms = direct_ms.min(ms);
        let start = Instant::now();
        let objective = mube.objective(spec).expect("paper spec is feasible");
        let full = solver.solve(&Unbounded(&objective), seed);
        full_ms = full_ms.min(start.elapsed().as_secs_f64() * 1e3);
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
        counts = (
            direct.stats.evaluations,
            direct.stats.match_calls,
            full.evaluations,
            objective.match_calls(),
        );
    }
    let (direct_evals, direct_match, full_evals, full_match) = counts;
    eprintln!(
        "  pruned {}: {direct_match} vs {full_match} Match(S) calls, \
         {direct_ms:.1} vs {full_ms:.1} ms",
        solver.name()
    );
    format!(
        "\"{}\": {{\"direct\": {{\"millis\": {:.3}, \"evaluations\": {}, \"match_calls\": {}}}, \
         \"full_scan\": {{\"millis\": {:.3}, \"evaluations\": {}, \"match_calls\": {}}}}}",
        solver.name(),
        direct_ms,
        direct_evals,
        direct_match,
        full_ms,
        full_evals,
        full_match,
    )
}

fn hit_rate(cache_hits: u64, evaluations: u64) -> f64 {
    if evaluations == 0 {
        0.0
    } else {
        cache_hits as f64 / evaluations as f64
    }
}

fn arm_json(millis: f64, s: &Solution) -> String {
    format!(
        "{{\"millis\": {:.3}, \"evaluations\": {}, \"match_calls\": {}, \"cache_hits\": {}, \
         \"hit_rate\": {:.4}, \"evictions\": {}, \"quality\": {:.6}}}",
        millis,
        s.stats.evaluations,
        s.stats.match_calls,
        s.stats.cache_hits,
        hit_rate(s.stats.cache_hits, s.stats.evaluations),
        s.stats.evictions,
        s.overall_quality,
    )
}

fn bench_size(size: usize, reps: u32, out: &mut String) {
    eprintln!("== n = {size} sources ==");
    let generated = universe(size, 7, Scale::Reduced);
    let mube = engine(&generated);
    let spec = paper_spec(10);
    let seed = 7u64;

    // Serial reference (best-of-`reps` wall clock), plus the byte-identical
    // re-run contract: every repetition must reproduce the first exactly.
    let (mut serial_ms, serial) = timed_solve(&mube, &spec, &TabuSearch::quick(), seed);
    for _ in 1..reps.max(2) {
        let (ms, again) = timed_solve(&mube, &spec, &TabuSearch::quick(), seed);
        assert_eq!(
            serial.selected, again.selected,
            "serial solve not reproducible"
        );
        assert_eq!(serial.overall_quality, again.overall_quality);
        assert_eq!(serial.stats.evaluations, again.stats.evaluations);
        serial_ms = serial_ms.min(ms);
    }

    // Multistart baseline: every member, every round, cold caches, serially.
    let multistart_start = Instant::now();
    let mut multi_quality = f64::NEG_INFINITY;
    let mut multi_match_calls = 0u64;
    let mut multi_evals = 0u64;
    for round in 0..u64::from(ROUNDS) {
        for (i, member) in members().iter().enumerate() {
            let (_, s) = timed_solve(
                &mube,
                &spec,
                member.as_ref(),
                seed ^ (round * 31 + i as u64),
            );
            multi_quality = multi_quality.max(s.overall_quality);
            multi_match_calls += s.stats.match_calls;
            multi_evals += s.stats.evaluations;
        }
    }
    let multistart_ms = multistart_start.elapsed().as_secs_f64() * 1e3;

    // Portfolio arm: same members and rounds, one shared objective.
    let portfolio = Portfolio {
        members: members(),
        rounds: ROUNDS,
        cross_seed: true,
    };
    let portfolio_start = Instant::now();
    let best = mube
        .solve(&spec, &portfolio, seed)
        .expect("paper spec is feasible");
    let portfolio_ms = portfolio_start.elapsed().as_secs_f64() * 1e3;
    let member_stats = portfolio
        .run(
            &mube.objective(&spec).expect("paper spec is feasible"),
            seed,
        )
        .members;

    // Pruned arm: best-leaf-bound-first greedy and tabu vs the full scan.
    let pruned: Vec<String> = [
        Box::new(Greedy) as Box<dyn Solver>,
        Box::new(TabuSearch::quick()),
    ]
    .iter()
    .map(|solver| pruned_arm(&mube, &spec, solver.as_ref(), seed, reps))
    .collect();

    let speedup_portfolio = multistart_ms / portfolio_ms.max(1e-9);
    eprintln!(
        "  serial {serial_ms:.1} ms | multistart {multistart_ms:.1} ms | portfolio {portfolio_ms:.1} ms \
         ({speedup_portfolio:.2}x, winner {}, hit rate {:.0}%)",
        best.stats.portfolio_member.unwrap_or("-"),
        100.0 * hit_rate(best.stats.cache_hits, best.stats.evaluations),
    );

    let member_body: Vec<String> = member_stats
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"objective\": {:.6}, \"evaluations\": {}, \"won\": {}}}",
                m.name, m.objective, m.evaluations, m.won
            )
        })
        .collect();
    let _ = write!(
        out,
        "    {{\"sources\": {}, \"attrs\": {}, \
         \"serial\": {}, \
         \"multistart\": {{\"millis\": {:.3}, \"evaluations\": {}, \"match_calls\": {}, \
         \"best_quality\": {:.6}}}, \
         \"portfolio\": {{\"millis\": {:.3}, \"winner\": \"{}\", \"arm\": {}, \
         \"members\": [{}]}}, \
         \"pruned\": {{{}, \"pruned_identical\": true}}, \
         \"speedup_portfolio\": {:.3}}}",
        size,
        generated.universe.total_attrs(),
        arm_json(serial_ms, &serial),
        multistart_ms,
        multi_evals,
        multi_match_calls,
        multi_quality,
        portfolio_ms,
        best.stats.portfolio_member.unwrap_or("-"),
        arm_json(portfolio_ms, &best),
        member_body.join(", "),
        pruned.join(", "),
        speedup_portfolio,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_solve.json".to_owned());
    let (sizes, reps): (&[usize], u32) = if smoke {
        (&[30], 1)
    } else {
        (&[50, 100, 200, 400], 3)
    };
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut body = String::new();
    for (i, &size) in sizes.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        bench_size(size, reps, &mut body);
    }
    let json = format!(
        "{{\n  \"bench\": \"solve_portfolio\",\n  \"mode\": \"{}\",\n  \"scale\": \"reduced\",\n  \
         \"host_parallelism\": {},\n  \"rounds\": {},\n  \
         \"units\": {{\"millis\": \"best-of-reps wall clock (serial/pruned); single-run (multistart/portfolio)\"}},\n  \
         \"note\": \"speedup_portfolio measures the shared Q(S) cache vs cold multistart on any host\",\n  \
         \"sizes\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        host_parallelism,
        ROUNDS,
        body
    );
    std::fs::write(&out_path, &json).expect("write BENCH json");
    // Cheap schema-rot guard: the artifact must contain every key a reader
    // of the perf trajectory greps for.
    for key in [
        "speedup_portfolio",
        "hit_rate",
        "winner",
        "host_parallelism",
        "evictions",
        "pruned_identical",
    ] {
        assert!(json.contains(key), "BENCH json lost key {key}");
    }
    println!("wrote {out_path}");
}
