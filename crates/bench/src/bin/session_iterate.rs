//! Perf trajectory for the delta-aware session core: regenerates
//! `BENCH_session.json`.
//!
//! Replays one scripted 6-iteration user-feedback trace — the paper's §6
//! iterate–inspect–refine loop — through two arms per universe size:
//!
//! * `cold` — every iteration is a separate `Mube::solve` of the edited
//!   spec, with the seed and warm start a `Session` would use: each one
//!   evaluates into a fresh, discarded memo store, exactly the pre-arena
//!   behaviour.
//! * `arena` — a `Session` with its persistent [`EvalArena`]: component
//!   vectors survive iterations and are selectively invalidated by the
//!   classified spec delta, so the weights-only steps of the script
//!   recombine cached vectors instead of rerunning `Match(S)`.
//!
//! [`EvalArena`]: mube_core::EvalArena
//!
//! The script covers every delta class: a cold first solve, two
//! weights-only perturbations (the paper's §7.4 observation — "perturbing
//! the weights caused at most 1 GA to change" — presumes exactly such small
//! nudges), a feasibility-only source pin, a match-invalidating θ
//! tightening, and a final weights-only edit on the partially flushed
//! arena. Both arms run the same solver and seed; the harness asserts the
//! two histories are bit-identical (selection, quality bits, schema) on
//! every run — the arena must change how much is recomputed, never what.
//!
//! The solver is greedy forward selection: deterministic and
//! seed-independent, so its evaluation path repeats across iterations
//! whenever the chosen prefix coincides. That isolates the arena effect
//! from stochastic neighborhood noise — a randomized solver (tabu) samples
//! nearly disjoint subsets each iteration, which measures the solver's RNG,
//! not the memo store.
//!
//! Usage:
//!   cargo run --release -p mube-bench --bin session_iterate
//!   cargo run --release -p mube-bench --bin session_iterate -- --smoke --out target/BENCH_session.smoke.json

use mube_bench::{
    engine, fingerprint, paper_spec, source_constraints, timed, universe, Run, Scale,
};
use mube_core::{Mube, ProblemSpec, Session, Solution, SpecDelta};
use mube_opt::{Greedy, Solver};
use mube_qef::Weights;
use mube_schema::SourceId;
use mube_serve::json::{obj, Json};

/// One scripted feedback edit, applied before the corresponding iteration.
enum Feedback {
    /// No edit (the first iteration, and the unchanged re-run).
    None,
    /// Weights-only: recombination territory.
    Weights(&'static str, [f64; 5]),
    /// Feasibility-only: pin a source.
    RequireSource(SourceId),
    /// Match-invalidating: tighten θ.
    Theta(f64),
}

impl Feedback {
    fn label(&self) -> String {
        match self {
            Feedback::None => "none".to_owned(),
            Feedback::Weights(name, _) => format!("weights:{name}"),
            Feedback::RequireSource(id) => format!("require_source:{id}"),
            Feedback::Theta(t) => format!("theta:{t}"),
        }
    }

    fn apply(&self, session: &mut Session) {
        match self {
            Feedback::None => {}
            Feedback::Weights(_, w) => {
                session.set_weights(weights(w));
            }
            Feedback::RequireSource(id) => {
                session.require_source(*id);
            }
            Feedback::Theta(t) => {
                session.set_theta(*t).expect("script theta is valid");
            }
        }
    }

    /// [`Feedback::apply`] on a bare spec, for the cold arm.
    fn apply_to(&self, spec: &mut ProblemSpec) {
        match self {
            Feedback::None => {}
            Feedback::Weights(_, w) => spec.weights = weights(w),
            Feedback::RequireSource(id) => {
                spec.constraints.require_source(*id);
            }
            Feedback::Theta(t) => spec.match_config.theta = *t,
        }
    }
}

/// A script weight vector over the five weighted QEFs.
fn weights(w: &[f64; 5]) -> Weights {
    let names = ["matching", "cardinality", "coverage", "redundancy", "mttf"];
    Weights::new(names.into_iter().zip(w.iter().copied())).expect("script weights are valid")
}

/// The 6-step feedback script. The weight edits are §7.4-style
/// perturbations around the paper defaults `[.25, .25, .20, .15, .15]` —
/// the realistic inner loop is nudging, not upending, the weight vector.
/// Step 4 pins a conformant source so the problem stays feasible at every
/// size.
fn script(pin: SourceId) -> Vec<Feedback> {
    vec![
        Feedback::None,
        Feedback::Weights("coverage-nudge", [0.24, 0.24, 0.24, 0.14, 0.14]),
        Feedback::Weights("cardinality-nudge", [0.23, 0.28, 0.22, 0.14, 0.13]),
        Feedback::RequireSource(pin),
        Feedback::Theta(0.7),
        Feedback::Weights("defaults-restored", [0.25, 0.25, 0.20, 0.15, 0.15]),
    ]
}

fn delta_name(delta: Option<SpecDelta>) -> &'static str {
    match delta {
        None => "fresh",
        Some(SpecDelta::Unchanged) => "unchanged",
        Some(SpecDelta::WeightsOnly) => "weights_only",
        Some(SpecDelta::FeasibilityOnly) => "feasibility_only",
        Some(SpecDelta::MatchInvalidating) => "match_invalidating",
    }
}

/// Runs one whole scripted session; returns per-iteration wall clocks and
/// solutions, plus the arena's entry count and owned bytes at the end.
fn run_session(mube: &Mube, pin: SourceId, seed: u64) -> (Vec<(f64, Solution)>, (usize, usize)) {
    let mut session = Session::new(mube, paper_spec(10))
        .with_solver(Box::new(Greedy))
        .with_seed(seed);
    let mut out = Vec::new();
    for step in script(pin) {
        step.apply(&mut session);
        let (millis, solution) = timed(|| session.iterate().expect("scripted trace is feasible"));
        out.push((millis, solution.clone()));
    }
    let arena = session.arena();
    (out, (arena.len(), arena.heap_bytes()))
}

/// The same script as [`run_session`], each iteration a separate
/// `Mube::solve` with the seed (`seed + k`) and warm start a session uses.
fn run_cold(mube: &Mube, pin: SourceId, seed: u64) -> Vec<(f64, Solution)> {
    let mut spec = paper_spec(10);
    let mut out: Vec<(f64, Solution)> = Vec::new();
    for (k, step) in script(pin).into_iter().enumerate() {
        step.apply_to(&mut spec);
        let warm = out.last().and_then(|(_, last)| {
            let items: Vec<usize> = last.selected.iter().map(|s| s.index()).collect();
            Greedy.with_warm_start(&items)
        });
        let solver: &dyn Solver = warm.as_deref().unwrap_or(&Greedy);
        out.push(timed(|| {
            mube.solve(&spec, solver, seed + k as u64)
                .expect("scripted trace is feasible")
        }));
    }
    out
}

/// The solutions of a timed history, in order.
fn solutions(history: &[(f64, Solution)]) -> impl Iterator<Item = &Solution> {
    history.iter().map(|(_, s)| s)
}

fn bench_size(size: usize, reps: u32) -> Json {
    eprintln!("== n = {size} sources ==");
    let generated = universe(size, 7, Scale::Reduced);
    let mube = engine(&generated);
    let pin = source_constraints(&generated, 1, 7)[0];
    let seed = 7u64;

    // Best-of-`reps` whole-session runs per arm; every repetition must
    // reproduce the first exactly, and the two arms must agree with each
    // other — the arena's bit-identity contract, asserted on every run.
    let mut cold = run_cold(&mube, pin, seed);
    let (mut warm, mut arena_size) = run_session(&mube, pin, seed);
    let expected = fingerprint(solutions(&cold));
    assert_eq!(
        expected,
        fingerprint(solutions(&warm)),
        "arena-backed session diverged from cold session"
    );
    for _ in 1..reps {
        let cold_again = run_cold(&mube, pin, seed);
        let (warm_again, size_again) = run_session(&mube, pin, seed);
        assert_eq!(
            expected,
            fingerprint(solutions(&cold_again)),
            "cold session not reproducible"
        );
        assert_eq!(
            expected,
            fingerprint(solutions(&warm_again)),
            "arena session not reproducible"
        );
        // Each iteration keeps its fastest time across the repetitions.
        for (best, again) in cold.iter_mut().zip(cold_again) {
            best.0 = best.0.min(again.0);
        }
        for (best, again) in warm.iter_mut().zip(warm_again) {
            best.0 = best.0.min(again.0);
        }
        arena_size = size_again;
    }
    let (final_entries, final_bytes) = arena_size;

    let totals = |h: &[(f64, Solution)]| {
        (
            h.iter().map(|(ms, _)| ms).sum::<f64>(),
            h.iter().map(|(_, s)| s.stats.match_calls).sum::<u64>(),
            h.iter().map(|(_, s)| s.stats.evaluations).sum::<u64>(),
        )
    };
    let (cold_ms, cold_matches, cold_evals) = totals(&cold);
    let (warm_ms, warm_matches, warm_evals) = totals(&warm);

    let steps = script(pin)
        .into_iter()
        .zip(cold.iter().zip(&warm))
        .enumerate()
        .map(|(i, (step, ((cold_ms, cold_sol), (warm_ms, warm_sol))))| {
            let ws = &warm_sol.stats;
            obj([
                ("step", (i + 1).into()),
                ("feedback", step.label().into()),
                ("spec_delta", delta_name(ws.spec_delta).into()),
                ("quality", warm_sol.overall_quality.into()),
                ("warm_start", ws.warm_start.into()),
                (
                    "cold",
                    obj([
                        ("millis", (*cold_ms).into()),
                        ("match_calls", cold_sol.stats.match_calls.into()),
                    ]),
                ),
                (
                    "arena",
                    obj([
                        ("millis", (*warm_ms).into()),
                        ("match_calls", ws.match_calls.into()),
                        ("cache_hits", ws.cache_hits.into()),
                        ("reused", ws.reused.into()),
                        ("recombined", ws.recombined.into()),
                        ("invalidated", ws.invalidated.into()),
                    ]),
                ),
            ])
        });

    obj([
        ("sources", size.into()),
        ("attrs", generated.universe.total_attrs().into()),
        (
            "cold",
            obj([
                ("total_millis", cold_ms.into()),
                ("match_calls", cold_matches.into()),
                ("evaluations", cold_evals.into()),
            ]),
        ),
        (
            "arena",
            obj([
                ("total_millis", warm_ms.into()),
                ("match_calls", warm_matches.into()),
                ("evaluations", warm_evals.into()),
                ("final_entries", final_entries.into()),
                ("final_bytes", final_bytes.into()),
            ]),
        ),
        ("iterations", Json::Arr(steps.collect())),
    ])
}

fn main() {
    let run = Run::from_args("session_iterate").expect("usage: [--smoke] [--out <path>]");
    let (sizes, reps): (&[usize], u32) = if run.smoke {
        (&[40], 1)
    } else {
        (&[100, 200, 400], 2)
    };
    let rows: Vec<Json> = sizes.iter().map(|&size| bench_size(size, reps)).collect();
    run.write([
        ("scale", "reduced".into()),
        ("iterations_per_session", script(SourceId(0)).len().into()),
        (
            "determinism",
            "cold and arena histories bit-identical, reruns byte-equal (asserted every run)".into(),
        ),
        (
            "units",
            obj([
                ("millis", "best-of-reps wall clock per iteration".into()),
                (
                    "final_bytes",
                    "bytes the arena's entries own after the last iteration \
                     (EvalArena::heap_bytes: records, keys and slices, no allocator \
                     or map-node overhead)"
                        .into(),
                ),
            ]),
        ),
        (
            "note",
            "cold solves each iteration separately, arena keeps one session; weights_only steps \
             recombine cached component vectors instead of rerunning Match wherever the greedy \
             path revisits a subset (down to zero Match calls when the path fully coincides)"
                .into(),
        ),
        ("sizes", rows.into()),
    ])
    .expect("artifact written");
}
