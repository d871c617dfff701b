//! Multi-tenancy trajectory for the owned-snapshot engine: regenerates
//! `BENCH_tenancy.json`.
//!
//! The §15 serving design claims two things worth numbers:
//!
//! * **Amortization** — the snapshot (interning, gram signatures, the
//!   similarity triangle, sketches) is built once per universe and shared
//!   by `Arc`, so its cost divides across every session served. The
//!   harness reports the build cost next to the mean session cost.
//! * **Tenancy scaling** — sessions share nothing mutable, so N sessions
//!   on N threads should cost roughly one session's wall clock, not N.
//!   The harness runs the same 8-session workload serially (one thread,
//!   back to back) and concurrently (one thread per session) and reports
//!   both wall clocks.
//!
//! Both arms run identical per-session scripts (3 iterations: cold solve,
//! weights nudge, source pin — one of each §10 delta class that matters
//! under warm starts) with per-session seeds, and the harness asserts on
//! every run that the concurrent histories are *bit-identical* (selection,
//! quality bits, schema) to the serial ones, and that per-session arena
//! entry counts match — concurrency must change wall clock only, never
//! results and never another session's memo store. The artifact carries
//! `"replay_bit_identical": true` only because that assertion passed, and
//! the bench contract requires it of every row.
//!
//! Usage:
//!   cargo run --release -p mube-bench --bin tenancy
//!   cargo run --release -p mube-bench --bin tenancy -- --smoke --out target/BENCH_tenancy.smoke.json

use mube_bench::{
    engine, fingerprint, paper_spec, source_constraints, timed, universe, Fingerprint, Run, Scale,
};
use mube_core::{Mube, Session, Solution};
use mube_qef::Weights;
use mube_schema::SourceId;
use mube_serve::json::{obj, Json};

const SESSIONS: usize = 8;
const ITERATIONS: usize = 3;

/// Runs one scripted session to completion. Returns its history, its wall
/// clock in milliseconds, and the final arena entry count.
fn run_session(mube: &Mube, pin: SourceId, seed: u64) -> (Vec<Solution>, f64, usize) {
    let (millis, (history, session)) = timed(|| {
        let mut session = Session::new(mube, paper_spec(5)).with_seed(seed);
        let mut history = Vec::with_capacity(ITERATIONS);
        for step in 0..ITERATIONS {
            match step {
                1 => {
                    session.set_weights(
                        Weights::new([
                            ("matching", 0.24),
                            ("cardinality", 0.26),
                            ("coverage", 0.20),
                            ("redundancy", 0.15),
                            ("mttf", 0.15),
                        ])
                        .expect("script weights are valid"),
                    );
                }
                2 => {
                    session.require_source(pin);
                }
                _ => {}
            }
            let solution = session.iterate().expect("scripted trace is feasible");
            history.push(solution.clone());
        }
        (history, session)
    });
    let entries = session.arena().len();
    (history, millis, entries)
}

/// One session's identity within the workload: seed and pinned source.
fn tenant(pins: &[SourceId], index: usize) -> (SourceId, u64) {
    (pins[index % pins.len()], 11 + 3 * index as u64)
}

/// One repetition of the workload: serial and concurrent wall clock, and
/// each session's serial wall clock, arena entry count and fingerprint.
struct Rep {
    serial_millis: f64,
    concurrent_millis: f64,
    session_millis: Vec<f64>,
    arena_entries: Vec<usize>,
    fingerprints: Vec<Fingerprint>,
}

fn workload(mube: &Mube, pins: &[SourceId]) -> Rep {
    // Serial arm: the 8 sessions back to back on this thread.
    let (serial_millis, serial) = timed(|| {
        (0..SESSIONS)
            .map(|i| {
                let (pin, seed) = tenant(pins, i);
                run_session(mube, pin, seed)
            })
            .collect::<Vec<_>>()
    });

    // Concurrent arm: the same 8 sessions, one thread each, all over the
    // one shared snapshot.
    let (concurrent_millis, concurrent) = timed(|| {
        let workers: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let mube = mube.clone();
                let (pin, seed) = tenant(pins, i);
                std::thread::spawn(move || run_session(&mube, pin, seed))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("session thread panicked"))
            .collect::<Vec<_>>()
    });

    // The determinism gate: concurrency must not perturb a single bit of
    // any session's history, nor leak entries between arenas.
    for (i, ((sh, _, se), (ch, _, ce))) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(
            fingerprint(sh),
            fingerprint(ch),
            "session {i}: concurrent history diverged from serial"
        );
        assert_eq!(se, ce, "session {i}: arena entry counts diverged");
    }
    Rep {
        serial_millis,
        concurrent_millis,
        session_millis: serial.iter().map(|(_, ms, _)| *ms).collect(),
        arena_entries: serial.iter().map(|(_, _, n)| *n).collect(),
        fingerprints: serial.iter().map(|(h, _, _)| fingerprint(h)).collect(),
    }
}

fn bench_size(size: usize, reps: u32) -> Json {
    eprintln!("== n = {size} sources, {SESSIONS} sessions ==");
    let generated = universe(size, 7, Scale::Reduced);

    // Snapshot build, timed separately from serving: the whole point of
    // the owned-Arc design is that this line runs once per universe, not
    // once per session.
    let (build_millis, mube) = timed(|| engine(&generated));
    let pins = source_constraints(&generated, 4, 7);

    // Best of `reps` by the concurrent arm; the serial workload must
    // reproduce itself exactly across reps.
    let reps: Vec<Rep> = (0..reps.max(1)).map(|_| workload(&mube, &pins)).collect();
    for rep in &reps[1..] {
        assert_eq!(
            reps[0].fingerprints, rep.fingerprints,
            "serial workload not reproducible across reps"
        );
    }
    let best = reps
        .iter()
        .min_by(|a, b| a.concurrent_millis.total_cmp(&b.concurrent_millis))
        .expect("at least one rep");

    let session_mean =
        best.session_millis.iter().sum::<f64>() / best.session_millis.len().max(1) as f64;

    obj([
        ("sources", size.into()),
        ("attrs", generated.universe.total_attrs().into()),
        ("sessions", SESSIONS.into()),
        ("iterations_per_session", ITERATIONS.into()),
        ("snapshot_build_millis", build_millis.into()),
        ("serial_millis", best.serial_millis.into()),
        ("concurrent_millis", best.concurrent_millis.into()),
        ("session_mean_millis", session_mean.into()),
        ("arena_entries", best.arena_entries.clone().into()),
        ("replay_bit_identical", true.into()),
    ])
}

fn main() {
    let run = Run::from_args("tenancy").expect("usage: [--smoke] [--out <path>]");
    let (sizes, reps): (&[usize], u32) = if run.smoke {
        (&[40], 1)
    } else {
        (&[100, 200], 2)
    };
    let rows: Vec<Json> = sizes.iter().map(|&size| bench_size(size, reps)).collect();
    run.write([
        ("scale", "reduced".into()),
        (
            "workload",
            format!(
                "{SESSIONS} sessions x {ITERATIONS} iterations (solve, weights nudge, source \
                 pin), per-session seeds, one shared snapshot"
            )
            .into(),
        ),
        (
            "determinism",
            "concurrent histories and arena entry counts bit-identical to serial replay \
             (asserted every run)"
                .into(),
        ),
        (
            "units",
            obj([(
                "millis",
                "wall clock, best-of-reps by concurrent arm".into(),
            )]),
        ),
        (
            "note",
            format!(
                "serial_millis is 1 thread and concurrent_millis {SESSIONS} threads for the same \
                 workload; their ratio tracks host_threads (~1.0 on a single-core host, where the \
                 concurrent arm only demonstrates fair sharing); the asserted contract is \
                 replay_bit_identical, not speed"
            )
            .into(),
        ),
        ("sizes", rows.into()),
    ])
    .expect("artifact written");
}
