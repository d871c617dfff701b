//! `mubed` — the µBE session daemon.
//!
//! Hosts one universe snapshot and any number of concurrent user
//! sessions over it, driven by the newline-delimited JSON protocol of
//! `mube-serve` (one request object per line; responses echo the
//! request's `"id"`, so clients may pipeline — in particular `"cancel"`
//! while a `"solve"` is in flight).
//!
//! ```text
//! mubed --universe FILE            serve NDJSON on stdin/stdout
//! mubed --generate N [--seed S]    same, over a synthetic §7.1 universe
//! mubed ... --tcp ADDR             TCP listener instead of stdio
//! mubed --smoke                    self-contained concurrency demo:
//!                                  4 concurrent sessions + mid-solve
//!                                  cancels, then serial replays; exits
//!                                  non-zero unless every session's
//!                                  completed history is bit-identical
//!                                  to its single-threaded replay
//! ```
//!
//! The universe file format is the one `mube-cli generate` writes:
//! `name | cardinality | attr, attr, ... | key=value ...` per line.
//!
//! Example exchange:
//!
//! ```text
//! → {"id": 1, "cmd": "create-session", "max_sources": 3, "theta": 0.5}
//! ← {"id":1,"ok":true,"session":0}
//! → {"id": 2, "cmd": "solve", "session": 0}
//! ← {"id":2,"iteration":1,"ok":true,"solution":{...,"quality_bits":"..."}}
//! ```

use std::io::BufReader;
use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::Arc;

use mube::datagen::UniverseConfig;
use mube::prelude::*;
use mube::serve::{serve_connection, Json, SessionHost, SessionSpec};
use mube::universe_file::parse_universe;
use mube_serve::proto::{Command, Edit, Request};

const USAGE: &str = "\
usage:
  mubed --universe FILE [--tcp ADDR]
  mubed --generate N [--seed S] [--tcp ADDR]
  mubed --smoke
protocol: one JSON request per line; see crates/serve/src/proto.rs";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--smoke") {
        return smoke();
    }
    let universe = load_universe(args)?;
    eprintln!(
        "mubed: building snapshot over {} sources / {} attributes ...",
        universe.len(),
        universe.total_attrs()
    );
    let host = Arc::new(SessionHost::new(MubeBuilder::new(&universe).build()));
    eprintln!("mubed: snapshot ready");
    match flag_value(args, "--tcp") {
        Some(addr) => serve_tcp(&host, addr),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_connection(&host, stdin.lock(), stdout)
                .map_err(|e| format!("stdio transport failed: {e}"))?;
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn load_universe(args: &[String]) -> Result<Universe, String> {
    if let Some(path) = flag_value(args, "--universe") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        return parse_universe(&text);
    }
    if let Some(n) = flag_value(args, "--generate") {
        let sources: usize = n.parse().map_err(|e| format!("invalid --generate: {e}"))?;
        let seed: u64 = match flag_value(args, "--seed") {
            None => 42,
            Some(s) => s.parse().map_err(|e| format!("invalid --seed: {e}"))?,
        };
        return Ok(UniverseConfig::small_test(sources, seed)
            .generate()
            .universe);
    }
    Err("need --universe FILE, --generate N, or --smoke".to_owned())
}

fn serve_tcp(host: &Arc<SessionHost>, addr: &str) -> Result<ExitCode, String> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    eprintln!("mubed: listening on {addr}");
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| format!("accept failed: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning connection: {e}"))?;
        let host = Arc::clone(host);
        std::thread::spawn(move || {
            let _ = serve_connection(&host, BufReader::new(reader), stream);
        });
    }
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------------ smoke

/// How many sessions the smoke run hosts concurrently.
const SMOKE_SESSIONS: usize = 4;
/// Completed iterations each session must accumulate.
const SMOKE_ITERATIONS: usize = 3;

/// One client's view of its session: the per-iteration fingerprints
/// (selected source names + exact quality bits) of *completed* solves,
/// plus how many attempts came back cancelled.
struct ClientOutcome {
    session: u64,
    seed: u64,
    fingerprints: Vec<(Vec<String>, String)>,
    cancelled_attempts: usize,
}

/// The concurrency demo: one snapshot, four sessions driven from four
/// client threads through the protocol dispatch layer, a canceller
/// thread firing mid-solve cancels the whole time — then a serial,
/// cancel-free replay of each session, which must match bit for bit.
fn smoke() -> Result<ExitCode, String> {
    let universe = UniverseConfig::small_test(24, 7).generate().universe;
    eprintln!(
        "mubed --smoke: {} sources, building one shared snapshot",
        universe.len()
    );
    let host = Arc::new(SessionHost::new(MubeBuilder::new(&universe).build()));

    // Clients first create their sessions (ids are assigned in creation
    // order, but each client keeps its own).
    let mut clients = Vec::new();
    for i in 0..SMOKE_SESSIONS {
        let seed = 3 + 2 * i as u64;
        let session = host
            .create_session(&SessionSpec {
                max_sources: 4,
                theta: 0.5,
                seed,
                solver: "tabu".to_owned(),
                weights: Vec::new(),
            })
            .map_err(|e| format!("create-session failed: {e}"))?;
        clients.push((session, seed));
    }

    // The canceller: fires every session's token in round-robin for a
    // bounded number of rounds, so early solves are observed mid-flight
    // and later ones run to completion (the run must terminate).
    let canceller = {
        let host = Arc::clone(&host);
        let sessions: Vec<u64> = clients.iter().map(|(s, _)| *s).collect();
        std::thread::spawn(move || {
            let mut fired = 0usize;
            for _ in 0..25 {
                for &session in &sessions {
                    let _ = host.cancel(session);
                    fired += 1;
                }
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
            fired
        })
    };

    let mut workers = Vec::new();
    for (session, seed) in clients {
        let host = Arc::clone(&host);
        let pin = smoke_pin(&universe, seed);
        workers.push(std::thread::spawn(move || {
            drive_client(&host, session, seed, &pin)
        }));
    }
    let outcomes: Vec<ClientOutcome> = workers
        .into_iter()
        .map(|w| w.join().map_err(|_| "client thread panicked".to_owned()))
        .collect::<Result<_, String>>()?;
    let cancels_fired = canceller.join().unwrap_or(0);

    // Serial replay: fresh sessions over the same engine, same seeds and
    // edit script, no cancels, one at a time.
    let mut all_identical = true;
    let total_cancelled: usize = outcomes.iter().map(|o| o.cancelled_attempts).sum();
    for outcome in &outcomes {
        let replay = replay_serial(host.engine(), outcome.seed)?;
        let identical = replay == outcome.fingerprints;
        all_identical &= identical;
        println!(
            "session {} (seed {}): {} completed iterations, {} cancelled attempts, \
             replay bit-identical: {}",
            outcome.session,
            outcome.seed,
            outcome.fingerprints.len(),
            outcome.cancelled_attempts,
            identical
        );
    }
    println!(
        "mubed --smoke: {SMOKE_SESSIONS} concurrent sessions over one snapshot, \
         {cancels_fired} cancels fired ({total_cancelled} landed mid-solve), \
         all replays bit-identical: {all_identical}"
    );
    if all_identical {
        Ok(ExitCode::SUCCESS)
    } else {
        Err("concurrent histories diverged from serial replays".to_owned())
    }
}

/// The per-iteration edit script, identical for the live run and the
/// replay: a weights nudge after the first completed iteration, a source
/// pin after the second.
fn smoke_edit(step: usize, pin: &str) -> Option<Edit> {
    match step {
        1 => Some(Edit::SetWeights(vec![
            ("matching".to_owned(), 0.24),
            ("cardinality".to_owned(), 0.26),
            ("coverage".to_owned(), 0.2),
            ("redundancy".to_owned(), 0.15),
            ("mttf".to_owned(), 0.15),
        ])),
        2 => Some(Edit::RequireSource(pin.to_owned())),
        _ => None,
    }
}

/// Which source a session's script pins: picked from the universe by the
/// session's seed, so each session exercises a different constraint.
fn smoke_pin(universe: &Universe, seed: u64) -> String {
    let index = (seed as usize) % universe.len();
    universe.sources()[index].name().to_owned()
}

/// Drives one session through the host's dispatch layer: keeps issuing
/// `solve` until the required number of iterations *complete*, applying
/// the edit script between completed iterations. Cancelled attempts are
/// counted and retried — by the session contract they must not perturb
/// the completed history.
fn drive_client(host: &Arc<SessionHost>, session: u64, seed: u64, pin: &str) -> ClientOutcome {
    let (tx, rx) = mpsc::channel();
    let mut fingerprints = Vec::new();
    let mut cancelled_attempts = 0usize;
    let mut next_request = 1u64;
    while fingerprints.len() < SMOKE_ITERATIONS {
        if let Some(edit) = smoke_edit(fingerprints.len(), pin) {
            // Idempotence matters here: a retried attempt must not
            // re-apply the edit, so edits key off completed count and the
            // script only fires when the count first reaches the step.
            host.handle_request(
                Request {
                    id: next_request,
                    command: Command::EditConstraints {
                        session,
                        edits: vec![edit],
                    },
                },
                &tx,
            );
            next_request += 1;
            let ack = rx.recv().expect("edit response");
            let ack = Json::parse(&ack).expect("edit response is json");
            assert_eq!(
                ack.get("ok"),
                Some(&Json::Bool(true)),
                "edit failed: {ack:?}"
            );
        }
        host.handle_request(
            Request {
                id: next_request,
                command: Command::Solve { session },
            },
            &tx,
        );
        next_request += 1;
        let line = rx.recv().expect("solve response");
        let response = Json::parse(&line).expect("solve response is json");
        if response.get("ok") != Some(&Json::Bool(true)) {
            // Cancelled before any feasible incumbent: retry.
            cancelled_attempts += 1;
            continue;
        }
        let solution = response.get("solution").expect("solution member");
        if solution.get("cancelled") == Some(&Json::Bool(true)) {
            cancelled_attempts += 1;
            // The protocol still returned an audited incumbent: it must
            // be internally sane even though it will not enter history.
            let quality = solution
                .get("quality")
                .and_then(Json::as_f64)
                .expect("quality");
            assert!(quality.is_finite(), "cancelled incumbent has junk quality");
            continue;
        }
        let selected: Vec<String> = solution
            .get("selected")
            .and_then(Json::as_arr)
            .expect("selected member")
            .iter()
            .filter_map(|s| s.as_str().map(str::to_owned))
            .collect();
        let bits = solution
            .get("quality_bits")
            .and_then(Json::as_str)
            .expect("quality_bits member")
            .to_owned();
        fingerprints.push((selected, bits));
    }
    ClientOutcome {
        session,
        seed,
        fingerprints,
        cancelled_attempts,
    }
}

/// The single-threaded, cancel-free replay of one client's script.
fn replay_serial(mube: &Mube, seed: u64) -> Result<Vec<(Vec<String>, String)>, String> {
    let universe = mube.universe().clone();
    let pin = smoke_pin(&universe, seed);
    let mut session = Session::new(mube, ProblemSpec::new(4).with_theta(0.5)).with_seed(seed);
    let mut out = Vec::new();
    for step in 0..SMOKE_ITERATIONS {
        match smoke_edit(step, &pin) {
            Some(Edit::SetWeights(pairs)) => {
                session.set_weights(
                    Weights::normalized(pairs).map_err(|e| format!("replay weights: {e}"))?,
                );
            }
            Some(Edit::RequireSource(name)) => {
                let id = universe
                    .sources()
                    .iter()
                    .find(|s| s.name() == name)
                    .map(|s| s.id())
                    .ok_or_else(|| format!("replay: no source named {name:?}"))?;
                session.require_source(id);
            }
            Some(_) => return Err("replay: unhandled edit kind".to_owned()),
            None => {}
        }
        let solution = session
            .iterate()
            .map_err(|e| format!("replay solve: {e}"))?;
        let selected = solution
            .selected
            .iter()
            .map(|id| universe.expect_source(*id).name().to_owned())
            .collect();
        out.push((
            selected,
            format!("{:016x}", solution.overall_quality.to_bits()),
        ));
    }
    Ok(out)
}
