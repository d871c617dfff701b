//! The session host: N concurrent user sessions over one shared snapshot.
//!
//! A [`SessionHost`] owns one [`Mube`] engine handle — an `Arc` over the
//! immutable [`UniverseSnapshot`](mube_core::UniverseSnapshot) — and a
//! registry of live sessions. Each session runs on its own worker thread
//! that *owns* its [`Session`] (spec, history, seed stream, evaluation
//! arena); commands travel to the worker over an mpsc queue, and replies
//! travel back over the per-request reply sender the caller attached.
//! Nothing about a session is shared between threads except the snapshot
//! (immutable) and the session's [`CancelToken`] (a single atomic epoch),
//! so concurrent sessions are bit-identical to the same sessions run one
//! at a time — the multi-tenant hammer test and the tenancy benchmark
//! both assert exactly that.
//!
//! Command ordering: everything a worker does (edits, solves, inspects)
//! is serialized by its queue, in arrival order. The one exception is
//! [`SessionHost::cancel`], which *bypasses* the queue: it fires the
//! session's cancel token directly from the caller's thread, so a cancel
//! issued while a solve is in flight stops that solve at its next
//! checkpoint instead of waiting behind it. A cancel that lands between
//! solves is harmless — each solve captures the token's epoch when it
//! arms, so stale cancellations never abort later work.
//!
//! The registry itself is the crate's only lock (registered in the
//! workspace lock lint): a mutex around the id → handle map, held only
//! for lookups and insertions, never across a solve or a send.

use std::any::Any;
use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use mube_core::{Mube, MubeError, ProblemSpec, Session};
use mube_opt::{
    BinaryPso, CancelToken, Exhaustive, Greedy, RandomSearch, SimulatedAnnealing, Solver,
    StochasticLocalSearch, TabuSearch,
};
use mube_qef::Weights;
use mube_schema::{AttrId, GaConstraint, SourceId, Universe};

use crate::json::Json;
use crate::proto::{
    error_response, ok_response, parse_request, render_diff, render_solution, Command, Edit,
    Request, SessionSpec,
};

/// Recovers a lock guard from a poisoned lock: the registry map is always
/// internally consistent (every update completes under one guard), so a
/// panicking sibling thread must not wedge the host.
fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// A queued unit of work for one session's worker thread. Each job
/// carries the request id it answers and the reply sender its response
/// line goes to, so responses from concurrent sessions interleave freely
/// on the transport without ever mixing up correlation ids.
pub struct Job {
    /// Request id to echo.
    pub id: u64,
    /// Where the response line goes.
    pub reply: Sender<String>,
    /// What the worker does.
    pub work: Work,
}

/// The session commands a worker runs, in queue order.
pub enum Work {
    /// Apply user-feedback edits, in application order, to the spec.
    Edit(Vec<Edit>),
    /// Run one iteration (replies when the solve finishes or is
    /// cancelled).
    Solve,
    /// Report spec, history, and latest solution.
    Inspect,
    /// Diff the two most recent solutions.
    Diff,
}

struct SessionHandle {
    jobs: Sender<Job>,
    cancel: CancelToken,
    worker: JoinHandle<()>,
}

/// N concurrent µBE sessions over one shared universe snapshot.
pub struct SessionHost {
    mube: Mube,
    next_id: AtomicU64,
    sessions: Mutex<BTreeMap<u64, SessionHandle>>,
}

impl SessionHost {
    /// Creates a host around an engine handle. The engine (and the
    /// snapshot it wraps) is the expensive part; every session the host
    /// creates shares it by `Arc`.
    pub fn new(mube: Mube) -> Self {
        Self {
            mube,
            next_id: AtomicU64::new(0),
            sessions: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared engine handle.
    pub fn engine(&self) -> &Mube {
        &self.mube
    }

    /// Live session ids, in creation order.
    pub fn session_ids(&self) -> Vec<u64> {
        let sessions = unpoison(self.sessions.lock());
        sessions.keys().copied().collect()
    }

    /// Starts a new session worker and returns its id.
    ///
    /// # Errors
    /// Unknown solver name, or invalid weights.
    pub fn create_session(&self, spec: &SessionSpec) -> Result<u64, String> {
        let solver = solver_by_name(&spec.solver)?;
        let weights = if spec.weights.is_empty() {
            default_weights(self.mube.universe())
        } else {
            Weights::normalized(spec.weights.iter().map(|(n, w)| (n.clone(), *w)))?
        };
        let problem = ProblemSpec::new(spec.max_sources)
            .with_weights(weights)
            .with_theta(spec.theta);
        let session = Session::new(&self.mube, problem)
            .with_solver(solver)
            .with_seed(spec.seed);
        let cancel = session.cancel_handle();
        let (tx, rx) = mpsc::channel();
        let mube = self.mube.clone();
        let worker = std::thread::spawn(move || worker_loop(mube, session, rx));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let handle = SessionHandle {
            jobs: tx,
            cancel,
            worker,
        };
        let mut sessions = unpoison(self.sessions.lock());
        sessions.insert(id, handle);
        Ok(id)
    }

    /// Enqueues a job on a session's worker.
    ///
    /// # Errors
    /// Unknown session id, or a worker that already exited.
    pub fn submit(&self, session: u64, job: Job) -> Result<(), String> {
        let jobs = {
            let sessions = unpoison(self.sessions.lock());
            match sessions.get(&session) {
                Some(handle) => handle.jobs.clone(),
                None => return Err(format!("no session {session}")),
            }
        };
        jobs.send(job)
            .map_err(|_| format!("session {session} worker is gone"))
    }

    /// Fires a session's cancel token, stopping its in-flight solve (if
    /// any) at the next checkpoint. Deliberately does **not** go through
    /// the job queue — that is the whole point: the queue is busy running
    /// the solve being cancelled.
    ///
    /// # Errors
    /// Unknown session id.
    pub fn cancel(&self, session: u64) -> Result<(), String> {
        let cancel = {
            let sessions = unpoison(self.sessions.lock());
            match sessions.get(&session) {
                Some(handle) => handle.cancel.clone(),
                None => return Err(format!("no session {session}")),
            }
        };
        cancel.cancel();
        Ok(())
    }

    /// Dispatches one parsed request, sending the response line (or
    /// lines, for solve errors) to `out`. Returns immediately for
    /// everything but session creation; solve responses arrive on `out`
    /// whenever the worker finishes.
    pub fn handle_request(&self, request: Request, out: &Sender<String>) {
        let id = request.id;
        let (session, work) = match request.command {
            Command::CreateSession(spec) => {
                let line = match self.create_session(&spec) {
                    Ok(session) => ok_response(id, vec![("session", Json::Num(session as f64))]),
                    Err(e) => error_response(id, &e),
                };
                // A dead transport just means nobody is listening any more.
                let _ = out.send(line);
                return;
            }
            Command::Cancel { session } => {
                let line = match self.cancel(session) {
                    Ok(()) => {
                        ok_response(id, vec![("cancelled_session", Json::Num(session as f64))])
                    }
                    Err(e) => error_response(id, &e),
                };
                let _ = out.send(line);
                return;
            }
            Command::EditConstraints { session, edits } => (session, Work::Edit(edits)),
            Command::Solve { session } => (session, Work::Solve),
            Command::Inspect { session } => (session, Work::Inspect),
            Command::Diff { session } => (session, Work::Diff),
        };
        let job = Job {
            id,
            reply: out.clone(),
            work,
        };
        if let Err(e) = self.submit(session, job) {
            let _ = out.send(error_response(id, &e));
        }
    }

    /// Stops every worker and waits for them to finish their queued jobs.
    /// In-flight solves run to completion (cancel first for a fast stop).
    pub fn shutdown(&self) {
        let drained = {
            let mut sessions = unpoison(self.sessions.lock());
            std::mem::take(&mut *sessions)
        };
        // Joining happens outside the lock: a worker finishing a long
        // solve must not block `cancel` calls from other threads.
        for (_, handle) in drained {
            drop(handle.jobs);
            let _ = handle.worker.join();
        }
    }
}

impl Drop for SessionHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Builds a solver from its protocol name.
///
/// # Errors
/// Unknown name; the message lists the valid ones.
pub fn solver_by_name(name: &str) -> Result<Box<dyn Solver>, String> {
    match name {
        "tabu" => Ok(Box::new(TabuSearch::default())),
        "sa" => Ok(Box::new(SimulatedAnnealing::default())),
        "pso" => Ok(Box::new(BinaryPso::default())),
        "sls" => Ok(Box::new(StochasticLocalSearch::default())),
        "greedy" => Ok(Box::new(Greedy)),
        "random" => Ok(Box::new(RandomSearch::default())),
        "exhaustive" => Ok(Box::new(Exhaustive::default())),
        other => Err(format!(
            "unknown solver {other:?} (want tabu, sa, pso, sls, greedy, random, or exhaustive)"
        )),
    }
}

/// Paper-style default weights restricted to QEFs this universe supports:
/// mttf only when at least one source declares the characteristic.
pub fn default_weights(universe: &Universe) -> Weights {
    let has_mttf = universe
        .sources()
        .iter()
        .any(|s| s.characteristic("mttf").is_some());
    let weights = if has_mttf {
        Ok(Weights::paper_defaults())
    } else {
        Weights::new([
            ("matching", 0.3),
            ("cardinality", 0.3),
            ("coverage", 0.25),
            ("redundancy", 0.15),
        ])
    };
    // The fallback vector is a compile-time constant; if it were invalid
    // every test in the workspace would fail. Degrade to paper defaults
    // rather than panicking in a server loop.
    weights.unwrap_or_else(|_| Weights::paper_defaults())
}

/// The per-session worker: owns the [`Session`], drains its queue in
/// order, exits when the host drops the sender.
///
/// A job that panics (a solver bug, or a debug build's audit failure) is
/// answered with an error naming the panic, and the session is marked
/// failed: the panic may have left it half-updated, so every later job on
/// it is answered with that failure instead of running.
fn worker_loop(mube: Mube, mut session: Session, jobs: Receiver<Job>) {
    let mut failed: Option<String> = None;
    while let Ok(Job { id, reply, work }) = jobs.recv() {
        let line = if let Some(failure) = &failed {
            error_response(id, &format!("session failed: {failure}"))
        } else {
            let job = AssertUnwindSafe(|| run_job(&mube, &mut session, id, work));
            panic::catch_unwind(job).unwrap_or_else(|payload| {
                let failure = format!(
                    "request {id} panicked the session worker: {}",
                    panic_message(&*payload)
                );
                let line = error_response(id, &failure);
                failed = Some(failure);
                line
            })
        };
        let _ = reply.send(line);
    }
}

/// Runs one job on the session and renders its response line.
fn run_job(mube: &Mube, session: &mut Session, id: u64, work: Work) -> String {
    match work {
        Work::Edit(edits) => match apply_edits(mube, session, &edits) {
            Ok(applied) => ok_response(id, vec![("applied", Json::Num(applied as f64))]),
            Err(e) => error_response(id, &e),
        },
        Work::Solve => match session.iterate() {
            Ok(solution) => {
                let rendered = render_solution(mube.universe(), solution);
                ok_response(
                    id,
                    vec![
                        ("iteration", Json::Num(session.history().len() as f64)),
                        ("solution", rendered),
                    ],
                )
            }
            Err(MubeError::Cancelled) => error_response(
                id,
                "solve cancelled before any feasible incumbent was found",
            ),
            Err(e) => error_response(id, &e.to_string()),
        },
        Work::Inspect => inspect_response(id, mube, session),
        Work::Diff => match session.diff_latest() {
            Some(diff) => ok_response(id, vec![("diff", render_diff(mube.universe(), &diff))]),
            None => error_response(id, "diff needs at least two completed iterations"),
        },
    }
}

/// The message a panic payload carries: `panic!` with a literal passes a
/// `&str`, a formatted one a `String`.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string panic payload")
}

/// Applies edits in order; stops at the first invalid one. Returns how
/// many were applied.
fn apply_edits(mube: &Mube, session: &mut Session, edits: &[Edit]) -> Result<usize, String> {
    let universe = mube.universe();
    for (i, edit) in edits.iter().enumerate() {
        let applied = match edit {
            Edit::RequireSource(name) => {
                let id = source_by_name(universe, name)?;
                session.require_source(id);
                Ok(())
            }
            Edit::AdoptGa(attrs) => {
                let ga = resolve_ga(universe, attrs)?;
                session.adopt_ga(ga);
                Ok(())
            }
            Edit::SetWeights(pairs) => {
                let weights = Weights::normalized(pairs.iter().map(|(n, w)| (n.clone(), *w)))?;
                session.set_weights(weights);
                Ok(())
            }
            Edit::SetTheta(theta) => session
                .set_theta(*theta)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Edit::SetMaxSources(m) => session
                .set_max_sources(*m)
                .map(|_| ())
                .map_err(|e| e.to_string()),
        };
        if let Err(e) = applied {
            return Err(format!(
                "edit {} rejected ({} applied before it): {e}",
                i + 1,
                i
            ));
        }
    }
    Ok(edits.len())
}

/// Looks a source up by its name.
///
/// # Errors
/// No source in `universe` has that name.
pub fn source_by_name(universe: &Universe, name: &str) -> Result<SourceId, String> {
    universe
        .sources()
        .iter()
        .find(|s| s.name() == name)
        .map(|s| s.id())
        .ok_or_else(|| format!("no source named {name:?}"))
}

fn resolve_ga(universe: &Universe, attrs: &[(String, String)]) -> Result<GaConstraint, String> {
    let mut ids = Vec::with_capacity(attrs.len());
    for (source_name, attr_name) in attrs {
        let source_id = source_by_name(universe, source_name)?;
        let source = universe
            .source(source_id)
            .ok_or_else(|| format!("no source named {source_name:?}"))?;
        let index = source
            .attributes()
            .iter()
            .position(|a| a == attr_name)
            .ok_or_else(|| format!("source {source_name:?} has no attribute {attr_name:?}"))?;
        ids.push(AttrId::new(source_id, index as u32));
    }
    GaConstraint::new(ids).map_err(|e| e.to_string())
}

fn inspect_response(id: u64, mube: &Mube, session: &Session) -> String {
    let spec = session.spec();
    let weights = Json::Obj(
        spec.weights
            .iter()
            .map(|(name, w)| (name.to_owned(), Json::Num(w)))
            .collect(),
    );
    let latest = match session.latest() {
        Some(solution) => render_solution(mube.universe(), solution),
        None => Json::Null,
    };
    ok_response(
        id,
        vec![
            ("max_sources", Json::Num(spec.max_sources as f64)),
            ("theta", Json::Num(spec.match_config.theta)),
            ("weights", weights),
            ("iterations", Json::Num(session.history().len() as f64)),
            ("latest", latest),
            (
                "has_cancelled_incumbent",
                Json::Bool(session.last_cancelled().is_some()),
            ),
        ],
    )
}

/// The longest request line [`serve_connection`] reads, newline excluded.
/// A longer line is answered with an id-0 error and skipped, so one client
/// cannot make the host buffer an unbounded line.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Serves one newline-delimited JSON connection over the host: requests
/// read from `reader`, responses written to `writer` as they complete
/// (solve responses may arrive after later requests' — clients correlate
/// by id). Returns once the input reaches EOF **and** every response for
/// a request read from this connection has been written.
///
/// A line that cannot carry a request — longer than 1 MiB, not UTF-8, or
/// not a parseable request — is answered with an error under the reserved
/// id 0, and the connection keeps serving the lines after it.
///
/// Sessions outlive connections: they belong to the host, so a client
/// may reconnect and keep iterating.
///
/// # Errors
/// Propagates read failures on the input; write failures terminate the
/// writer side quietly (the client hung up).
pub fn serve_connection<R, W>(
    host: &Arc<SessionHost>,
    mut reader: R,
    writer: W,
) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let (out_tx, out_rx) = mpsc::channel::<String>();
    let pump = std::thread::spawn(move || write_lines(writer, out_rx));
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let read = (&mut reader)
            .take(MAX_REQUEST_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        if read == 0 {
            break;
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_BYTES {
            reader.skip_until(b'\n')?;
            let message = format!("request line exceeds the {MAX_REQUEST_BYTES}-byte limit");
            let _ = out_tx.send(error_response(0, &message));
            continue;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            let _ = out_tx.send(error_response(0, "request line is not valid UTF-8"));
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(line) {
            Ok(request) => host.handle_request(request, &out_tx),
            // A line that does not parse far enough to carry an id gets
            // the reserved id 0.
            Err(e) => {
                let _ = out_tx.send(error_response(0, &e));
            }
        }
    }
    // Drop our sender; the pump exits once queued jobs release theirs.
    drop(out_tx);
    let _ = pump.join();
    Ok(())
}

fn write_lines<W: Write>(mut writer: W, lines: Receiver<String>) {
    while let Ok(line) = lines.recv() {
        if writeln!(writer, "{line}").is_err() {
            return;
        }
        if writer.flush().is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mube_core::MubeBuilder;
    use mube_opt::{SolveResult, SubsetProblem};
    use mube_schema::SourceBuilder;

    fn universe() -> Universe {
        let mut u = Universe::new();
        for (i, (name, attrs)) in [
            ("en1", vec!["first name", "city"]),
            ("en2", vec!["first names", "town"]),
            ("fr1", vec!["prenom", "ville"]),
            ("fr2", vec!["le prenom", "cite"]),
        ]
        .into_iter()
        .enumerate()
        {
            u.add_source(
                SourceBuilder::new(name)
                    .attributes(attrs)
                    .cardinality(100)
                    .characteristic("mttf", 80.0 + 10.0 * i as f64),
            )
            .unwrap();
        }
        u
    }

    fn host() -> Arc<SessionHost> {
        let u = universe();
        Arc::new(SessionHost::new(MubeBuilder::new(&u).build()))
    }

    fn spec(seed: u64) -> SessionSpec {
        SessionSpec {
            max_sources: 3,
            theta: 0.5,
            seed,
            solver: "tabu".to_owned(),
            weights: Vec::new(),
        }
    }

    /// Runs one request line through the host and collects every response
    /// written for it (requests here are all request/single-response).
    fn roundtrip(host: &Arc<SessionHost>, line: &str) -> Json {
        let (tx, rx) = mpsc::channel();
        let request = parse_request(line).unwrap();
        host.handle_request(request, &tx);
        drop(tx);
        let response = rx.recv().unwrap();
        Json::parse(&response).unwrap()
    }

    #[test]
    fn create_edit_solve_inspect_diff_round_trip() {
        let host = host();
        let created = roundtrip(&host, r#"{"id": 1, "cmd": "create-session", "theta": 0.5}"#);
        assert_eq!(created.get("ok"), Some(&Json::Bool(true)));
        let sid = created.get("session").and_then(Json::as_u64).unwrap();

        let edited = roundtrip(
            &host,
            &format!(
                r#"{{"id": 2, "cmd": "edit-constraints", "session": {sid},
                     "require_source": "en1"}}"#
            ),
        );
        assert_eq!(edited.get("ok"), Some(&Json::Bool(true)));

        let solved = roundtrip(
            &host,
            &format!(r#"{{"id": 3, "cmd": "solve", "session": {sid}}}"#),
        );
        assert_eq!(solved.get("ok"), Some(&Json::Bool(true)), "{solved:?}");
        let solution = solved.get("solution").unwrap();
        let selected = solution.get("selected").and_then(Json::as_arr).unwrap();
        assert!(selected.iter().any(|s| s.as_str() == Some("en1")));
        assert_eq!(solution.get("cancelled"), Some(&Json::Bool(false)));

        roundtrip(
            &host,
            &format!(r#"{{"id": 4, "cmd": "solve", "session": {sid}}}"#),
        );
        let inspected = roundtrip(
            &host,
            &format!(r#"{{"id": 5, "cmd": "inspect", "session": {sid}}}"#),
        );
        assert_eq!(inspected.get("iterations").and_then(Json::as_u64), Some(2));
        let diffed = roundtrip(
            &host,
            &format!(r#"{{"id": 6, "cmd": "diff", "session": {sid}}}"#),
        );
        assert_eq!(diffed.get("ok"), Some(&Json::Bool(true)));
        assert!(diffed.get("diff").is_some());
    }

    #[test]
    fn unknown_session_and_solver_are_reported() {
        let host = host();
        let r = roundtrip(&host, r#"{"id": 1, "cmd": "solve", "session": 99}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let r = roundtrip(
            &host,
            r#"{"id": 2, "cmd": "create-session", "solver": "quantum"}"#,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert!(r
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("quantum"));
    }

    #[test]
    fn sessions_are_isolated_and_bit_identical_to_serial_replay() {
        let host = host();
        let mut sids = Vec::new();
        for seed in [3u64, 5, 7, 11] {
            let id = host.create_session(&spec(seed)).unwrap();
            sids.push((id, seed));
        }
        // Two concurrent solves per session, all in flight at once.
        let (tx, rx) = mpsc::channel();
        for (i, (sid, _)) in sids.iter().enumerate() {
            for round in 0..2 {
                let req = Request {
                    id: (i * 2 + round) as u64,
                    command: Command::Solve { session: *sid },
                };
                host.handle_request(req, &tx);
            }
        }
        drop(tx);
        let mut bits: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        while let Ok(line) = rx.recv() {
            let v = Json::parse(&line).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{line}");
            let req_id = v.get("id").and_then(Json::as_u64).unwrap();
            let sid = sids[req_id as usize / 2].0;
            let qb = v
                .get("solution")
                .and_then(|s| s.get("quality_bits"))
                .and_then(Json::as_str)
                .unwrap()
                .to_owned();
            bits.entry(sid).or_default().push(qb);
        }
        // Serial replay: same spec and seed, fresh sessions, one at a time.
        for (sid, seed) in &sids {
            let mut session =
                Session::new(host.engine(), ProblemSpec::new(3).with_theta(0.5)).with_seed(*seed);
            let replay: Vec<String> = (0..2)
                .map(|_| {
                    format!(
                        "{:016x}",
                        session.iterate().unwrap().overall_quality.to_bits()
                    )
                })
                .collect();
            assert_eq!(bits.get(sid), Some(&replay), "session {sid} diverged");
        }
    }

    /// A solver that panics, standing in for a solver bug or a debug
    /// build's audit failure inside `Session::iterate`.
    struct Panicking;

    impl Solver for Panicking {
        fn solve(&self, _: &dyn SubsetProblem, _: u64) -> SolveResult {
            panic!("solver bug");
        }

        fn name(&self) -> &'static str {
            "panicking"
        }
    }

    #[test]
    fn a_panicking_job_is_answered_and_fails_the_session() {
        let mube = MubeBuilder::new(&universe()).build();
        let session = Session::new(&mube, ProblemSpec::new(3).with_theta(0.5))
            .with_solver(Box::new(Panicking));
        let (jobs, queue) = mpsc::channel();
        let (reply, replies) = mpsc::channel();
        for (id, work) in [(1, Work::Solve), (2, Work::Inspect), (3, Work::Solve)] {
            let reply = reply.clone();
            jobs.send(Job { id, reply, work }).unwrap();
        }
        drop((jobs, reply));
        let worker = std::thread::spawn(move || worker_loop(mube, session, queue));
        let answers: Vec<Json> = (1..=3)
            .map(|_| Json::parse(&replies.recv().expect("every job is answered")).unwrap())
            .collect();
        worker.join().expect("the worker outlives the panic");
        for (answer, id) in answers.iter().zip(1..) {
            assert_eq!(answer.get("id").and_then(Json::as_u64), Some(id));
            assert_eq!(answer.get("ok"), Some(&Json::Bool(false)), "{answer:?}");
        }
        let error = |k: usize| answers[k].get("error").and_then(Json::as_str).unwrap();
        let failure = "request 1 panicked the session worker: solver bug";
        assert_eq!(error(0), failure);
        assert_eq!(error(1), format!("session failed: {failure}"));
        assert_eq!(error(2), format!("session failed: {failure}"));
    }

    #[test]
    fn cancel_bypasses_the_queue_and_does_not_poison_the_session() {
        let host = host();
        let sid = host.create_session(&spec(1)).unwrap();
        // Cancel with nothing in flight: harmless (epoch semantics).
        host.cancel(sid).unwrap();
        let solved = roundtrip(
            &host,
            &format!(r#"{{"id": 1, "cmd": "solve", "session": {sid}}}"#),
        );
        assert_eq!(solved.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            solved.get("solution").unwrap().get("cancelled"),
            Some(&Json::Bool(false)),
            "stale cancel must not mark later solves"
        );
        assert!(host.cancel(99).is_err());
    }

    /// A writer the test keeps a handle to, so it can read back the
    /// responses once the connection has ended.
    #[derive(Clone, Default)]
    struct SharedWriter(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            unpoison(self.0.lock()).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedWriter {
        fn responses(&self) -> Vec<Json> {
            let text = String::from_utf8(unpoison(self.0.lock()).clone()).unwrap();
            text.lines().map(|l| Json::parse(l).unwrap()).collect()
        }
    }

    #[test]
    fn serve_connection_round_trips_ndjson() {
        let host = host();
        let input = concat!(
            r#"{"id": 1, "cmd": "create-session", "theta": 0.5}"#,
            "\n",
            "this is not json\n",
            r#"{"id": 2, "cmd": "solve", "session": 0}"#,
            "\n",
        );
        let out = SharedWriter::default();
        serve_connection(&host, input.as_bytes(), out.clone()).unwrap();
        let lines = out.responses();
        assert_eq!(lines.len(), 3);
        // The malformed line got the reserved id 0 and ok=false.
        assert!(lines
            .iter()
            .any(|v| v.get("id").and_then(Json::as_u64) == Some(0)
                && v.get("ok") == Some(&Json::Bool(false))));
        // The solve completed and reported a solution.
        assert!(lines
            .iter()
            .any(|v| v.get("solution").is_some() && v.get("ok") == Some(&Json::Bool(true))));
    }

    #[test]
    fn oversized_and_non_utf8_lines_get_errors_and_the_connection_survives() {
        let host = host();
        let request = |id: u64| format!(r#"{{"id": {id}, "cmd": "create-session"}}"#);
        // One byte over the limit, ending in a well-formed request that
        // must be skipped along with the rest of its line.
        let mut input = vec![b' '; MAX_REQUEST_BYTES + 1];
        input.extend_from_slice(request(7).as_bytes());
        input.push(b'\n');
        input.extend_from_slice(b"\xff\n");
        // Exactly at the limit: served.
        let mut last = request(2).into_bytes();
        last.resize(MAX_REQUEST_BYTES, b' ');
        input.extend_from_slice(&last);
        input.push(b'\n');

        let out = SharedWriter::default();
        serve_connection(&host, &input[..], out.clone()).unwrap();
        let responses = out.responses();
        assert_eq!(responses.len(), 3, "{responses:?}");
        let error = |v: &Json| {
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(0), "{v:?}");
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{v:?}");
            v.get("error").and_then(Json::as_str).unwrap().to_owned()
        };
        assert!(error(&responses[0]).contains(&MAX_REQUEST_BYTES.to_string()));
        assert!(error(&responses[1]).contains("UTF-8"));
        assert_eq!(responses[2].get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(responses[2].get("ok"), Some(&Json::Bool(true)));
    }
}
