//! The load generator: one client process, one connection, two threads.
//! This thread schedules sessions and writes requests; a reader thread
//! timestamps response lines. Requests from concurrent sessions are
//! pipelined on the connection and matched to responses by id.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use mube_serve::Json;

use crate::server::{cpu_seconds, proc_status};
use crate::workload::{request, session_seed, Demand, Load, Plan, SplitMix, Step};

/// How long after the measured window the run waits for the last
/// responses before counting them as unanswered.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Server processes started per run, the last one serving the load; their
/// set-up times are pooled for `setup_s` (see [`crate::stats::mean_of_medians`]).
/// The host runs set-ups in two speed states, about 0.45 and 0.72 ms on
/// `arrivals`, that each last one to three seconds. Processes started back
/// to back all land in one state; started `SETUP_SPACING` apart, they
/// sample several.
const SETUP_PROCESSES: usize = 10;
const SETUP_SPACING: Duration = Duration::from_millis(500);

/// One solve's observable answer: selected source names and the exact
/// quality bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Selected source names, in id order.
    pub selected: Vec<String>,
    /// `quality_bits` as rendered by the server.
    pub bits: String,
}

impl Answer {
    /// Reads the answer out of a rendered solution.
    pub fn of(solution: &Json) -> Option<Answer> {
        let selected = solution
            .get("selected")?
            .as_arr()?
            .iter()
            .map(|s| s.as_str().map(str::to_owned))
            .collect::<Option<Vec<_>>>()?;
        let bits = solution.get("quality_bits")?.as_str()?.to_owned();
        Some(Answer { selected, bits })
    }
}

/// One request as the client saw it; instants are offsets from the run's
/// origin.
pub struct Sent {
    /// Index of the client session that sent it.
    pub session: usize,
    /// Whether it was a `solve`.
    pub solve: bool,
    /// When it was due: when the previous response of its session arrived,
    /// or the session's arrival time.
    pub due: Duration,
    /// When its line was written.
    pub sent: Duration,
    /// When its response line was read.
    pub received: Option<Duration>,
    /// Whether the response said `ok`.
    pub ok: bool,
}

/// A client session's progress through its script.
pub struct LiveSession {
    /// Index in the run; 0 is the discarded warm-up.
    pub k: usize,
    /// The session's base seed.
    pub seed: u64,
    server_id: Option<u64>,
    step: usize,
    last: Option<Json>,
    demands: Vec<Demand>,
    /// Answers of its completed solves, in order.
    pub answers: Vec<Answer>,
    /// Open loop: the arrival step and time.
    pub arrival: Option<(usize, Duration)>,
    /// When its script completed, if it did.
    pub finished: Option<Duration>,
}

/// What the server child reported.
#[derive(Clone, Debug, Default)]
pub struct ServerReport {
    /// Seconds from the start of the engine build to the listener being
    /// ready: for each server process of the run, one per set-up.
    pub setup_s: Vec<Vec<f64>>,
    /// Peak resident memory, KiB: in a closed loop once its `memory_after`
    /// measured sessions have finished, otherwise at the end of the run.
    pub vm_hwm_kb: u64,
    /// Live threads at the end of the run.
    pub threads: u64,
    /// Sessions hosted at the end of the run.
    pub sessions: u64,
}

/// Everything one load run observed.
pub struct LoadRun {
    /// Every request, warm-up included.
    pub requests: Vec<Sent>,
    /// Every session, the warm-up first.
    pub sessions: Vec<LiveSession>,
    /// Start of the measured window.
    pub start: Duration,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Open loop: the arrival rate of each step, in order.
    pub rates: Vec<f64>,
    /// Requests never answered before the drain limit.
    pub unanswered: usize,
    /// Failed output checks (error responses, bad solutions).
    pub problems: Vec<String>,
    /// Client CPU time over the measured window, as a share of one core.
    pub cpu_frac: Option<f64>,
    /// The server's report.
    pub server: ServerReport,
}

/// The server child process; killed and reaped if dropped early.
struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl ServerChild {
    fn start(plan: &Plan, smoke: bool) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
        let mut command = Command::new(exe);
        command
            .args(["serve", "--workload", plan.workload.name()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if smoke {
            command.arg("--smoke");
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("starting the server: {e}"))?;
        let stdout = child.stdout.take().ok_or("server stdout missing")?;
        Ok(Self {
            child,
            stdout: BufReader::new(stdout),
        })
    }

    /// Waits for the listener: returns its port and the set-up times.
    fn ready(&mut self) -> Result<(u16, Vec<f64>), String> {
        let ready = self.line("ready")?;
        let port = ready
            .first()
            .and_then(|p| p.parse().ok())
            .ok_or("server sent no port")?;
        let setup_s = ready[1..]
            .iter()
            .map(|s| s.parse::<f64>().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((port, setup_s))
    }

    /// Reads the server's next report line that starts with `tag`.
    fn line(&mut self, tag: &str) -> Result<Vec<String>, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading the server: {e}"))?;
            if n == 0 {
                return Err(format!("server exited before reporting {tag:?}"));
            }
            let mut words = line.split_whitespace();
            if words.next() == Some(tag) {
                return Ok(words.map(str::to_owned).collect());
            }
        }
    }

    fn finish(mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // Already reaped on the normal path; these only matter on errors.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts the server, runs a warm-up script and then the measured load,
/// and collects what the client and the server observed. `sweep` makes an
/// open loop step through every rate instead of holding the operating one.
pub fn run(
    plan: &Plan,
    names: &BTreeSet<String>,
    seed: u64,
    seconds: f64,
    smoke: bool,
    sweep: bool,
) -> Result<LoadRun, String> {
    let mut setup_s = Vec::new();
    let (processes, spacing) = if smoke {
        (2, Duration::ZERO)
    } else {
        (SETUP_PROCESSES, SETUP_SPACING)
    };
    let first = Instant::now();
    for i in 1..processes {
        let mut probe = ServerChild::start(plan, smoke)?;
        let (port, setups) = probe.ready()?;
        setup_s.push(setups);
        // Connecting and hanging up at once ends its connection, and with
        // it the child.
        drop(TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connecting: {e}"))?);
        probe.line("end")?;
        probe.finish()?;
        std::thread::sleep((first + spacing * i as u32).saturating_duration_since(Instant::now()));
    }
    let mut server = ServerChild::start(plan, smoke)?;
    let (port, setups) = server.ready()?;
    setup_s.push(setups);

    let stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connecting: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let origin = Instant::now();
    let (tx, rx) = mpsc::channel::<(Duration, String)>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(read_half).lines() {
            let Ok(line) = line else { break };
            if tx.send((origin.elapsed(), line)).is_err() {
                break;
            }
        }
    });

    let mut client = Client {
        plan,
        names,
        seed,
        stream,
        origin,
        requests: Vec::new(),
        pending: BTreeMap::new(),
        sessions: Vec::new(),
        problems: Vec::new(),
        deadline: None,
        server_pid: server.child.id().to_string(),
        finished: 0,
        memory_kb: None,
    };
    // One discarded warm-up script, alone on the server.
    let warm = client.now();
    client.start_session(None, warm);
    client.pump(&rx, &[], warm + DRAIN_LIMIT);

    let start = client.now();
    let window = Duration::from_secs_f64(seconds);
    let mut rates_used = Vec::new();
    let cpu_start = cpu_seconds();
    match plan.load {
        Load::Closed { sessions, .. } => {
            client.deadline = Some(start + window);
            for _ in 0..sessions {
                client.start_session(None, start);
            }
            client.pump(&rx, &[], start + window + DRAIN_LIMIT);
        }
        Load::Open {
            rates, operating, ..
        } => {
            rates_used = if sweep {
                rates.to_vec()
            } else {
                vec![rates[operating]]
            };
            let schedule = arrivals(&rates_used, window, seed)
                .into_iter()
                .map(|(t, step)| (start + t, step))
                .collect::<Vec<_>>();
            client.pump(&rx, &schedule, start + window + DRAIN_LIMIT);
        }
    }
    let wall = (client.now() - start).as_secs_f64();
    let cpu_frac = cpu_start
        .zip(cpu_seconds())
        .map(|(a, b)| (b - a) / wall.max(1e-9));
    let unanswered = client.pending.len();

    // Closing our write half lets the server finish; the reader then sees
    // EOF once every response has been written. A server still owing
    // responses past the drain limit may never finish, so it is stopped.
    let _ = client.stream.shutdown(Shutdown::Write);
    let end = if unanswered == 0 {
        let end = server.line("end")?;
        server.finish()?;
        end
    } else {
        drop(server);
        Vec::new()
    };
    drop(rx);
    reader.join().map_err(|_| "reader thread panicked")?;
    let field = |i: usize| end.get(i).and_then(|v| v.parse().ok()).unwrap_or(0);
    let Client {
        requests,
        sessions,
        problems,
        memory_kb,
        ..
    } = client;
    Ok(LoadRun {
        requests,
        sessions,
        start,
        seconds,
        rates: rates_used,
        unanswered,
        problems,
        cpu_frac,
        server: ServerReport {
            setup_s,
            vm_hwm_kb: memory_kb.unwrap_or(field(0)),
            threads: field(1),
            sessions: field(2),
        },
    })
}

/// The open-loop schedule: for each rate, `rate × step` arrivals spread
/// as uniform order statistics over the step — a Poisson process
/// conditioned on its count, so every seed offers the same load.
pub fn arrivals(rates: &[f64], window: Duration, seed: u64) -> Vec<(Duration, usize)> {
    let step = window.as_secs_f64() / rates.len() as f64;
    let mut rng = SplitMix(seed ^ 0x5eed_a11e_d5ee_d000);
    let mut out = Vec::new();
    for (k, rate) in rates.iter().enumerate() {
        let count = (rate * step).round() as usize;
        let mut times: Vec<f64> = (0..count).map(|_| (k as f64 + rng.unit()) * step).collect();
        times.sort_by(f64::total_cmp);
        out.extend(times.into_iter().map(|t| (Duration::from_secs_f64(t), k)));
    }
    out
}

struct Client<'a> {
    plan: &'a Plan,
    names: &'a BTreeSet<String>,
    seed: u64,
    stream: TcpStream,
    origin: Instant,
    requests: Vec<Sent>,
    /// Request id → index into `requests`.
    pending: BTreeMap<u64, usize>,
    sessions: Vec<LiveSession>,
    problems: Vec<String>,
    /// Closed loop: no new step starts after this.
    deadline: Option<Duration>,
    server_pid: String,
    /// Measured sessions that completed their script.
    finished: usize,
    /// The server's peak memory once `memory_after` sessions finished.
    memory_kb: Option<u64>,
}

impl Client<'_> {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn start_session(&mut self, arrival: Option<(usize, Duration)>, due: Duration) {
        let k = self.sessions.len();
        self.sessions.push(LiveSession {
            k,
            seed: session_seed(self.seed, k),
            server_id: None,
            step: 0,
            last: None,
            demands: Vec::new(),
            answers: Vec::new(),
            arrival,
            finished: None,
        });
        self.issue(k, due);
    }

    /// Sends session `s`'s current step, due at `due`.
    fn issue(&mut self, s: usize, due: Duration) {
        let id = self.requests.len() as u64 + 1;
        let session = &mut self.sessions[s];
        let step = &self.plan.script[session.step];
        let built = request(
            self.plan,
            step,
            id,
            session.seed,
            session.server_id.unwrap_or(0),
            session.last.as_ref(),
            self.names,
        );
        let (json, demand) = match built {
            Ok(built) => built,
            Err(e) => {
                self.problems.push(format!("session {s}: {e}"));
                return;
            }
        };
        session.demands.extend(demand);
        let mut line = json.render();
        line.push('\n');
        let sent = self.now();
        if let Err(e) = self.stream.write_all(line.as_bytes()) {
            self.problems.push(format!("writing request {id}: {e}"));
            return;
        }
        self.pending.insert(id, self.requests.len());
        self.requests.push(Sent {
            session: s,
            solve: step.is_solve(),
            due,
            sent,
            received: None,
            ok: false,
        });
    }

    /// Handles responses and arrivals until nothing is pending and no
    /// arrival is left, or `stop` passes.
    fn pump(
        &mut self,
        rx: &Receiver<(Duration, String)>,
        schedule: &[(Duration, usize)],
        stop: Duration,
    ) {
        let mut next = 0;
        loop {
            let now = self.now();
            while let Some(&(due, step)) = schedule.get(next).filter(|a| a.0 <= now) {
                self.start_session(Some((step, due)), due);
                next += 1;
            }
            if self.pending.is_empty() && next == schedule.len() {
                return;
            }
            if now >= stop {
                self.problems.push(format!(
                    "{} requests unanswered at the drain limit",
                    self.pending.len()
                ));
                return;
            }
            let wake = schedule.get(next).map_or(stop, |a| a.0.min(stop));
            match rx.recv_timeout(wake.saturating_sub(now)) {
                Ok((t, line)) => self.on_line(t, &line),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    self.problems
                        .push("server closed the connection".to_owned());
                    return;
                }
            }
        }
    }

    fn on_line(&mut self, t: Duration, line: &str) {
        let Ok(response) = Json::parse(line) else {
            self.problems.push(format!("unparseable response {line:?}"));
            return;
        };
        let Some(idx) = response
            .get("id")
            .and_then(Json::as_u64)
            .and_then(|id| self.pending.remove(&id))
        else {
            self.problems
                .push(format!("response with unknown id: {line}"));
            return;
        };
        let ok = response.get("ok") == Some(&Json::Bool(true));
        let sent = &mut self.requests[idx];
        sent.received = Some(t);
        sent.ok = ok;
        let s = sent.session;
        if !ok {
            self.problems.push(format!("error response: {line}"));
            self.replace(t);
            return;
        }
        let session = &mut self.sessions[s];
        match &self.plan.script[session.step] {
            Step::Create => session.server_id = response.get("session").and_then(Json::as_u64),
            Step::Solve => match check_solution(&response, &session.demands) {
                Ok((answer, solution)) => {
                    session.answers.push(answer);
                    session.last = Some(solution);
                }
                Err(e) => {
                    self.problems.push(format!("session {s}: {e}"));
                    self.replace(t);
                    return;
                }
            },
            _ => {}
        }
        self.advance(s, t);
    }

    /// Moves session `s` past the step just answered at `t`.
    fn advance(&mut self, s: usize, t: Duration) {
        let session = &mut self.sessions[s];
        session.step += 1;
        if session.step == self.plan.script.len() {
            session.finished = Some(t);
            if s > 0 {
                self.finished += 1;
                if let Load::Closed { memory_after, .. } = self.plan.load {
                    if self.finished == memory_after {
                        self.memory_kb = Some(proc_status(&self.server_pid).vm_hwm_kb);
                    }
                }
            }
            self.replace(t);
        } else if s == 0 || self.deadline.is_none_or(|d| t < d) {
            // The warm-up always completes; closed-loop sessions stop at
            // the deadline; open-loop users always finish their scripts.
            self.issue(s, t);
        }
    }

    /// Closed loop: a session ended at `t`; start the next one in its place
    /// while the window is open.
    fn replace(&mut self, t: Duration) {
        if self.deadline.is_some_and(|d| t < d) {
            self.start_session(None, t);
        }
    }
}

/// Checks one solve response: a finite, uncancelled solution that honours
/// every pin and adopted GA so far. Returns its answer and the solution.
fn check_solution(response: &Json, demands: &[Demand]) -> Result<(Answer, Json), String> {
    let solution = response
        .get("solution")
        .ok_or("solve response has no solution")?;
    let answer = Answer::of(solution).ok_or("solution lacks selected/quality_bits")?;
    let quality = u64::from_str_radix(&answer.bits, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad quality_bits {:?}: {e}", answer.bits))?;
    if !quality.is_finite() {
        return Err(format!("quality {quality} is not finite"));
    }
    if solution.get("cancelled") != Some(&Json::Bool(false)) {
        return Err("solution was cancelled".to_owned());
    }
    let gas: Vec<Vec<&str>> = solution
        .get("schema")
        .and_then(Json::as_arr)
        .ok_or("solution has no schema")?
        .iter()
        .map(|ga| {
            ga.as_arr()
                .map(|m| m.iter().filter_map(Json::as_str).collect())
                .unwrap_or_default()
        })
        .collect();
    for demand in demands {
        match demand {
            Demand::Pinned(name) if !answer.selected.contains(name) => {
                return Err(format!("pinned source {name} is not selected"));
            }
            Demand::Adopted(members)
                if !gas
                    .iter()
                    .any(|ga| members.iter().all(|m| ga.contains(&m.as_str()))) =>
            {
                return Err(format!("adopted GA {members:?} is not in the schema"));
            }
            _ => {}
        }
    }
    Ok((answer, solution.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_counts_are_fixed_and_times_stay_in_their_step() {
        let window = Duration::from_secs(8);
        let schedule = arrivals(&[1.0, 2.0, 4.0, 8.0], window, 7);
        assert_eq!(schedule.len(), 2 + 4 + 8 + 16);
        for &(t, k) in &schedule {
            let t = t.as_secs_f64();
            assert!(
                t >= 2.0 * k as f64 && t < 2.0 * (k + 1) as f64,
                "{t} in step {k}"
            );
        }
        assert!(schedule.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(schedule, arrivals(&[1.0, 2.0, 4.0, 8.0], window, 7));
        assert_ne!(schedule, arrivals(&[1.0, 2.0, 4.0, 8.0], window, 8));
    }
}
