//! The server child: the same path `mubed --tcp` takes — build the engine,
//! wrap it in a `SessionHost`, serve a loopback connection — but over the
//! benchmark's generated inputs, which keep their PCSA sketches and choose
//! the similarity backend.
//!
//! Protocol with the parent on stdout: one `ready <port> <setup_s>...`
//! line once the listener is up, and one `end <vm_hwm_kb> <threads>
//! <sessions>` line after the connection closed.

use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use mube_serve::{serve_connection, SessionHost};

use crate::workload::Workload;

/// Set-ups per server process: at least three, and more while they stay
/// cheap (up to 25 within 0.1 s; just three with `--smoke`), so a
/// sub-millisecond set-up still has a steady median. The parent averages
/// the medians of all its server processes.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.1;

/// Runs the server child for one workload.
pub fn serve(workload: Workload, smoke: bool) -> Result<(), String> {
    let plan = workload.plan(smoke);
    let inputs = workload.generate(&plan);
    let budget = if smoke { 0.0 } else { SETUP_BUDGET_S };
    let mut setups: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let mut ready = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < budget)
    {
        // Tear the previous set-up down first so at most one engine is live.
        drop(ready.take());
        let builder = inputs.builder(workload.backend());
        let start = Instant::now();
        let mube = builder.try_build().map_err(|e| e.to_string())?;
        let host = Arc::new(SessionHost::new(mube));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        ready = Some((host, listener));
    }
    let (host, listener) = ready.ok_or("no set-up ran")?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port();
    let shown: Vec<String> = setups.iter().map(f64::to_string).collect();
    say(&format!("ready {port} {}", shown.join(" ")))?;

    let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    serve_connection(&host, BufReader::new(reader), stream).map_err(|e| e.to_string())?;

    let status = proc_status("self");
    let sessions = host.session_ids().len();
    say(&format!(
        "end {} {} {sessions}",
        status.vm_hwm_kb, status.threads
    ))?;
    host.shutdown();
    Ok(())
}

fn say(line: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))
}

/// The fields of `/proc/self/status` the report uses (zero where the
/// platform has no procfs).
#[derive(Default)]
pub struct ProcStatus {
    /// Peak resident set size, KiB.
    pub vm_hwm_kb: u64,
    /// Live threads.
    pub threads: u64,
}

/// Reads peak memory and thread count of process `pid` (`"self"` for this
/// one).
pub fn proc_status(pid: &str) -> ProcStatus {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return ProcStatus::default();
    };
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    ProcStatus {
        vm_hwm_kb: field("VmHWM:"),
        threads: field("Threads:"),
    }
}

/// CPU time this process has used (user + system), in seconds, from
/// `/proc/self/stat` at the usual 100 ticks per second; `None` without
/// procfs.
pub fn cpu_seconds() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}
