//! `mube-benchmark` — the end-to-end benchmark of the µBE session daemon.
//!
//! ```text
//! mube-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
//!                    [--smoke] [--repeat N]
//! mube-benchmark serve --workload W [--smoke]     (the server child)
//! ```
//!
//! `run` starts a server child per workload, drives it over one loopback
//! TCP connection, checks every answer against an in-process serial
//! replay, prints each metric by name with its unit, writes
//! `target/benchmark/result.json`, and prints one JSON result object as
//! its last stdout line. It exits non-zero if any output check fails.
//! See `benchmark/README.md`.

mod loadgen;
mod replay;
mod server;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use mube_serve::Json;

use crate::loadgen::{LoadRun, Sent};
use crate::stats::{from_due, percentile, sorted, spread};
use crate::workload::{Load, Plan, Workload, DEFAULT_SEED};

const USAGE: &str = "\
usage:
  mube-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--repeat N]
  mube-benchmark serve --workload W [--smoke]
workloads: feedback, cold_match, sparse_scale, arrivals (default: all four)";

/// Measured seconds per run unless `--seconds` says otherwise; matches
/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;
/// Measured seconds per workload in `--smoke` mode.
const SMOKE_SECONDS: f64 = 2.0;

/// End-to-end metrics, reported on every workload with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("solve_p50_ms", "ms"),
    ("solve_p90_ms", "ms"),
    ("edit_p90_ms", "ms"),
    ("solves_per_s", "1/s"),
    ("server_rss_mb", "MiB"),
];

/// Recorded inputs digests and baseline notes.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");
/// The metric lists and bounds, checked against every result line.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
/// Where results and span files go, relative to the repository root.
const OUT_DIR: &str = "target/benchmark";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve_main(&args[1..]).map(|()| true),
        Some("run") => run_main(&args[1..]),
        _ => Err("missing subcommand".to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 0,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = i;
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[flag]))
        };
        match args[flag].as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?;
                out.workloads = vec![w];
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                out.seconds = Some(s);
            }
            "--repeat" => out.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => out.smoke = true,
            "--trace" => {
                // `--trace` alone or `--trace 0|1`.
                out.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(out)
}

fn serve_main(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    let [workload] = args.workloads[..] else {
        return Err("serve needs exactly one --workload".to_owned());
    };
    server::serve(workload, args.smoke)
}

fn run_main(args: &[String]) -> Result<bool, String> {
    let args = parse_args(args)?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    if args.repeat > 0 {
        return repeat(&args, seconds);
    }
    let mut all_correct = true;
    let mut details = BTreeMap::new();
    for &workload in &args.workloads {
        let outcome = run_workload(workload, args.seed, seconds, args.trace, args.smoke)?;
        outcome.print();
        all_correct &= outcome.correct;
        details.insert(workload.name().to_owned(), outcome.detail);
    }
    let path = Path::new(OUT_DIR).join("result.json");
    let body = mube_serve::json::obj([("workloads", Json::Obj(details))]).render();
    std::fs::write(&path, body + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(all_correct)
}

/// One workload run's result.
struct Outcome {
    workload: Workload,
    correct: bool,
    attempted: usize,
    failed: usize,
    /// The metrics of the result line: end-to-end, or per-layer if traced.
    metrics: Vec<(String, f64, &'static str)>,
    /// Everything else, for result.json.
    detail: Json,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    fn print(&self) {
        println!("== {}", self.workload.name());
        for note in &self.notes {
            println!("  {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name} = {value} {unit}");
        }
        for problem in &self.problems {
            println!("  CHECK FAILED: {problem}");
        }
        println!("{}", self.line().render());
    }

    /// The result object of the last stdout line.
    fn line(&self) -> Json {
        mube_serve::json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
fn metrics_json(metrics: &[(String, f64, &'static str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = mube_serve::json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str((*unit).to_owned())),
                ]);
                (name.clone(), m)
            })
            .collect(),
    )
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let plan = workload.plan(smoke);
    let inputs = workload.generate(&plan);
    let names = inputs.names();
    let inputs_digest = inputs.digest();
    let mut problems = Vec::new();
    if !smoke {
        match recorded_digest(workload) {
            Some(recorded) if recorded == hex(inputs_digest) => {}
            Some(recorded) => problems.push(format!(
                "inputs_digest {} differs from the recorded {recorded}",
                hex(inputs_digest)
            )),
            None => problems.push(format!("{BASELINE} records no inputs_digest")),
        }
    }

    // The traced run's numbers come from its replay; its load only feeds
    // the `serve.*` and `loadgen.*` counters, so each load step (one for a
    // closed loop, four for the arrivals sweep) gets a quarter window.
    let load_seconds = match (traced, plan.load) {
        (false, _) => seconds,
        (true, Load::Closed { .. }) => seconds / 4.0,
        (true, Load::Open { rates, .. }) => seconds / 4.0 * rates.len() as f64,
    };
    let run = loadgen::run(&plan, &names, seed, load_seconds, smoke, traced)?;
    problems.extend(run.problems.iter().cloned());
    let reference = inputs.engine(workload.reference_backend())?;
    let replayed = replay::check(&plan, &reference, &names, &run.sessions);
    drop(reference);
    problems.extend(replayed.problems.iter().cloned());

    let report = LoadReport::new(&plan, &run);
    let mut notes = vec![
        format!(
            "{} sources, solver {}, m = {}, seed {seed}, {load_seconds} s of load measured",
            plan.sources, plan.solver, plan.max_sources
        ),
        format!(
            "inputs_digest {}  answers_digest {}  ({} sessions / {} solves replayed)",
            hex(inputs_digest),
            hex(replayed.answers_digest),
            replayed.sessions,
            replayed.solves
        ),
        format!(
            "samples: {} solves, {} other commands; highest supported percentile p{}",
            report.solve_ms.len(),
            report.edit_ms.len(),
            stats::supported_percentile(report.solve_ms.len()).unwrap_or(0)
        ),
    ];
    notes.extend(report.steps.iter().map(RateStep::describe));
    if let Some(cpu) = run.cpu_frac.filter(|&c| c > 0.9) {
        notes.push(format!(
            "WARNING: load generator used {cpu:.2} of a core; run invalid"
        ));
    }
    if report.late_p99_ms > 5.0 {
        notes.push(format!(
            "WARNING: load generator p99 lateness {:.2} ms; run invalid",
            report.late_p99_ms
        ));
    }

    let errors = run
        .requests
        .iter()
        .filter(|r| r.received.is_some() && !r.ok)
        .count();
    let failed = errors + run.unanswered;
    let failed_frac = stats::failed_frac(run.requests.len(), errors, run.unanswered);
    // Reported but not bounded: failed_frac is 0 on a good run, and the
    // edit median flips between two transport modes on `arrivals`
    // (README, "Bounds and spreads").
    let edit_p50_ms = percentile(&report.edit_ms, 50).unwrap_or(0.0);
    notes.push(format!(
        "failed_frac = {failed_frac} ratio; edit_p50_ms = {edit_p50_ms} ms (both without a bound)"
    ));
    let mut all_metrics = report.end_to_end(&run);
    let mut metrics = all_metrics.clone();
    let mut detail = vec![
        ("inputs_digest", Json::Str(hex(inputs_digest))),
        ("answers_digest", Json::Str(hex(replayed.answers_digest))),
        ("replayed_sessions", Json::Num(replayed.sessions as f64)),
        ("replayed_solves", Json::Num(replayed.solves as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(load_seconds)),
        ("sources", Json::Num(plan.sources as f64)),
        ("failed_frac", Json::Num(failed_frac)),
        ("edit_p50_ms", Json::Num(edit_p50_ms)),
        (
            "solve_ms",
            Json::Arr(report.solve_ms.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "edit_ms",
            Json::Arr(report.edit_ms.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "setup_runs_s",
            Json::Arr(
                run.server
                    .setup_s
                    .iter()
                    .map(|start| Json::Arr(start.iter().map(|&s| Json::Num(s)).collect()))
                    .collect(),
            ),
        ),
        (
            "steps",
            Json::Arr(report.steps.iter().map(RateStep::json).collect()),
        ),
    ];

    if traced {
        let spans = Path::new(OUT_DIR).join(format!("trace-{}.ndjson", workload.name()));
        let traced = trace::run(&plan, &inputs, seed, smoke, &spans)?;
        problems.extend(traced.problems.iter().cloned());
        notes.push(format!(
            "traced {} solves per pass; layer self times sum to {:.1}% of pass-2 iterate time; spans in {}",
            traced.solves,
            traced.layer_sum_frac * 100.0,
            spans.display()
        ));
        if (traced.layer_sum_frac - 1.0).abs() > 0.1 {
            problems.push(format!(
                "layer self times cover {:.1}% of pass-2 iterate time, not within 10%",
                traced.layer_sum_frac * 100.0
            ));
        }
        metrics = traced.metrics;
        // The per-layer numbers of the load run itself.
        for (name, value, unit) in [
            ("serve.threads_end", run.server.threads as f64, "count"),
            ("serve.sessions", run.server.sessions as f64, "count"),
            ("loadgen.late_p99_ms", report.late_p99_ms, "ms"),
            ("loadgen.cpu_frac", run.cpu_frac.unwrap_or(0.0), "ratio"),
            (
                "loadgen.max_users_per_s",
                report.max_users_per_s(),
                "users/s",
            ),
        ] {
            metrics.push((name.to_owned(), value, unit));
        }
        detail.push(("layer_sum_frac", Json::Num(traced.layer_sum_frac)));
        all_metrics.extend(metrics.iter().cloned());
    }
    let list = if traced { "per_layer" } else { "end_to_end" };
    if let Err(e) = check_declared(list, &metrics) {
        problems.push(e);
    }
    detail.push(("metrics", metrics_json(&all_metrics)));
    detail.push((
        "problems",
        Json::Arr(problems.iter().map(|p| Json::Str(p.clone())).collect()),
    ));
    Ok(Outcome {
        workload,
        correct: problems.is_empty(),
        attempted: run.requests.len(),
        failed,
        metrics,
        detail: mube_serve::json::obj(detail),
        problems,
        notes,
    })
}

/// The inputs digest `baseline.json` records for a workload.
fn recorded_digest(workload: Workload) -> Option<String> {
    let text = std::fs::read_to_string(BASELINE).ok()?;
    let baseline = Json::parse(&text).ok()?;
    baseline
        .get("inputs_digest")?
        .get(workload.name())?
        .as_str()
        .map(str::to_owned)
}

/// One open-loop arrival rate's share of the run.
struct RateStep {
    rate: f64,
    users: usize,
    solves: usize,
    solve_p90_ms: Option<f64>,
    errors: usize,
    unfinished: usize,
    meets_slo: bool,
}

impl RateStep {
    fn describe(&self) -> String {
        format!(
            "step {:>5.1} users/s: {} users, {} solves, solve p90 {} ms (from due), {} errors, \
             {} unfinished -> {}",
            self.rate,
            self.users,
            self.solves,
            self.solve_p90_ms
                .map_or("-".to_owned(), |v| format!("{v:.1}")),
            self.errors,
            self.unfinished,
            if self.meets_slo {
                "meets SLO"
            } else {
                "misses SLO"
            }
        )
    }

    fn json(&self) -> Json {
        mube_serve::json::obj([
            ("rate", Json::Num(self.rate)),
            ("users", Json::Num(self.users as f64)),
            ("solves", Json::Num(self.solves as f64)),
            (
                "solve_p90_ms",
                self.solve_p90_ms.map_or(Json::Null, Json::Num),
            ),
            ("errors", Json::Num(self.errors as f64)),
            ("unfinished", Json::Num(self.unfinished as f64)),
            ("meets_slo", Json::Bool(self.meets_slo)),
        ])
    }
}

/// Client-side latencies and rates of one load run.
struct LoadReport {
    solve_ms: Vec<f64>,
    edit_ms: Vec<f64>,
    solves_per_s: f64,
    late_p99_ms: f64,
    steps: Vec<RateStep>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl LoadReport {
    fn new(plan: &Plan, run: &LoadRun) -> Self {
        let measured: Vec<&Sent> = run
            .requests
            .iter()
            .filter(|r| run.sessions[r.session].k > 0)
            .collect();
        let late: Vec<f64> = measured
            .iter()
            .map(|r| ms(r.sent.saturating_sub(r.due)))
            .collect();
        let late_p99_ms = percentile(&sorted(late), 99).unwrap_or(0.0);
        let window = Duration::from_secs_f64(run.seconds);
        let split = |rs: &[&Sent], latency: &dyn Fn(&Sent, Duration) -> f64| {
            let (mut solves, mut edits) = (Vec::new(), Vec::new());
            for r in rs {
                if let (true, Some(received)) = (r.ok, r.received) {
                    let v = latency(r, received);
                    if r.solve {
                        solves.push(v);
                    } else {
                        edits.push(v);
                    }
                }
            }
            (sorted(solves), sorted(edits))
        };
        match plan.load {
            Load::Closed { .. } => {
                // Closed loop: from the request line written to the
                // response line read.
                let (solve_ms, edit_ms) = split(&measured, &|r, received| ms(received - r.sent));
                let deadline = run.start + window;
                let done = measured
                    .iter()
                    .filter(|r| r.solve && r.ok && r.received.is_some_and(|t| t <= deadline))
                    .count();
                LoadReport {
                    solve_ms,
                    edit_ms,
                    solves_per_s: done as f64 / run.seconds,
                    late_p99_ms,
                    steps: Vec::new(),
                }
            }
            Load::Open {
                operating, slo_ms, ..
            } => {
                // Open loop: from when each request was due.
                let from = |r: &Sent, received| ms(from_due(r.due, r.sent, received).0);
                let step_len = window / run.rates.len() as u32;
                let in_step = |k: usize| -> Vec<&Sent> {
                    measured
                        .iter()
                        .copied()
                        .filter(|r| run.sessions[r.session].arrival.is_some_and(|a| a.0 == k))
                        .collect()
                };
                let grace = Duration::from_secs_f64(slo_ms / 1e3 * plan.solves_per_script() as f64);
                let steps: Vec<RateStep> = run
                    .rates
                    .iter()
                    .enumerate()
                    .map(|(k, &rate)| {
                        let requests = in_step(k);
                        let (solves, _) = split(&requests, &from);
                        let errors = requests.iter().filter(|r| !r.ok).count();
                        let step_end = run.start + step_len * (k as u32 + 1);
                        let users: Vec<_> = run
                            .sessions
                            .iter()
                            .filter(|s| s.arrival.is_some_and(|a| a.0 == k))
                            .collect();
                        let unfinished = users
                            .iter()
                            .filter(|s| s.finished.is_none_or(|f| f > step_end + grace))
                            .count();
                        let p90 = percentile(&solves, 90);
                        RateStep {
                            rate,
                            users: users.len(),
                            solves: solves.len(),
                            solve_p90_ms: p90,
                            errors,
                            unfinished,
                            meets_slo: p90.is_some_and(|p| p <= slo_ms)
                                && errors == 0
                                && unfinished == 0,
                        }
                    })
                    .collect();
                let operating = if run.rates.len() == 1 { 0 } else { operating };
                let (solve_ms, edit_ms) = split(&in_step(operating), &from);
                // Goodput: solves completed inside the window.
                let (lo, hi) = (run.start, run.start + window);
                let done = measured
                    .iter()
                    .filter(|r| r.solve && r.ok && r.received.is_some_and(|t| t > lo && t <= hi))
                    .count();
                LoadReport {
                    solve_ms,
                    edit_ms,
                    solves_per_s: done as f64 / run.seconds,
                    late_p99_ms,
                    steps,
                }
            }
        }
    }

    /// The highest arrival rate whose step, and every slower one, met the
    /// SLO; 0 for closed loops. A faster step that meets it again after a
    /// miss does not count: its few seconds of samples are too noisy.
    fn max_users_per_s(&self) -> f64 {
        self.steps
            .iter()
            .take_while(|s| s.meets_slo)
            .last()
            .map_or(0.0, |s| s.rate)
    }

    fn end_to_end(&self, run: &LoadRun) -> Vec<(String, f64, &'static str)> {
        let values = [
            stats::mean_of_medians(&run.server.setup_s).unwrap_or(0.0),
            percentile(&self.solve_ms, 50).unwrap_or(0.0),
            percentile(&self.solve_ms, 90).unwrap_or(0.0),
            percentile(&self.edit_ms, 90).unwrap_or(0.0),
            self.solves_per_s,
            run.server.vm_hwm_kb as f64 / 1024.0,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_owned(), v, unit))
            .collect()
    }
}

/// `--repeat N`: N untraced runs per workload on seeds S, S+1, ...; prints
/// each end-to-end metric's values and its quartile spread against the
/// bound in BENCHMARK.json.
fn repeat(args: &Args, seconds: f64) -> Result<bool, String> {
    let bounds = declared_bounds()?;
    let mut all_correct = true;
    for &workload in &args.workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..args.repeat as u64 {
            let outcome = run_workload(workload, args.seed + i, seconds, false, args.smoke)?;
            all_correct &= outcome.correct;
            for problem in &outcome.problems {
                println!("  CHECK FAILED (seed {}): {problem}", args.seed + i);
            }
            for (name, value, _) in &outcome.metrics {
                values.entry(name.clone()).or_default().push(*value);
            }
        }
        println!(
            "== {} ({} runs, seeds {}..)",
            workload.name(),
            args.repeat,
            args.seed
        );
        for (name, unit) in END_TO_END {
            let v = values.get(name).cloned().unwrap_or_default();
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            let median = percentile(&sorted(v.clone()), 50).unwrap_or(0.0);
            let bound = bounds.get(name).copied();
            let verdict = match (spread(&v), bound) {
                (Some(s), Some(b)) => format!(
                    "spread {s:.4} vs bound {b} ({})",
                    if s <= b / 3.0 {
                        "below a third"
                    } else if s <= b {
                        "within"
                    } else {
                        "OVER"
                    }
                ),
                (Some(s), None) => format!("spread {s:.4}"),
                (None, _) => "spread needs 2+ runs".to_owned(),
            };
            println!(
                "  {name} [{unit}]: median {median:.4}; {verdict}; runs {}",
                shown.join(" ")
            );
        }
    }
    Ok(all_correct)
}

/// One metric list of BENCHMARK.json (`end_to_end` or `per_layer`):
/// name and, where given, bound.
fn declared_metrics(list: &str) -> Result<Vec<(String, Option<f64>)>, String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("reading {BENCHMARK_JSON}: {e}"))?;
    let declared = Json::parse(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    declared
        .get(list)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{BENCHMARK_JSON} has no {list} list"))?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            Ok((name.to_owned(), m.get("bound").and_then(Json::as_f64)))
        })
        .collect()
}

/// End-to-end bounds from BENCHMARK.json.
fn declared_bounds() -> Result<BTreeMap<String, f64>, String> {
    Ok(declared_metrics("end_to_end")?
        .into_iter()
        .filter_map(|(name, bound)| Some((name, bound?)))
        .collect())
}

/// Checks that a result line carries exactly the metrics BENCHMARK.json
/// lists for it.
fn check_declared(list: &str, metrics: &[(String, f64, &'static str)]) -> Result<(), String> {
    let mut declared: Vec<String> = declared_metrics(list)?.into_iter().map(|m| m.0).collect();
    let mut produced: Vec<String> = metrics.iter().map(|m| m.0.clone()).collect();
    declared.sort();
    produced.sort();
    if declared == produced {
        Ok(())
    } else {
        Err(format!(
            "metrics {produced:?} differ from BENCHMARK.json's {list} list {declared:?}"
        ))
    }
}
