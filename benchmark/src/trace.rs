//! The traced run: a fixed subset of the workload replayed serially and in
//! process through public functions only, in three passes, plus timings of
//! the serve layer. No span is recorded inside the program; every span
//! wraps a call into one layer from this file.
//!
//! 1. **Plain pass** — `Session::iterate`: the reference answers and times.
//! 2. **Decomposed pass** — `Mube::objective_in`, then `Solver::solve` over
//!    a timing wrapper of the objective (seed rule and warm start as in
//!    `Session`), then `match_schema` and `component_values`; its answers
//!    must be bit-identical to pass 1.
//! 3. **Layer pass** — every subset that missed the arena in pass 2 is
//!    replayed, timed, through `match_sources_deferring_spans` over a
//!    counting similarity wrapper, each QEF of [`QEFS`], and the PCSA union
//!    estimate.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mube_cluster::{match_sources_deferring_spans, AttrSimilarity, MatchStats};
use mube_core::{
    EvalArena, MatrixSimilarity, Mube, MubeObjective, ProblemSpec, Solution, SolveStats,
};
use mube_opt::{LpProblem, Solver, Subset, SubsetProblem};
use mube_qef::{Aggregation, CharacteristicQef, Qef};
use mube_schema::{AttrId, SourceId, SourceSelection};
use mube_serve::json::obj;
use mube_serve::proto::{ok_response, render_solution};
use mube_serve::{parse_request, serve_connection, Json, SessionHost};

use crate::replay::{drive, Runner, SessionRunner, SpecEdit};
use crate::stats::{percentile, self_time, sorted};
use crate::workload::{request, session_seed, Inputs, Plan, Step};

/// The traced subset: the first sessions covering at least this many
/// solves (6 with `--smoke`).
const TRACED_SOLVES: usize = 30;
/// Sessions in the serve-layer passes (1 with `--smoke`).
const SERVE_SESSIONS: usize = 3;
/// Every this-many-th similarity probe of pass 3 is kept for timing.
const PROBE_STRIDE: u64 = 16;
/// At most this many sampled probe pairs.
const PROBE_SAMPLE: usize = 100_000;
/// The QEFs besides matching that the workloads weight. The layer pass
/// replays all of them on every workload, so each `qef.<name>_ms` is
/// measured everywhere; only the weighted ones count toward the layer sum.
const QEFS: [&str; 4] = ["cardinality", "coverage", "redundancy", "mttf"];

/// One span: an interval of one layer's work on behalf of one request.
pub struct Span {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: String,
    start: u64,
    end: u64,
    counters: Vec<(&'static str, f64)>,
}

/// Spans kept in memory and written out at the end. Times are nanoseconds
/// from the tracer's origin. A span with a `busy_ns` counter aggregates
/// many calls (e.g. every `evaluate` of one solve): its interval runs from
/// the first call's start to the last call's end, and only `busy_ns` of it
/// counts as covered when its parent's self time is computed.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn span(
        &mut self,
        parent: Option<u64>,
        request: u64,
        name: &str,
        (start, end): (Instant, Instant),
        counters: Vec<(&'static str, f64)>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_owned(),
            start: self.ns(start),
            end: self.ns(end),
            counters,
        });
        id
    }

    /// Summed self time of every span called `name`.
    fn self_ns(&self, name: &str) -> u64 {
        let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children.entry(parent).or_default().push(span);
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
                let busy = |k: &Span| k.counters.iter().find(|c| c.0 == "busy_ns").map(|c| c.1);
                let intervals: Vec<(u64, u64)> = kids
                    .iter()
                    .filter(|k| busy(k).is_none())
                    .map(|k| (k.start, k.end))
                    .collect();
                let aggregated: f64 = kids.iter().filter_map(|k| busy(k)).sum();
                self_time((s.start, s.end), &intervals).saturating_sub(aggregated as u64)
            })
            .sum()
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            let counters = Json::Obj(
                s.counters
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
                    .collect(),
            );
            let line = obj([
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("request", Json::Num(s.request as f64)),
                ("name", Json::Str(s.name.clone())),
                ("start", Json::Num(s.start as f64)),
                ("end", Json::Num(s.end as f64)),
                ("counters", counters),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Per-layer accumulators over the traced subset.
#[derive(Default)]
struct Layers {
    iterate1: Duration,
    render_us: Vec<f64>,
    iterate2: Duration,
    objective_build: Duration,
    solve: Duration,
    finish: Duration,
    evaluate_calls: u64,
    evaluate: Duration,
    arena_hits: u64,
    reused: u64,
    recombined: u64,
    invalidated: u64,
    arena_entries: u64,
    evaluations: u64,
    iterations: u64,
    match_calls: u64,
    match_time: Duration,
    match_us: Vec<f64>,
    rounds: u64,
    match_stats: MatchStats,
    probes: u64,
    neighbor_lookups: u64,
    probe_sample: Vec<(AttrId, AttrId)>,
    qef_evals: u64,
    qef_time: BTreeMap<String, Duration>,
    /// The part of `qef_time` spent in QEFs the spec weights.
    qef_weighted: Duration,
    union_calls: u64,
    union_time: Duration,
}

/// What the traced run reports.
pub struct TraceReport {
    /// Per-layer metrics: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Solves replayed per pass.
    pub solves: usize,
    /// Failed checks: pass 2 not bit-identical to pass 1, replay errors.
    pub problems: Vec<String>,
    /// The layer self times' sum over pass-2 iterate time.
    pub layer_sum_frac: f64,
}

/// Runs the traced passes for `plan` and writes the spans to `spans_path`.
pub fn run(
    plan: &Plan,
    inputs: &Inputs,
    seed: u64,
    smoke: bool,
    spans_path: &Path,
) -> Result<TraceReport, String> {
    let names = inputs.names();
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut problems = Vec::new();

    let builder = inputs.builder(plan.workload.backend());
    let start = Instant::now();
    let mube = builder.try_build().map_err(|e| e.to_string())?;
    let snapshot_build = start.elapsed();
    let measure = mube_similarity::NgramJaccard::default();
    let start = Instant::now();
    let sim = MatrixSimilarity::with_backend(&inputs.universe, &measure, &plan.workload.backend())
        .map_err(|e| e.to_string())?;
    let similarity_build = start.elapsed();
    let sparse = sim.sparse_stats().cloned();
    drop(sim);

    let per_script = plan.solves_per_script().max(1);
    let traced_solves = if smoke { 6 } else { TRACED_SOLVES };
    let traced_sessions = traced_solves.div_ceil(per_script);
    let mut solves = 0;
    let mut request_base = 0;
    for k in 1..=traced_sessions {
        let session = session_seed(seed, k);
        let mut plain = SessionRunner::new(&mube);
        let reference = drive(
            plan,
            &inputs.universe,
            &names,
            session,
            usize::MAX,
            &mut plain,
        )?;
        for (i, &(start, end)) in plain.iterates.iter().enumerate() {
            tracer.span(
                None,
                (request_base + i) as u64,
                "pass1.iterate",
                (start, end),
                vec![],
            );
            layers.iterate1 += end - start;
        }
        let mut decomposed = Decomposed {
            mube: &mube,
            spec: None,
            solver: None,
            seed: 0,
            arena: Arc::new(EvalArena::new()),
            completed: 0,
            last: None,
            request_base,
            tracer: &mut tracer,
            layers: &mut layers,
        };
        let answers = drive(
            plan,
            &inputs.universe,
            &names,
            session,
            usize::MAX,
            &mut decomposed,
        )?;
        layers.arena_entries += decomposed.arena.len() as u64;
        if answers != reference {
            problems.push(format!(
                "session {k}: decomposed pass differs from Session::iterate: {answers:?} vs {reference:?}"
            ));
        }
        solves += reference.len();
        request_base += reference.len();
    }

    let probe_ns = time_probes(mube.similarity(), &layers.probe_sample);
    let serve_sessions = if smoke { 1 } else { SERVE_SESSIONS };
    let serve = serve_layers(plan, &mube, &names, seed, serve_sessions, &mut tracer)?;

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let opt_self = Duration::from_nanos(tracer.self_ns("opt.solve"));
    let evaluate_self = ms(layers.evaluate) - ms(layers.match_time) - ms(layers.qef_weighted);
    let layer_sum = ms(opt_self)
        + ms(layers.objective_build)
        + evaluate_self
        + ms(layers.match_time)
        + ms(layers.qef_weighted)
        + ms(layers.finish);
    let layer_sum_frac = layer_sum / ms(layers.iterate2).max(1e-9);
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| metrics.push((name.to_owned(), value, unit));
    put("serve.parse_us", serve.parse_us, "us");
    put(
        "serve.render_us",
        percentile(&sorted(layers.render_us.clone()), 50).unwrap_or(0.0),
        "us",
    );
    put("serve.dispatch_edit_ms", serve.dispatch_edit_ms, "ms");
    put("serve.dispatch_solve_ms", serve.dispatch_solve_ms, "ms");
    put("serve.tcp_edit_ms", serve.tcp_edit_ms, "ms");
    put(
        "serve.transport_edit_ms",
        serve.tcp_edit_ms - serve.dispatch_edit_ms,
        "ms",
    );
    put("core.snapshot_build_ms", ms(snapshot_build), "ms");
    put("core.iterate_ms", ms(layers.iterate1), "ms");
    put("core.objective_build_ms", ms(layers.objective_build), "ms");
    put("core.evaluate_calls", layers.evaluate_calls as f64, "count");
    put("core.evaluate_ms", ms(layers.evaluate), "ms");
    put("core.evaluate_self_ms", evaluate_self, "ms");
    put("core.arena_hits", layers.arena_hits as f64, "count");
    put(
        "core.arena_hit_ratio",
        layers.arena_hits as f64 / (layers.evaluate_calls.max(1)) as f64,
        "ratio",
    );
    put("core.reused", layers.reused as f64, "count");
    put("core.recombined", layers.recombined as f64, "count");
    put("core.invalidated", layers.invalidated as f64, "count");
    put("core.arena_entries", layers.arena_entries as f64, "count");
    put("core.finish_ms", ms(layers.finish), "ms");
    put("opt.solve_ms", ms(layers.solve), "ms");
    put("opt.self_ms", ms(opt_self), "ms");
    put("opt.evaluations", layers.evaluations as f64, "count");
    put("opt.iterations", layers.iterations as f64, "count");
    put("cluster.match_calls", layers.match_calls as f64, "count");
    put("cluster.match_ms", ms(layers.match_time), "ms");
    put(
        "cluster.match_us_p50",
        percentile(&sorted(layers.match_us.clone()), 50).unwrap_or(0.0),
        "us",
    );
    put("cluster.rounds", layers.rounds as f64, "count");
    put(
        "cluster.linkage_evals",
        layers.match_stats.linkage_evals as f64,
        "count",
    );
    put(
        "cluster.lw_updates",
        layers.match_stats.lw_updates as f64,
        "count",
    );
    put(
        "cluster.heap_pushes",
        layers.match_stats.heap_pushes as f64,
        "count",
    );
    put(
        "cluster.stale_pops",
        layers.match_stats.stale_pops as f64,
        "count",
    );
    put("similarity.build_ms", ms(similarity_build), "ms");
    put("similarity.probes", layers.probes as f64, "count");
    put(
        "similarity.probes_per_match",
        layers.probes as f64 / layers.match_calls.max(1) as f64,
        "count",
    );
    put("similarity.probe_ns", probe_ns, "ns");
    put(
        "similarity.probe_ms",
        layers.probes as f64 * probe_ns / 1e6,
        "ms",
    );
    put(
        "similarity.neighbor_lookups",
        layers.neighbor_lookups as f64,
        "count",
    );
    put(
        "similarity.sparse_candidate_pairs",
        sparse.as_ref().map_or(0.0, |s| s.candidate_pairs as f64),
        "count",
    );
    put(
        "similarity.sparse_kept_pairs",
        sparse.as_ref().map_or(0.0, |s| s.kept_pairs as f64),
        "count",
    );
    put(
        "similarity.spill_runs",
        sparse.as_ref().map_or(0.0, |s| f64::from(s.spill.runs)),
        "count",
    );
    put("qef.evals", layers.qef_evals as f64, "count");
    for name in QEFS {
        let t = layers.qef_time.get(name).copied().unwrap_or_default();
        put(&format!("qef.{name}_ms"), ms(t), "ms");
    }
    put("pcsa.union_calls", layers.union_calls as f64, "count");
    put(
        "pcsa.union_us",
        layers.union_time.as_secs_f64() * 1e6 / layers.union_calls.max(1) as f64,
        "us",
    );
    put(
        "trace.overhead_frac",
        layers.iterate2.as_secs_f64() / layers.iterate1.as_secs_f64().max(1e-9) - 1.0,
        "ratio",
    );
    tracer.write(spans_path)?;
    Ok(TraceReport {
        metrics,
        solves,
        problems,
        layer_sum_frac,
    })
}

/// Pass 2: one session decomposed into its layer calls, with pass 3
/// replaying each solve's arena misses right after it.
struct Decomposed<'a> {
    mube: &'a Mube,
    spec: Option<ProblemSpec>,
    solver: Option<Box<dyn Solver>>,
    seed: u64,
    arena: Arc<EvalArena>,
    /// Completed iterations (the seed offset, as in `Session`).
    completed: u64,
    /// The previous solution's items, for the warm start.
    last: Option<Vec<usize>>,
    request_base: usize,
    tracer: &'a mut Tracer,
    layers: &'a mut Layers,
}

impl Runner for Decomposed<'_> {
    fn create(
        &mut self,
        solver: Box<dyn Solver>,
        spec: ProblemSpec,
        seed: u64,
    ) -> Result<(), String> {
        self.solver = Some(solver);
        self.spec = Some(spec);
        self.seed = seed;
        Ok(())
    }

    fn edit(&mut self, edit: SpecEdit) -> Result<(), String> {
        let spec = self.spec.as_mut().ok_or("no session yet")?;
        match edit {
            SpecEdit::Require(id) => {
                spec.constraints.require_source(id);
            }
            SpecEdit::Adopt(ga) => {
                spec.constraints.require_ga(ga);
            }
            SpecEdit::Weights(w) => spec.weights = w,
            SpecEdit::Theta(theta) => spec.match_config.theta = theta,
            SpecEdit::MaxSources(m) => spec.max_sources = m,
        }
        Ok(())
    }

    fn solve(&mut self, request: usize) -> Result<Json, String> {
        let request = (self.request_base + request) as u64;
        let spec = self.spec.as_ref().ok_or("no session yet")?;
        let base = self.solver.as_deref().ok_or("no session yet")?;
        let t0 = Instant::now();
        let iteration_seed = self.seed.wrapping_add(self.completed);
        let warm = self
            .last
            .as_ref()
            .and_then(|items| base.with_warm_start(items));
        let solver: &dyn Solver = warm.as_deref().unwrap_or(base);
        let t1 = Instant::now();
        let objective = self
            .mube
            .objective_in(spec, &self.arena)
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let timed = Timed::new(&objective, &self.arena);
        let result = solver.solve(&timed, iteration_seed);
        let t3 = Instant::now();
        if !result.is_feasible() {
            return Err("decomposed solve found no feasible subset".to_owned());
        }
        let selected: Vec<SourceId> = result.best.iter().map(|i| SourceId(i as u32)).collect();
        let outcome = objective
            .match_schema(&selected)
            .ok_or("the winning subset has no schema")?;
        let qef_values = objective
            .component_values(&selected)
            .into_iter()
            .map(|(name, w, v)| (name, (w, v)))
            .collect();
        let t4 = Instant::now();

        let solution = Solution {
            selected,
            schema: outcome.schema,
            overall_quality: result.objective,
            qef_values,
            stats: SolveStats {
                evaluations: result.evaluations,
                iterations: result.iterations,
                match_calls: objective.match_calls(),
                cache_hits: objective.cache_hits(),
                warm_start: warm.is_some(),
                ..SolveStats::default()
            },
        };
        let render_start = Instant::now();
        let rendered = render_solution(self.mube.universe(), &solution);
        let line = ok_response(0, vec![("solution", rendered.clone())]);
        let render_end = Instant::now();
        std::hint::black_box(line);
        self.completed += 1;
        self.last = Some(result.best.iter().collect());

        let state = timed.into_state();
        let l = &mut *self.layers;
        l.render_us
            .push((render_end - render_start).as_secs_f64() * 1e6);
        l.iterate2 += t4 - t0;
        l.objective_build += t2 - t1;
        l.solve += t3 - t2;
        l.finish += t4 - t3;
        l.evaluate_calls += state.calls;
        l.evaluate += state.busy;
        l.arena_hits += objective.cache_hits();
        l.reused += objective.reused();
        l.recombined += objective.recombined();
        l.invalidated += objective.invalidated();
        l.evaluations += result.evaluations;
        l.iterations += result.iterations;

        let tr = &mut *self.tracer;
        let root = tr.span(None, request, "pass2.iterate", (t0, t4), vec![]);
        tr.span(
            Some(root),
            request,
            "core.objective_build",
            (t1, t2),
            vec![],
        );
        let solve = tr.span(
            Some(root),
            request,
            "opt.solve",
            (t2, t3),
            vec![
                ("evaluations", result.evaluations as f64),
                ("iterations", result.iterations as f64),
            ],
        );
        if let (Some(first), Some(last)) = (state.first, state.last_end) {
            tr.span(
                Some(solve),
                request,
                "core.evaluate",
                (first, last),
                vec![
                    ("calls", state.calls as f64),
                    ("busy_ns", state.busy.as_nanos() as f64),
                    ("misses", state.misses.len() as f64),
                    ("arena_hits", objective.cache_hits() as f64),
                ],
            );
        }
        tr.span(Some(root), request, "core.finish", (t3, t4), vec![]);
        replay_misses(self.mube, spec, &state.misses, request, tr, l);
        Ok(rendered)
    }
}

/// One arena miss of pass 2: the subset, and whether it was a full miss
/// (every component computed and a new entry inserted) rather than a stale
/// entry whose `Match(S)` alone was recomputed.
struct Miss {
    subset: Subset,
    full: bool,
}

#[derive(Default)]
struct TimedState {
    calls: u64,
    busy: Duration,
    first: Option<Instant>,
    last_end: Option<Instant>,
    arena_len: usize,
    misses: Vec<Miss>,
}

/// The objective behind a timing wrapper: forwards every trait method,
/// times each `evaluate`, and records the subsets that ran `Match(S)`.
struct Timed<'a> {
    inner: &'a MubeObjective,
    arena: &'a EvalArena,
    state: Mutex<TimedState>,
}

impl<'a> Timed<'a> {
    fn new(inner: &'a MubeObjective, arena: &'a EvalArena) -> Self {
        let state = TimedState {
            arena_len: arena.len(),
            ..TimedState::default()
        };
        Self {
            inner,
            arena,
            state: Mutex::new(state),
        }
    }

    fn into_state(self) -> TimedState {
        self.state.into_inner().expect("timing state poisoned")
    }
}

impl SubsetProblem for Timed<'_> {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn max_selected(&self) -> usize {
        self.inner.max_selected()
    }

    fn pinned(&self) -> &[usize] {
        self.inner.pinned()
    }

    fn evaluate(&self, subset: &Subset) -> f64 {
        let before = self.inner.match_calls();
        let start = Instant::now();
        let value = self.inner.evaluate(subset);
        let end = Instant::now();
        let missed = self.inner.match_calls() > before;
        let mut state = self.state.lock().expect("timing state poisoned");
        state.calls += 1;
        state.busy += end - start;
        state.first.get_or_insert(start);
        state.last_end = Some(end);
        if missed {
            // Only a full miss inserts; hits and stale re-matches leave the
            // entry count alone.
            let len = self.arena.len();
            let full = len > state.arena_len;
            state.arena_len = len;
            state.misses.push(Miss {
                subset: subset.clone(),
                full,
            });
        }
        value
    }

    fn is_structurally_feasible(&self, subset: &Subset) -> bool {
        self.inner.is_structurally_feasible(subset)
    }

    fn component_bound(&self, decided_in: &Subset, decided_out: &Subset) -> Option<f64> {
        self.inner.component_bound(decided_in, decided_out)
    }

    fn lp_relaxation(&self, decided_in: &Subset, decided_out: &Subset) -> Option<(LpProblem, f64)> {
        self.inner.lp_relaxation(decided_in, decided_out)
    }

    fn cancelled(&self) -> bool {
        self.inner.cancelled()
    }
}

/// The engine's similarity behind probe counters. `class_of` and
/// `neighbors_of_class` are forwarded so the kernel takes the same path.
struct Counting<'a> {
    inner: &'a MatrixSimilarity,
    probes: Cell<u64>,
    neighbor_lookups: Cell<u64>,
    sample: RefCell<&'a mut Vec<(AttrId, AttrId)>>,
}

impl AttrSimilarity for Counting<'_> {
    fn similarity(&self, a: AttrId, b: AttrId) -> f64 {
        let n = self.probes.get() + 1;
        self.probes.set(n);
        if n.is_multiple_of(PROBE_STRIDE) {
            let mut sample = self.sample.borrow_mut();
            if sample.len() < PROBE_SAMPLE {
                sample.push((a, b));
            }
        }
        self.inner.similarity(a, b)
    }

    fn class_of(&self, attr: AttrId) -> Option<u32> {
        self.inner.class_of(attr)
    }

    fn neighbors_of_class(&self, class: u32) -> Option<&[u32]> {
        self.neighbor_lookups.set(self.neighbor_lookups.get() + 1);
        self.inner.neighbors_of_class(class)
    }
}

/// Pass 3 for one solve: replays every miss through the layers below the
/// objective and records one aggregated span per layer.
fn replay_misses(
    mube: &Mube,
    spec: &ProblemSpec,
    misses: &[Miss],
    request: u64,
    tracer: &mut Tracer,
    l: &mut Layers,
) {
    let universe = mube.universe();
    let ctx = mube.context();
    // Bound the way the engine binds weights: a registered QEF by name,
    // otherwise a source characteristic.
    let characteristics: Vec<Option<CharacteristicQef>> = QEFS
        .iter()
        .map(|&name| {
            let registered = mube.snapshot().qefs().iter().any(|q| q.name() == name);
            (!registered).then(|| CharacteristicQef::new(name, Aggregation::WeightedSum))
        })
        .collect();
    let qefs: Vec<(&str, &dyn Qef)> = QEFS
        .iter()
        .zip(&characteristics)
        .filter_map(|(&name, characteristic)| {
            let qef: &dyn Qef = match characteristic {
                Some(c) => c,
                None => mube
                    .snapshot()
                    .qefs()
                    .iter()
                    .find(|q| q.name() == name)?
                    .as_ref(),
            };
            Some((name, qef))
        })
        .collect();

    let started = Instant::now();
    let mut match_busy = Duration::ZERO;
    let mut qef_busy: BTreeMap<String, Duration> = BTreeMap::new();
    let mut union_busy = Duration::ZERO;
    let (mut probes, mut lookups, mut unions) = (0u64, 0u64, 0u64);
    for miss in misses {
        let ids: Vec<SourceId> = miss.subset.iter().map(|i| SourceId(i as u32)).collect();
        let matched = |sim: &dyn AttrSimilarity| {
            match_sources_deferring_spans(
                universe,
                &ids,
                &spec.constraints,
                &spec.match_config,
                sim,
            )
        };
        // One replay, timed over the counting wrapper: a counter costs about
        // a nanosecond per probe, around 1% of the Match time.
        let counting = Counting {
            inner: mube.similarity(),
            probes: Cell::new(0),
            neighbor_lookups: Cell::new(0),
            sample: RefCell::new(&mut l.probe_sample),
        };
        let start = Instant::now();
        let outcome = matched(&counting);
        let dt = start.elapsed();
        match_busy += dt;
        l.match_us.push(dt.as_secs_f64() * 1e6);
        if let Some(outcome) = outcome {
            l.rounds += u64::from(outcome.rounds);
            l.match_stats.absorb(&outcome.stats);
        }
        probes += counting.probes.get();
        lookups += counting.neighbor_lookups.get();
        if !miss.full {
            continue;
        }
        let selection = SourceSelection::from_words(universe.len(), miss.subset.words());
        for &(name, qef) in &qefs {
            let start = Instant::now();
            std::hint::black_box(qef.evaluate(&selection, ctx));
            let dt = start.elapsed();
            *qef_busy.entry(name.to_owned()).or_default() += dt;
            if spec.weights.get(name) > 0.0 {
                l.qef_weighted += dt;
            }
            l.qef_evals += 1;
        }
        let start = Instant::now();
        std::hint::black_box(ctx.union_estimate(&selection));
        union_busy += start.elapsed();
        unions += 1;
    }
    let ended = Instant::now();
    l.match_calls += misses.len() as u64;
    l.match_time += match_busy;
    l.probes += probes;
    l.neighbor_lookups += lookups;
    l.union_calls += unions;
    l.union_time += union_busy;
    let root = tracer.span(None, request, "pass3.replay", (started, ended), vec![]);
    tracer.span(
        Some(root),
        request,
        "cluster.match",
        (started, ended),
        vec![
            ("calls", misses.len() as f64),
            ("busy_ns", match_busy.as_nanos() as f64),
            ("probes", probes as f64),
            ("neighbor_lookups", lookups as f64),
        ],
    );
    for (name, busy) in qef_busy {
        tracer.span(
            Some(root),
            request,
            &format!("qef.{name}"),
            (started, ended),
            vec![("busy_ns", busy.as_nanos() as f64)],
        );
        *l.qef_time.entry(name).or_default() += busy;
    }
    tracer.span(
        Some(root),
        request,
        "pcsa.union",
        (started, ended),
        vec![
            ("calls", unions as f64),
            ("busy_ns", union_busy.as_nanos() as f64),
        ],
    );
}

/// Mean time of one similarity probe over the sampled pairs, repeated
/// until at least 20 ms were measured; 0 with no sample.
fn time_probes(sim: &MatrixSimilarity, sample: &[(AttrId, AttrId)]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut probes = 0u64;
    while start.elapsed() < Duration::from_millis(20) {
        for &(a, b) in sample {
            std::hint::black_box(sim.similarity(std::hint::black_box(a), b));
        }
        probes += sample.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / probes as f64
}

/// Serve-layer medians.
struct ServeLayers {
    parse_us: f64,
    dispatch_edit_ms: f64,
    dispatch_solve_ms: f64,
    tcp_edit_ms: f64,
}

/// Times request parsing, a serial pass through `SessionHost` dispatch,
/// and a serial pass over a loopback `serve_connection`, on the first
/// sessions' scripts.
fn serve_layers(
    plan: &Plan,
    mube: &Mube,
    names: &BTreeSet<String>,
    seed: u64,
    sessions: usize,
    tracer: &mut Tracer,
) -> Result<ServeLayers, String> {
    let mut parse_us = Vec::new();
    let (mut dispatch_edit, mut dispatch_solve) = (Vec::new(), Vec::new());
    let host = SessionHost::new(mube.clone());
    let mut line_no = 0u64;
    for k in 1..=sessions {
        play(plan, names, session_seed(seed, k), &mut |line, step| {
            line_no += 1;
            const REPEAT: u32 = 20;
            let start = Instant::now();
            for _ in 0..REPEAT {
                std::hint::black_box(parse_request(std::hint::black_box(line))?);
            }
            let parse = start.elapsed() / REPEAT;
            parse_us.push(parse.as_secs_f64() * 1e6);
            let (tx, rx) = mpsc::channel();
            let start = Instant::now();
            host.handle_request(parse_request(line)?, &tx);
            let response = rx.recv().map_err(|_| "host dropped a request".to_owned())?;
            let end = Instant::now();
            let ms = (end - start).as_secs_f64() * 1e3;
            if step.is_solve() {
                dispatch_solve.push(ms);
            } else {
                dispatch_edit.push(ms);
            }
            tracer.span(
                None,
                line_no,
                "serve.dispatch",
                (start, end),
                vec![("parse_ns", parse.as_nanos() as f64)],
            );
            Ok(response)
        })?;
    }
    host.shutdown();

    let host = Arc::new(SessionHost::new(mube.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port();
    let mut tcp_edit = Vec::new();
    let served = std::thread::scope(|scope| {
        let server = scope.spawn(|| -> Result<(), String> {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            let reader = stream.try_clone().map_err(|e| e.to_string())?;
            serve_connection(&host, BufReader::new(reader), stream).map_err(|e| e.to_string())
        });
        let client = (|| -> Result<(), String> {
            let mut stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            for k in 1..=sessions {
                play(plan, names, session_seed(seed, k), &mut |line, step| {
                    line_no += 1;
                    let start = Instant::now();
                    stream
                        .write_all(format!("{line}\n").as_bytes())
                        .map_err(|e| e.to_string())?;
                    let mut response = String::new();
                    reader.read_line(&mut response).map_err(|e| e.to_string())?;
                    let end = Instant::now();
                    if !step.is_solve() {
                        tcp_edit.push((end - start).as_secs_f64() * 1e3);
                    }
                    tracer.span(None, line_no, "serve.tcp", (start, end), vec![]);
                    Ok(response)
                })?;
            }
            stream
                .shutdown(std::net::Shutdown::Write)
                .map_err(|e| e.to_string())
        })();
        let server = server
            .join()
            .map_err(|_| "serve thread panicked".to_owned());
        client.and(server?)
    });
    served?;
    host.shutdown();

    let median = |v: Vec<f64>| percentile(&sorted(v), 50).unwrap_or(0.0);
    Ok(ServeLayers {
        parse_us: median(parse_us),
        dispatch_edit_ms: median(dispatch_edit),
        dispatch_solve_ms: median(dispatch_solve),
        tcp_edit_ms: median(tcp_edit),
    })
}

/// Plays one session script serially at the request-line level: `send`
/// carries one rendered request and returns its response line.
fn play(
    plan: &Plan,
    names: &BTreeSet<String>,
    seed: u64,
    send: &mut dyn FnMut(&str, &Step) -> Result<String, String>,
) -> Result<(), String> {
    let mut session = 0;
    let mut last: Option<Json> = None;
    for (i, step) in plan.script.iter().enumerate() {
        let (json, _) = request(
            plan,
            step,
            i as u64 + 1,
            seed,
            session,
            last.as_ref(),
            names,
        )?;
        let line = send(&json.render(), step)?;
        let response = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        if response.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("serve pass: error response {line}"));
        }
        match step {
            Step::Create => {
                session = response
                    .get("session")
                    .and_then(Json::as_u64)
                    .ok_or("create-session answered without a session")?;
            }
            Step::Solve => last = response.get("solution").cloned(),
            _ => {}
        }
    }
    Ok(())
}
