//! The four workloads: inputs generated from the seed, the engine built
//! over them, each session's script, and the load shape.
//!
//! Why these four (see README.md for the full table):
//! * `feedback` — the paper's §6 loop; consecutive solves share most
//!   subsets, so the session arena, tabu search and the cheap-command
//!   serve path do the work.
//! * `cold_match` — every solve follows a θ edit, so `Match(S)`, dense
//!   similarity probes and PCSA unions do the work and the arena only
//!   takes writes: the counterpart that catches a slower cold path.
//! * `sparse_scale` — the sparse (CSR) similarity backend at 2000 sources;
//!   the dense workloads never touch this path.
//! * `arrivals` — independent users on a seeded arrival schedule build a
//!   real queue on two cores, exposing per-session threads, host dispatch
//!   and CPU contention that two waiting clients never show.

use std::collections::BTreeSet;
use std::sync::Arc;

use mube_core::{Mube, MubeBuilder, SimBackend, SparseOptions};
use mube_datagen::{ScaleConfig, UniverseConfig};
use mube_pcsa::PcsaSketch;
use mube_schema::Universe;
use mube_serve::Json;

/// The run seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Every run of a workload serves the same universe, generated from this
/// seed; `--seed` draws the sessions on it (solver seeds, weight jitter,
/// pinned sources, the arrival schedule). Universes drawn per run made the
/// run-to-run spread of every latency 0.6-0.8 of its median (a few large
/// sources decide what greedy and tabu search cost), far above any usable
/// regression bound.
pub const CORPUS_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over the paper's §6 feedback script (tabu search).
    Feedback,
    /// Closed loop where every solve follows a θ edit (greedy).
    ColdMatch,
    /// Closed loop on the sparse similarity backend at scale (greedy).
    SparseScale,
    /// Open loop: users arrive on a seeded schedule at fixed rates.
    Arrivals,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Feedback,
        Workload::ColdMatch,
        Workload::SparseScale,
        Workload::Arrivals,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Feedback => "feedback",
            Workload::ColdMatch => "cold_match",
            Workload::SparseScale => "sparse_scale",
            Workload::Arrivals => "arrivals",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sizes, script and load shape; `smoke` shrinks everything so all
    /// four workloads finish in seconds.
    pub fn plan(self, smoke: bool) -> Plan {
        let pick = |full: usize, tiny: usize| if smoke { tiny } else { full };
        let paper = paper_weights();
        match self {
            Workload::Feedback => Plan {
                workload: self,
                sources: pick(100, 24),
                solver: "tabu",
                max_sources: 5,
                weights: paper.clone(),
                jitter: 0.0,
                script: vec![
                    Step::Create,
                    Step::Solve,
                    Step::Nudge(0.05),
                    Step::Solve,
                    Step::AdoptSmallestGa,
                    Step::Solve,
                    Step::Nudge(0.10),
                    Step::Solve,
                    Step::PinFromLast,
                    Step::Solve,
                    Step::RestoreWeights,
                    Step::Solve,
                    Step::Inspect,
                    Step::Diff,
                ],
                load: Load::Closed {
                    sessions: 2,
                    memory_after: pick(16, 2),
                },
            },
            Workload::ColdMatch => Plan {
                workload: self,
                sources: pick(400, 60),
                solver: "greedy",
                max_sources: pick(10, 5),
                weights: paper,
                jitter: 0.15,
                script: vec![
                    Step::Create,
                    Step::Solve,
                    Step::Theta(0.7),
                    Step::Solve,
                    Step::Theta(0.8),
                    Step::Solve,
                    Step::Theta(0.65),
                    Step::Solve,
                ],
                load: Load::Closed {
                    sessions: 2,
                    memory_after: pick(24, 4),
                },
            },
            Workload::SparseScale => Plan {
                workload: self,
                sources: pick(2000, 200),
                solver: "greedy",
                max_sources: 3,
                weights: vec![
                    ("matching".to_owned(), 1.0),
                    ("cardinality".to_owned(), 1.0),
                ],
                jitter: 0.05,
                script: vec![
                    Step::Create,
                    Step::Solve,
                    Step::Theta(0.7),
                    Step::Solve,
                    Step::Theta(0.8),
                    Step::Solve,
                ],
                load: Load::Closed {
                    sessions: 2,
                    memory_after: pick(30, 4),
                },
            },
            // The solve p90's spread over ten seeds was 0.25 with paper(200)
            // and m = 8 at 2 users/s, where a few overlapping solves make the
            // tail, and 0.15-0.3 with this universe at 8-12 users/s, where
            // bursts and host hiccups queue solves. At 4 users/s it is 0.08,
            // so that is the operating rate; the sweep doubles it until the
            // SLO breaks.
            Workload::Arrivals => Plan {
                workload: self,
                sources: pick(120, 40),
                solver: "greedy",
                max_sources: pick(6, 4),
                weights: paper,
                jitter: 0.05,
                script: vec![
                    Step::Create,
                    Step::Solve,
                    Step::Nudge(0.05),
                    Step::Solve,
                    Step::PinFromLast,
                    Step::Solve,
                ],
                load: Load::Open {
                    rates: [4.0, 8.0, 16.0, 32.0],
                    operating: 0,
                    slo_ms: 100.0,
                },
            },
        }
    }

    /// Generates the workload's universe (see [`CORPUS_SEED`]).
    pub fn generate(self, plan: &Plan) -> Inputs {
        let seed = CORPUS_SEED;
        match self {
            // paper(n) with the reduced tuple pools and 64-bitmap sketches
            // of `small_test`: coverage and redundancy stay live while the
            // data synthesis stays cheap.
            Workload::Feedback => {
                let g = UniverseConfig::small_test(plan.sources, seed).generate();
                Inputs::new(g.universe, Some(g.sketches))
            }
            Workload::ColdMatch | Workload::Arrivals => {
                let g = UniverseConfig::paper(plan.sources, seed).generate();
                Inputs::new(g.universe, Some(g.sketches))
            }
            Workload::SparseScale => {
                let g = ScaleConfig::blocking_stress(plan.sources, seed).generate();
                Inputs::new(g.universe, None)
            }
        }
    }

    /// The similarity backend the server builds.
    pub fn backend(self) -> SimBackend {
        match self {
            Workload::SparseScale => SimBackend::Sparse(SparseOptions::default()),
            _ => SimBackend::default(),
        }
    }

    /// The backend of the in-process reference replay. For `sparse_scale`
    /// it is dense, so the replay also checks that the sparse answers equal
    /// the dense ones.
    pub fn reference_backend(self) -> SimBackend {
        match self {
            Workload::SparseScale => SimBackend::Dense,
            other => other.backend(),
        }
    }
}

/// The paper's default QEF weights, in protocol form.
fn paper_weights() -> Vec<(String, f64)> {
    [
        ("matching", 0.25),
        ("cardinality", 0.25),
        ("coverage", 0.2),
        ("redundancy", 0.15),
        ("mttf", 0.15),
    ]
    .into_iter()
    .map(|(n, w)| (n.to_owned(), w))
    .collect()
}

/// A session's own weights: the plan's, each scaled by a factor in
/// `1 ± plan.jitter` drawn from the session seed (the server normalizes
/// them), so sessions search different landscapes over the one universe.
pub fn session_weights(plan: &Plan, seed: u64) -> Vec<(String, f64)> {
    let mut rng = SplitMix(seed ^ 0x77e1_6475_0000_0000);
    plan.weights
        .iter()
        .map(|(n, w)| {
            (
                n.clone(),
                w * (1.0 + plan.jitter * (2.0 * rng.unit() - 1.0)),
            )
        })
        .collect()
}

/// Moves `by` of weight from cardinality to matching.
fn nudged(weights: &[(String, f64)], by: f64) -> Vec<(String, f64)> {
    weights
        .iter()
        .map(|(n, w)| match n.as_str() {
            "matching" => (n.clone(), w + by),
            "cardinality" => (n.clone(), (w - by).max(0.0)),
            _ => (n.clone(), *w),
        })
        .collect()
}

/// SplitMix64: a tiny seeded generator for weights and schedules.
pub struct SplitMix(pub u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A workload's sizes, script and load shape.
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// Universe size.
    pub sources: usize,
    /// Solver name on the wire.
    pub solver: &'static str,
    /// Source budget `m`.
    pub max_sources: usize,
    /// Base QEF weights; each session jitters its own copy.
    pub weights: Vec<(String, f64)>,
    /// Relative weight jitter per session (see [`session_weights`]).
    pub jitter: f64,
    /// The per-session script.
    pub script: Vec<Step>,
    /// The load shape.
    pub load: Load,
}

impl Plan {
    /// Solves in one full script.
    pub fn solves_per_script(&self) -> usize {
        self.script.iter().filter(|s| s.is_solve()).count()
    }
}

/// How sessions are offered to the server.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// `sessions` clients, each starting its next script as soon as the
    /// last one finished; zero think time.
    Closed {
        /// Concurrent sessions.
        sessions: usize,
        /// The server's peak memory is read once this many measured
        /// sessions have finished, so it reflects a fixed amount of work
        /// rather than how many sessions a faster server fits in the
        /// window. A run that finishes fewer reports the peak at its end.
        memory_after: usize,
    },
    /// Users arrive on a seeded schedule; each runs its script
    /// closed-loop. The untraced run holds the operating rate for the whole
    /// window; the traced run sweeps every rate for an equal share of it.
    Open {
        /// Arrival rates in users per second.
        rates: [f64; 4],
        /// Index of the operating-point rate.
        operating: usize,
        /// A rate meets the SLO when its solve p90 is at most this.
        slo_ms: f64,
    },
}

/// One step of a session script.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// `create-session` with the plan's solver, budget and weights.
    Create,
    /// `solve`.
    Solve,
    /// Move this much weight from cardinality to matching, relative to
    /// the session's own weights.
    Nudge(f64),
    /// Restore the session's own weights.
    RestoreWeights,
    /// Set θ.
    Theta(f64),
    /// Adopt the smallest GA of the last solution that has at least two
    /// members (the first of equally small ones) as a constraint. A GA
    /// constraint requires the source of every member, so a larger GA pins
    /// more of the `m` sources. The first GA in schema order pinned three or
    /// four of five, and the largest pinned four. Most solves after it then
    /// did under 4 ms of work, and a response that fast is timed by the
    /// delayed-ACK stall alone (README, baseline observations). The median
    /// solve then sat on that stall's 4 ms steps and jumped a step from one
    /// run to the next. Two members pin two sources and leave each later
    /// solve a warm search.
    AdoptSmallestGa,
    /// Pin one source of the last solution, chosen by the session seed.
    PinFromLast,
    /// `inspect`.
    Inspect,
    /// `diff`.
    Diff,
}

impl Step {
    /// Whether this step is a solve.
    pub fn is_solve(&self) -> bool {
        matches!(self, Step::Solve)
    }
}

/// What a script step asks of the last solution, kept so the answer can be
/// checked: a pinned source must be selected, an adopted GA subsumed.
#[derive(Clone, Debug, PartialEq)]
pub enum Demand {
    /// This source must appear in every later solution.
    Pinned(String),
    /// Some GA of every later solution must contain all these members
    /// (`"source.attr"` display strings).
    Adopted(Vec<String>),
}

/// The base seed of the `k`-th session of a run, kept below 2^52 so it
/// survives the protocol's JSON numbers exactly.
pub fn session_seed(run_seed: u64, k: usize) -> u64 {
    run_seed.wrapping_mul(1_000_003).wrapping_add(k as u64) & ((1 << 52) - 1)
}

/// Builds the request for one script step. `last` is the session's latest
/// rendered solution; `session` its server-side id. Returns the request
/// and, for steps that constrain later answers, what they demand.
pub fn request(
    plan: &Plan,
    step: &Step,
    id: u64,
    seed: u64,
    session: u64,
    last: Option<&Json>,
    names: &BTreeSet<String>,
) -> Result<(Json, Option<Demand>), String> {
    let mut members = vec![("id", Json::Num(id as f64))];
    let mut demand = None;
    match step {
        Step::Create => {
            members.push(("cmd", Json::Str("create-session".to_owned())));
            members.push(("max_sources", Json::Num(plan.max_sources as f64)));
            members.push(("seed", Json::Num(seed as f64)));
            members.push(("solver", Json::Str(plan.solver.to_owned())));
            members.push(("weights", weights_json(&session_weights(plan, seed))));
        }
        Step::Solve | Step::Inspect | Step::Diff => {
            let cmd = match step {
                Step::Solve => "solve",
                Step::Inspect => "inspect",
                _ => "diff",
            };
            members.push(("cmd", Json::Str(cmd.to_owned())));
        }
        Step::Nudge(by) => {
            let weights = nudged(&session_weights(plan, seed), *by);
            members.push(("cmd", Json::Str("edit-constraints".to_owned())));
            members.push(("weights", weights_json(&weights)));
        }
        Step::RestoreWeights => {
            members.push(("cmd", Json::Str("edit-constraints".to_owned())));
            members.push(("weights", weights_json(&session_weights(plan, seed))));
        }
        Step::Theta(theta) => {
            members.push(("cmd", Json::Str("edit-constraints".to_owned())));
            members.push(("theta", Json::Num(*theta)));
        }
        Step::AdoptSmallestGa => {
            let ga = last
                .and_then(|s| s.get("schema"))
                .and_then(Json::as_arr)
                .and_then(|gas| {
                    gas.iter()
                        .filter_map(Json::as_arr)
                        .filter(|ga| ga.len() >= 2)
                        .min_by_key(|ga| ga.len())
                })
                .ok_or("adopt step: the last solution has no GA of two or more members")?;
            let mut attrs = Vec::with_capacity(ga.len());
            let mut shown = Vec::with_capacity(ga.len());
            for member in ga {
                let member = member
                    .as_str()
                    .ok_or("adopt step: GA member is not a string")?;
                let (source, attr) = split_member(member, names)
                    .ok_or_else(|| format!("adopt step: no known source prefixes {member:?}"))?;
                attrs.push(mube_serve::json::obj([
                    ("source", Json::Str(source.to_owned())),
                    ("attr", Json::Str(attr.to_owned())),
                ]));
                shown.push(member.to_owned());
            }
            members.push(("cmd", Json::Str("edit-constraints".to_owned())));
            members.push(("adopt_ga", Json::Arr(vec![Json::Arr(attrs)])));
            demand = Some(Demand::Adopted(shown));
        }
        Step::PinFromLast => {
            let selected = last
                .and_then(|s| s.get("selected"))
                .and_then(Json::as_arr)
                .filter(|s| !s.is_empty())
                .ok_or("pin step: the last solution selected nothing")?;
            let name = selected[(seed % selected.len() as u64) as usize]
                .as_str()
                .ok_or("pin step: selected entry is not a string")?;
            members.push(("cmd", Json::Str("edit-constraints".to_owned())));
            members.push(("require_source", Json::Str(name.to_owned())));
            demand = Some(Demand::Pinned(name.to_owned()));
        }
    }
    if !matches!(step, Step::Create) {
        members.push(("session", Json::Num(session as f64)));
    }
    Ok((mube_serve::json::obj(members), demand))
}

fn weights_json(weights: &[(String, f64)]) -> Json {
    Json::Obj(
        weights
            .iter()
            .map(|(n, w)| (n.clone(), Json::Num(*w)))
            .collect(),
    )
}

/// Splits a `"source.attr"` display string at the longest known source
/// name: source names themselves contain dots (`books07.example.com`).
pub fn split_member<'a>(member: &'a str, names: &BTreeSet<String>) -> Option<(&'a str, &'a str)> {
    member
        .rmatch_indices('.')
        .map(|(i, _)| (&member[..i], &member[i + 1..]))
        .find(|(source, _)| names.contains(*source))
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The universe.
    pub universe: Arc<Universe>,
    /// Per-source PCSA sketches, when the workload has data.
    pub sketches: Option<Vec<Option<PcsaSketch>>>,
}

impl Inputs {
    fn new(universe: Universe, sketches: Option<Vec<Option<PcsaSketch>>>) -> Self {
        Self {
            universe: Arc::new(universe),
            sketches,
        }
    }

    /// Every source name, for resolving GA display strings.
    pub fn names(&self) -> BTreeSet<String> {
        self.universe
            .sources()
            .iter()
            .map(|s| s.name().to_owned())
            .collect()
    }

    /// Builds an engine over these inputs; the sketches are cloned first,
    /// so callers timing the build should clone outside their timer via
    /// [`Inputs::builder`].
    pub fn engine(&self, backend: SimBackend) -> Result<Mube, String> {
        self.builder(backend).try_build().map_err(|e| e.to_string())
    }

    /// An engine builder over these inputs, sketches attached.
    pub fn builder(&self, backend: SimBackend) -> MubeBuilder {
        let builder = MubeBuilder::from_arc(Arc::clone(&self.universe)).sim_backend(backend);
        match &self.sketches {
            Some(sketches) => builder.sketches(sketches.clone()),
            None => builder,
        }
    }

    /// A 64-bit FNV-1a digest of everything the engine is built from:
    /// names, attributes, cardinalities, characteristics and sketches.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for source in self.universe.sources() {
            h.str(source.name());
            for attr in source.attributes() {
                h.str(attr);
            }
            h.u64(source.cardinality());
            for (name, value) in source.characteristics() {
                h.str(name);
                h.u64(value.to_bits());
            }
        }
        for sketch in self.sketches.iter().flatten() {
            match sketch {
                Some(s) => s.maps().iter().for_each(|&w| h.u64(w)),
                None => h.u64(u64::MAX),
            }
        }
        h.0
    }
}

/// 64-bit FNV-1a over length-delimited fields.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorbs a string and its length.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Absorbs a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_split_at_the_longest_known_source() {
        let names: BTreeSet<String> = ["books01.example.com", "books01.example.com-v2", "a"]
            .into_iter()
            .map(str::to_owned)
            .collect();
        assert_eq!(
            split_member("books01.example.com.title", &names),
            Some(("books01.example.com", "title"))
        );
        assert_eq!(
            split_member("books01.example.com-v2.first.name", &names),
            Some(("books01.example.com-v2", "first.name"))
        );
        assert_eq!(split_member("a.b.c", &names), Some(("a", "b.c")));
        assert_eq!(split_member("unknown.title", &names), None);
    }

    #[test]
    fn every_workload_round_trips_its_name() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
