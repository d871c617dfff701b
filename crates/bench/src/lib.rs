//! Shared experiment harness for the µBE benchmark suite.
//!
//! Every table and figure of the paper's Section 7 has a regenerator binary
//! in `src/bin/` (see DESIGN.md §5 for the index); the pieces they share —
//! universe construction, the paper's default problem specification,
//! constraint synthesis, timing, and table printing — live here.
//!
//! Scale: by default the binaries run a **reduced** scale (smaller tuple
//! pools and cardinalities, fewer repetitions) so the whole suite finishes
//! in minutes; pass `--full` for the paper's exact parameters (10k–1M
//! tuples per source, 4M-tuple pools).
//!
//! The seven trajectory binaries (`scripts/bench.sh`) also share their
//! harness: [`Run`] parses `--smoke`/`--out` and writes the artifact,
//! [`best_of`] and [`timed_solve`] time, and [`check_contracts`] holds
//! every contract an artifact must pass — the writer applies it before
//! writing, and a test applies it to the committed files.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mube_core::{Mube, MubeBuilder, ProblemSpec, Solution};
use mube_datagen::{GeneratedUniverse, UniverseConfig};
use mube_opt::{Greedy, Portfolio, Solver, StochasticLocalSearch, TabuSearch};
use mube_schema::{AttrId, GlobalAttribute, SourceId};
use mube_serve::json::{obj, Json};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-exact data volumes.
    Full,
    /// Reduced data volumes (same structure) for quick runs.
    Reduced,
}

impl Scale {
    /// Reads the scale from argv (`--full`).
    pub fn from_env() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Reduced
        }
    }
}

/// Builds the experimental universe at a given size and seed.
///
/// Reduced scale shrinks tuple volumes 100× (pools 40k instead of 4M,
/// cardinalities 100–10k instead of 10k–1M) but keeps the Zipf shape, the
/// General/Specialty split, and every schema-side parameter identical.
pub fn universe(size: usize, seed: u64, scale: Scale) -> GeneratedUniverse {
    let mut config = UniverseConfig::paper(size, seed);
    if scale == Scale::Reduced {
        config.pool = mube_datagen::PoolConfig {
            general: 20_000,
            specialty: 20_000,
            specialty_fraction: 0.10,
        };
        config.min_cardinality = 100;
        config.max_cardinality = 10_000;
    }
    config.generate()
}

/// Builds the engine for a generated universe.
pub fn engine(generated: &GeneratedUniverse) -> Mube {
    MubeBuilder::new(&generated.universe)
        .sketches(generated.sketches.clone())
        .build()
}

/// The paper's default problem spec: weights .25/.25/.2/.15/.15 over
/// matching/cardinality/coverage/redundancy/mttf, θ = 0.75, choose ≤ `m`.
pub fn paper_spec(m: usize) -> ProblemSpec {
    ProblemSpec::new(m)
}

/// Picks `k` source constraints: "random sources with schemas that are
/// fully conformant to one of the original BAMM schemas" — deterministic in
/// `seed`.
pub fn source_constraints(generated: &GeneratedUniverse, k: usize, seed: u64) -> Vec<SourceId> {
    let conformant = generated.conformant_sources();
    // Simple LCG shuffle-free pick: stride through the conformant list.
    let stride = (seed % 7 + 3) as usize;
    (0..k)
        .map(|i| conformant[(seed as usize + i * stride) % conformant.len()])
        .collect()
}

/// Builds `k` GA constraints with up to `max_attrs` attributes each,
/// "representing accurate matchings of attributes that appear in different
/// sources" — synthesized from the generator's ground truth over the
/// conformant sources.
pub fn ga_constraints(
    generated: &GeneratedUniverse,
    k: usize,
    max_attrs: usize,
    seed: u64,
) -> Vec<GlobalAttribute> {
    let gt = &generated.ground_truth;
    let conformant = generated.conformant_sources();
    let mut out = Vec::with_capacity(k);
    let mut concept = (seed % 14) as u8;
    while out.len() < k {
        let mut attrs: Vec<AttrId> = Vec::new();
        for &sid in &conformant {
            if attrs.len() >= max_attrs {
                break;
            }
            let source = generated.universe.expect_source(sid);
            for attr in source.attr_ids() {
                if gt.concept_of(attr) == Some(mube_datagen::ConceptId(concept))
                    && !attrs.iter().any(|a| a.source == sid)
                {
                    attrs.push(attr);
                    break;
                }
            }
        }
        if attrs.len() >= 2 {
            out.push(GlobalAttribute::new(attrs).expect("distinct sources by construction"));
        }
        concept = (concept + 1) % 14;
    }
    out
}

/// The five constraint variants of Figures 5 and 6.
pub fn constraint_variants(
    generated: &GeneratedUniverse,
    seed: u64,
) -> Vec<(&'static str, ProblemSpecPatch)> {
    vec![
        ("no constraints", ProblemSpecPatch::default()),
        (
            "1 source",
            ProblemSpecPatch {
                sources: source_constraints(generated, 1, seed),
                gas: vec![],
            },
        ),
        (
            "3 sources",
            ProblemSpecPatch {
                sources: source_constraints(generated, 3, seed),
                gas: vec![],
            },
        ),
        (
            "5 sources",
            ProblemSpecPatch {
                sources: source_constraints(generated, 5, seed),
                gas: vec![],
            },
        ),
        ("5 src + 2 GA", combined_constraints(generated, 5, 2, seed)),
    ]
}

/// The combined "5 src + 2 GA" variant, feasible by construction: the
/// explicit source constraints are drawn from the sources the GA constraints
/// already imply (topping up with conformant picks only while the union stays
/// within the 10-source budget every figure runs with), so
/// `required_sources()` never exceeds `max(10, implied)`.
fn combined_constraints(
    generated: &GeneratedUniverse,
    num_sources: usize,
    num_gas: usize,
    seed: u64,
) -> ProblemSpecPatch {
    let gas = ga_constraints(generated, num_gas, 5, seed);
    let mut implied: Vec<SourceId> = gas.iter().flat_map(|g| g.sources()).collect();
    implied.sort_unstable();
    implied.dedup();
    let mut sources: Vec<SourceId> = implied.iter().copied().take(num_sources).collect();
    if sources.len() < num_sources {
        let budget = 10usize.max(implied.len());
        let mut extra = implied.len();
        for candidate in source_constraints(generated, num_sources, seed) {
            if sources.len() >= num_sources || extra >= budget {
                break;
            }
            if !sources.contains(&candidate) {
                sources.push(candidate);
                extra += 1;
            }
        }
    }
    ProblemSpecPatch { sources, gas }
}

/// Constraints to apply on top of a base spec.
#[derive(Debug, Clone, Default)]
pub struct ProblemSpecPatch {
    /// Source constraints.
    pub sources: Vec<SourceId>,
    /// GA constraints.
    pub gas: Vec<GlobalAttribute>,
}

impl ProblemSpecPatch {
    /// Applies the patch to a spec.
    pub fn apply(&self, mut spec: ProblemSpec) -> ProblemSpec {
        for &s in &self.sources {
            spec.constraints.require_source(s);
        }
        for ga in &self.gas {
            spec.constraints.require_ga(ga.clone());
        }
        spec
    }
}

/// Wall time of one call of `run` in milliseconds, with its value.
pub fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = run();
    (start.elapsed().as_secs_f64() * 1e3, value)
}

/// The fastest of `reps` timed calls of `run` (one call when `reps` is 0),
/// with the last call's value.
pub fn best_of<T>(reps: u32, mut run: impl FnMut() -> T) -> (f64, T) {
    let (mut best, mut value) = timed(&mut run);
    for _ in 1..reps {
        let (millis, next) = timed(&mut run);
        best = best.min(millis);
        value = next;
    }
    (best, value)
}

/// Runs one solve and returns `(wall milliseconds, solution)`.
pub fn timed_solve(
    mube: &Mube,
    spec: &ProblemSpec,
    solver: &dyn Solver,
    seed: u64,
) -> (f64, Solution) {
    timed(|| {
        mube.solve(spec, solver, seed)
            .expect("experiment problems must be feasible")
    })
}

/// The quick heuristic portfolio the solve and bound trajectories race:
/// quick tabu, a short stochastic local search and greedy, two rounds.
pub fn quick_portfolio() -> Portfolio {
    Portfolio {
        members: vec![
            Arc::new(TabuSearch::quick()),
            Arc::new(StochasticLocalSearch {
                restarts: 4,
                max_steps: 40,
                ..StochasticLocalSearch::default()
            }),
            Arc::new(Greedy),
        ],
        rounds: 2,
    }
}

/// What a determinism contract compares between two solve histories: per
/// solution, the selected sources, the quality's bits and the schema.
pub type Fingerprint = Vec<(Vec<SourceId>, u64, String)>;

/// The [`Fingerprint`] of a solve history.
pub fn fingerprint<'a>(history: impl IntoIterator<Item = &'a Solution>) -> Fingerprint {
    history
        .into_iter()
        .map(|s| {
            (
                s.selected.clone(),
                s.overall_quality.to_bits(),
                s.schema.to_string(),
            )
        })
        .collect()
}

/// Mean wall time and mean quality over `reps` seeds.
pub fn average_runs(mube: &Mube, spec: &ProblemSpec, solver: &dyn Solver, reps: u64) -> RunSummary {
    let mut total_millis = 0.0;
    let mut total_q = 0.0;
    let mut best_q = f64::NEG_INFINITY;
    let mut worst_q = f64::INFINITY;
    let mut last = None;
    for seed in 0..reps {
        let (millis, solution) = timed_solve(mube, spec, solver, seed);
        total_millis += millis;
        total_q += solution.overall_quality;
        best_q = best_q.max(solution.overall_quality);
        worst_q = worst_q.min(solution.overall_quality);
        last = Some(solution);
    }
    RunSummary {
        mean_time: Duration::from_secs_f64(total_millis / 1e3 / reps as f64),
        mean_quality: total_q / reps as f64,
        best_quality: best_q,
        worst_quality: worst_q,
        last_solution: last.expect("reps >= 1"),
    }
}

/// Aggregate of repeated solves.
pub struct RunSummary {
    /// Mean wall-clock time per solve.
    pub mean_time: Duration,
    /// Mean overall quality.
    pub mean_quality: f64,
    /// Best overall quality across seeds.
    pub best_quality: f64,
    /// Worst overall quality across seeds.
    pub worst_quality: f64,
    /// The final seed's solution (for schema inspection).
    pub last_solution: Solution,
}

/// Prints a header + aligned rows; keeps the binaries terse.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let fmt_row = |cells: Vec<&str>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header.to_vec()));
    for row in rows {
        println!("{}", fmt_row(row.iter().map(String::as_str).collect()));
    }
}

/// One run of a trajectory binary, as its command line asks: `--smoke`
/// for tiny sizes and one rep, `--out <path>` to write somewhere other
/// than the bench's committed artifact.
pub struct Run {
    bench: &'static Bench,
    /// Whether this is a smoke run.
    pub smoke: bool,
    out: PathBuf,
}

impl Run {
    /// Parses the process's arguments for the bench named `name`.
    ///
    /// # Errors
    /// An unknown bench or argument, or `--out` without a path.
    pub fn from_args(name: &str) -> Result<Run, String> {
        let bench = bench(name)?;
        let mut run = Run {
            bench,
            smoke: false,
            out: PathBuf::from(bench.artifact),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => run.smoke = true,
                "--out" => run.out = args.next().ok_or("--out needs a path")?.into(),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(run)
    }

    /// Writes the artifact: the shared header (`bench`, `mode`,
    /// `host_threads`) and `body`, two-space indented, after checking it
    /// against [`check_contracts`].
    ///
    /// # Errors
    /// A broken contract (nothing is written), or the write's I/O error.
    pub fn write(
        &self,
        body: impl IntoIterator<Item = (&'static str, Json)>,
    ) -> Result<(), String> {
        let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
        let header: [(&'static str, Json); 3] = [
            ("bench", self.bench.name.into()),
            ("mode", if self.smoke { "smoke" } else { "full" }.into()),
            ("host_threads", host_threads.into()),
        ];
        let artifact = obj(header.into_iter().chain(body));
        check_contracts(&artifact)?;
        std::fs::write(&self.out, artifact.render_pretty() + "\n")
            .map_err(|e| format!("writing {}: {e}", self.out.display()))?;
        eprintln!("wrote {}", self.out.display());
        Ok(())
    }
}

/// A trajectory bench: the name its artifact carries, the committed
/// artifact, and the contract rules every artifact it writes must pass.
pub struct Bench {
    /// The artifact header's `bench` value.
    pub name: &'static str,
    /// The committed artifact, relative to the workspace root.
    pub artifact: &'static str,
    rules: &'static [Rule],
}

/// One contract rule over the rows a path reaches. A path is a `.`-joined
/// list of keys, and a key ending in `[]` steps into every element of that
/// array (`sizes[].solve` is the `solve` member of every `sizes` row); the
/// empty path is the artifact itself. A path that reaches no row fails.
enum Rule {
    /// Every row carries each key.
    Keys(&'static str, &'static [&'static str]),
    /// Every row carries each flag, set to `true`.
    Flags(&'static str, &'static [&'static str]),
    /// As [`Rule::Flags`], in full-mode artifacts only.
    FullFlags(&'static str, &'static [&'static str]),
    /// Some row sets the key to the string value.
    Covers(&'static str, &'static str, &'static str),
}

use Rule::{Covers, Flags, FullFlags, Keys};

/// The seven trajectory benches, in `scripts/bench.sh` order.
pub const BENCHES: &[Bench] = &[
    Bench {
        name: "match_kernel",
        artifact: "BENCH_match.json",
        rules: &[
            Keys("sizes[].match.incremental", &["millis", "rounds"]),
            Keys("sizes[].match.incremental", &["lw_updates"]),
            Keys("sizes[].match.brute_force", &["millis"]),
            Keys("sizes[].match.pre_pr", &["millis"]),
            Keys("sizes[].match.incremental", &["linkage_evals"]),
            Keys("sizes[].solve", &["match_calls", "cache_hits"]),
            Keys("sizes[].solve", &["linkage_evals", "lw_updates"]),
        ],
    },
    Bench {
        name: "solve_portfolio",
        artifact: "BENCH_solve.json",
        rules: &[
            Keys("sizes[].serial", &["cache_hits", "evaluations"]),
            Keys("sizes[].serial", &["evictions"]),
            Keys("sizes[].multistart", &["millis"]),
            Keys("sizes[].portfolio", &["millis", "winner", "cache_hits"]),
            Keys("sizes[].portfolio", &["evaluations", "evictions"]),
            Flags("sizes[].pruned", &["pruned_identical"]),
        ],
    },
    Bench {
        name: "session_iterate",
        artifact: "BENCH_session.json",
        rules: &[
            Keys("", &["determinism"]),
            Keys("sizes[].cold", &["total_millis"]),
            Keys(
                "sizes[].arena",
                &["total_millis", "final_entries", "final_bytes"],
            ),
            Keys("sizes[].iterations[]", &["spec_delta", "warm_start"]),
            Keys("sizes[].iterations[].arena", &["recombined", "invalidated"]),
            Covers("sizes[].iterations[]", "spec_delta", "weights_only"),
            Covers("sizes[].iterations[]", "spec_delta", "match_invalidating"),
        ],
    },
    Bench {
        name: "sim_kernels",
        artifact: "BENCH_kernels.json",
        rules: &[
            Flags("pairwise_jaccard", &["bit_identical"]),
            Flags("matrix_fill", &["bit_identical"]),
            Flags("selection_ops", &["results_equal"]),
            Keys("pairwise_jaccard", &["string_millis", "packed_millis"]),
            Keys("matrix_fill", &["pre_pr_millis", "packed_millis"]),
            Keys("selection_ops", &["scalar_millis", "packed_millis"]),
            FullFlags("", &["meets_thresholds"]),
        ],
    },
    Bench {
        name: "bound_gap",
        artifact: "BENCH_bound.json",
        rules: &[
            Flags("certificate", &["matches_exhaustive"]),
            Keys("certificate", &["gap", "nodes_expanded", "nodes_pruned"]),
            Keys("sizes[].anytime[]", &["gap", "certified_upper"]),
            Keys("sizes[].anytime[]", &["nodes_expanded", "nodes_pruned"]),
        ],
    },
    Bench {
        name: "scale_match",
        artifact: "BENCH_scale.json",
        rules: &[
            Flags("identity[]", &["bit_identical"]),
            Flags("identity[].solve", &["solutions_identical"]),
            Flags("identity[].tau_arm", &["solutions_identical"]),
            Keys("identity[].lossless", &["candidate_pairs"]),
            Keys("identity[].tau_arm.counters", &["candidate_pairs"]),
            Flags("scale", &["dense_refused"]),
            Keys("scale.counters", &["candidate_pairs"]),
            FullFlags("", &["meets_thresholds"]),
        ],
    },
    Bench {
        name: "tenancy",
        artifact: "BENCH_tenancy.json",
        rules: &[
            Keys("", &["determinism"]),
            Flags("sizes[]", &["replay_bit_identical"]),
            Keys("sizes[]", &["snapshot_build_millis", "session_mean_millis"]),
            Keys("sizes[]", &["serial_millis", "concurrent_millis"]),
            Keys("sizes[]", &["arena_entries"]),
        ],
    },
];

fn bench(name: &str) -> Result<&'static Bench, String> {
    BENCHES
        .iter()
        .find(|bench| bench.name == name)
        .ok_or_else(|| format!("unknown bench {name:?}"))
}

/// Checks an artifact against the contract of the bench its header names:
/// a `mode` of `smoke` or `full` and a `host_threads` count, every `gap`
/// anywhere a non-negative number, and the bench's rules.
///
/// # Errors
/// The first contract the artifact breaks.
pub fn check_contracts(artifact: &Json) -> Result<(), String> {
    let name = artifact
        .get("bench")
        .and_then(Json::as_str)
        .unwrap_or_default();
    let bench = bench(name)?;
    let full = match artifact.get("mode").and_then(Json::as_str) {
        Some("full") => true,
        Some("smoke") => false,
        _ => return Err(format!("{name}: mode must be full or smoke")),
    };
    let is_true = |value: &Json| value.as_bool() == Some(true);
    require(artifact, "", &["host_threads"], "a count", |v| {
        v.as_u64().is_some()
    })
    .and_then(|()| check_gaps(artifact))
    .and_then(|()| {
        bench.rules.iter().try_for_each(|rule| match *rule {
            Keys(path, keys) => require(artifact, path, keys, "present", |_| true),
            Flags(path, flags) => require(artifact, path, flags, "true", is_true),
            FullFlags(path, flags) if full => {
                require(artifact, path, flags, "true in a full run", is_true)
            }
            FullFlags(..) => Ok(()),
            Covers(path, key, value) => rows(artifact, path)?
                .iter()
                .any(|row| row.get(key).and_then(Json::as_str) == Some(value))
                .then_some(())
                .ok_or_else(|| format!("{path}: no row has {key} {value}")),
        })
    })
    .map_err(|e| format!("{name}: {e}"))
}

/// [`check_contracts`] for a committed artifact, which must also come from
/// a full run.
///
/// # Errors
/// A smoke artifact, or the first contract the artifact breaks.
pub fn check_committed(artifact: &Json) -> Result<(), String> {
    if artifact.get("mode").and_then(Json::as_str) != Some("full") {
        return Err("a committed artifact must come from a full run".to_owned());
    }
    check_contracts(artifact)
}

/// Checks that `ok` holds for each of `names` in every row `path` reaches.
fn require(
    artifact: &Json,
    path: &str,
    names: &[&str],
    what: &str,
    ok: impl Fn(&Json) -> bool,
) -> Result<(), String> {
    for (i, row) in rows(artifact, path)?.into_iter().enumerate() {
        if let Some(name) = names.iter().find(|&&name| !row.get(name).is_some_and(&ok)) {
            let place = if path.is_empty() { "artifact" } else { path };
            return Err(format!("{place} row {i}: {name} must be {what}"));
        }
    }
    Ok(())
}

/// The rows `path` reaches in `artifact` (see [`Rule`]).
fn rows<'a>(artifact: &'a Json, path: &str) -> Result<Vec<&'a Json>, String> {
    let mut rows = vec![artifact];
    for step in path.split('.').filter(|step| !step.is_empty()) {
        let (key, each) = step
            .strip_suffix("[]")
            .map_or((step, false), |key| (key, true));
        let mut next = Vec::new();
        for row in rows {
            let value = row
                .get(key)
                .ok_or_else(|| format!("{path}: a row has no {key}"))?;
            match (each, value.as_arr()) {
                (false, _) => next.push(value),
                (true, Some(items)) => next.extend(items),
                (true, None) => return Err(format!("{path}: {key} is not an array")),
            }
        }
        rows = next;
    }
    if rows.is_empty() {
        return Err(format!("{path}: no rows"));
    }
    Ok(rows)
}

/// Every `gap` member anywhere in `value` must be a non-negative number.
fn check_gaps(value: &Json) -> Result<(), String> {
    match value {
        Json::Obj(members) => members.iter().try_for_each(|(key, member)| {
            if key == "gap" && !member.as_f64().is_some_and(|gap| gap >= 0.0) {
                return Err(format!(
                    "gap {} is not a non-negative number",
                    member.render()
                ));
            }
            check_gaps(member)
        }),
        Json::Arr(items) => items.iter().try_for_each(check_gaps),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mube_opt::TabuSearch;

    #[test]
    fn constraint_synthesis_is_well_formed() {
        let generated = universe(60, 1, Scale::Reduced);
        let sources = source_constraints(&generated, 5, 3);
        assert_eq!(sources.len(), 5);
        for s in &sources {
            assert!(s.index() < 50, "constraints must be conformant sources");
        }
        let gas = ga_constraints(&generated, 2, 5, 3);
        assert_eq!(gas.len(), 2);
        for ga in &gas {
            assert!(ga.len() >= 2 && ga.len() <= 5);
            // Accurate matching: all attrs share one concept.
            let concepts: std::collections::BTreeSet<_> = ga
                .attrs()
                .map(|a| generated.ground_truth.concept_of(a))
                .collect();
            assert_eq!(concepts.len(), 1);
            assert!(!concepts.contains(&None));
        }
    }

    #[test]
    fn variants_cover_the_paper_grid() {
        let generated = universe(60, 1, Scale::Reduced);
        let variants = constraint_variants(&generated, 1);
        assert_eq!(variants.len(), 5);
        assert_eq!(variants[0].1.sources.len(), 0);
        assert_eq!(variants[3].1.sources.len(), 5);
        assert_eq!(variants[4].1.gas.len(), 2);
    }

    #[test]
    fn timed_solve_runs_under_constraints() {
        let generated = universe(60, 2, Scale::Reduced);
        let mube = engine(&generated);
        let patch = constraint_variants(&generated, 2).pop().unwrap().1;
        let spec = patch.apply(paper_spec(10));
        let (millis, solution) = timed_solve(&mube, &spec, &TabuSearch::quick(), 0);
        assert!(millis > 0.0);
        for s in &patch.sources {
            assert!(solution.selected.contains(s));
        }
        assert!(solution.schema.subsumes_gas(patch.gas.iter()));
    }

    #[test]
    fn average_runs_aggregates() {
        let generated = universe(40, 3, Scale::Reduced);
        let mube = engine(&generated);
        let summary = average_runs(&mube, &paper_spec(5), &TabuSearch::quick(), 3);
        assert!(summary.mean_quality > 0.0);
        assert!(summary.best_quality >= summary.mean_quality);
        assert!(summary.worst_quality <= summary.mean_quality + 1e-12);
    }
}
