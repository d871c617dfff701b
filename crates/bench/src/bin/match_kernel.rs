//! Perf trajectory for the `Match(S)` hot path: regenerates
//! `BENCH_match.json`.
//!
//! Times both round-loop kernels (incremental Lance–Williams
//! `match_sources` vs. the brute-force oracle `match_sources_brute_force`),
//! a faithful port of the seed-commit pre-PR kernel (full alive-pair
//! recompute every round, no mergeability pre-filter — the acceptance
//! baseline), and a full `Mube::solve`, on datagen universes at
//! n ∈ {50, 100, 200, 400} sources, and writes wall times plus work
//! counters (rounds, linkage evaluations, Lance–Williams updates, cache
//! hits) as JSON. Speedups are the ratios of the `millis` columns (the
//! in-tree oracle already benefits from the mergeability pre-filter). See
//! DESIGN.md §8 for how to read the file.
//!
//! Usage:
//!   cargo run --release -p mube-bench --bin match_kernel
//!   cargo run --release -p mube-bench --bin match_kernel -- --smoke --out target/BENCH_match.smoke.json

use std::collections::BTreeSet;

use mube_bench::{best_of, engine, paper_spec, timed, timed_solve, universe, Run, Scale};
use mube_cluster::{
    cluster_similarity, match_sources, match_sources_brute_force, AttrSimilarity, MatchConfig,
    MatchOutcome,
};
use mube_core::Mube;
use mube_opt::TabuSearch;
use mube_schema::{AttrId, Constraints, MediatedSchema, SourceId, Universe};
use mube_serve::json::{obj, Json};

/// A `Match(S)` entry point: `match_sources` or its brute-force oracle.
type Kernel = fn(
    &Universe,
    &[SourceId],
    &Constraints,
    &MatchConfig,
    &dyn AttrSimilarity,
) -> Option<MatchOutcome>;

/// A cluster as the seed-commit kernel represented it — the minimum state
/// the pre-PR round loop needs (the bench runs unconstrained, so the
/// constraint-provenance `keep` flag is omitted; it is always false here).
struct SeedCluster {
    attrs: Vec<AttrId>,
    sources: BTreeSet<SourceId>,
    ever_merged: bool,
    merged: bool,
    merge_cand: bool,
    alive: bool,
}

/// What the seed-commit baseline did on one universe size.
struct PrePrRun {
    rounds: u32,
    linkage_evals: u64,
    gas: Vec<BTreeSet<AttrId>>,
}

/// Faithful port of the seed-commit `match_sources` round loop — the
/// baseline this PR's acceptance criterion measures against. Every round it
/// rebuilds the full alive-pair candidate list with NO mergeability
/// pre-filter: overlapping-source pairs (including the cross products of
/// large merged clusters) are linkage-evaluated, sorted, and rejected only
/// at merge time. It lives here rather than in the library so the library
/// carries only the two supported kernels.
fn pre_pr_match(
    universe: &Universe,
    sources: &[SourceId],
    config: &MatchConfig,
    sim: &dyn AttrSimilarity,
) -> PrePrRun {
    let mut clusters: Vec<SeedCluster> = Vec::new();
    for &sid in sources {
        for attr in universe.expect_source(sid).attr_ids() {
            clusters.push(SeedCluster {
                attrs: vec![attr],
                sources: std::iter::once(attr.source).collect(),
                ever_merged: false,
                merged: false,
                merge_cand: false,
                alive: true,
            });
        }
    }

    let mut linkage_evals = 0u64;
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let mut done = true;
        for c in clusters.iter_mut().filter(|c| c.alive) {
            c.merged = false;
            c.merge_cand = false;
        }

        let alive: Vec<usize> = (0..clusters.len()).filter(|&i| clusters[i].alive).collect();
        let mut heap: Vec<(f64, usize, usize)> = Vec::new();
        for (pos, &i) in alive.iter().enumerate() {
            for &j in &alive[pos + 1..] {
                let s = cluster_similarity(&clusters[i].attrs, &clusters[j].attrs, sim);
                linkage_evals += 1;
                if s >= config.theta {
                    heap.push((s, i, j));
                }
            }
        }
        heap.sort_by(|a, b| b.0.total_cmp(&a.0));

        let mut new_clusters: Vec<SeedCluster> = Vec::new();
        for (_, i, j) in heap {
            match (clusters[i].merged, clusters[j].merged) {
                (false, false) => {
                    if clusters[i].sources.is_disjoint(&clusters[j].sources) {
                        let merged = SeedCluster {
                            attrs: {
                                let mut a = clusters[i].attrs.clone();
                                a.extend_from_slice(&clusters[j].attrs);
                                a.sort_unstable();
                                a
                            },
                            sources: clusters[i]
                                .sources
                                .union(&clusters[j].sources)
                                .copied()
                                .collect(),
                            ever_merged: true,
                            merged: false,
                            merge_cand: false,
                            alive: true,
                        };
                        clusters[i].merged = true;
                        clusters[i].alive = false;
                        clusters[j].merged = true;
                        clusters[j].alive = false;
                        new_clusters.push(merged);
                    }
                }
                (true, false) => {
                    clusters[j].merge_cand = true;
                    done = false;
                }
                (false, true) => {
                    clusters[i].merge_cand = true;
                    done = false;
                }
                (true, true) => {}
            }
        }

        if config.prune {
            for c in clusters.iter_mut().filter(|c| c.alive) {
                if !c.ever_merged && !c.merge_cand {
                    c.alive = false;
                }
            }
        }
        clusters.extend(new_clusters);

        if done {
            break;
        }
    }

    let mut gas: Vec<BTreeSet<AttrId>> = clusters
        .iter()
        .filter(|c| c.alive && c.ever_merged && c.attrs.len() >= config.beta)
        .map(|c| c.attrs.iter().copied().collect())
        .collect();
    gas.sort();
    PrePrRun {
        rounds,
        linkage_evals,
        gas,
    }
}

/// The schema's GA attribute sets in canonical order, for cross-kernel
/// output comparison.
fn ga_sets(schema: &MediatedSchema) -> Vec<BTreeSet<AttrId>> {
    let mut v: Vec<BTreeSet<AttrId>> = schema.gas().iter().map(|g| g.attrs().collect()).collect();
    v.sort();
    v
}

fn kernel_json(millis: f64, outcome: &MatchOutcome) -> Json {
    let s = &outcome.stats;
    obj([
        ("millis", millis.into()),
        ("rounds", outcome.rounds.into()),
        ("linkage_evals", s.linkage_evals.into()),
        ("lw_updates", s.lw_updates.into()),
        ("heap_pushes", s.heap_pushes.into()),
        ("stale_pops", s.stale_pops.into()),
        ("gas", outcome.schema.len().into()),
        ("quality", outcome.quality.into()),
    ])
}

fn bench_size(size: usize, reps: u32) -> Json {
    eprintln!("== n = {size} sources ==");
    let generated = universe(size, 7, Scale::Reduced);
    let mube: Mube = engine(&generated);
    let ids: Vec<SourceId> = generated
        .universe
        .sources()
        .iter()
        .map(|s| s.id())
        .collect();
    let constraints = Constraints::none();
    let config = MatchConfig::default();

    let run_kernel = |kernel: Kernel| {
        best_of(reps, || {
            kernel(
                &generated.universe,
                &ids,
                &constraints,
                &config,
                mube.similarity(),
            )
            .expect("unconstrained match is always feasible")
        })
    };
    let (incremental_millis, incremental) = run_kernel(match_sources);
    let (brute_millis, brute) = run_kernel(match_sources_brute_force);
    assert_eq!(
        incremental.schema, brute.schema,
        "kernels must produce identical schemas"
    );
    // The pre-PR baseline is slow by design — one timed run is plenty.
    let (pre_pr_millis, pre_pr) =
        timed(|| pre_pr_match(&generated.universe, &ids, &config, mube.similarity()));
    assert_eq!(
        pre_pr.gas,
        ga_sets(&incremental.schema),
        "pre-PR reference must produce the same GAs"
    );

    // One full solve on the same universe: the kernel's effect end-to-end,
    // including the objective memo cache.
    let (solve_millis, solution) = timed_solve(&mube, &paper_spec(10), &TabuSearch::quick(), 7);
    let stats = &solution.stats;

    obj([
        ("sources", size.into()),
        ("attrs", generated.universe.total_attrs().into()),
        (
            "match",
            obj([
                ("incremental", kernel_json(incremental_millis, &incremental)),
                ("brute_force", kernel_json(brute_millis, &brute)),
                (
                    "pre_pr",
                    obj([
                        ("millis", pre_pr_millis.into()),
                        ("rounds", pre_pr.rounds.into()),
                        ("linkage_evals", pre_pr.linkage_evals.into()),
                    ]),
                ),
            ]),
        ),
        (
            "solve",
            obj([
                ("millis", solve_millis.into()),
                ("evaluations", stats.evaluations.into()),
                ("match_calls", stats.match_calls.into()),
                ("cache_hits", stats.cache_hits.into()),
                ("linkage_evals", stats.linkage_evals.into()),
                ("lw_updates", stats.lw_updates.into()),
                ("quality", solution.overall_quality.into()),
            ]),
        ),
    ])
}

fn main() {
    let run = Run::from_args("match_kernel").expect("usage: [--smoke] [--out <path>]");
    let (sizes, reps): (&[usize], u32) = if run.smoke {
        (&[20, 40], 1)
    } else {
        (&[50, 100, 200, 400], 3)
    };
    let rows: Vec<Json> = sizes.iter().map(|&size| bench_size(size, reps)).collect();
    run.write([
        ("scale", "reduced".into()),
        ("theta", 0.75.into()),
        (
            "units",
            obj([("millis", format!("best-of-{reps} wall clock").into())]),
        ),
        ("sizes", rows.into()),
    ])
    .expect("artifact written");
}
