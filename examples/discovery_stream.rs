//! Incremental source discovery: the Internet-scale workflow the paper
//! motivates. A hidden-Web search engine (here: the synthetic generator)
//! keeps surfacing new candidate sources in batches; after each batch the
//! user re-runs µBE over the grown universe and inspects what changed.
//!
//! Demonstrates that (a) the engine is cheap enough to rebuild as the
//! universe grows, and (b) [`SolutionDiff`] pinpoints what each batch
//! changed. Note that `Q(S)` is normalized against the *current* universe
//! (Card and Coverage divide by universe totals), so absolute values are
//! not comparable across batches — the diff is the meaningful signal.
//!
//! Run with: `cargo run --release --example discovery_stream`

use mube::datagen::UniverseConfig;
use mube::prelude::*;

fn main() {
    // The "full crawl" the search engine will eventually surface.
    let full = UniverseConfig::small_test(160, 5).generate();
    let all_sources = &full.universe;

    let batch_sizes = [40usize, 80, 120, 160];
    let mut previous: Option<Solution> = None;

    for &visible in &batch_sizes {
        // Universe as discovered so far: the first `visible` sources.
        let mut universe = Universe::new();
        for source in all_sources.sources().iter().take(visible) {
            let mut builder = SourceBuilder::new(source.name())
                .attributes(source.attributes().to_vec())
                .cardinality(source.cardinality());
            for (name, &value) in source.characteristics() {
                builder = builder.characteristic(name.clone(), value);
            }
            universe.add_source(builder).expect("well-formed");
        }
        let sketches: Vec<_> = full.sketches.iter().take(visible).cloned().collect();

        let mube = MubeBuilder::new(&universe).sketches(sketches).build();
        let spec = ProblemSpec::new(15);
        let solution = mube
            .solve(&spec, &TabuSearch::default(), 3)
            .expect("solvable");

        println!(
            "discovered {visible:>3} sources -> Q = {:.4}, {} GAs, solved in {:?}",
            solution.overall_quality,
            solution.schema.len(),
            solution.stats.elapsed
        );
        if let Some(prev) = &previous {
            let diff = SolutionDiff::between(prev, &solution);
            println!(
                "   vs previous batch: ΔQ = {:+.4}, {} source changes, {} GA changes",
                diff.quality_delta,
                diff.source_changes(),
                diff.ga_changes()
            );
        }
        previous = Some(solution);
    }

    println!(
        "\nthe exploration loop the paper targets: discover, solve, inspect, repeat —\n\
         constraints adopted along the way would persist across batches via Session."
    );
}
