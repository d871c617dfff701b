//! Quickstart: define a handful of sources, solve, print the solution.
//!
//! Run with: `cargo run --example quickstart`

use mube::prelude::*;

fn main() {
    // A small universe of book-selling sites. In a real deployment these
    // descriptions come from a hidden-Web search engine or are supplied by
    // the user; cardinalities and characteristics are reported by the
    // sources themselves.
    let mut universe = Universe::new();
    let sites: [(&str, Vec<&str>, u64, f64); 6] = [
        (
            "alpha-books.com",
            vec!["title", "author", "isbn"],
            120_000,
            140.0,
        ),
        (
            "beta-books.com",
            vec!["title", "author", "keyword"],
            90_000,
            90.0,
        ),
        (
            "gamma-reads.net",
            vec!["title", "author", "price"],
            200_000,
            60.0,
        ),
        ("delta-pages.org", vec!["keyword", "subject"], 40_000, 120.0),
        (
            "epsilon-shop.com",
            vec!["title", "price", "format"],
            150_000,
            100.0,
        ),
        (
            "zeta-aggregator.io",
            vec!["voltage", "turbine"],
            500_000,
            30.0,
        ),
    ];
    for (site, attrs, tuples, mttf) in sites {
        universe
            .add_source(
                SourceBuilder::new(site)
                    .attributes(attrs)
                    .cardinality(tuples)
                    .characteristic("mttf", mttf),
            )
            .expect("well-formed source");
    }

    // Each cooperating source computes a PCSA signature of its tuples. Here
    // we synthesize overlapping tuple sets to make coverage/redundancy
    // meaningful: every site carries a slice of a shared catalog.
    let hasher = TupleHasher::default();
    let sketches: Vec<Option<PcsaSketch>> = universe
        .sources()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut sketch = PcsaSketch::new(256, hasher);
            let start = (i as u64) * 30_000;
            for t in start..start + s.cardinality() / 10 {
                sketch.insert_u64(t % 400_000);
            }
            Some(sketch)
        })
        .collect();

    // Build the engine and describe what "good" means: schema coherence
    // matters most, then data volume and freshness from reliable sites.
    let mube = MubeBuilder::new(&universe).sketches(sketches).build();
    let spec = ProblemSpec::new(4)
        .with_weights(
            Weights::new([
                ("matching", 0.4),
                ("cardinality", 0.2),
                ("coverage", 0.2),
                ("redundancy", 0.1),
                ("mttf", 0.1),
            ])
            .expect("weights sum to 1"),
        )
        .with_theta(0.75);

    let solution = mube
        .solve(&spec, &TabuSearch::default(), 42)
        .expect("solvable");

    println!("µBE chose the following data integration system:\n");
    println!("{solution}");
    println!("selected sites:");
    for id in &solution.selected {
        let s = universe.expect_source(*id);
        println!(
            "  {} ({} tuples, mttf {:.0} days)",
            s.name(),
            s.cardinality(),
            s.characteristic("mttf").unwrap_or(0.0)
        );
    }
    println!("\nmediated schema attributes (GAs):");
    for ga in solution.schema.gas() {
        let names: Vec<String> = ga
            .attrs()
            .map(|a| {
                format!(
                    "{}.{}",
                    universe.expect_source(a.source).name(),
                    universe.attr_name(a).unwrap_or("?")
                )
            })
            .collect();
        println!("  {{{}}}", names.join(", "));
    }

    // The mapping is the third piece of the data integration system: use it
    // to translate a mediated-schema query into per-source queries.
    let mapping = solution.mapping(&universe);
    println!(
        "\nquery translation (asking for all {} mediated attributes):",
        mapping.num_gas()
    );
    let all_gas: Vec<usize> = (0..mapping.num_gas()).collect();
    for source_query in mapping.translate(&all_gas) {
        let parts: Vec<String> = source_query
            .attrs
            .iter()
            .map(|(k, a)| format!("g{k} <- {}", universe.attr_name(*a).unwrap_or("?")))
            .collect();
        println!(
            "  ask {}: {}",
            universe.expect_source(source_query.source).name(),
            parts.join(", ")
        );
    }
    println!(
        "\nmapping covers {:.0}% of the selected sources' attributes.",
        mapping.coverage() * 100.0
    );
}
