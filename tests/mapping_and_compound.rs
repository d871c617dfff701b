//! Integration tests for the downstream-use surfaces: the materialized
//! source-to-schema mapping (query translation) and compound schema
//! elements through the full engine.

use mube::datagen::UniverseConfig;
use mube::prelude::*;
use mube::schema::{CompoundGroup, CompoundUniverse};

#[test]
fn mapping_translates_queries_over_a_solved_system() {
    let generated = UniverseConfig::small_test(60, 3).generate();
    let mube = MubeBuilder::new(&generated.universe)
        .sketches(generated.sketches.clone())
        .build();
    let solution = mube
        .solve(&ProblemSpec::new(10), &TabuSearch::quick(), 1)
        .unwrap();
    let mapping = solution.mapping(&generated.universe);

    assert_eq!(mapping.num_gas(), solution.schema.len());
    // Every GA attribute appears in its source's mapping with the right
    // GA index.
    for (k, ga) in solution.schema.gas().iter().enumerate() {
        for attr in ga.attrs() {
            assert_eq!(mapping.native_attr(attr.source, k), Some(attr));
        }
    }
    // Querying all mediated attributes reaches every source that has any
    // mapped attribute.
    let all: Vec<usize> = (0..mapping.num_gas()).collect();
    let queries = mapping.translate(&all);
    for q in &queries {
        assert!(solution.selected.contains(&q.source));
        assert!(!q.attrs.is_empty());
        for (k, attr) in &q.attrs {
            assert!(solution.schema.gas()[*k].contains(*attr));
        }
    }
    // Coverage is a valid fraction.
    let cov = mapping.coverage();
    assert!((0.0..=1.0).contains(&cov));
}

#[test]
fn compound_universe_runs_through_the_full_engine() {
    // Build a universe where two sources split a concept.
    let mut universe = Universe::new();
    universe
        .add_source(
            SourceBuilder::new("split")
                .attributes(["street", "city", "zip", "keyword"])
                .cardinality(100),
        )
        .unwrap();
    universe
        .add_source(
            SourceBuilder::new("whole")
                .attributes(["address", "keyword"])
                .cardinality(100),
        )
        .unwrap();
    let groups = [CompoundGroup {
        source: SourceId(0),
        attrs: vec![0, 1, 2],
    }];
    let compound = CompoundUniverse::new(&universe, &groups).unwrap();

    // Bridge compound <-> address, then solve.
    let bridge =
        GlobalAttribute::new([AttrId::new(SourceId(0), 0), AttrId::new(SourceId(1), 0)]).unwrap();
    let mube = MubeBuilder::new(compound.universe()).build();
    let spec = ProblemSpec::new(2)
        .with_weights(Weights::new([("matching", 1.0)]).unwrap())
        .with_ga_constraint(bridge.clone());
    let solution = mube.solve(&spec, &TabuSearch::default(), 0).unwrap();

    assert!(solution.schema.subsumes_gas([&bridge]));
    // Expansion yields the n:m correspondence (3 split attrs + 1 whole).
    let address_ga = solution.schema.ga_of(AttrId::new(SourceId(0), 0)).unwrap();
    let expanded = compound.expand_ga(address_ga);
    assert_eq!(expanded.len(), 4);
    // The "keyword" attributes also matched (identical names).
    assert!(solution
        .schema
        .gas()
        .iter()
        .any(|ga| ga.len() == 2 && ga != address_ga));
}

#[test]
fn mapping_of_empty_solution_is_empty() {
    let mut universe = Universe::new();
    universe
        .add_source(
            SourceBuilder::new("only")
                .attributes(["xyz"])
                .cardinality(1),
        )
        .unwrap();
    let mube = MubeBuilder::new(&universe).build();
    let spec = ProblemSpec::new(1).with_weights(Weights::new([("cardinality", 1.0)]).unwrap());
    let solution = mube.solve(&spec, &TabuSearch::default(), 0).unwrap();
    let mapping = solution.mapping(&universe);
    // One source, nothing matched: schema empty, everything unmapped.
    assert_eq!(mapping.num_gas(), 0);
    assert_eq!(mapping.unmapped().len(), 1);
    assert!(mapping.translate(&[]).is_empty());
}
