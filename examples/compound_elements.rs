//! n:m matching through compound schema elements (the paper's Section 2.1
//! extension), composed with GA constraints (the paper's "matching by
//! example").
//!
//! Two directory sites split the address concept across three attributes
//! (`street`, `city`, `zip`); two keep it whole (`address` /
//! `full address`). No string measure can align `street`+`city`+`zip` with
//! `address` — the names share nothing. The µBE way: (1) fuse the split
//! attributes into a compound element, turning the n:m match into 1:1, and
//! (2) bridge the remaining semantic gap with a single GA constraint. The
//! constraint then *grows* by similarity to cover all four sources.
//!
//! Run with: `cargo run --example compound_elements`

use mube::prelude::*;
use mube::schema::{CompoundGroup, CompoundUniverse};

fn main() {
    let mut universe = Universe::new();
    let sites: [(&str, Vec<&str>); 4] = [
        ("split-a.com", vec!["street", "city", "zip", "phone"]),
        ("split-b.org", vec!["street", "city", "zip", "email"]),
        ("whole-c.net", vec!["address", "phone"]),
        ("whole-d.io", vec!["full address", "email"]),
    ];
    for (site, attrs) in sites {
        universe
            .add_source(
                SourceBuilder::new(site)
                    .attributes(attrs)
                    .cardinality(1_000),
            )
            .unwrap();
    }

    let spec = ProblemSpec::new(4)
        .with_weights(Weights::new([("matching", 1.0)]).unwrap())
        .with_theta(0.4);

    // --- Plain 1:1 matching: the address concept stays fragmented. ---
    let mube = MubeBuilder::new(&universe).build();
    let plain = mube.solve(&spec, &TabuSearch::default(), 1).unwrap();
    println!("=== plain 1:1 matching (θ = 0.4) ===");
    print_gas(&universe, &plain.schema);
    let bridged = plain.schema.gas().iter().any(|ga| {
        let whole = ga
            .attrs()
            .any(|a| universe.attr_name(a).is_some_and(|n| n.contains("address")));
        let split = ga
            .attrs()
            .any(|a| universe.attr_name(a).is_some_and(|n| n == "street"));
        whole && split
    });
    assert!(
        !bridged,
        "no measure should bridge street/city/zip to address"
    );

    // --- Step 1: fuse the split attributes into compound elements. ---
    let groups = [
        CompoundGroup {
            source: SourceId(0),
            attrs: vec![0, 1, 2],
        },
        CompoundGroup {
            source: SourceId(1),
            attrs: vec![0, 1, 2],
        },
    ];
    let compound = CompoundUniverse::new(&universe, &groups).expect("valid groups");
    println!("\nfused: split sites now expose the compound element \"street city zip\"");

    // --- Step 2: one GA constraint bridges compound ↔ whole address. ---
    let fused_attr = AttrId::new(SourceId(0), 0); // split-a's compound
    let address_attr = compound
        .universe()
        .all_attrs()
        .find(|a| compound.universe().attr_name(*a) == Some("address"))
        .expect("whole-c has an address attribute");
    let bridge = GlobalAttribute::new([fused_attr, address_attr]).unwrap();
    let spec2 = spec.clone().with_ga_constraint(bridge.clone());

    let mube2 = MubeBuilder::new(compound.universe()).build();
    let fused = mube2.solve(&spec2, &TabuSearch::default(), 1).unwrap();
    println!("\n=== compound elements + bridging GA constraint ===");
    print_gas(compound.universe(), &fused.schema);

    // The constraint grew: split-b's identical compound joins at sim 1.0,
    // and whole-d's "full address" joins via "address".
    let address_ga = fused
        .schema
        .ga_of(fused_attr)
        .expect("constraint GA present");
    assert!(
        address_ga.len() == 4,
        "address GA should span all four sources, got {address_ga}"
    );

    println!("\nexpanded n:m correspondence over the original schemas:");
    let expanded = compound.expand_ga(address_ga);
    let names: Vec<String> = expanded
        .iter()
        .map(|a| {
            format!(
                "{}:{}",
                universe.expect_source(a.source).name(),
                universe.attr_name(*a).unwrap_or("?")
            )
        })
        .collect();
    println!("  {{{}}}", names.join(" | "));
    println!(
        "\nthe address concept now spans {} original attributes across 4 sources.",
        expanded.len()
    );
}

fn print_gas(universe: &Universe, schema: &MediatedSchema) {
    for ga in schema.gas() {
        let names: Vec<String> = ga
            .attrs()
            .map(|a| {
                format!(
                    "{}:{}",
                    universe.expect_source(a.source).name(),
                    universe.attr_name(a).unwrap_or("?")
                )
            })
            .collect();
        println!("  GA {{{}}}", names.join(" | "));
    }
}
