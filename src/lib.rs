//! # µBE — user-guided source selection and schema mediation
//!
//! A from-scratch Rust reproduction of *"µBE: User Guided Source Selection
//! and Schema Mediation for Internet Scale Data Integration"* (Aboulnaga &
//! El Gebaly, ICDE 2007).
//!
//! µBE helps a user build an Internet-scale data integration system by
//! *simultaneously* choosing which data sources to include and deriving a
//! mediated schema over them, instead of fixing a mediated schema up front.
//! The choice is driven by a constrained non-linear optimization problem
//! over quality dimensions — schema matching quality, data cardinality /
//! coverage / redundancy, and arbitrary source characteristics — that the
//! user steers across iterations by pinning sources, pinning global
//! attributes ("matching by example"), and reweighting.
//!
//! ## Quick start
//!
//! ```
//! use mube::prelude::*;
//!
//! // 1. Describe candidate sources (schemas + cardinalities + characteristics).
//! let mut universe = Universe::new();
//! for (site, attrs, tuples) in [
//!     ("aceticket.com", vec!["state", "city", "event", "venue"], 50_000u64),
//!     ("lastminute.com", vec!["event name", "event type", "location"], 80_000),
//!     ("wstonline.org", vec!["keyword", "after date", "before date"], 20_000),
//!     ("officiallondontheatre.co.uk", vec!["keyword", "after date", "before date"], 30_000),
//! ] {
//!     universe
//!         .add_source(SourceBuilder::new(site).attributes(attrs).cardinality(tuples))
//!         .unwrap();
//! }
//!
//! // 2. Build the engine (similarity matrix etc.) and a problem spec.
//! let mube = MubeBuilder::new(&universe).build();
//! let spec = ProblemSpec::new(2) // select at most 2 sources
//!     .with_weights(Weights::new([("matching", 1.0)]).unwrap())
//!     .with_theta(0.6);
//!
//! // 3. Solve with the paper's tabu search and inspect. Any `Solver` goes
//! //    here: a `Portfolio` race or an exact `BranchAndBound` included.
//! let solution = mube.solve(&spec, &TabuSearch::default(), 42).unwrap();
//! assert_eq!(solution.num_sources(), 2);
//! println!("{solution}");
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`schema`] | sources, attributes, GAs, mediated schemas, constraints |
//! | [`similarity`] | 3-gram Jaccard (paper default) + alternative measures |
//! | [`pcsa`] | Flajolet–Martin PCSA sketches for union cardinalities |
//! | [`cluster`] | the `Match(S)` operator (Algorithm 1) |
//! | [`qef`] | cardinality / coverage / redundancy / characteristic QEFs |
//! | [`opt`] | tabu search and the other solvers, subset-problem framework |
//! | [`datagen`] | the paper's synthetic experimental universe (§7.1) |
//! | [`core`] | the engine: objective, solve, iterative sessions |
//! | [`serve`] | the `mubed` session host: concurrent sessions over one snapshot |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use mube_baseline as baseline;
pub use mube_cluster as cluster;
pub use mube_core as core;
pub use mube_datagen as datagen;
pub use mube_opt as opt;
pub use mube_pcsa as pcsa;
pub use mube_qef as qef;
pub use mube_schema as schema;
pub use mube_serve as serve;
pub use mube_similarity as similarity;

pub mod universe_file;

/// One-stop imports for typical use.
pub mod prelude {
    pub use mube_baseline::{DeaBaseline, TopCardinality};
    pub use mube_cluster::MatchConfig;
    pub use mube_core::{
        CancelToken, EvalArena, Mube, MubeBuilder, MubeError, ProblemSpec, Session, Solution,
        SolutionDiff, SpecDelta, UniverseSnapshot,
    };
    pub use mube_opt::{
        BinaryPso, BranchAndBound, Exhaustive, Greedy, Portfolio, PortfolioMember,
        PortfolioOutcome, RandomSearch, SimulatedAnnealing, Solver, StochasticLocalSearch,
        TabuSearch,
    };
    pub use mube_pcsa::{PcsaSketch, TupleHasher};
    pub use mube_qef::{Aggregation, CharacteristicQef, FnQef, Qef, QefContext, Weights};
    pub use mube_schema::{
        AttrId, Constraints, GlobalAttribute, MediatedSchema, SchemaMapping, Source, SourceBuilder,
        SourceId, SourceSelection, Universe,
    };
    pub use mube_similarity::{NgramJaccard, SimilarityMeasure};
}
