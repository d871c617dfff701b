//! Matching by constrained clustering — µBE's `Match(S)` operator
//! (Section 3, Algorithm 1).
//!
//! `Match(S)` determines the best 1:1 matching between the schemas of the
//! data sources in `S` and returns the resulting mediated schema together
//! with its matching quality, which is the value of the `F1` QEF.
//!
//! The algorithm is greedy constrained similarity clustering:
//!
//! 1. Every GA constraint becomes its own cluster (flagged *keep*); every
//!    remaining attribute of every source in `S` becomes a singleton cluster.
//! 2. Repeatedly: enumerate all cluster pairs with similarity ≥ θ into a
//!    priority queue; pop pairs in decreasing similarity; merge a pair if
//!    neither side was already merged this round and the union is a valid GA
//!    (no two attributes from one source). If exactly one side was already
//!    consumed, flag the other as a *merge candidate* so it survives to the
//!    next round (its partner grew; under single linkage the grown cluster
//!    is at least as similar). Clusters that are neither merged, nor
//!    candidates, nor keep-flagged are eliminated — their best similarity to
//!    anything is below θ, so they can never join a GA.
//! 3. Stop when a round sets no merge candidates.
//!
//! **Reconstruction note.** The paper's Algorithm 1 line 21 prints the
//! elimination condition as "(newly merged cluster) ∨ mergecand ∨ keep →
//! eliminate", which would delete the user's GA constraints and every merged
//! cluster — contradicting the prose and the output contract (`G ⊑ M`). We
//! implement the evidently intended complement: *eliminate clusters that
//! have never merged, are not merge candidates, and are not keep-flagged.*
//! The `keep` flag propagates through merges so grown constraint clusters
//! can never be eliminated.
//!
//! Cluster similarity is **single linkage** (the maximum similarity between
//! an attribute of one cluster and an attribute of the other) — this is what
//! makes GA constraints "bridge" dissimilar attributes: the cluster keeps
//! growing from both seeds without the dissimilar pair penalizing it.
//! It is the only linkage: it is what lets the incremental kernel keep a
//! pair store holding only pairs ≥ θ and derive a merged cluster's row as
//! the maximum over its parents' stored pairs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod algorithm;
mod incremental;
pub mod linkage;
pub mod quality;
pub mod similarity;
mod source_mask;

pub use algorithm::{
    match_sources, match_sources_brute_force, match_sources_deferring_spans, MatchConfig,
    MatchOutcome, MatchStats,
};
pub use linkage::cluster_similarity;
pub use quality::{ga_quality, schema_quality};
pub use similarity::{AttrSimilarity, MeasureAdapter};
