#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! `mube-xtask` — workspace automation for the µBE repro.
//!
//! The `lint` subcommand is a dependency-free, token-level static
//! analysis pass over every workspace crate: [`lexer`] turns each source
//! file into a token stream (raw strings, nested block comments,
//! char/byte literals and lifetimes handled — the blind spots of the old
//! line-based `scrub()` scanner), and [`rules`] runs seven rule families
//! over it on **non-test library code** (everything in `src/` outside
//! `src/bin/`, with `#[cfg(test)]` items stripped):
//!
//! * `no-panic` — bans `.unwrap()`, `.expect(...)` and `panic!`;
//! * `float-eq` — flags `==`/`!=` against a float literal;
//! * `crate-attrs` — requires `#![forbid(unsafe_code)]` and
//!   `#![deny(missing_docs)]` on every crate root;
//! * `no-hash-iter` — bans `HashMap`/`HashSet` iteration in
//!   result-affecting crates (bit-identity);
//! * `no-ambient-entropy` — bans `thread_rng`, `Instant::now`,
//!   `SystemTime::now`, `env::var` outside bench/xtask (seed
//!   determinism);
//! * `float-ord` — bans `.partial_cmp(` and bare `f64` ordering keys
//!   (total order via `f64::total_cmp`);
//! * `lock-discipline` — bans locks outside the registered lock-owning modules,
//!   nested acquisitions, and guards crossing closure boundaries.
//!
//! Justified residual sites live in the exact-count allowlist
//! (`lint-allow.txt`); `lint --update-allowlist` refreshes its counts in
//! place. Every run emits a machine-readable `target/lint-report.json`.
//! See DESIGN.md §11 for the invariant each rule family protects.

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::run_lint;
pub use rules::{lint_source, Violation, LOCK_REGISTRY, RULES};
