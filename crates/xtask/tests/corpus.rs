//! Violation corpus for the token-level lint: every rule family runs
//! against a known-bad fixture (each planted violation must fire) and a
//! known-good fixture (zero hits), plus scoping checks proving that the
//! per-crate allow-sets actually gate the rules, and lexer blind-spot
//! cases the old line-scrubbing scanner used to get wrong.
//!
//! Fixtures live in `tests/fixtures/` and are never compiled — they enter
//! the lint as text through [`mube_xtask::lint_source`], under a caller-
//! chosen workspace-relative path that selects the scoping.

use mube_xtask::lint_source;

/// Lines on which `rule` fired for `src` linted under `rel`.
fn hits(rel: &str, src: &str, rule: &str) -> Vec<u32> {
    lint_source(rel, src)
        .into_iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

/// A determinism-scoped, entropy-checked, unregistered-for-locks path.
const SCOPED: &str = "crates/qef/src/fixture.rs";

// ---- no-panic / float-eq ------------------------------------------------

const PANIC_FLOAT_BAD: &str = include_str!("fixtures/panic_float_bad.rs");
const PANIC_FLOAT_GOOD: &str = include_str!("fixtures/panic_float_good.rs");

#[test]
fn no_panic_fires_on_unwrap_expect_and_panic() {
    assert_eq!(hits(SCOPED, PANIC_FLOAT_BAD, "no-panic"), vec![3, 7, 11]);
}

#[test]
fn float_eq_fires_on_either_side() {
    assert_eq!(hits(SCOPED, PANIC_FLOAT_BAD, "float-eq"), vec![15, 19]);
}

#[test]
fn panic_float_good_is_clean() {
    assert!(lint_source(SCOPED, PANIC_FLOAT_GOOD).is_empty());
}

// ---- no-hash-iter -------------------------------------------------------

const HASH_ITER_BAD: &str = include_str!("fixtures/hash_iter_bad.rs");
const HASH_ITER_GOOD: &str = include_str!("fixtures/hash_iter_good.rs");

#[test]
fn hash_iter_fires_on_methods_and_for_loops() {
    // `.iter()`, `.retain(…)`, `for … in set {`, `.into_values()`.
    assert_eq!(
        hits(SCOPED, HASH_ITER_BAD, "no-hash-iter"),
        vec![8, 11, 12, 19]
    );
}

#[test]
fn hash_iter_ignores_pure_lookups_and_ordered_walks() {
    assert!(lint_source(SCOPED, HASH_ITER_GOOD).is_empty());
}

#[test]
fn hash_iter_only_guards_determinism_scoped_crates() {
    // datagen builds inputs, it does not evaluate Q(S): out of scope.
    assert!(hits(
        "crates/datagen/src/fixture.rs",
        HASH_ITER_BAD,
        "no-hash-iter"
    )
    .is_empty());
}

#[test]
fn gram_index_module_is_determinism_scoped() {
    // The packed-bitmap gram kernels feed Q(S) through the similarity
    // matrix, so their module must sit inside the determinism scope: a
    // hash-order walk there would leak into gram-id assignment and change
    // scores run to run. Assert the path is linted (bad fixture fires) and
    // that it actually exists in the workspace.
    let rel = "crates/similarity/src/gram_index.rs";
    assert_eq!(
        hits(rel, HASH_ITER_BAD, "no-hash-iter"),
        vec![8, 11, 12, 19]
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    assert!(
        path.is_file(),
        "gram_index.rs moved without updating the lint scope test"
    );
}

#[test]
fn bnb_module_is_determinism_scoped() {
    // The exact branch-and-bound solver orders its frontier by f64 bounds
    // and certifies optimality gaps from them: a partial-order comparison
    // or hash-order tie-break there would change which optimum (of equal
    // value) is returned run to run, and a wall-clock deadline would make
    // the certified gap irreproducible. Assert its path is linted under
    // the determinism families (bad fixtures fire) and that the file
    // exists so a rename cannot silently drop it out of scope.
    let rel = "crates/opt/src/bnb.rs";
    assert_eq!(hits(rel, FLOAT_ORD_BAD, "float-ord"), vec![6, 9, 13, 17]);
    assert_eq!(
        hits(rel, HASH_ITER_BAD, "no-hash-iter"),
        vec![8, 11, 12, 19]
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    assert!(
        path.is_file(),
        "bnb.rs moved without updating the lint scope test"
    );
}

#[test]
fn sparse_and_spill_modules_are_determinism_scoped() {
    // The sparse blocked store and its spill-to-disk pair store feed Q(S)
    // exactly like the dense triangle: a hash-order walk in candidate
    // generation would reorder CSR rows, and a partial-order float compare
    // in the τ gate or the run merge would change which pairs survive.
    // Assert both paths are linted under the determinism families (bad
    // fixtures fire) and still exist in the workspace, so a rename cannot
    // silently drop them out of scope.
    for rel in [
        "crates/similarity/src/sparse.rs",
        "crates/similarity/src/spill.rs",
    ] {
        assert_eq!(
            hits(rel, HASH_ITER_BAD, "no-hash-iter"),
            vec![8, 11, 12, 19],
            "{rel}"
        );
        assert_eq!(
            hits(rel, FLOAT_ORD_BAD, "float-ord"),
            vec![6, 9, 13, 17],
            "{rel}"
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel);
        assert!(
            path.is_file(),
            "{rel} moved without updating the lint scope test"
        );
    }
}

// ---- no-ambient-entropy -------------------------------------------------

const ENTROPY_BAD: &str = include_str!("fixtures/entropy_bad.rs");
const ENTROPY_GOOD: &str = include_str!("fixtures/entropy_good.rs");

#[test]
fn entropy_fires_on_clocks_env_and_thread_rng() {
    assert_eq!(
        hits(SCOPED, ENTROPY_BAD, "no-ambient-entropy"),
        vec![5, 6, 7, 12]
    );
}

#[test]
fn entropy_ignores_lookalike_idents() {
    // `env_snapshot`, a `now` field, a seeded generator: all legal.
    assert!(lint_source(SCOPED, ENTROPY_GOOD).is_empty());
}

#[test]
fn entropy_exempts_the_measurement_harness() {
    assert!(hits(
        "crates/bench/src/fixture.rs",
        ENTROPY_BAD,
        "no-ambient-entropy"
    )
    .is_empty());
}

// ---- float-ord ----------------------------------------------------------

const FLOAT_ORD_BAD: &str = include_str!("fixtures/float_ord_bad.rs");
const FLOAT_ORD_GOOD: &str = include_str!("fixtures/float_ord_good.rs");

#[test]
fn float_ord_fires_on_partial_cmp_and_f64_keys() {
    // `.partial_cmp(`, `BinaryHeap<(f64, _)>`, `BTreeMap<f64, _>`,
    // `BTreeSet<f64>`.
    assert_eq!(hits(SCOPED, FLOAT_ORD_BAD, "float-ord"), vec![6, 9, 13, 17]);
}

#[test]
fn float_ord_allows_total_cmp_value_floats_and_definitions() {
    // `total_cmp`, `BTreeMap<u64, f64>` (float in *value* position), and a
    // `fn partial_cmp` definition (no leading dot) are all legal.
    assert!(lint_source(SCOPED, FLOAT_ORD_GOOD).is_empty());
}

#[test]
fn float_ord_only_guards_determinism_scoped_crates() {
    assert!(hits("crates/datagen/src/fixture.rs", FLOAT_ORD_BAD, "float-ord").is_empty());
}

// ---- lock-discipline ----------------------------------------------------

const LOCK_REGISTRY_BAD: &str = include_str!("fixtures/lock_registry_bad.rs");
const LOCK_DOUBLE_BAD: &str = include_str!("fixtures/lock_double_bad.rs");
const LOCK_GOOD: &str = include_str!("fixtures/lock_good.rs");

/// A registered lock-owning module (see `mube_xtask::LOCK_REGISTRY`).
const REGISTERED: &str = "crates/core/src/arena.rs";

#[test]
fn lock_state_outside_the_registry_is_flagged_per_mention() {
    assert_eq!(
        hits(SCOPED, LOCK_REGISTRY_BAD, "lock-discipline"),
        vec![3, 6, 12]
    );
}

#[test]
fn registered_modules_may_declare_locks() {
    assert!(hits(REGISTERED, LOCK_REGISTRY_BAD, "lock-discipline").is_empty());
}

#[test]
fn double_acquisition_and_guard_in_closure_are_flagged() {
    // Second shard lock while one is held, a nested same-statement
    // acquisition, and a live guard referenced inside a closure body.
    assert_eq!(
        hits(REGISTERED, LOCK_DOUBLE_BAD, "lock-discipline"),
        vec![12, 17, 23]
    );
}

#[test]
fn dropped_and_scoped_guards_are_clean() {
    assert!(lint_source(REGISTERED, LOCK_GOOD).is_empty());
}

#[test]
fn serve_host_is_lock_registered_and_disciplined() {
    // The session host's registry mutex is the serve crate's only lock:
    // its module is registered (declaring locks is legal there) but the
    // discipline rules still apply — a double acquisition or a guard
    // crossing a closure must fire exactly as in the shard stores.
    let rel = "crates/serve/src/host.rs";
    assert!(hits(rel, LOCK_REGISTRY_BAD, "lock-discipline").is_empty());
    assert_eq!(
        hits(rel, LOCK_DOUBLE_BAD, "lock-discipline"),
        vec![12, 17, 23]
    );
    // Everywhere else in the crate, lock state is banned outright.
    assert_eq!(
        hits(
            "crates/serve/src/json.rs",
            LOCK_REGISTRY_BAD,
            "lock-discipline"
        ),
        vec![3, 6, 12]
    );
}

#[test]
fn serve_crate_is_determinism_scoped_and_entropy_checked() {
    // Protocol transcripts are compared byte for byte across runs: a
    // hash-order walk in JSON rendering or a wall-clock read in the host
    // would break that. The serve crate sits inside the determinism scope
    // and outside the entropy exemption.
    for rel in [
        "crates/serve/src/json.rs",
        "crates/serve/src/proto.rs",
        "crates/serve/src/host.rs",
    ] {
        assert_eq!(
            hits(rel, HASH_ITER_BAD, "no-hash-iter"),
            vec![8, 11, 12, 19],
            "{rel}"
        );
        assert_eq!(
            hits(rel, FLOAT_ORD_BAD, "float-ord"),
            vec![6, 9, 13, 17],
            "{rel}"
        );
        assert_eq!(
            hits(rel, ENTROPY_BAD, "no-ambient-entropy"),
            vec![5, 6, 7, 12],
            "{rel}"
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel);
        assert!(
            path.is_file(),
            "{rel} moved without updating the lint scope test"
        );
    }
}

#[test]
fn registry_paths_exist_in_the_workspace() {
    // A registry entry pointing at a renamed/removed file would silently
    // turn that module's discipline checks into mention-count checks.
    for rel in mube_xtask::LOCK_REGISTRY {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel);
        assert!(path.is_file(), "LOCK_REGISTRY entry missing: {rel}");
    }
}

// ---- lexer blind spots (what the old line scrubber got wrong) -----------

#[test]
fn raw_strings_hide_nothing_and_fake_nothing() {
    let src = r##"
fn render() -> String {
    let template = r#"call .unwrap() and panic!("nope") here"#;
    template.to_owned()
}
"##;
    assert!(lint_source(SCOPED, src).is_empty());
}

#[test]
fn quote_char_literal_does_not_open_a_string() {
    // The old scrubber treated '"' as an unterminated string and went
    // blind for the rest of the file; the real hit below must survive.
    let src = "fn f(s: &str) -> usize {\n    let _quotes = s.matches('\"').count();\n    s.find('x').unwrap()\n}\n";
    assert_eq!(hits(SCOPED, src, "no-panic"), vec![3]);
}

#[test]
fn nested_block_comments_stay_comments() {
    let src = "/* outer /* inner .unwrap() */ still commented panic!() */\nfn ok() {}\n";
    assert!(lint_source(SCOPED, src).is_empty());
}

#[test]
fn code_after_a_test_module_is_still_linted() {
    // The old scanner stopped at the first `#[cfg(test)]`; the token
    // stripper skips only the module item, so the unwrap on line 8 fires
    // while the one inside the test module stays exempt.
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n\nfn later(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(hits(SCOPED, src, "no-panic"), vec![8]);
}
