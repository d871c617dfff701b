//! Token-stream lint rules over [`crate::lexer`] output.
//!
//! Seven rule families run here (see DESIGN.md §11 for the invariant each
//! one protects):
//!
//! * `no-panic` — `.unwrap()` / `.expect(…)` / `panic!` in library code;
//! * `float-eq` — `==` / `!=` against a float literal;
//! * `crate-attrs` — required crate-root attributes (checked by the
//!   engine, since it needs to know which file is the crate root);
//! * `no-hash-iter` — iteration over `HashMap`/`HashSet` in
//!   result-affecting crates, where `RandomState` iteration order would
//!   break bit-identical Q(S) results;
//! * `no-ambient-entropy` — `thread_rng`, `Instant::now`,
//!   `SystemTime::now`, `std::env::var` outside the bench/xtask allow-set,
//!   so every seed and knob is threaded explicitly through `ProblemSpec`;
//! * `float-ord` — `.partial_cmp(` and bare `f64` in `Ord` key positions
//!   (`BinaryHeap`/`BTreeMap`/`BTreeSet`); `f64::total_cmp` is the
//!   workspace-wide total order;
//! * `lock-discipline` — `Mutex`/`RwLock` outside the registered
//!   lock-owning modules, a second lock acquisition while a guard is
//!   held, and a lock guard referenced inside a closure body.
//!
//! All rules run on the test-stripped token stream, so `#[cfg(test)]`
//! items are out of scope (tests may hammer locks and compare floats).

use crate::lexer::{lex, strip_test_regions, TokKind, Token};

/// One rule hit at a specific source line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule identifier.
    pub rule: &'static str,
    /// The offending source line, trimmed (or a description for
    /// file-level rules).
    pub excerpt: String,
}

/// Every rule family, in the order they are documented.
pub const RULES: &[&str] = &[
    "no-panic",
    "float-eq",
    "crate-attrs",
    "no-hash-iter",
    "no-ambient-entropy",
    "float-ord",
    "lock-discipline",
];

/// Crates whose code paths feed Q(S) and therefore must be bit-identical
/// run to run: `no-hash-iter` and `float-ord` apply here.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/core/",
    "crates/cluster/",
    "crates/opt/",
    "crates/qef/",
    "crates/similarity/",
    "crates/schema/",
    // The session host replays protocol transcripts for bit-identity: a
    // hash-order walk in JSON rendering or session dispatch would change
    // response bytes run to run.
    "crates/serve/",
];

/// Crates allowed to read ambient entropy (wall clocks, env vars): the
/// measurement harness and this lint tool itself.
const ENTROPY_EXEMPT: &[&str] = &["crates/bench/", "crates/xtask/"];

/// The only modules allowed to own `Mutex`/`RwLock` state: the evaluation
/// arena's one store lock and the session host's registry. Everything else
/// counts with atomics or goes through these, so the lock graph stays
/// reviewable.
pub const LOCK_REGISTRY: &[&str] = &["crates/core/src/arena.rs", "crates/serve/src/host.rs"];

/// Methods whose call on a hash collection exposes nondeterministic
/// iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "retain_mut",
    "into_iter",
    "into_keys",
    "into_values",
];

fn in_scope(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// Lints one source file (given as text) under its workspace-relative
/// path, which selects the per-crate rule scoping. This is the entry
/// point the corpus tests drive directly.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let toks = strip_test_regions(&lex(src));
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    no_panic(rel, &toks, &lines, &mut out);
    float_eq(rel, &toks, &lines, &mut out);
    if in_scope(rel, DETERMINISM_SCOPE) {
        no_hash_iter(rel, &toks, &lines, &mut out);
        float_ord(rel, &toks, &lines, &mut out);
    }
    if !in_scope(rel, ENTROPY_EXEMPT) {
        no_ambient_entropy(rel, &toks, &lines, &mut out);
    }
    lock_discipline(rel, &toks, &lines, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn hit(out: &mut Vec<Violation>, lines: &[&str], rel: &str, line: u32, rule: &'static str) {
    let excerpt = lines
        .get(line as usize - 1)
        .map_or(String::new(), |l| l.trim().to_owned());
    out.push(Violation {
        file: rel.to_owned(),
        line,
        rule,
        excerpt,
    });
}

/// `.unwrap()`, `.expect(…)`, `panic!` — token-level, so string literals
/// and comments can no longer fake or hide a hit (and this file's own
/// source, where the names only appear as string literals, never
/// self-matches).
fn no_panic(rel: &str, toks: &[Token], lines: &[&str], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        let unwrap = toks[i].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(")"));
        let expect = toks[i].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("));
        let panic = toks[i].is_ident("panic") && toks.get(i + 1).is_some_and(|t| t.is_punct("!"));
        if unwrap || expect || panic {
            let line = if panic {
                toks[i].line
            } else {
                toks[i + 1].line
            };
            hit(out, lines, rel, line, "no-panic");
        }
    }
}

/// `==` / `!=` with a float literal on either side.
fn float_eq(rel: &str, toks: &[Token], lines: &[&str], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if !(toks[i].is_punct("==") || toks[i].is_punct("!=")) {
            continue;
        }
        let lhs_float = i > 0 && toks[i - 1].is_float();
        let rhs_float = toks.get(i + 1).is_some_and(Token::is_float);
        if lhs_float || rhs_float {
            hit(out, lines, rel, toks[i].line, "float-eq");
        }
    }
}

/// Iteration over a `HashMap`/`HashSet`-typed binding in a
/// determinism-scoped crate. Pass 1 collects names bound or declared with
/// a hash type in this file; pass 2 flags ordering-sensitive method calls
/// (`.iter()`, `.values_mut()`, `.retain(…)`, …) and `for … in name {`
/// loops over those names. Pure lookups (`.get`, `.insert`, `.entry`)
/// stay legal: only iteration order is nondeterministic.
fn no_hash_iter(rel: &str, toks: &[Token], lines: &[&str], out: &mut Vec<Violation>) {
    let mut names: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) {
            continue;
        }
        // Strip a leading `std::collections::`-style qualifier.
        let mut j = i;
        while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        if j == 0 {
            continue;
        }
        // `name: [&][mut] HashMap<…>` (let ascription, field, parameter).
        let mut k = j;
        while k >= 1 && (toks[k - 1].is_punct("&") || toks[k - 1].is_ident("mut")) {
            k -= 1;
        }
        if k >= 2 && toks[k - 1].is_punct(":") && toks[k - 2].kind == TokKind::Ident {
            names.push(&toks[k - 2].text);
        } else if j >= 2 && toks[j - 1].is_punct("=") && toks[j - 2].kind == TokKind::Ident {
            // `let name = HashMap::new()`.
            names.push(&toks[j - 2].text);
        }
    }
    if names.is_empty() {
        return;
    }
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident && names.contains(&toks[i].text.as_str()) {
            // `name.iter()` and friends.
            if toks.get(i + 1).is_some_and(|t| t.is_punct("."))
                && toks.get(i + 2).is_some_and(|t| {
                    t.kind == TokKind::Ident && HASH_ITER_METHODS.contains(&t.text.as_str())
                })
                && toks.get(i + 3).is_some_and(|t| t.is_punct("("))
            {
                hit(out, lines, rel, toks[i].line, "no-hash-iter");
            }
        }
        // `for x in [&[mut]] name {` — the implicit IntoIterator form.
        if toks[i].is_ident("for") {
            let impl_for =
                i > 0 && (toks[i - 1].kind == TokKind::Ident || toks[i - 1].is_punct(">"));
            if impl_for {
                continue;
            }
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_ident("in") && !toks[j].is_punct("{") {
                j += 1;
            }
            if !toks.get(j).is_some_and(|t| t.is_ident("in")) {
                continue;
            }
            let mut k = j + 1;
            while k < toks.len() && !toks[k].is_punct("{") {
                if toks[k].kind == TokKind::Ident
                    && names.contains(&toks[k].text.as_str())
                    && toks.get(k + 1).is_some_and(|t| t.is_punct("{"))
                {
                    hit(out, lines, rel, toks[k].line, "no-hash-iter");
                }
                k += 1;
            }
        }
    }
}

/// `thread_rng`, `Instant::now`, `SystemTime::now`, `env::var` — ambient
/// inputs that make a run irreproducible unless threaded explicitly.
fn no_ambient_entropy(rel: &str, toks: &[Token], lines: &[&str], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("thread_rng") {
            hit(out, lines, rel, t.line, "no-ambient-entropy");
            continue;
        }
        let clock = (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("now"));
        let env = t.is_ident("env")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_ident("var") || n.is_ident("var_os") || n.is_ident("vars"));
        if clock || env {
            hit(out, lines, rel, t.line, "no-ambient-entropy");
        }
    }
}

/// `.partial_cmp(` calls (definitions of `fn partial_cmp` have no leading
/// dot and stay legal) and bare `f64` in the key position of an ordered
/// container.
fn float_ord(rel: &str, toks: &[Token], lines: &[&str], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if toks[i].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("partial_cmp"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
        {
            hit(out, lines, rel, toks[i + 1].line, "float-ord");
        }
        let whole_key = (toks[i].is_ident("BinaryHeap") || toks[i].is_ident("BTreeSet"))
            && generic_key_has_f64(toks, i, false);
        let first_key = toks[i].is_ident("BTreeMap") && generic_key_has_f64(toks, i, true);
        if whole_key || first_key {
            hit(out, lines, rel, toks[i].line, "float-ord");
        }
    }
}

/// True when the generic arguments opening right after `toks[i]` contain
/// an `f64` — restricted to the first (key) parameter when
/// `first_param_only` is set.
fn generic_key_has_f64(toks: &[Token], i: usize, first_param_only: bool) -> bool {
    if !toks.get(i + 1).is_some_and(|t| t.is_punct("<")) {
        return false;
    }
    let mut depth = 1usize;
    let mut j = i + 2;
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct(",") && depth == 1 && first_param_only {
            return false;
        } else if t.is_ident("f64") {
            return true;
        }
        j += 1;
    }
    false
}

/// Lock discipline for the registered stores. Outside [`LOCK_REGISTRY`],
/// any `Mutex`/`RwLock` mention is a violation (new lock state belongs in
/// a registered store). Inside, a linear scan tracks `let`-bound guards
/// (`.lock()` / `.read()` / `.write()` / `lock_unpoisoned(…)`) by brace
/// depth and flags (a) a second acquisition while any guard is live or
/// two acquisitions in one statement, and (b) a live guard's name
/// appearing inside a closure body — the static complement of the
/// 8-thread cache-hammer test.
fn lock_discipline(rel: &str, toks: &[Token], lines: &[&str], out: &mut Vec<Violation>) {
    let registered = LOCK_REGISTRY.contains(&rel);
    if !registered {
        for t in toks {
            if t.is_ident("Mutex") || t.is_ident("RwLock") {
                hit(out, lines, rel, t.line, "lock-discipline");
            }
        }
        return;
    }

    let mut depth = 0usize;
    let mut stmt_start = 0usize;
    // Live guards as (name, brace depth at binding).
    let mut guards: Vec<(String, usize)> = Vec::new();
    let mut pending_acq = 0usize;
    let mut pending_guard: Option<String> = None;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
            stmt_start = i + 1;
            pending_acq = 0;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.1 <= depth);
            stmt_start = i + 1;
            pending_acq = 0;
            pending_guard = None;
        } else if t.is_punct(";") {
            if let Some(name) = pending_guard.take() {
                guards.push((name, depth));
            }
            stmt_start = i + 1;
            pending_acq = 0;
        } else if t.is_punct(",") {
            // Match arms and argument lists are separate evaluation steps
            // for the temporaries this scan can see.
            pending_acq = 0;
        } else if is_acquisition(toks, i) {
            if pending_acq > 0 || !guards.is_empty() {
                hit(out, lines, rel, t.line, "lock-discipline");
            }
            pending_acq += 1;
            if toks.get(stmt_start).is_some_and(|s| s.is_ident("let")) {
                let mut n = stmt_start + 1;
                if toks.get(n).is_some_and(|s| s.is_ident("mut")) {
                    n += 1;
                }
                if toks.get(n).is_some_and(|s| s.kind == TokKind::Ident) {
                    pending_guard = Some(toks[n].text.clone());
                }
            }
        } else if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|s| s.is_punct("("))
            && toks.get(i + 2).is_some_and(|s| s.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|s| s.is_punct(")"))
        {
            let name = &toks[i + 2].text;
            guards.retain(|g| g.0 != *name);
        } else if is_closure_start(toks, i) && !guards.is_empty() {
            let (start, end) = closure_extent(toks, i);
            for tok in &toks[start..end.min(toks.len())] {
                if tok.kind == TokKind::Ident && guards.iter().any(|g| g.0 == tok.text) {
                    hit(out, lines, rel, tok.line, "lock-discipline");
                    break;
                }
            }
        }
        i += 1;
    }
}

/// True when `toks[i]` is the method/function ident of a lock
/// acquisition: `.lock(` / `.read(` / `.write(` or `lock_unpoisoned(`.
fn is_acquisition(toks: &[Token], i: usize) -> bool {
    let t = &toks[i];
    let method = (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
        && i > 0
        && toks[i - 1].is_punct(".")
        && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
    let helper = t.is_ident("lock_unpoisoned") && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
    method || helper
}

/// True when `toks[i]` opens closure parameters (`|…|` or `||`), judged
/// by the preceding token — binary `a | b` and or-patterns are preceded
/// by an operand and stay invisible.
fn is_closure_start(toks: &[Token], i: usize) -> bool {
    if !(toks[i].is_punct("|") || toks[i].is_punct("||")) {
        return false;
    }
    let Some(p) = i.checked_sub(1).and_then(|j| toks.get(j)) else {
        return true;
    };
    p.is_punct("(")
        || p.is_punct(",")
        || p.is_punct("=")
        || p.is_punct("=>")
        || p.is_punct("{")
        || p.is_punct(";")
        || p.is_punct(":")
        || p.is_punct("&&")
        || p.is_ident("move")
        || p.is_ident("return")
}

/// Token range `(start, end)` of a closure body whose parameter list
/// opens at `toks[i]`: a braced body runs to its matching `}`, an
/// expression body to the first `,` / `)` / `]` / `;` / `}` at its own
/// nesting level.
fn closure_extent(toks: &[Token], i: usize) -> (usize, usize) {
    let params_end = if toks[i].is_punct("||") {
        i
    } else {
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_punct("|") {
            j += 1;
        }
        j
    };
    let start = params_end + 1;
    if toks.get(start).is_some_and(|t| t.is_punct("{")) {
        let mut d = 0usize;
        let mut j = start;
        while j < toks.len() {
            if toks[j].is_punct("{") {
                d += 1;
            } else if toks[j].is_punct("}") {
                d -= 1;
                if d == 0 {
                    return (start, j + 1);
                }
            }
            j += 1;
        }
        return (start, toks.len());
    }
    let (mut pd, mut bd, mut sd) = (0usize, 0usize, 0usize);
    let mut j = start;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") {
            pd += 1;
        } else if t.is_punct(")") {
            if pd == 0 {
                return (start, j);
            }
            pd -= 1;
        } else if t.is_punct("[") {
            sd += 1;
        } else if t.is_punct("]") {
            if sd == 0 {
                return (start, j);
            }
            sd -= 1;
        } else if t.is_punct("{") {
            bd += 1;
        } else if t.is_punct("}") {
            if bd == 0 {
                return (start, j);
            }
            bd -= 1;
        } else if (t.is_punct(",") || t.is_punct(";")) && pd == 0 && bd == 0 && sd == 0 {
            return (start, j);
        }
        j += 1;
    }
    (start, toks.len())
}
