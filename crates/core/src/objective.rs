//! The composite objective `Q(S)` as a subset-selection problem.
//!
//! Since the delta-aware session core landed, the objective no longer
//! memoizes the scalar `Q(S)`: it memoizes the *component vector*
//! `[F_1(S) .. F_K(S)]` (an [`EvalArena`] entry) and applies the weight
//! combination at read time, in exactly the accumulation order the direct
//! computation uses — so cached and fresh values are bit-identical, and a
//! weights-only feedback edit recombines every surviving entry with zero
//! `Match(S)` calls.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mube_cluster::{
    match_sources, match_sources_deferring_spans, MatchConfig, MatchOutcome, MatchStats,
};
use mube_opt::{CancelToken, Subset, SubsetProblem};
use mube_qef::{CharacteristicQef, Qef};
use mube_schema::{Constraints, MediatedSchema, SourceId, SourceSelection};

use crate::arena::{ComponentEval, EvalArena, MatchPart, Prepared, SpecDelta};
use crate::snapshot::UniverseSnapshot;

/// A weight bound to the function it scales.
pub(crate) enum QefBinding {
    /// The `F1` matching-quality QEF (computed via `Match(S)`).
    Matching,
    /// A QEF registered on the engine, by index into the snapshot's QEF
    /// list (fixed at build time, so indices never dangle).
    Registered(usize),
    /// An automatically derived source-characteristic QEF.
    Characteristic(CharacteristicQef),
}

/// [`MatchStats`] summed over every thread's `Match(S)` calls, one atomic
/// per counter, so no evaluation takes a lock to report its work.
#[derive(Default)]
struct MatchCounters {
    linkage_evals: AtomicU64,
    lw_updates: AtomicU64,
    heap_pushes: AtomicU64,
    stale_pops: AtomicU64,
}

impl MatchCounters {
    fn absorb(&self, stats: &MatchStats) {
        self.linkage_evals
            .fetch_add(stats.linkage_evals, Ordering::Relaxed);
        self.lw_updates
            .fetch_add(stats.lw_updates, Ordering::Relaxed);
        self.heap_pushes
            .fetch_add(stats.heap_pushes, Ordering::Relaxed);
        self.stale_pops
            .fetch_add(stats.stale_pops, Ordering::Relaxed);
    }

    fn load(&self) -> MatchStats {
        MatchStats {
            linkage_evals: self.linkage_evals.load(Ordering::Relaxed),
            lw_updates: self.lw_updates.load(Ordering::Relaxed),
            heap_pushes: self.heap_pushes.load(Ordering::Relaxed),
            stale_pops: self.stale_pops.load(Ordering::Relaxed),
        }
    }
}

/// Sorted indices of the sources a schema spans — the constraint-free basis
/// the arena memoizes so the `C ⊆ spanned` validity check can run at read
/// time under whatever source constraints are then current.
fn spanned_of(schema: &MediatedSchema) -> Box<[u32]> {
    schema.covered_sources().into_iter().map(|s| s.0).collect()
}

/// Additive slack on every upper bound the objective reports, covering
/// float summation-order differences between a bound computation and
/// [`MubeObjective::evaluate`]'s accumulation (each is a sum of `O(1)`
/// terms, so the true discrepancy is orders of magnitude below this).
/// Without it, a bound a few ulps under the true completion optimum could
/// prune the optimum away and break branch-and-bound exactness.
const BOUND_SLACK: f64 = 1e-9;

/// What an arena probe produced for a subset.
enum Probe {
    /// A complete evaluation: the combined `Q(S)` under current weights.
    Full(f64),
    /// A cross-iteration survivor whose match part was stripped by a
    /// `MatchInvalidating` edit: the non-matching components, cloned out so
    /// `Match(S)` alone can be recomputed outside the arena lock.
    Stale(Box<[f64]>),
}

/// `Q(S)` exposed through [`SubsetProblem`] so any `mube-opt` solver can
/// drive it. Evaluations are memoized by selection fingerprint — tabu search
/// revisits neighbourhoods constantly, and `Match(S)` dominates the cost of
/// an evaluation.
///
/// The objective is `Sync` and holds no lock of its own: the memo arena
/// sits behind one `RwLock` and every counter is atomic, so a
/// [`mube_opt::Portfolio`]'s member threads can evaluate concurrently
/// against *one* objective and share each other's memoized `Match(S)`
/// work.
///
/// # Cached-entry validity across feedback edits
///
/// Arena entries are constraint-independent by construction, in two layers:
///
/// * **Membership.** Before any arena traffic, [`MubeObjective::evaluate`]
///   checks the *current* required sources against the subset and
///   short-circuits to infeasible on a miss — the condition under which
///   `Match(S)` would refuse to run at all.
/// * **Spanning.** `Match(S)` additionally demands that the produced schema
///   *span* every constrained source (Algorithm 1, line 24) — a property of
///   the clustering result, not of the subset. Entries therefore memoize
///   the spans-deferred outcome ([`match_sources_deferring_spans`]) plus
///   the set of sources the schema covers, and every read re-applies the
///   `C ⊆ spanned` check against the current constraints.
///
/// Together these make a `FeasibilityOnly` spec edit (required source
/// added *or* dropped, new budget `m`) invalidate nothing while staying
/// bit-identical to a cold evaluation under the edited spec.
pub struct MubeObjective {
    snapshot: Arc<UniverseSnapshot>,
    bindings: Vec<(f64, QefBinding)>,
    constraints: Constraints,
    match_config: MatchConfig,
    max_sources: usize,
    pinned: Vec<usize>,
    /// Sorted indices of the explicitly constrained sources `C` — the set
    /// the mediated schema must span. A subset of [`Self::pinned`] (which
    /// also folds in GA-constraint sources).
    span_pins: Vec<u32>,
    /// Whether any binding is [`QefBinding::Matching`] — decides whether a
    /// cached entry's match part participates in combination at all.
    has_matching: bool,
    /// The memo arena: a fresh one for one-shot solves, or a session's
    /// arena that outlives the solve (and is shared by a portfolio's
    /// member solvers within it).
    arena: Arc<EvalArena>,
    caching: AtomicBool,
    /// Armed cancellation: the token plus the epoch captured when it was
    /// armed. [`SubsetProblem::cancelled`] reports whether the token fired
    /// since; `None` (or a token that never fires) leaves every evaluation
    /// and every solver trajectory bit-identical to an unarmed run.
    cancel: Option<(CancelToken, u64)>,
    /// What pointing the arena at this objective's spec did: the delta
    /// class, the entries it invalidated, and the epoch and weights
    /// version that tell survivors and recombinations apart on a read.
    prepared: Prepared,
    match_calls: AtomicU64,
    cache_hits: AtomicU64,
    reused: AtomicU64,
    recombined: AtomicU64,
    evictions: AtomicU64,
    match_stats: MatchCounters,
}

impl MubeObjective {
    pub(crate) fn new(
        snapshot: Arc<UniverseSnapshot>,
        bindings: Vec<(f64, QefBinding)>,
        constraints: Constraints,
        match_config: MatchConfig,
        max_sources: usize,
        arena: Arc<EvalArena>,
        prepared: Prepared,
    ) -> Self {
        let mut pinned: Vec<usize> = constraints
            .required_sources()
            .into_iter()
            .map(SourceId::index)
            .collect();
        pinned.sort_unstable();
        // Already sorted: `Constraints::sources` is an ordered set.
        let span_pins: Vec<u32> = constraints.sources().iter().map(|s| s.0).collect();
        let has_matching = bindings
            .iter()
            .any(|(_, b)| matches!(b, QefBinding::Matching));
        Self {
            snapshot,
            bindings,
            constraints,
            match_config,
            max_sources,
            pinned,
            span_pins,
            has_matching,
            arena,
            caching: AtomicBool::new(true),
            cancel: None,
            prepared,
            match_calls: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            recombined: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            match_stats: MatchCounters::default(),
        }
    }

    /// Enables or disables evaluation memoization. On by default; the
    /// `ablation_cache` experiment turns it off to measure how much work
    /// the memo arena saves the revisit-heavy tabu search. Disabling drops
    /// every entry in the backing arena.
    pub fn set_cache_enabled(&self, enabled: bool) {
        self.caching.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.arena.clear();
        }
    }

    /// Runs `Match(S)` for a set of source ids (uncached; used by the
    /// engine to reconstruct the winning schema).
    pub fn match_schema(&self, ids: &[SourceId]) -> Option<MatchOutcome> {
        match_sources(
            self.snapshot.universe(),
            ids,
            &self.constraints,
            &self.match_config,
            self.snapshot.similarity(),
        )
    }

    /// Arms cooperative cancellation: captures the token's current epoch so
    /// only a [`CancelToken::cancel`] issued *after* arming fires for this
    /// objective. Armed once by the engine before the solve starts.
    pub(crate) fn arm_cancel(&mut self, token: &CancelToken) {
        let epoch = token.epoch();
        self.cancel = Some((token.clone(), epoch));
    }

    /// Number of `Match(S)` invocations so far (cache misses).
    pub fn match_calls(&self) -> u64 {
        self.match_calls.load(Ordering::Relaxed)
    }

    /// Number of memoized evaluations served whole from the arena.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Evaluations served by entries that survived from an *earlier*
    /// iteration of a session (component reuse across user feedback).
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// The subset of [`MubeObjective::reused`] that was recombined under
    /// weights different from the ones the entry was computed with — the
    /// weights-only fast path.
    pub fn recombined(&self) -> u64 {
        self.recombined.load(Ordering::Relaxed)
    }

    /// Arena entries invalidated by the spec edit that led to this solve.
    pub fn invalidated(&self) -> u64 {
        self.prepared.invalidated
    }

    /// How the spec that built this objective differs from the previous
    /// spec evaluated on the same arena (`None` on a fresh arena).
    pub fn spec_delta(&self) -> Option<SpecDelta> {
        self.prepared.delta
    }

    /// Number of memoized entries dropped by capacity eviction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Aggregated `Match(S)` work counters over every (uncached) objective
    /// evaluation so far.
    pub fn match_stats(&self) -> MatchStats {
        self.match_stats.load()
    }

    /// Evaluates every component QEF for a selection, returning
    /// `(name, weight, value)` triples — used to report per-QEF values on
    /// the final solution.
    pub fn component_values(&self, ids: &[SourceId]) -> Vec<(String, f64, f64)> {
        let quality = if self.has_matching {
            self.match_schema(ids).map_or(0.0, |o| o.quality)
        } else {
            0.0
        };
        self.component_values_given(ids, quality)
    }

    /// [`Self::component_values`] with the matching quality `F1` already
    /// known, so a caller holding the selection's `Match` outcome does not
    /// run `Match(S)` again.
    pub(crate) fn component_values_given(
        &self,
        ids: &[SourceId],
        match_quality: f64,
    ) -> Vec<(String, f64, f64)> {
        let selection =
            SourceSelection::from_ids(self.snapshot.universe().len(), ids.iter().copied());
        self.bindings
            .iter()
            .map(|(w, binding)| match binding {
                QefBinding::Matching => ("matching".to_owned(), *w, match_quality),
                QefBinding::Registered(idx) => {
                    let qef = self.snapshot.qef(*idx);
                    (
                        qef.name().to_owned(),
                        *w,
                        qef.evaluate(&selection, self.snapshot.context()),
                    )
                }
                QefBinding::Characteristic(qef) => (
                    qef.name().to_owned(),
                    *w,
                    qef.evaluate(&selection, self.snapshot.context()),
                ),
            })
            .collect()
    }

    /// Whether every currently required source is in the subset. When this
    /// fails with a matching QEF bound, `Match(S)` would return the null
    /// schema — so the evaluation can short-circuit to infeasible without
    /// running (or caching) anything.
    fn pins_satisfied(&self, subset: &Subset) -> bool {
        self.pinned.iter().all(|&i| subset.contains(i))
    }

    /// Whether a schema spanning exactly the sources in `spanned` (sorted
    /// indices) satisfies the *current* source constraints — the read-time
    /// half of `Match(S)`'s line-24 validity check.
    fn spans_satisfied(&self, spanned: &[u32]) -> bool {
        self.span_pins
            .iter()
            .all(|p| spanned.binary_search(p).is_ok())
    }

    /// [`Self::match_schema`] with the spans-validity check deferred — the
    /// memoizing paths use this so the cached outcome stays valid across
    /// `FeasibilityOnly` constraint edits, re-applying
    /// [`Self::spans_satisfied`] at read time.
    fn match_schema_deferred(&self, ids: &[SourceId]) -> Option<MatchOutcome> {
        match_sources_deferring_spans(
            self.snapshot.universe(),
            ids,
            &self.constraints,
            &self.match_config,
            self.snapshot.similarity(),
        )
    }

    /// Combines a cached component vector (plus the matching quality, if a
    /// matching QEF is bound) under the current weights.
    ///
    /// Iterates the bindings in the same order as [`Self::compute_eval`]
    /// and accumulates `q += w * value` identically, so a recombined value
    /// is bit-for-bit the value a cold computation would produce.
    fn combine(&self, match_quality: f64, components: &[f64]) -> f64 {
        let mut q = 0.0;
        for (i, (w, binding)) in self.bindings.iter().enumerate() {
            let value = match binding {
                QefBinding::Matching => match_quality,
                _ => components.get(i).copied().unwrap_or(0.0),
            };
            q += w * value;
        }
        q
    }

    /// Runs `Match(S)` spans-deferred and counts it: the memoizable match
    /// part, or `None` when a required source is missing from `S` itself.
    fn run_match(&self, subset: &Subset) -> Option<MatchPart> {
        let ids: Vec<SourceId> = subset.iter().map(|i| SourceId(i as u32)).collect();
        self.match_calls.fetch_add(1, Ordering::Relaxed);
        let outcome = self.match_schema_deferred(&ids)?;
        self.match_stats.absorb(&outcome.stats);
        Some(MatchPart {
            quality: outcome.quality,
            spanned: spanned_of(&outcome.schema),
        })
    }

    /// `Q(S)` from a match part and the non-matching components: `-∞` when
    /// the schema does not span a currently constrained source — the
    /// verdict a cold `Match(S)` would reach under this spec.
    fn value_with(&self, part: &MatchPart, components: &[f64]) -> f64 {
        if self.spans_satisfied(&part.spanned) {
            self.combine(part.quality, components)
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Full evaluation: computes every component in binding order, returning
    /// the combined `Q(S)` plus the memoizable component vector.
    ///
    /// The scalar accumulation is the reference order that [`Self::combine`]
    /// replicates. The matching step runs spans-deferred: a schema that
    /// fails to span a constrained source makes the *evaluation* infeasible
    /// (`-∞`, exactly as the checked `Match(S)` would), but the outcome —
    /// quality and spanned set — and the remaining components are
    /// still computed and cached, because none of them depend on which
    /// sources are constrained. `None` only when a required source is
    /// missing from `S` itself, which the memoizing path rules out before
    /// it gets here.
    fn compute_eval(&self, subset: &Subset) -> Option<(f64, ComponentEval)> {
        // Subset and SourceSelection share the packed-word layout over the
        // same universe: convert by word copy, not by re-inserting members.
        let selection = SourceSelection::from_words(self.snapshot.universe().len(), subset.words());
        let mut components = vec![0.0f64; self.bindings.len()];
        let mut match_part = None;
        let mut q = 0.0;
        for (i, (w, binding)) in self.bindings.iter().enumerate() {
            let value = match self.qef_value(binding, &selection) {
                Some(value) => {
                    components[i] = value;
                    value
                }
                // The matching binding: run `Match(S)`.
                None => match_part.insert(self.run_match(subset)?).quality,
            };
            debug_assert!(
                (0.0..=1.0 + 1e-9).contains(&value),
                "QEF out of range: {value}"
            );
            q += w * value;
        }
        let spans_ok = match_part
            .as_ref()
            .is_none_or(|part| self.spans_satisfied(&part.spanned));
        let v = if spans_ok { q } else { f64::NEG_INFINITY };
        Some((
            v,
            ComponentEval {
                match_part,
                components: components.into(),
            },
        ))
    }

    /// The value of a non-matching binding on a selection; `None` for the
    /// matching binding, whose value needs `Match(S)`.
    fn qef_value(&self, binding: &QefBinding, selection: &SourceSelection) -> Option<f64> {
        match binding {
            QefBinding::Matching => None,
            QefBinding::Registered(idx) => Some(
                self.snapshot
                    .qef(*idx)
                    .evaluate(selection, self.snapshot.context()),
            ),
            QefBinding::Characteristic(qef) => {
                Some(qef.evaluate(selection, self.snapshot.context()))
            }
        }
    }

    /// Computes admissible per-binding caps for the completions of a
    /// partial assignment, or `None` when no feasible completion exists
    /// (a required source is decided out under a matching binding, or the
    /// decided-in set already exceeds the cardinality budget).
    ///
    /// Sources of tightness, per binding:
    ///
    /// * **Matching** — capped at the trivial `1.0`: `Match(S)` quality is
    ///   not monotone in `S`, so no relaxation applies.
    /// * **Leaf** — when the assignment is fully decided (the possible set
    ///   *is* the decided-in set `S`), `S` is the only completion, so every
    ///   non-matching cap is that binding's exact value on `S`. The bound
    ///   then exceeds `Q(S)` by exactly `w_matching · (1 − F1(S))` plus
    ///   [`BOUND_SLACK`] — what lets greedy and tabu skip a candidate's
    ///   `Match(S)` (see DESIGN.md §9, best-first selection).
    /// * **Registered QEFs** — a [`Qef::monotone`] function evaluated on
    ///   the *possible* set (decided-in plus free) dominates every
    ///   completion; a [`Qef::modular`] decomposition additionally packs
    ///   the top-`budget` positive free gains on top of the decided-in
    ///   gains, which respects `|S| ≤ m` where the monotone cap cannot.
    ///   The cap is the min of whichever apply (trivial `1.0` otherwise).
    /// * **Characteristics** — [`CharacteristicQef::upper_bound`], the max
    ///   normalized value over the possible set, dominates all four
    ///   aggregations.
    ///
    /// The monotone (and leaf) evaluations run against the [`EvalArena`]:
    /// if the possible set already has a memoized component vector (common
    /// near the root, where the possible set is the full universe — an
    /// early full-universe evaluation seeds it — and at any leaf already
    /// evaluated), its components are reused and the bound costs no QEF
    /// work. Bound probes never *insert* into the arena: entries must be
    /// complete, bit-identical full evaluations, and a bound path computes
    /// neither `Match(S)` nor non-monotone components.
    fn binding_caps(&self, decided_in: &Subset, decided_out: &Subset) -> Option<Vec<f64>> {
        if self.has_matching && self.pinned.iter().any(|&i| decided_out.contains(i)) {
            return None;
        }
        if decided_in.len() > self.max_sources {
            return None;
        }
        let budget = self.max_sources - decided_in.len();
        let possible = decided_out.complement();
        let possible_sel =
            SourceSelection::from_words(self.snapshot.universe().len(), possible.words());
        let cached = self.arena.probe(possible.fingerprint(), &possible, |e| {
            e.eval.components.clone()
        });
        let leaf = possible == *decided_in;
        let mut caps = vec![0.0; self.bindings.len()];
        for (k, (_, binding)) in self.bindings.iter().enumerate() {
            caps[k] = match binding {
                QefBinding::Matching => 1.0,
                _ if leaf => match &cached {
                    Some(components) => components[k],
                    None => self.qef_value(binding, &possible_sel).unwrap_or(1.0),
                },
                QefBinding::Registered(idx) => {
                    let qef = self.snapshot.qef(*idx);
                    let mut cap = if qef.monotone() {
                        match &cached {
                            Some(components) => components[k],
                            None => qef.evaluate(&possible_sel, self.snapshot.context()),
                        }
                    } else {
                        1.0
                    };
                    if let Some(gains) = qef.modular(self.snapshot.context()) {
                        let in_sum: f64 = decided_in.iter().map(|i| gains[i]).sum();
                        let mut free_gains: Vec<f64> = possible
                            .iter()
                            .filter(|&i| !decided_in.contains(i))
                            .map(|i| gains[i])
                            .filter(|g| *g > 0.0)
                            .collect();
                        free_gains.sort_unstable_by(|a, b| b.total_cmp(a));
                        let top: f64 = free_gains.iter().take(budget).sum();
                        cap = cap.min(in_sum + top);
                    }
                    cap
                }
                QefBinding::Characteristic(qef) => {
                    qef.upper_bound(&possible_sel, self.snapshot.context())
                }
            };
        }
        Some(caps)
    }
}

impl SubsetProblem for MubeObjective {
    fn universe_size(&self) -> usize {
        self.snapshot.universe().len()
    }

    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|(token, epoch)| token.fired_since(*epoch))
    }

    fn max_selected(&self) -> usize {
        self.max_sources
    }

    fn pinned(&self) -> &[usize] {
        &self.pinned
    }

    /// Admissible upper bound on `Q(T)` over every feasible completion
    /// `T ⊇ decided_in` disjoint from `decided_out` with `|T| ≤ m`: the
    /// weight-combined per-binding caps of [`Self::binding_caps`], plus
    /// [`BOUND_SLACK`] so float summation order can never let the bound
    /// dip below the true completion optimum.
    fn component_bound(&self, decided_in: &Subset, decided_out: &Subset) -> Option<f64> {
        let Some(caps) = self.binding_caps(decided_in, decided_out) else {
            // No feasible completion: a required source is decided out, or
            // the decided-in set already violates the cardinality budget.
            return Some(f64::NEG_INFINITY);
        };
        let mut q = 0.0;
        for ((w, _), cap) in self.bindings.iter().zip(&caps) {
            q += w * cap;
        }
        Some(q + BOUND_SLACK)
    }

    fn evaluate(&self, subset: &Subset) -> f64 {
        if !self.caching.load(Ordering::Relaxed) {
            return self
                .compute_eval(subset)
                .map_or(f64::NEG_INFINITY, |(v, _)| v);
        }
        // Required-source pre-check *before* any arena traffic: a subset
        // missing a currently pinned source is infeasible under the current
        // spec, but that is a property of the spec, not of the subset — it
        // must neither consult nor pollute the (constraint-independent)
        // arena. This is what keeps cached entries valid across
        // `FeasibilityOnly` edits, and why `Match(S)` below always finds
        // every required source in `S`. The solvers structurally pin
        // required sources, so this path fires only on warm-start repairs
        // and hand-fed subsets.
        if self.has_matching && !self.pins_satisfied(subset) {
            return f64::NEG_INFINITY;
        }
        // One hash of the subset per evaluation; both probes reuse the
        // already-computed u64 key, and the subset's members are copied
        // only when actually inserted.
        let key = subset.fingerprint();
        let probed = self.arena.probe(key, subset, |entry| {
            let survivor = entry.epoch < self.prepared.epoch;
            let reweighted = entry.weights_version < self.prepared.weights_version;
            let probe = match &entry.eval.match_part {
                Some(part) if self.has_matching => {
                    Probe::Full(self.value_with(part, &entry.eval.components))
                }
                // Stripped by a MatchInvalidating edit: clone the
                // components out so Match(S) can rerun outside the lock.
                None if self.has_matching => Probe::Stale(entry.eval.components.clone()),
                _ => Probe::Full(self.combine(0.0, &entry.eval.components)),
            };
            (probe, survivor, reweighted)
        });
        let Some((probe, survivor, reweighted)) = probed else {
            // Compute outside the lock: `Match(S)` is the expensive part
            // and other threads must keep hitting the arena meanwhile.
            // Concurrent first evaluations of the *same* subset may each
            // compute it (both get the same vector — evaluation is pure);
            // the arena's insert re-probes so it still stores it once.
            let Some((v, eval)) = self.compute_eval(subset) else {
                return f64::NEG_INFINITY;
            };
            let dropped = self.arena.insert(key, subset, eval);
            if dropped > 0 {
                self.evictions.fetch_add(dropped, Ordering::Relaxed);
            }
            return v;
        };
        let v = match probe {
            Probe::Full(v) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            // Partial reuse: every non-matching component survives the
            // match-invalidating edit; only Match(S) reruns.
            Probe::Stale(components) => match self.run_match(subset) {
                Some(part) => {
                    let v = self.value_with(&part, &components);
                    self.arena.restore_match_part(key, subset, part);
                    v
                }
                None => f64::NEG_INFINITY,
            },
        };
        if survivor {
            self.reused.fetch_add(1, Ordering::Relaxed);
            if reweighted {
                self.recombined.fetch_add(1, Ordering::Relaxed);
            }
        }
        v
    }
}
