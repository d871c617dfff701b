//! The persistent, delta-aware evaluation arena behind iterative sessions.
//!
//! The paper's whole point (Section 6, Figure 4) is the
//! *iterate–inspect–refine* loop: the user re-weights QEFs, adopts GAs, or
//! tightens θ, and µBE re-solves. Section 2 makes the invalidation
//! structure of those edits explicit: `Q(S) = Σ_k w_k F_k(S)` — the weights
//! `W` scale the component functions but never change them, the constraints
//! `C` and budget `m` change which subsets are *admissible* but not any
//! subset's component values, and only the matching side (θ, β, the GA
//! constraints `G`, the `Match` configuration) changes what `Match(S)`
//! returns for a subset that is evaluated under both specs.
//!
//! [`EvalArena`] turns that observation into a cache that *outlives one
//! solve*: it memoizes, per subset, the full component vector
//! `[F_1(S) .. F_K(S)]` (a [`ComponentEval`]) instead of the scalar
//! `Q(S)`, and applies the weight combination at read time. Between
//! iterations the arena diffs the consecutive [`ProblemSpec`]s into a
//! [`SpecDelta`] class and invalidates exactly what the class demands:
//!
//! * [`SpecDelta::WeightsOnly`] — nothing is invalidated; every cached
//!   vector recombines under the new weights with **zero** `Match(S)`
//!   calls.
//! * [`SpecDelta::FeasibilityOnly`] — nothing is invalidated; the
//!   structural admissibility of a subset is re-derived on every read (the
//!   objective pre-checks the *current* required sources before trusting
//!   any cached entry), so entries stay valid even though the admissible
//!   region moved.
//! * [`SpecDelta::MatchInvalidating`] — only the match-dependent half of
//!   each entry is dropped: feasible entries keep their non-matching
//!   component values and recompute `Match(S)` alone on the next touch;
//!   null-schema entries are removed outright (they carry no reusable
//!   components).
//!
//! Entries are epoch-stamped (the epoch advances once per
//! [`EvalArena::prepare`]) so the engine can report how much of an
//! iteration's work was [`reused`](crate::SolveStats::reused) from earlier
//! iterations versus [`recombined`](crate::SolveStats::recombined) under
//! fresh weights versus [`invalidated`](crate::SolveStats::invalidated) by
//! the latest feedback.
//!
//! An arena is bound to one engine: reusing it across different
//! [`Mube`](crate::Mube) instances (different universes, similarity
//! measures, or sketch sets) aliases unrelated evaluations. [`Session`]
//! owns its arena and guarantees this; `Mube::objective_in` callers must
//! uphold it themselves (a universe-size change is detected and clears the
//! arena, but equal-sized distinct universes are not).
//!
//! [`Session`]: crate::Session

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

use mube_opt::Subset;

use crate::problem::ProblemSpec;

/// Memo shards. Sixteen is plenty: a portfolio runs one thread per member,
/// a session host one per session, and the shard index comes from high
/// fingerprint bits, so concurrent evaluations spread across shards almost
/// uniformly.
pub(crate) const SHARDS: usize = 16;

/// Default total entry budget. An entry is one subset plus a K-element
/// component vector — on the order of a hundred bytes at µBE's universe
/// sizes — so the default bounds the arena at roughly a hundred megabytes
/// while being effectively unbounded for whole sessions (which evaluate
/// tens of thousands of subsets per iteration, not a million).
const DEFAULT_CAPACITY: usize = 1 << 20;

/// Recovers a lock guard from a poisoned lock: arena state is always
/// internally consistent (every update completes under one guard), so a
/// panicking sibling thread must not wedge the evaluation.
fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Which shard a fingerprint lives in. High bits, so the shard choice is
/// independent of (and uncorrelated with) the ordered low-bit structure of
/// the keys within a shard's map.
fn shard_index(key: u64) -> usize {
    (key >> 60) as usize & (SHARDS - 1)
}

/// How a feedback edit between two consecutive [`ProblemSpec`]s relates to
/// the cached evaluation state — the paper-§2 invalidation boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecDelta {
    /// Byte-for-byte identical problem: everything cached stays valid.
    Unchanged,
    /// Only the QEF weights `W` changed (same QEF names, new values).
    /// Component vectors recombine at read time; no `Match(S)` reruns.
    WeightsOnly,
    /// Only the admissible region changed (`C`, the required sources, or
    /// the budget `m`). Per-subset component values are untouched; the
    /// objective re-derives admissibility against the *current* spec on
    /// every read.
    FeasibilityOnly,
    /// The matching side changed (θ, β, linkage, kernel, pruning, or the
    /// GA constraints `G`) — or the weighted QEF *set* changed, which
    /// relays the cached vectors. Match-dependent state is flushed.
    MatchInvalidating,
}

impl SpecDelta {
    /// Classifies the edit from `prev` to `next`.
    ///
    /// Precedence runs strongest-first: a single feedback round that both
    /// reweights and tightens θ is `MatchInvalidating` (the weight change
    /// costs nothing extra — recombination happens on every read anyway).
    /// A change to the weighted QEF *names* is also `MatchInvalidating`:
    /// the cached component vectors are laid out in weight-name order, so
    /// a different QEF set means a different vector layout.
    pub fn classify(prev: &ProblemSpec, next: &ProblemSpec) -> SpecDelta {
        if layout_changed(prev, next)
            || prev.match_config != next.match_config
            || prev.constraints.gas() != next.constraints.gas()
        {
            return SpecDelta::MatchInvalidating;
        }
        if prev.constraints.sources() != next.constraints.sources()
            || prev.max_sources != next.max_sources
        {
            return SpecDelta::FeasibilityOnly;
        }
        if prev.weights != next.weights {
            return SpecDelta::WeightsOnly;
        }
        SpecDelta::Unchanged
    }
}

/// Whether the weighted QEF name set (and therefore the component-vector
/// layout) differs between two specs.
fn layout_changed(prev: &ProblemSpec, next: &ProblemSpec) -> bool {
    prev.weights.len() != next.weights.len()
        || prev
            .weights
            .iter()
            .zip(next.weights.iter())
            .any(|((a, _), (b, _))| a != b)
}

/// The match-dependent half of a cached evaluation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MatchPart {
    /// Clustering produced a schema: its `F1` quality plus the sources it
    /// spans.
    ///
    /// Whether the schema satisfies the *current* source constraints is
    /// deliberately not recorded: the spans check is re-applied at read
    /// time against [`spanned`](MatchPart::Feasible::spanned), which is
    /// what keeps these entries valid across `FeasibilityOnly` edits in
    /// both directions (constraint added *and* constraint dropped).
    Feasible {
        /// The matching-quality QEF value `F1(S)`.
        quality: f64,
        /// Sorted indices of the sources the schema spans (contributes at
        /// least one attribute to a GA). The read-time feasibility check is
        /// `required ⊆ spanned`.
        spanned: Vec<u32>,
    },
    /// Clustering could not produce any schema on this subset: a required
    /// source (or GA-constraint source) is missing from the subset itself.
    /// The objective pre-checks membership before touching the arena, so
    /// entries like this only arise with memoization disabled — they are
    /// never actually cached.
    Infeasible,
}

/// A memoized per-subset evaluation: the component vector
/// `[F_1(S) .. F_K(S)]` in weight-name (binding) order, with the
/// match-dependent part split out so it can be invalidated independently.
#[derive(Debug, Clone)]
pub(crate) struct ComponentEval {
    /// Match-dependent part. `None` when the spec weights no `"matching"`
    /// QEF — or when a [`SpecDelta::MatchInvalidating`] edit stripped it,
    /// in which case the next read recomputes `Match(S)` alone and reuses
    /// `components`.
    pub(crate) match_part: Option<MatchPart>,
    /// Non-matching component values, indexed by binding position (the
    /// matching slot, if any, holds an unused placeholder). Empty for
    /// null-schema evaluations, whose computation stopped at `Match`.
    pub(crate) components: Vec<f64>,
}

impl ComponentEval {
    /// The null-schema evaluation: no reusable components.
    pub(crate) fn infeasible() -> Self {
        Self {
            match_part: Some(MatchPart::Infeasible),
            components: Vec::new(),
        }
    }
}

/// One arena entry: the subset itself (buckets compare exact subsets — a
/// fingerprint collision lands in the same bucket but can never alias) plus
/// its evaluation and the bookkeeping stamps.
#[derive(Debug, Clone)]
pub(crate) struct ArenaEntry {
    pub(crate) subset: Subset,
    pub(crate) eval: ComponentEval,
    /// Arena epoch at insertion — entries from earlier epochs are
    /// cross-iteration survivors and count as reuse when read.
    pub(crate) epoch: u64,
    /// Weights version at insertion — a read under a newer version is a
    /// recombination (same components, different weight combination).
    pub(crate) weights_version: u64,
}

/// One shard: fingerprint-keyed buckets plus the entry count (buckets may
/// hold several exact subsets on fingerprint collision, so the map's `len`
/// undercounts). The buckets are a `BTreeMap` so every whole-shard walk
/// (`strip_match_parts`) visits entries in fingerprint order — hash-map
/// iteration order would vary per process and break the bit-identity
/// guarantee the moment a walk's side effects become order-sensitive.
#[derive(Default)]
struct ArenaShard {
    buckets: BTreeMap<u64, Vec<ArenaEntry>>,
    entries: usize,
}

/// A persistent, thread-safe store of [`ComponentEval`]s that spans µBE
/// iterations. See the module docs for the invalidation model.
///
/// All interior state is `Sync`: shards sit behind [`RwLock`]s, stamps and
/// counters are atomic, so a [`mube_opt::Portfolio`]'s member threads can
/// evaluate concurrently against one arena and share each other's memoized
/// `Match(S)` work — within a solve *and* across a session's iterations.
pub struct EvalArena {
    shards: [RwLock<ArenaShard>; SHARDS],
    /// Advances once per [`EvalArena::prepare`]; entries are stamped with
    /// the epoch they were inserted in.
    epoch: AtomicU64,
    /// Advances whenever `prepare` sees a different weight vector; lets
    /// reads distinguish plain reuse from reweighted recombination.
    weights_version: AtomicU64,
    /// Total entry budget across all shards; a shard that fills its slice
    /// of the budget is cleared wholesale (coarse, but eviction is a
    /// safety valve here, not a working-set policy).
    capacity: usize,
    /// Entries invalidated (stripped or removed) by the most recent
    /// `prepare`, for [`SolveStats::invalidated`](crate::SolveStats).
    last_invalidated: AtomicU64,
    /// The delta class the most recent `prepare` computed (`None` before
    /// any spec was seen, or right after a universe change reset).
    last_delta: Mutex<Option<SpecDelta>>,
    /// The spec (plus universe size) the arena was last prepared for.
    snapshot: Mutex<Option<(ProblemSpec, usize)>>,
}

impl Default for EvalArena {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalArena {
    /// An empty arena, bounded at roughly a million entries.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(ArenaShard::default())),
            epoch: AtomicU64::new(0),
            weights_version: AtomicU64::new(0),
            capacity: DEFAULT_CAPACITY,
            last_invalidated: AtomicU64::new(0),
            last_delta: Mutex::new(None),
            snapshot: Mutex::new(None),
        }
    }

    /// Number of memoized evaluations currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| unpoison(s.read()).entries).sum()
    }

    /// Whether the arena holds no evaluations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The delta class computed by the most recent [`EvalArena::prepare`].
    pub fn last_delta(&self) -> Option<SpecDelta> {
        *unpoison(self.last_delta.lock())
    }

    /// Entries invalidated by the most recent [`EvalArena::prepare`].
    pub fn last_invalidated(&self) -> u64 {
        self.last_invalidated.load(Ordering::Relaxed)
    }

    /// An empty arena bounded to roughly `capacity` entries across all
    /// shards (minimum one entry per shard), so tests can exercise
    /// eviction at small sizes.
    #[cfg(test)]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::new()
        }
    }

    /// Drops every memoized evaluation (stamps and the spec snapshot are
    /// kept). Returns the number of entries dropped.
    pub fn clear(&self) -> u64 {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut guard = unpoison(shard.write());
            dropped += guard.entries as u64;
            guard.buckets.clear();
            guard.entries = 0;
        }
        dropped
    }

    /// Points the arena at the next iteration's spec: classifies the edit
    /// against the previously prepared spec, applies the invalidation the
    /// class demands, advances the epoch (and the weights version when the
    /// weights moved), and records the spec for the next diff.
    ///
    /// Returns `None` on first use or after a universe-size change (which
    /// clears the arena — there is no meaningful delta to report), the
    /// [`SpecDelta`] otherwise.
    pub fn prepare(&self, spec: &ProblemSpec, universe_len: usize) -> Option<SpecDelta> {
        enum Invalidate {
            Nothing,
            Clear,
            StripMatchParts,
        }
        // Classify against the previous spec and swap the snapshot inside
        // its own lock scope: `clear`/`strip_match_parts` take shard write
        // locks, and the arena never holds two of its locks at once (the
        // `lock-discipline` lint enforces this shape statically).
        let (delta, action, weights_moved) = {
            let mut snap = unpoison(self.snapshot.lock());
            let out = match snap.as_ref() {
                Some((prev, len)) if *len == universe_len => {
                    let delta = SpecDelta::classify(prev, spec);
                    let action = match delta {
                        SpecDelta::MatchInvalidating if layout_changed(prev, spec) => {
                            Invalidate::Clear
                        }
                        SpecDelta::MatchInvalidating => Invalidate::StripMatchParts,
                        _ => Invalidate::Nothing,
                    };
                    (Some(delta), action, prev.weights != spec.weights)
                }
                // Different universe: nothing cached can be trusted.
                Some(_) => (None, Invalidate::Clear, false),
                None => (None, Invalidate::Nothing, false),
            };
            *snap = Some((spec.clone(), universe_len));
            out
        };
        let invalidated = match action {
            Invalidate::Clear => self.clear(),
            Invalidate::StripMatchParts => self.strip_match_parts(),
            Invalidate::Nothing => 0,
        };
        self.last_invalidated.store(invalidated, Ordering::Relaxed);
        if weights_moved {
            self.weights_version.fetch_add(1, Ordering::Relaxed);
        }
        self.epoch.fetch_add(1, Ordering::Relaxed);
        *unpoison(self.last_delta.lock()) = delta;
        delta
    }

    /// Strips the match-dependent part from every entry: feasible entries
    /// keep their non-matching components (the next read recomputes
    /// `Match(S)` alone), null-schema entries are removed outright.
    /// Returns how many entries were touched.
    fn strip_match_parts(&self) -> u64 {
        let mut invalidated = 0u64;
        for shard in &self.shards {
            let mut guard = unpoison(shard.write());
            let mut removed = 0usize;
            for bucket in guard.buckets.values_mut() {
                bucket.retain_mut(|entry| match entry.eval.match_part {
                    Some(MatchPart::Feasible { .. }) => {
                        entry.eval.match_part = None;
                        invalidated += 1;
                        true
                    }
                    Some(MatchPart::Infeasible) => {
                        invalidated += 1;
                        removed += 1;
                        false
                    }
                    None => true,
                });
            }
            guard.buckets.retain(|_, bucket| !bucket.is_empty());
            guard.entries -= removed;
        }
        invalidated
    }

    /// Current epoch stamp.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Current weights-version stamp.
    pub(crate) fn weights_version(&self) -> u64 {
        self.weights_version.load(Ordering::Relaxed)
    }

    /// Reads the entry for `subset` under the shard's read lock, applying
    /// `read` to it while the lock is held (so combination needs no clone).
    pub(crate) fn probe<R>(
        &self,
        key: u64,
        subset: &Subset,
        read: impl FnOnce(&ArenaEntry) -> R,
    ) -> Option<R> {
        let guard = unpoison(self.shards[shard_index(key)].read());
        guard
            .buckets
            .get(&key)?
            .iter()
            .find(|e| e.subset == *subset)
            .map(read)
    }

    /// Inserts an evaluation stamped with the current epoch and weights
    /// version. A concurrent duplicate insert is a no-op (evaluation is
    /// pure — both threads computed the same vector). Returns the number
    /// of entries dropped by capacity eviction, for the caller's
    /// `evictions` accounting.
    pub(crate) fn insert(&self, key: u64, subset: &Subset, eval: ComponentEval) -> u64 {
        let mut guard = unpoison(self.shards[shard_index(key)].write());
        if let Some(bucket) = guard.buckets.get(&key) {
            if bucket.iter().any(|e| e.subset == *subset) {
                return 0;
            }
        }
        let per_shard = self.capacity.div_ceil(SHARDS).max(1);
        let mut dropped = 0u64;
        if guard.entries >= per_shard {
            dropped = guard.entries as u64;
            guard.buckets.clear();
            guard.entries = 0;
        }
        let entry = ArenaEntry {
            subset: subset.clone(),
            eval,
            epoch: self.epoch(),
            weights_version: self.weights_version(),
        };
        guard.buckets.entry(key).or_default().push(entry);
        guard.entries += 1;
        dropped
    }

    /// Fills in a recomputed match part on a previously stripped entry.
    /// Keeps the entry's original epoch stamp (it is still a
    /// cross-iteration survivor) and only writes if the slot is still
    /// empty — a racing duplicate recompute produced the same value.
    pub(crate) fn restore_match_part(&self, key: u64, subset: &Subset, part: MatchPart) {
        let mut guard = unpoison(self.shards[shard_index(key)].write());
        if let Some(bucket) = guard.buckets.get_mut(&key) {
            if let Some(entry) = bucket.iter_mut().find(|e| e.subset == *subset) {
                if entry.eval.match_part.is_none() {
                    entry.eval.match_part = Some(part);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mube_qef::Weights;
    use mube_schema::{AttrId, GlobalAttribute, SourceId};

    fn spec() -> ProblemSpec {
        ProblemSpec::new(5)
    }

    fn entry_eval(q: f64) -> ComponentEval {
        ComponentEval {
            match_part: Some(MatchPart::Feasible {
                quality: q,
                spanned: vec![1, 4],
            }),
            components: vec![0.0, 0.5],
        }
    }

    #[test]
    fn classify_weights_only() {
        let a = spec();
        let b = spec().with_weights(
            Weights::new([
                ("matching", 0.5),
                ("cardinality", 0.2),
                ("coverage", 0.1),
                ("redundancy", 0.1),
                ("mttf", 0.1),
            ])
            .unwrap(),
        );
        assert_eq!(SpecDelta::classify(&a, &b), SpecDelta::WeightsOnly);
        assert_eq!(SpecDelta::classify(&a, &a.clone()), SpecDelta::Unchanged);
    }

    #[test]
    fn classify_feasibility_only() {
        let a = spec();
        let b = spec().with_source_constraint(SourceId(2));
        assert_eq!(SpecDelta::classify(&a, &b), SpecDelta::FeasibilityOnly);
        let c = ProblemSpec::new(7);
        assert_eq!(SpecDelta::classify(&a, &c), SpecDelta::FeasibilityOnly);
    }

    #[test]
    fn classify_match_invalidating() {
        let a = spec();
        let theta = spec().with_theta(0.5);
        assert_eq!(
            SpecDelta::classify(&a, &theta),
            SpecDelta::MatchInvalidating
        );
        let beta = spec().with_beta(3);
        assert_eq!(SpecDelta::classify(&a, &beta), SpecDelta::MatchInvalidating);
        let ga = spec().with_ga_constraint(
            GlobalAttribute::new([AttrId::new(SourceId(0), 0), AttrId::new(SourceId(1), 0)])
                .unwrap(),
        );
        assert_eq!(SpecDelta::classify(&a, &ga), SpecDelta::MatchInvalidating);
        // Changing the weighted QEF *set* relays the vectors: strongest class.
        let names = spec().with_weights(Weights::new([("matching", 1.0)]).unwrap());
        assert_eq!(
            SpecDelta::classify(&a, &names),
            SpecDelta::MatchInvalidating
        );
    }

    #[test]
    fn classify_precedence_strongest_wins() {
        let a = spec();
        let b = spec()
            .with_theta(0.6)
            .with_source_constraint(SourceId(1))
            .with_weights(
                Weights::new([
                    ("matching", 0.5),
                    ("cardinality", 0.2),
                    ("coverage", 0.1),
                    ("redundancy", 0.1),
                    ("mttf", 0.1),
                ])
                .unwrap(),
            );
        assert_eq!(SpecDelta::classify(&a, &b), SpecDelta::MatchInvalidating);
        let c = spec().with_source_constraint(SourceId(1)).with_weights(
            Weights::new([
                ("matching", 0.5),
                ("cardinality", 0.2),
                ("coverage", 0.1),
                ("redundancy", 0.1),
                ("mttf", 0.1),
            ])
            .unwrap(),
        );
        assert_eq!(SpecDelta::classify(&a, &c), SpecDelta::FeasibilityOnly);
    }

    #[test]
    fn prepare_first_use_reports_no_delta() {
        let arena = EvalArena::new();
        assert_eq!(arena.prepare(&spec(), 10), None);
        assert_eq!(arena.last_delta(), None);
        assert_eq!(arena.last_invalidated(), 0);
        assert_eq!(arena.epoch(), 1);
    }

    #[test]
    fn prepare_weights_only_keeps_entries_and_bumps_version() {
        let arena = EvalArena::new();
        arena.prepare(&spec(), 10);
        let s = Subset::from_indices(10, [1, 2]);
        arena.insert(s.fingerprint(), &s, entry_eval(0.9));
        let v0 = arena.weights_version();
        let reweighted = spec().with_weights(
            Weights::new([
                ("matching", 0.5),
                ("cardinality", 0.2),
                ("coverage", 0.1),
                ("redundancy", 0.1),
                ("mttf", 0.1),
            ])
            .unwrap(),
        );
        assert_eq!(arena.prepare(&reweighted, 10), Some(SpecDelta::WeightsOnly));
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.last_invalidated(), 0);
        assert_eq!(arena.weights_version(), v0 + 1);
    }

    #[test]
    fn prepare_match_invalidating_strips_feasible_and_drops_infeasible() {
        let arena = EvalArena::new();
        arena.prepare(&spec(), 10);
        let a = Subset::from_indices(10, [1]);
        let b = Subset::from_indices(10, [2]);
        arena.insert(a.fingerprint(), &a, entry_eval(0.8));
        arena.insert(b.fingerprint(), &b, ComponentEval::infeasible());
        assert_eq!(arena.len(), 2);
        assert_eq!(
            arena.prepare(&spec().with_theta(0.5), 10),
            Some(SpecDelta::MatchInvalidating)
        );
        assert_eq!(arena.last_invalidated(), 2);
        // The feasible entry survives with its match part stripped; the
        // null-schema entry is gone.
        assert_eq!(arena.len(), 1);
        let stripped = arena
            .probe(a.fingerprint(), &a, |e| e.eval.match_part.clone())
            .expect("feasible entry survives");
        assert_eq!(stripped, None);
        assert!(arena.probe(b.fingerprint(), &b, |_| ()).is_none());
    }

    #[test]
    fn prepare_layout_change_clears_all() {
        let arena = EvalArena::new();
        arena.prepare(&spec(), 10);
        let s = Subset::from_indices(10, [3]);
        arena.insert(s.fingerprint(), &s, entry_eval(0.7));
        let renamed = spec().with_weights(Weights::new([("cardinality", 1.0)]).unwrap());
        assert_eq!(
            arena.prepare(&renamed, 10),
            Some(SpecDelta::MatchInvalidating)
        );
        assert!(arena.is_empty());
        assert_eq!(arena.last_invalidated(), 1);
    }

    #[test]
    fn prepare_universe_change_resets_cold() {
        let arena = EvalArena::new();
        arena.prepare(&spec(), 10);
        let s = Subset::from_indices(10, [3]);
        arena.insert(s.fingerprint(), &s, entry_eval(0.7));
        assert_eq!(arena.prepare(&spec(), 12), None);
        assert!(arena.is_empty());
        assert_eq!(arena.last_invalidated(), 1);
        assert_eq!(arena.last_delta(), None);
    }

    #[test]
    fn insert_is_idempotent_and_capacity_evicts() {
        // Capacity of SHARDS means one entry per shard: the next insert
        // into the same shard clears it first.
        let arena = EvalArena::with_capacity(SHARDS);
        arena.prepare(&spec(), 64);
        let s = Subset::from_indices(64, [1]);
        assert_eq!(arena.insert(s.fingerprint(), &s, entry_eval(0.1)), 0);
        assert_eq!(arena.insert(s.fingerprint(), &s, entry_eval(0.1)), 0);
        assert_eq!(arena.len(), 1);
        let mut dropped_total = 0u64;
        for i in 2..40 {
            let t = Subset::from_indices(64, [i]);
            dropped_total += arena.insert(t.fingerprint(), &t, entry_eval(0.2));
        }
        assert!(dropped_total > 0, "tiny capacity must evict");
    }

    #[test]
    fn restore_match_part_fills_only_empty_slots() {
        let arena = EvalArena::new();
        arena.prepare(&spec(), 10);
        let s = Subset::from_indices(10, [1, 4]);
        let key = s.fingerprint();
        arena.insert(key, &s, entry_eval(0.9));
        arena.prepare(&spec().with_theta(0.6), 10); // strips the match part
        arena.restore_match_part(
            key,
            &s,
            MatchPart::Feasible {
                quality: 0.4,
                spanned: vec![1, 4],
            },
        );
        let part = arena
            .probe(key, &s, |e| e.eval.match_part.clone())
            .flatten();
        assert_eq!(
            part,
            Some(MatchPart::Feasible {
                quality: 0.4,
                spanned: vec![1, 4],
            })
        );
        // A second restore is a no-op: the slot is taken.
        arena.restore_match_part(
            key,
            &s,
            MatchPart::Feasible {
                quality: 0.5,
                spanned: vec![4],
            },
        );
        let part = arena
            .probe(key, &s, |e| e.eval.match_part.clone())
            .flatten();
        assert_eq!(
            part,
            Some(MatchPart::Feasible {
                quality: 0.4,
                spanned: vec![1, 4],
            })
        );
    }
}
