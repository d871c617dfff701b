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
//!   each entry is dropped: entries keep their non-matching component
//!   values and recompute `Match(S)` alone on the next touch.
//!
//! Entries are epoch-stamped (the epoch advances once per prepare, which
//! `Mube::objective_in` runs) so the engine can report how much of an
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
use std::sync::{PoisonError, RwLock};

use mube_opt::Subset;

use crate::problem::ProblemSpec;

/// Default entry budget. An entry is one subset plus a K-element component
/// vector — on the order of a hundred bytes at µBE's universe sizes — so
/// the default bounds the arena at roughly a hundred megabytes while being
/// effectively unbounded for whole sessions (which evaluate tens of
/// thousands of subsets per iteration, not a million).
const DEFAULT_CAPACITY: usize = 1 << 20;

/// Recovers a lock guard from a poisoned lock: arena state is always
/// internally consistent (every update completes under one guard), so a
/// panicking sibling thread must not wedge the evaluation.
fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
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
    /// The matching side changed (θ, β, pruning, or the GA constraints
    /// `G`) — or the weighted QEF *set* changed, which relays the cached
    /// vectors. Match-dependent state is flushed.
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

/// The match-dependent half of a cached evaluation: the schema's `F1`
/// quality plus the sources it spans.
///
/// Whether the schema satisfies the *current* source constraints is
/// deliberately not recorded: the spans check is re-applied at read time
/// against `spanned`, which is what keeps these entries valid across
/// `FeasibilityOnly` edits in both directions (constraint added *and*
/// constraint dropped).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MatchPart {
    /// The matching-quality QEF value `F1(S)`.
    pub(crate) quality: f64,
    /// Sorted indices of the sources the schema spans (contributes at least
    /// one attribute to a GA). The read-time feasibility check is
    /// `required ⊆ spanned`.
    pub(crate) spanned: Vec<u32>,
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
    /// matching slot, if any, holds an unused placeholder).
    pub(crate) components: Vec<f64>,
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

/// What one `EvalArena::prepare` did, kept by the objective built on it
/// so that no evaluation reads the arena's stamps again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Prepared {
    /// The delta class from the previously prepared spec; `None` on first
    /// use or after a universe-size change (which clears the arena).
    pub(crate) delta: Option<SpecDelta>,
    /// Entries invalidated (stripped or dropped) by this prepare.
    pub(crate) invalidated: u64,
    /// The epoch entries inserted from now on carry.
    pub(crate) epoch: u64,
    /// The weights version entries inserted from now on carry.
    pub(crate) weights_version: u64,
}

/// Everything the arena holds, behind its one lock.
#[derive(Default)]
struct Store {
    /// Fingerprint-keyed buckets (a bucket may hold several exact subsets
    /// on fingerprint collision). A `BTreeMap`, so every whole-store walk
    /// (`strip_match_parts`) visits entries in fingerprint order.
    buckets: BTreeMap<u64, Vec<ArenaEntry>>,
    entries: usize,
    /// Advances once per prepare; entries are stamped with it.
    epoch: u64,
    /// Advances whenever a prepare sees a different weight vector.
    weights_version: u64,
    /// The spec (plus universe size) the arena was last prepared for.
    prepared_for: Option<(ProblemSpec, usize)>,
}

impl Store {
    /// Drops every entry; returns how many were dropped.
    fn clear(&mut self) -> u64 {
        let dropped = self.entries as u64;
        self.buckets.clear();
        self.entries = 0;
        dropped
    }

    /// Strips the match-dependent part from every entry; the next read of
    /// each recomputes `Match(S)` alone. Returns how many were stripped.
    fn strip_match_parts(&mut self) -> u64 {
        let mut stripped = 0u64;
        for entry in self.buckets.values_mut().flatten() {
            if entry.eval.match_part.take().is_some() {
                stripped += 1;
            }
        }
        stripped
    }

    fn find(&self, key: u64, subset: &Subset) -> Option<&ArenaEntry> {
        self.buckets.get(&key)?.iter().find(|e| e.subset == *subset)
    }
}

/// A persistent, thread-safe store of [`ComponentEval`]s that spans µBE
/// iterations. See the module docs for the invalidation model.
///
/// One [`RwLock`] guards the whole store, held only for a probe, an
/// insert, a restore or a prepare — never while `Match(S)` runs — so a
/// [`mube_opt::Portfolio`]'s member threads can evaluate concurrently
/// against one arena and share each other's memoized `Match(S)` work,
/// within a solve *and* across a session's iterations.
pub struct EvalArena {
    store: RwLock<Store>,
    /// Entry budget: an insert into a full arena clears it wholesale first
    /// (coarse, but eviction is a safety valve here, not a working-set
    /// policy).
    capacity: usize,
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
            store: RwLock::new(Store::default()),
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Number of memoized evaluations currently held.
    pub fn len(&self) -> usize {
        unpoison(self.store.read()).entries
    }

    /// Whether the arena holds no evaluations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty arena bounded to `capacity` entries (minimum one), so tests
    /// can exercise eviction at small sizes.
    #[cfg(test)]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ..Self::new()
        }
    }

    /// Drops every memoized evaluation (stamps and the prepared spec are
    /// kept). Returns the number of entries dropped.
    pub(crate) fn clear(&self) -> u64 {
        unpoison(self.store.write()).clear()
    }

    /// Points the arena at the next iteration's spec: classifies the edit
    /// against the previously prepared spec, applies the invalidation the
    /// class demands, advances the epoch (and the weights version when the
    /// weights moved), and records the spec for the next diff — all under
    /// one write guard.
    pub(crate) fn prepare(&self, spec: &ProblemSpec, universe_len: usize) -> Prepared {
        let mut store = unpoison(self.store.write());
        let (delta, invalidated, weights_moved) = match store.prepared_for.take() {
            Some((prev, len)) if len == universe_len => {
                let delta = SpecDelta::classify(&prev, spec);
                let invalidated = match delta {
                    SpecDelta::MatchInvalidating if layout_changed(&prev, spec) => store.clear(),
                    SpecDelta::MatchInvalidating => store.strip_match_parts(),
                    _ => 0,
                };
                (Some(delta), invalidated, prev.weights != spec.weights)
            }
            // Different universe: nothing cached can be trusted.
            Some(_) => (None, store.clear(), false),
            None => (None, 0, false),
        };
        if weights_moved {
            store.weights_version += 1;
        }
        store.epoch += 1;
        store.prepared_for = Some((spec.clone(), universe_len));
        Prepared {
            delta,
            invalidated,
            epoch: store.epoch,
            weights_version: store.weights_version,
        }
    }

    /// Reads the entry for `subset` under the read lock, applying `read` to
    /// it while the lock is held (so combination needs no clone).
    pub(crate) fn probe<R>(
        &self,
        key: u64,
        subset: &Subset,
        read: impl FnOnce(&ArenaEntry) -> R,
    ) -> Option<R> {
        let store = unpoison(self.store.read());
        store.find(key, subset).map(read)
    }

    /// Inserts an evaluation stamped with the current epoch and weights
    /// version. A concurrent duplicate insert is a no-op (evaluation is
    /// pure — both threads computed the same vector). Returns the number
    /// of entries dropped by capacity eviction, for the caller's
    /// `evictions` accounting.
    pub(crate) fn insert(&self, key: u64, subset: &Subset, eval: ComponentEval) -> u64 {
        let mut store = unpoison(self.store.write());
        if store.find(key, subset).is_some() {
            return 0;
        }
        let dropped = if store.entries >= self.capacity {
            store.clear()
        } else {
            0
        };
        let entry = ArenaEntry {
            subset: subset.clone(),
            eval,
            epoch: store.epoch,
            weights_version: store.weights_version,
        };
        store.buckets.entry(key).or_default().push(entry);
        store.entries += 1;
        dropped
    }

    /// Fills in a recomputed match part on a previously stripped entry.
    /// Keeps the entry's original epoch stamp (it is still a
    /// cross-iteration survivor) and only writes if the slot is still
    /// empty — a racing duplicate recompute produced the same value.
    pub(crate) fn restore_match_part(&self, key: u64, subset: &Subset, part: MatchPart) {
        let mut store = unpoison(self.store.write());
        let entry = store
            .buckets
            .get_mut(&key)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.subset == *subset));
        if let Some(entry) = entry {
            entry.eval.match_part.get_or_insert(part);
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

    fn reweighted() -> ProblemSpec {
        spec().with_weights(
            Weights::new([
                ("matching", 0.5),
                ("cardinality", 0.2),
                ("coverage", 0.1),
                ("redundancy", 0.1),
                ("mttf", 0.1),
            ])
            .unwrap(),
        )
    }

    fn part(quality: f64, spanned: &[u32]) -> MatchPart {
        MatchPart {
            quality,
            spanned: spanned.to_vec(),
        }
    }

    fn entry_eval(q: f64) -> ComponentEval {
        ComponentEval {
            match_part: Some(part(q, &[1, 4])),
            components: vec![0.0, 0.5],
        }
    }

    fn match_part_of(arena: &EvalArena, s: &Subset) -> Option<MatchPart> {
        arena
            .probe(s.fingerprint(), s, |e| e.eval.match_part.clone())
            .flatten()
    }

    #[test]
    fn classify_weights_only() {
        let a = spec();
        assert_eq!(
            SpecDelta::classify(&a, &reweighted()),
            SpecDelta::WeightsOnly
        );
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
        let b = reweighted()
            .with_theta(0.6)
            .with_source_constraint(SourceId(1));
        assert_eq!(SpecDelta::classify(&a, &b), SpecDelta::MatchInvalidating);
        let c = reweighted().with_source_constraint(SourceId(1));
        assert_eq!(SpecDelta::classify(&a, &c), SpecDelta::FeasibilityOnly);
    }

    #[test]
    fn prepare_first_use_reports_no_delta() {
        let arena = EvalArena::new();
        let prepared = arena.prepare(&spec(), 10);
        assert_eq!(
            prepared,
            Prepared {
                delta: None,
                invalidated: 0,
                epoch: 1,
                weights_version: 0,
            }
        );
    }

    #[test]
    fn prepare_weights_only_keeps_entries_and_bumps_version() {
        let arena = EvalArena::new();
        let first = arena.prepare(&spec(), 10);
        let s = Subset::from_indices(10, [1, 2]);
        arena.insert(s.fingerprint(), &s, entry_eval(0.9));
        let second = arena.prepare(&reweighted(), 10);
        assert_eq!(second.delta, Some(SpecDelta::WeightsOnly));
        assert_eq!(second.invalidated, 0);
        assert_eq!(second.weights_version, first.weights_version + 1);
        assert_eq!(second.epoch, first.epoch + 1);
        assert_eq!(arena.len(), 1);
        // The entry keeps the stamps it was inserted under.
        let stamps = arena.probe(s.fingerprint(), &s, |e| (e.epoch, e.weights_version));
        assert_eq!(stamps, Some((first.epoch, first.weights_version)));
    }

    #[test]
    fn prepare_match_invalidating_strips_every_match_part() {
        let arena = EvalArena::new();
        arena.prepare(&spec(), 10);
        let a = Subset::from_indices(10, [1]);
        let b = Subset::from_indices(10, [2]);
        arena.insert(a.fingerprint(), &a, entry_eval(0.8));
        arena.insert(b.fingerprint(), &b, entry_eval(0.6));
        let prepared = arena.prepare(&spec().with_theta(0.5), 10);
        assert_eq!(prepared.delta, Some(SpecDelta::MatchInvalidating));
        assert_eq!(prepared.invalidated, 2);
        // Both entries survive with their components and no match part.
        assert_eq!(arena.len(), 2);
        assert_eq!(match_part_of(&arena, &a), None);
        assert_eq!(
            arena.probe(b.fingerprint(), &b, |e| e.eval.components.clone()),
            Some(vec![0.0, 0.5])
        );
    }

    #[test]
    fn prepare_layout_change_clears_all() {
        let arena = EvalArena::new();
        arena.prepare(&spec(), 10);
        let s = Subset::from_indices(10, [3]);
        arena.insert(s.fingerprint(), &s, entry_eval(0.7));
        let renamed = spec().with_weights(Weights::new([("cardinality", 1.0)]).unwrap());
        let prepared = arena.prepare(&renamed, 10);
        assert_eq!(prepared.delta, Some(SpecDelta::MatchInvalidating));
        assert_eq!(prepared.invalidated, 1);
        assert!(arena.is_empty());
    }

    #[test]
    fn prepare_universe_change_resets_cold() {
        let arena = EvalArena::new();
        arena.prepare(&spec(), 10);
        let s = Subset::from_indices(10, [3]);
        arena.insert(s.fingerprint(), &s, entry_eval(0.7));
        let prepared = arena.prepare(&spec(), 12);
        assert_eq!(prepared.delta, None);
        assert_eq!(prepared.invalidated, 1);
        assert!(arena.is_empty());
    }

    #[test]
    fn insert_is_idempotent_and_capacity_evicts() {
        let arena = EvalArena::with_capacity(4);
        arena.prepare(&spec(), 64);
        let s = Subset::from_indices(64, [1]);
        assert_eq!(arena.insert(s.fingerprint(), &s, entry_eval(0.1)), 0);
        assert_eq!(arena.insert(s.fingerprint(), &s, entry_eval(0.1)), 0);
        assert_eq!(arena.len(), 1);
        let dropped: Vec<u64> = (2..6)
            .map(|i| {
                let t = Subset::from_indices(64, [i]);
                arena.insert(t.fingerprint(), &t, entry_eval(0.2))
            })
            .collect();
        // The fifth distinct insert finds the arena full and clears it.
        assert_eq!(dropped, [0, 0, 0, 4]);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn restore_match_part_fills_only_empty_slots() {
        let arena = EvalArena::new();
        arena.prepare(&spec(), 10);
        let s = Subset::from_indices(10, [1, 4]);
        let key = s.fingerprint();
        arena.insert(key, &s, entry_eval(0.9));
        arena.prepare(&spec().with_theta(0.6), 10); // strips the match part
        arena.restore_match_part(key, &s, part(0.4, &[1, 4]));
        assert_eq!(match_part_of(&arena, &s), Some(part(0.4, &[1, 4])));
        // A second restore is a no-op: the slot is taken.
        arena.restore_match_part(key, &s, part(0.5, &[4]));
        assert_eq!(match_part_of(&arena, &s), Some(part(0.4, &[1, 4])));
    }
}
