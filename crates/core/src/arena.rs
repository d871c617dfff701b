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
//! An entry's size follows what it holds, not the universe's width: it
//! keys on its subset's sorted member ids (or the packed words, when
//! those are shorter), and its vectors are exactly sized slices. The
//! entries sit in one ordered map under `(fingerprint, collision ordinal)`
//! keys, so a lone entry owns no bucket allocation.
//! [`EvalArena::heap_bytes`] reports what the entries own.
//!
//! [`Session`]: crate::Session

use std::collections::BTreeMap;
use std::mem::size_of_val;
use std::sync::{PoisonError, RwLock};

use mube_opt::Subset;

use crate::problem::ProblemSpec;

/// Default entry budget. [`EvalArena::heap_bytes`] reports 156 bytes for
/// a 3-source entry over 2,000 sources with five components and a
/// two-source span (see the `heap_bytes_counts_record_key_and_slices`
/// test), so at the cap a session's entries own about 160 MB, plus the
/// allocator's and the map's overhead. That is effectively unbounded for
/// whole sessions, which evaluate tens of thousands of subsets per
/// iteration, not a million.
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
    pub(crate) spanned: Box<[u32]>,
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
    pub(crate) components: Box<[f64]>,
}

/// An entry's subset, in whichever exact encoding is shorter: the sorted
/// member ids (4 bytes a member) or the bitset's packed words (8 bytes per
/// 64 universe items), so no key outgrows the bitset. Neither records the
/// universe size: every entry of an arena ranges over the universe it was
/// prepared for, since `prepare` clears the arena when that size changes.
#[derive(Debug, Clone)]
enum Members {
    Ids(Box<[u32]>),
    Words(Box<[u64]>),
}

impl Members {
    fn of(subset: &Subset) -> Self {
        let words = subset.words();
        if subset.len() <= 2 * words.len() {
            Members::Ids(subset.iter().map(|i| i as u32).collect())
        } else {
            Members::Words(words.into())
        }
    }

    /// Whether these are exactly `subset`'s members, compared in place.
    fn are(&self, subset: &Subset) -> bool {
        match self {
            Members::Ids(ids) => subset.iter().map(|i| i as u32).eq(ids.iter().copied()),
            Members::Words(words) => **words == *subset.words(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Members::Ids(ids) => size_of_val(&**ids),
            Members::Words(words) => size_of_val(&**words),
        }
    }
}

/// One arena entry: its subset's members (compared exactly, so a
/// fingerprint collision takes the next ordinal under that fingerprint and
/// can never alias) plus its evaluation and the bookkeeping stamps.
#[derive(Debug, Clone)]
pub(crate) struct ArenaEntry {
    members: Members,
    pub(crate) eval: ComponentEval,
    /// Arena epoch at insertion — entries from earlier epochs are
    /// cross-iteration survivors and count as reuse when read.
    pub(crate) epoch: u64,
    /// Weights version at insertion — a read under a newer version is a
    /// recombination (same components, different weight combination).
    pub(crate) weights_version: u64,
}

impl ArenaEntry {
    /// The bytes this entry owns: its map slot (key and record) plus its
    /// members, component and span slices.
    fn heap_bytes(&self) -> usize {
        size_of::<(Slot, Self)>()
            + self.members.heap_bytes()
            + size_of_val(&*self.eval.components)
            + self
                .eval
                .match_part
                .as_ref()
                .map_or(0, |part| size_of_val(&*part.spanned))
    }
}

/// An entry's map key: its subset's fingerprint and a collision ordinal.
type Slot = (u64, u32);

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
    /// Every entry under its [`Slot`]: the `k`-th distinct subset inserted
    /// with a fingerprint sits at `(fingerprint, k)`. Entries leave only
    /// all at once, so a fingerprint's ordinals run `0..` without gaps and a
    /// lookup walks them until a member match or a free ordinal. A
    /// `BTreeMap`, so every whole-store walk (`strip_match_parts`,
    /// `heap_bytes`) visits entries in key order.
    entries: BTreeMap<Slot, ArenaEntry>,
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
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        dropped
    }

    /// Strips the match-dependent part from every entry; the next read of
    /// each recomputes `Match(S)` alone. Returns how many were stripped.
    fn strip_match_parts(&mut self) -> u64 {
        let mut stripped = 0u64;
        for entry in self.entries.values_mut() {
            if entry.eval.match_part.take().is_some() {
                stripped += 1;
            }
        }
        stripped
    }

    /// The collision ordinal and entry of `subset` under fingerprint `key`,
    /// or the first free ordinal there and `None`.
    fn find(&self, key: u64, subset: &Subset) -> (u32, Option<&ArenaEntry>) {
        let mut ordinal = 0;
        while let Some(entry) = self.entries.get(&(key, ordinal)) {
            if entry.members.are(subset) {
                return (ordinal, Some(entry));
            }
            ordinal += 1;
        }
        (ordinal, None)
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
        unpoison(self.store.read()).entries.len()
    }

    /// The bytes the held entries own: each entry's map slot (fingerprint
    /// key and record) plus its member, component and span slices.
    /// Allocator headers and size rounding, and the map's node layout
    /// (spare slots, child and parent links), are not counted, so the
    /// figure does not depend on the allocator or the host. Walks every
    /// entry under the read lock; the evaluate path keeps no running total.
    pub fn heap_bytes(&self) -> usize {
        let store = unpoison(self.store.read());
        store.entries.values().map(ArenaEntry::heap_bytes).sum()
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
        store.find(key, subset).1.map(read)
    }

    /// Inserts an evaluation stamped with the current epoch and weights
    /// version. A concurrent duplicate insert is a no-op (evaluation is
    /// pure — both threads computed the same vector). Returns the number
    /// of entries dropped by capacity eviction, for the caller's
    /// `evictions` accounting.
    pub(crate) fn insert(&self, key: u64, subset: &Subset, eval: ComponentEval) -> u64 {
        let mut store = unpoison(self.store.write());
        let (mut ordinal, found) = store.find(key, subset);
        if found.is_some() {
            return 0;
        }
        let mut dropped = 0;
        if store.entries.len() >= self.capacity {
            dropped = store.clear();
            ordinal = 0;
        }
        let entry = ArenaEntry {
            members: Members::of(subset),
            eval,
            epoch: store.epoch,
            weights_version: store.weights_version,
        };
        store.entries.insert((key, ordinal), entry);
        dropped
    }

    /// Fills in a recomputed match part on a previously stripped entry.
    /// Keeps the entry's original epoch stamp (it is still a
    /// cross-iteration survivor) and only writes if the slot is still
    /// empty — a racing duplicate recompute produced the same value.
    pub(crate) fn restore_match_part(&self, key: u64, subset: &Subset, part: MatchPart) {
        let mut store = unpoison(self.store.write());
        let (ordinal, found) = store.find(key, subset);
        if found.is_none() {
            return;
        }
        if let Some(entry) = store.entries.get_mut(&(key, ordinal)) {
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
            spanned: spanned.into(),
        }
    }

    fn entry_eval(q: f64) -> ComponentEval {
        ComponentEval {
            match_part: Some(part(q, &[1, 4])),
            components: [0.0, 0.5].into(),
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
            arena.probe(b.fingerprint(), &b, |e| e.eval.components.to_vec()),
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
    fn colliding_fingerprints_stay_exact() {
        // Every subset below goes in under one forced fingerprint.
        const KEY: u64 = 7;
        let n = 2000;
        let quality = |arena: &EvalArena, s: &Subset| {
            arena
                .probe(KEY, s, |e| e.eval.match_part.as_ref().map(|p| p.quality))
                .flatten()
        };
        let arena = EvalArena::new();
        arena.prepare(&spec(), n);
        let a = Subset::from_indices(n, [3, 700, 1999]);
        let b = Subset::from_indices(n, [3, 700, 1998]);
        arena.insert(KEY, &a, entry_eval(0.8));
        arena.insert(KEY, &b, entry_eval(0.6));
        assert_eq!(arena.len(), 2);
        assert_eq!(quality(&arena, &a), Some(0.8));
        assert_eq!(quality(&arena, &b), Some(0.6));
        // A θ edit strips both; restoring one leaves the other stripped.
        assert_eq!(arena.prepare(&spec().with_theta(0.5), n).invalidated, 2);
        arena.restore_match_part(KEY, &b, part(0.5, &[3]));
        assert_eq!(quality(&arena, &b), Some(0.5));
        assert_eq!(quality(&arena, &a), None);
        assert!(arena.probe(KEY, &a, |_| ()).is_some());

        // Key size boundary: up to 64 members (32 words × 2) key on ids,
        // more on words, and neither is longer than the 256-byte bitset.
        let first = |k: usize| Subset::from_indices(n, 0..k);
        for (k, ids) in [(0, true), (3, true), (64, true), (65, false), (1999, false)] {
            let members = Members::of(&first(k));
            assert_eq!(matches!(members, Members::Ids(_)), ids, "{k} members");
            assert!(members.heap_bytes() <= 256, "{k} members");
            assert!(members.are(&first(k)) && !members.are(&first(k + 1)));
        }
        let empty = Subset::empty(n);
        let all_but_one = Subset::from_indices(n, (0..n).filter(|&i| i != 1000));
        let all_but_another = Subset::from_indices(n, (0..n).filter(|&i| i != 1001));
        arena.insert(KEY, &empty, entry_eval(0.1));
        arena.insert(KEY, &all_but_one, entry_eval(0.2));
        assert_eq!(arena.len(), 4);
        assert_eq!(quality(&arena, &empty), Some(0.1));
        assert_eq!(quality(&arena, &all_but_one), Some(0.2));
        assert_eq!(quality(&arena, &b), Some(0.5));
        assert!(arena.probe(KEY, &all_but_another, |_| ()).is_none());
        assert!(arena.probe(KEY, &first(3), |_| ()).is_none());
    }

    #[test]
    fn heap_bytes_counts_record_key_and_slices() {
        let arena = EvalArena::new();
        arena.prepare(&spec(), 2000);
        assert_eq!(arena.heap_bytes(), 0);
        let s = Subset::from_indices(2000, [3, 700, 1999]);
        let eval = ComponentEval {
            match_part: Some(part(0.9, &[3, 700])),
            components: [0.1; 5].into(),
        };
        arena.insert(s.fingerprint(), &s, eval);
        // A 96-byte slot (16-byte key, 80-byte record), 3 member ids, 5
        // components and 2 spanned sources: the figure DEFAULT_CAPACITY
        // cites.
        assert_eq!(size_of::<(Slot, ArenaEntry)>(), 96);
        assert_eq!(arena.heap_bytes(), 96 + 3 * 4 + 5 * 8 + 2 * 4);
        assert_eq!(arena.heap_bytes(), 156);
        // Stripping the match part drops its span.
        arena.prepare(&spec().with_theta(0.5), 2000);
        assert_eq!(arena.heap_bytes(), 148);
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
