//! Incremental round-loop kernel: Lance–Williams pair maintenance.
//!
//! The brute-force kernel in [`crate::algorithm`] rebuilds the full alive
//! cluster-pair list from attribute pairs every round. This kernel pays that
//! cost exactly once, in a seed pass, and from then on derives a merged
//! cluster's similarity row from its parents' rows: under single linkage
//! `sim(i ∪ j, k) = max(sim(i, k), sim(j, k))`.
//!
//! Two rules keep the pair store sparse and exact: a pair is stored iff its
//! similarity is ≥ θ in total order, and a merged cluster's row is the
//! maximum over its parents' stored pairs. An absent pair is below θ, so it
//! can never win a maximum that clears θ.
//!
//! Candidate pairs live in a [`BinaryHeap`] ordered by (similarity desc,
//! lower index asc, higher index asc) — the exact order the brute-force
//! kernel's stable sort produces — and are invalidated lazily: each entry is
//! stamped with the round it was enqueued for, and entries whose stamp is
//! stale or whose endpoints died before their round began (e.g. pruned) are
//! discarded on pop instead of being dug out of the heap eagerly.
//!
//! Equivalence with the oracle rests on a drain property: every pair in the
//! heap is mergeable (overlapping-source pairs are filtered before enqueue),
//! so a popped pair with both endpoints unmerged always merges. Hence no
//! pair among pre-round survivors can still be ≥ θ at round end — each
//! round's heap only ever needs the rows of that round's new clusters, which
//! is exactly what the Lance–Williams pass enqueues.

use std::cmp::Ordering;
// HashMap is imported only for the get/insert pair store below — see its allow.
#[allow(clippy::disallowed_types)]
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::algorithm::{Cluster, MatchConfig, MatchStats};
use crate::linkage::{cluster_similarity, total_max};
use crate::similarity::AttrSimilarity;

/// splitmix64-finalizer hasher for the packed pair keys. The derive loops
/// probe the pair store a handful of times per cluster pair, so SipHash
/// would dominate the kernel; a multiply-xor finalizer gives full avalanche
/// on the single `u64` key at a fraction of the cost.
#[derive(Default)]
struct PairKeyHasher(u64);

impl Hasher for PairKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback; the store only ever hashes u64 keys via write_u64,
        // but Hasher requires a general byte path.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One candidate pair: clusters `lo < hi` with cluster similarity `sim`,
/// enqueued for round `round` (its generation stamp).
#[derive(Debug, Clone, Copy)]
struct PairEntry {
    sim: f64,
    lo: u32,
    hi: u32,
    round: u32,
}

impl Ord for PairEntry {
    /// Max-heap order matching the oracle's stable sort: similarity
    /// descending (total order — NaN never reaches the heap because the
    /// `s >= θ` gate rejects it), then lower index ascending, then higher
    /// index ascending.
    fn cmp(&self, other: &Self) -> Ordering {
        self.sim
            .total_cmp(&other.sim)
            .then_with(|| other.lo.cmp(&self.lo))
            .then_with(|| other.hi.cmp(&self.hi))
    }
}

impl PartialOrd for PairEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for PairEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for PairEntry {}

/// The kernel's pair state: θ, the sparse store of every cluster pair whose
/// similarity clears θ, per cluster the partners it holds a stored pair
/// with (which drives the sparse derive walk), and the candidate heap.
// The store serves keyed lookups and inserts only — nothing walks the map,
// so hash order cannot leak, and the packed-pair hasher keeps the hot path
// cheap.
#[allow(clippy::disallowed_types)]
struct Pairs {
    theta: f64,
    store: HashMap<u64, f64, BuildHasherDefault<PairKeyHasher>>,
    adj: Vec<Vec<u32>>,
    heap: BinaryHeap<PairEntry>,
}

/// Runs Algorithm 1's round loop (lines 5–23) with incremental pair
/// maintenance. Mutates `clusters` exactly as the brute-force kernel would
/// and returns the number of rounds executed.
pub(crate) fn rounds(
    clusters: &mut Vec<Cluster>,
    config: &MatchConfig,
    sim: &dyn AttrSimilarity,
    stats: &mut MatchStats,
) -> u32 {
    let mut pairs = Pairs::seeded(clusters, config.theta, sim, stats);
    // Generation-stamped visit marks for deduplicating the derive walk
    // (a partner can appear in both parents' adjacency lists).
    let mut visited: Vec<u32> = vec![0; clusters.len()];
    let mut visit_gen: u32 = 0;

    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let mut done = true;
        // Reset per-round flags on every slot, dead ones included: the
        // stale-pop check below distinguishes "died in an earlier round"
        // from "consumed by a merge this round" via these flags.
        for c in clusters.iter_mut() {
            c.merged = false;
            c.merge_cand = false;
        }

        // Lines 9–19: consume this round's candidate pairs, best first. The
        // drain is total — every entry stamped for this round is popped.
        let mut merges: Vec<[usize; 2]> = Vec::new();
        let mut new_clusters: Vec<Cluster> = Vec::new();
        while let Some(entry) = pairs.heap.pop() {
            let (i, j) = (entry.lo as usize, entry.hi as usize);
            debug_assert!(entry.round <= rounds, "heap entry from a future round");
            if entry.round != rounds
                || (!clusters[i].alive && !clusters[i].merged)
                || (!clusters[j].alive && !clusters[j].merged)
            {
                stats.stale_pops += 1;
                continue;
            }
            match (clusters[i].merged, clusters[j].merged) {
                (false, false) => {
                    // Only mergeable pairs are ever enqueued.
                    debug_assert!(clusters[i].can_merge(&clusters[j]));
                    new_clusters.push(clusters[i].merge_with(&clusters[j]));
                    merges.push([i, j]);
                    clusters[i].merged = true;
                    clusters[i].alive = false;
                    clusters[j].merged = true;
                    clusters[j].alive = false;
                }
                (true, false) => {
                    clusters[j].merge_cand = true;
                    done = false;
                }
                (false, true) => {
                    clusters[i].merge_cand = true;
                    done = false;
                }
                (true, true) => {}
            }
        }

        // Lines 20–22: eliminate hopeless clusters, identically to the
        // oracle. Pruned rows simply go stale in the store and the heap.
        if config.prune {
            for c in clusters.iter_mut().filter(|c| c.alive) {
                if !c.ever_merged && !c.merge_cand && !c.keep {
                    c.alive = false;
                }
            }
        }

        // Append the round's merged clusters and derive each one's
        // similarity row from its parents' stored rows — next round's heap.
        // A partner neither parent holds a stored pair with has both parts
        // below θ, so its derived similarity is below θ too: the derive
        // walks the parents' adjacency lists instead of scanning every alive
        // cluster, work proportional to stored pairs, not clusters². At
        // θ ≤ 0 every mergeable seed pair is stored, so the walk reaches
        // every mergeable partner. Derived rows exist for mergeable and
        // unmergeable partners alike (the O(1) combine is cheaper than a
        // source-set disjointness walk); `can_merge` gates only the rare
        // ≥ θ heap candidates. A derived similarity for an unmergeable pair
        // can undercount (its unmergeable ancestors were skipped at seed
        // time), but no mergeable pair ever consumes it: a mergeable pair's
        // ancestor pairs are all mergeable, since ancestor source sets are
        // subsets of the pair's.
        let base = clusters.len();
        // Which merge slot consumed each pre-round cluster: routes a dead
        // neighbour's adjacency to the sibling cluster that replaced it.
        let mut minted_from: Vec<Option<u32>> = vec![None; base];
        for (m, &[i, j]) in merges.iter().enumerate() {
            minted_from[i] = Some(m as u32);
            minted_from[j] = Some(m as u32);
        }
        for (m, new_cluster) in new_clusters.into_iter().enumerate() {
            let n = clusters.len();
            let parents = merges[m];
            clusters.push(new_cluster);
            pairs.adj.push(Vec::new());
            visited.push(0);
            visit_gen += 1;
            for parent in parents {
                let mut idx = 0;
                while idx < pairs.adj[parent].len() {
                    let k = pairs.adj[parent][idx] as usize;
                    idx += 1;
                    debug_assert!(k < base, "a dead parent gained no new pairs this round");
                    if visited[k] == visit_gen {
                        continue;
                    }
                    visited[k] = visit_gen;
                    // The partner and its parts: an alive neighbour is its
                    // own part. A neighbour that merged this round is
                    // replaced by its sibling, derived from the four
                    // grandparent pairs (max is associative, so this equals
                    // the two-level combination); each earlier sibling is
                    // derived once, and later siblings derive the pair
                    // from their side.
                    let (partner, parts) = if clusters[k].alive {
                        (k, std::slice::from_ref(&k))
                    } else {
                        match minted_from[k].map(|sib| sib as usize) {
                            Some(sib) if sib < m && visited[base + sib] != visit_gen => {
                                visited[base + sib] = visit_gen;
                                (base + sib, &merges[sib][..])
                            }
                            _ => continue,
                        }
                    };
                    stats.lw_updates += 1;
                    if let Some(s) = pairs.max_stored(&parents, parts) {
                        pairs.admit(partner, n, s, rounds + 1, clusters, stats);
                    }
                }
            }
        }

        if done {
            break;
        }
    }
    rounds
}

impl Pairs {
    /// The seed pass: admits every mergeable seed-cluster pair exactly
    /// once — the only all-pairs sweep the incremental kernel ever performs.
    ///
    /// When the similarity source exposes equivalence classes (see
    /// [`AttrSimilarity::class_of`]), singleton seed clusters are grouped by
    /// class and one representative pair per *class* pair is evaluated; the
    /// value is reused for every member pair, and class pairs below θ skip
    /// their whole member-pair product. On deduplicating similarity sources
    /// (the engine's precomputed matrix) this collapses the O(attrs²) sweep
    /// to O(classes²) evaluations plus work proportional to the pairs
    /// actually admitted. Clusters that are not classed singletons —
    /// constraint-seeded GA clusters, or any cluster under a class-less
    /// similarity source — fall back to the per-pair path, so the admitted
    /// (pair, similarity) set is identical either way, bitwise, by the
    /// `class_of` contract.
    fn seeded(
        clusters: &[Cluster],
        theta: f64,
        sim: &dyn AttrSimilarity,
        stats: &mut MatchStats,
    ) -> Pairs {
        let mut pairs = Pairs {
            theta,
            store: Default::default(),
            adj: vec![Vec::new(); clusters.len()],
            heap: BinaryHeap::new(),
        };
        let class: Vec<Option<u32>> = clusters
            .iter()
            .map(|c| match c.attrs[..] {
                [attr] => sim.class_of(attr),
                _ => None,
            })
            .collect();

        let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        let mut generic: Vec<usize> = Vec::new();
        for (i, cl) in class.iter().enumerate() {
            match cl {
                Some(c) => groups.entry(*c).or_default().push(i),
                None => generic.push(i),
            }
        }

        // Generic clusters pair with everything; generic–generic pairs are
        // deduplicated by index order.
        for &g in &generic {
            for k in 0..clusters.len() {
                let admissible = match class[k] {
                    Some(_) => true,
                    None => k < g,
                };
                if !admissible || !clusters[g].can_merge(&clusters[k]) {
                    continue;
                }
                let s = cluster_similarity(&clusters[g].attrs, &clusters[k].attrs, sim);
                stats.linkage_evals += 1;
                pairs.admit(g.min(k), g.max(k), s, 1, clusters, stats);
            }
        }

        // Class pairs: one representative evaluation each. The `BTreeMap`
        // drain is sorted by class id, so `admit` sees the pairs in the same
        // order every run — the heap's tie-breaking (and therefore the merge
        // trace) must not depend on per-process hash seeding.
        let (classes, members): (Vec<u32>, Vec<Vec<usize>>) = groups.into_iter().unzip();
        let representative = |l: &[usize], r: &[usize]| {
            cluster_similarity(&clusters[l[0]].attrs, &clusters[r[0]].attrs, sim)
        };
        let mut partners: Vec<(usize, usize)> = Vec::new();
        for (gi, (ci, left)) in classes.iter().zip(&members).enumerate() {
            // Sparse seed pass: when the similarity source exposes each
            // class's non-zero neighbors, only those class pairs can matter —
            // an absent pair scores exactly 0.0, which for θ > 0 clears
            // neither the store nor the heap gate — so the quadratic
            // group-pair sweep collapses to the stored pair set,
            // bitwise-identically. θ ≤ 0 keeps the dense sweep: there a 0.0
            // pair IS heap-eligible, and neighbor rows omit zeros. The
            // neighbor row spans the whole universe while this call's
            // classes are usually a handful, so the row is intersected with
            // the later classes (d ≤ ci pairs were handled from d's side)
            // rather than walked; the matches come out ascending by class
            // id, so pairs reach `admit` in the dense sweep's order.
            let neighbors = if theta > 0.0 {
                sim.neighbors_of_class(*ci)
            } else {
                None
            };
            match neighbors {
                Some(nbrs) => {
                    // The self pair is not in the neighbor list (it excludes
                    // the class itself) but is always evaluated: identical
                    // names score 1.0 regardless of sparsity.
                    let s = representative(left, left);
                    pairs.class_pair_seed(s, left, left, true, clusters, stats);
                    let scores = sim.neighbor_scores_of_class(*ci);
                    intersect_ascending(nbrs, &classes[gi + 1..], &mut partners);
                    for &(p, k) in &partners {
                        let right = &members[gi + 1 + p];
                        let s = match scores {
                            Some(scores) => {
                                let s = f64::from(scores[k]);
                                debug_assert_eq!(
                                    s.to_bits(),
                                    representative(left, right).to_bits(),
                                    "neighbor score of class {ci} disagrees with its similarity"
                                );
                                s
                            }
                            None => representative(left, right),
                        };
                        pairs.class_pair_seed(s, left, right, false, clusters, stats);
                    }
                }
                None => {
                    for (gj, right) in members.iter().enumerate().skip(gi) {
                        let s = representative(left, right);
                        pairs.class_pair_seed(s, left, right, gi == gj, clusters, stats);
                    }
                }
            }
        }
        pairs
    }

    fn key(a: usize, b: usize) -> u64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        ((lo as u64) << 32) | hi as u64
    }

    /// Whether a similarity earns a store entry: ≥ θ in total order, so a
    /// NaN-poisoned similarity stays representable (and keeps poisoning
    /// derived values) instead of vanishing silently.
    fn clears(&self, s: f64) -> bool {
        s.total_cmp(&self.theta).is_ge()
    }

    /// The merged cluster `left[0] ∪ left[1]`'s similarity to the cluster
    /// made of `parts` (Lance–Williams under single linkage): the maximum
    /// over the stored pairs between the two sides' parts, or `None` when
    /// none is stored — every part pair is then below θ, and so is their
    /// maximum.
    fn max_stored(&self, left: &[usize; 2], parts: &[usize]) -> Option<f64> {
        parts
            .iter()
            .flat_map(|&q| left.map(|p| self.store.get(&Self::key(p, q)).copied()))
            .flatten()
            .reduce(total_max)
    }

    /// Admits every mergeable member pair of one class pair with the class
    /// pair's shared representative similarity `s`, when it clears θ.
    /// `same` marks the diagonal (left == right), where member pairs are
    /// deduplicated by position.
    fn class_pair_seed(
        &mut self,
        s: f64,
        left: &[usize],
        right: &[usize],
        same: bool,
        clusters: &[Cluster],
        stats: &mut MatchStats,
    ) {
        stats.linkage_evals += 1;
        if !self.clears(s) {
            return;
        }
        for (pos, &a) in left.iter().enumerate() {
            let partners = if same { &right[pos + 1..] } else { right };
            for &b in partners {
                if clusters[a].can_merge(&clusters[b]) {
                    self.admit(a.min(b), a.max(b), s, 1, clusters, stats);
                }
            }
        }
    }

    /// Records a pair's similarity in the store (when it clears θ in total
    /// order) and enqueues the pair for `round` (when it is ≥ θ AND the
    /// pair can actually merge — the drain loop's merge decision relies on
    /// every heap pair being mergeable). The disjointness walk runs only
    /// for the rare ≥ θ candidates.
    fn admit(
        &mut self,
        lo: usize,
        hi: usize,
        s: f64,
        round: u32,
        clusters: &[Cluster],
        stats: &mut MatchStats,
    ) {
        if self.clears(s) {
            self.store.insert(Self::key(lo, hi), s);
            self.adj[lo].push(hi as u32);
            self.adj[hi].push(lo as u32);
        }
        if s >= self.theta && clusters[lo].can_merge(&clusters[hi]) {
            self.heap.push(PairEntry {
                sim: s,
                lo: lo as u32,
                hi: hi as u32,
                round,
            });
            stats.heap_pushes += 1;
        }
    }
}

/// Fills `out` with `(position in later, position in row)` for every class
/// id the two lists share, ascending. Both lists ascend by class id. The
/// shorter one is walked, and each of its ids is found in the longer one by
/// galloping on from the previous match, so the cost is
/// O(min(L, G) · log max(L, G)) at worst: a universe-wide neighbor row
/// against a Match call's handful of classes costs a handful of short
/// searches, and a full-universe call with thousands of classes walks the
/// row instead.
fn intersect_ascending(row: &[u32], later: &[u32], out: &mut Vec<(usize, usize)>) {
    out.clear();
    let Some(&first) = later.first() else {
        return;
    };
    let skipped = gallop(row, first);
    let row = &row[skipped..];
    let row_is_short = row.len() <= later.len();
    let (short, long) = if row_is_short {
        (row, later)
    } else {
        (later, row)
    };
    let mut from = 0;
    for (pos, &key) in short.iter().enumerate() {
        from += gallop(&long[from..], key);
        match long.get(from) {
            None => break,
            Some(&d) if d == key => {
                let (p, k) = if row_is_short {
                    (from, pos)
                } else {
                    (pos, from)
                };
                out.push((p, skipped + k));
                from += 1;
            }
            Some(_) => {}
        }
    }
}

/// The position of the first entry `>= key` in ascending `sorted`, found by
/// doubling a probe distance from the front and then binary-searching the
/// last bracket: O(log p) for an answer at position p.
fn gallop(sorted: &[u32], key: u32) -> usize {
    let mut bound = 1;
    while bound <= sorted.len() && sorted[bound - 1] < key {
        bound *= 2;
    }
    let lo = bound / 2;
    lo + sorted[lo..bound.min(sorted.len())].partition_point(|&d| d < key)
}

#[cfg(test)]
mod tests {
    use super::{gallop, intersect_ascending};

    #[test]
    fn intersection_is_ascending_from_either_side() {
        let later = [2u32, 3, 5, 8, 13, 21];
        let mut out = Vec::new();
        for row in [
            &[][..],
            &[3, 21][..],
            &[0, 1, 4, 22][..],
            &[1, 2, 3, 4, 5, 6, 7, 8, 13, 20, 21, 30][..],
        ] {
            for len in 0..=later.len() {
                let expected: Vec<(usize, usize)> = (0..len)
                    .filter_map(|p| row.iter().position(|&d| d == later[p]).map(|k| (p, k)))
                    .collect();
                intersect_ascending(row, &later[..len], &mut out);
                assert_eq!(out, expected, "row {row:?} against {:?}", &later[..len]);
            }
        }
    }

    #[test]
    fn gallop_finds_the_first_entry_not_below_the_key() {
        let sorted: Vec<u32> = (0..40).map(|i| 3 * i).collect();
        for key in 0..125 {
            let expected = sorted
                .iter()
                .position(|&d| d >= key)
                .unwrap_or(sorted.len());
            assert_eq!(gallop(&sorted, key), expected, "key {key}");
        }
        assert_eq!(gallop(&[], 7), 0);
    }
}
