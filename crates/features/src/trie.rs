//! A feature trie with per-graph posting lists.
//!
//! This single structure backs three systems from the paper:
//! GraphGrepSX's suffix-tree-of-paths dataset index, Grapes' per-graph path
//! tries (post-merge), and iGQ's `Isub`/`Isuper` query indexes (Algorithm 1
//! stores `{gi, o}` pairs per feature — exactly a posting list).
//!
//! Nodes are arena-allocated (`Vec<TrieNode>`); children are label→node
//! maps. Posting lists are kept sorted by graph id.
//!
//! Postings are **mutable**: ids may be inserted in any order (the query
//! indexes key postings by reusable cache *slots*, not by monotonically
//! growing dataset ids), and [`FeatureTrie::remove`] deletes a posting by
//! tombstoning it in place (`count = 0`). Tombstones keep removal O(log
//! |postings|) without shifting sibling entries; a node whose list becomes
//! mostly tombstones is compacted on the spot, and [`FeatureTrie::compact`]
//! sweeps the whole trie.
//!
//! Filters read the trie through two kernels, which own the tombstone
//! rule: [`FeatureTrie::containing`] (graphs holding every query feature
//! often enough — the GGSX/Grapes dataset filter and `Isub`) and
//! [`FeatureTrie::covered_by`] (members whose every feature the query
//! holds often enough — Algorithm 2, `Isuper`). Readers of the raw
//! [`FeatureTrie::get`] slices (snapshots, persistence, debugging) must
//! treat `count == 0` postings as absent themselves.

use crate::label_seq::LabelSeq;
use igq_graph::fxhash::FxHashMap;
use igq_graph::{GraphId, LabelId};

/// One `(graph, occurrence-count)` posting. `count == 0` is a tombstone:
/// the posting was removed and awaits compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    pub graph: GraphId,
    pub count: u32,
}

#[derive(Debug, Default, Clone)]
struct TrieNode {
    children: FxHashMap<LabelId, u32>,
    postings: Vec<Posting>,
    /// Live (non-tombstone) postings in `postings`.
    live: u32,
}

impl TrieNode {
    /// Drops tombstones, preserving order of the live postings.
    fn compact(&mut self) -> u64 {
        let before = self.postings.len();
        self.postings.retain(|p| p.count > 0);
        debug_assert_eq!(self.postings.len(), self.live as usize);
        (before - self.postings.len()) as u64
    }
}

/// Trie over canonical label sequences with per-graph counts.
#[derive(Debug, Clone)]
pub struct FeatureTrie {
    nodes: Vec<TrieNode>,
    features: u64,
    postings: u64,
    tombstones: u64,
}

impl Default for FeatureTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureTrie {
    /// An empty trie (single root node).
    pub fn new() -> FeatureTrie {
        FeatureTrie {
            nodes: vec![TrieNode::default()],
            features: 0,
            postings: 0,
            tombstones: 0,
        }
    }

    fn walk_or_create(&mut self, labels: &[LabelId]) -> u32 {
        let mut node = 0u32;
        for &label in labels {
            let next_free = self.nodes.len() as u32;
            let entry = self.nodes[node as usize]
                .children
                .entry(label)
                .or_insert(next_free);
            let child = *entry;
            if child == next_free {
                self.nodes.push(TrieNode::default());
            }
            node = child;
        }
        node
    }

    fn walk(&self, seq: &LabelSeq) -> Option<u32> {
        let mut node = 0u32;
        for &label in seq.labels() {
            node = *self.nodes[node as usize].children.get(&label)?;
        }
        Some(node)
    }

    /// Records that `graph` contains `count` occurrences of `seq`.
    ///
    /// Ids may arrive in any order (appends stay O(1); out-of-order inserts
    /// pay a binary search plus shift). Repeated inserts for the same graph
    /// accumulate; inserting over a tombstone revives it in place.
    pub fn insert(&mut self, seq: &LabelSeq, graph: GraphId, count: u32) {
        self.insert_labels(seq.labels(), graph, count);
    }

    /// [`FeatureTrie::insert`] of the sequence whose canonical labels
    /// ([`LabelSeq::labels`]) are `labels`, so that a build can carry its
    /// features as one flat label array instead of a boxed key each.
    pub fn insert_labels(&mut self, labels: &[LabelId], graph: GraphId, count: u32) {
        debug_assert!(count > 0, "a zero-count insert would create a tombstone");
        let node = self.walk_or_create(labels);
        let n = &mut self.nodes[node as usize];
        let was_dead = n.live == 0;
        match n.postings.last_mut() {
            Some(last) if last.graph == graph => {
                if last.count == 0 {
                    n.live += 1;
                    self.postings += 1;
                    self.tombstones -= 1;
                }
                last.count += count;
            }
            Some(last) if last.graph < graph => {
                n.postings.push(Posting { graph, count });
                n.live += 1;
                self.postings += 1;
            }
            None => {
                n.postings.push(Posting { graph, count });
                n.live += 1;
                self.postings += 1;
            }
            Some(_) => match n.postings.binary_search_by_key(&graph, |p| p.graph) {
                Ok(i) => {
                    let p = &mut n.postings[i];
                    if p.count == 0 {
                        n.live += 1;
                        self.postings += 1;
                        self.tombstones -= 1;
                    }
                    p.count += count;
                }
                Err(i) => {
                    n.postings.insert(i, Posting { graph, count });
                    n.live += 1;
                    self.postings += 1;
                }
            },
        }
        if was_dead && n.live > 0 {
            self.features += 1;
        }
    }

    /// Removes the posting of `graph` under `seq`, returning `true` when a
    /// live posting existed. The entry is tombstoned in place; a node whose
    /// list becomes mostly tombstones is compacted immediately.
    pub fn remove(&mut self, seq: &LabelSeq, graph: GraphId) -> bool {
        let Some(node) = self.walk(seq) else {
            return false;
        };
        let n = &mut self.nodes[node as usize];
        let Ok(i) = n.postings.binary_search_by_key(&graph, |p| p.graph) else {
            return false;
        };
        if n.postings[i].count == 0 {
            return false;
        }
        n.postings[i].count = 0;
        n.live -= 1;
        self.postings -= 1;
        self.tombstones += 1;
        if n.live == 0 {
            self.features -= 1;
        }
        // Local compaction: once at least 8 entries and over half dead.
        if n.postings.len() >= 8 && (n.live as usize) * 2 < n.postings.len() {
            self.tombstones -= n.compact();
        }
        true
    }

    /// Sweeps every node's tombstones (e.g. before a long read-only phase).
    pub fn compact(&mut self) {
        for node in &mut self.nodes {
            self.tombstones -= node.compact();
        }
        debug_assert_eq!(self.tombstones, 0);
    }

    /// Number of tombstoned postings awaiting compaction.
    pub fn tombstone_count(&self) -> u64 {
        self.tombstones
    }

    /// The posting list of `seq` (empty slice when the feature is absent).
    /// May contain tombstones (`count == 0`); readers that treat postings
    /// as membership must skip them.
    pub fn get(&self, seq: &LabelSeq) -> &[Posting] {
        match self.walk(seq) {
            Some(node) => &self.nodes[node as usize].postings,
            None => &[],
        }
    }

    /// Graphs that hold every feature of `features` at least as often as
    /// its paired count, ascending. Only graphs passing `eligible` are
    /// returned (callers exclude budget-truncated members, whose missing
    /// postings prove nothing). An empty feature set yields no graphs: the
    /// trie does not know the universe.
    ///
    /// The accumulator is seeded from the shortest posting list and every
    /// further list is galloped through once, so the cost is bounded by the
    /// shortest list times the log of the others, not by the index. Counts
    /// must be positive: a tombstone then fails `count >= required` like
    /// any other too-rare posting.
    pub fn containing<'a>(
        &self,
        features: impl IntoIterator<Item = (&'a LabelSeq, u32)>,
        eligible: impl Fn(GraphId) -> bool,
    ) -> Vec<GraphId> {
        let mut lists: Vec<(&[Posting], u32)> = features
            .into_iter()
            .map(|(seq, required)| (self.get(seq), required))
            .collect();
        debug_assert!(lists.iter().all(|&(_, required)| required > 0));
        lists.sort_unstable_by_key(|(postings, _)| postings.len());
        let Some((&(seed, required), rest)) = lists.split_first() else {
            return Vec::new();
        };
        let mut acc: Vec<GraphId> = seed
            .iter()
            .filter(|p| p.count >= required && eligible(p.graph))
            .map(|p| p.graph)
            .collect();
        for &(postings, required) in rest {
            if acc.is_empty() {
                break;
            }
            let mut cursor = 0;
            acc.retain(|&id| {
                cursor = gallop(postings, cursor, id);
                postings
                    .get(cursor)
                    .is_some_and(|p| p.graph == id && p.count >= required)
            });
        }
        acc
    }

    /// Algorithm 2: members `m < members` whose every feature the query
    /// holds at least as often, ascending. `required(m)` is the number of
    /// distinct features member `m` must see covered (`None` for an
    /// unoccupied id); a member qualifies when exactly that many query
    /// features `(seq, qcount)` meet a live posting of it with
    /// `count <= qcount`. Tombstones (`count == 0`) cover nothing.
    pub fn covered_by<'a>(
        &self,
        features: impl IntoIterator<Item = (&'a LabelSeq, u32)>,
        members: usize,
        required: impl Fn(usize) -> Option<u32>,
    ) -> Vec<usize> {
        let mut covered = vec![0u32; members];
        for (seq, qcount) in features {
            for p in self.get(seq) {
                if p.count > 0 && p.count <= qcount {
                    covered[p.graph.index()] += 1;
                }
            }
        }
        // `required == 0` is a featureless member (the empty graph): a
        // vacuous candidate.
        (0..members)
            .filter(|&m| required(m).is_some_and(|r| r == 0 || covered[m] == r))
            .collect()
    }

    /// True when the feature occurs in at least one graph.
    pub fn contains(&self, seq: &LabelSeq) -> bool {
        self.walk(seq)
            .is_some_and(|node| self.nodes[node as usize].live > 0)
    }

    /// The occurrence count of `seq` in `graph` (0 when absent).
    pub fn count_in(&self, seq: &LabelSeq, graph: GraphId) -> u32 {
        let postings = self.get(seq);
        postings
            .binary_search_by_key(&graph, |p| p.graph)
            .map(|i| postings[i].count)
            .unwrap_or(0)
    }

    /// Number of distinct features stored.
    pub fn feature_count(&self) -> u64 {
        self.features
    }

    /// Number of live postings (graph × feature pairs) stored.
    pub fn posting_count(&self) -> u64 {
        self.postings
    }

    /// Number of trie nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate heap footprint for index-size accounting (Fig. 18).
    ///
    /// Counts *allocated* capacity, not just occupied length, and includes
    /// the hash maps' load-factor slack: a SwissTable-style map allocates
    /// `ceil(cap · 8/7)` buckets of one `(key, value)` pair plus one
    /// control byte each. Sizing by `len()` (as this method originally did)
    /// undercounted the trie by the growth slack of every `Vec` and map.
    pub fn heap_size_bytes(&self) -> u64 {
        let mut bytes = (self.nodes.capacity() * std::mem::size_of::<TrieNode>()) as u64;
        let child_entry = (std::mem::size_of::<LabelId>() + std::mem::size_of::<u32>() + 1) as u64;
        for n in &self.nodes {
            let buckets = (n.children.capacity() as u64) * 8 / 7;
            bytes += buckets * child_entry;
            bytes += (n.postings.capacity() * std::mem::size_of::<Posting>()) as u64;
        }
        bytes
    }

    /// Visits every `(feature, postings)` pair. Sequences are rebuilt during
    /// the walk, so this is for maintenance/debug paths, not hot loops.
    pub fn for_each_feature<F: FnMut(&LabelSeq, &[Posting])>(&self, mut f: F) {
        let mut stack: Vec<LabelId> = Vec::new();
        self.visit(0, &mut stack, &mut f);
    }

    fn visit<F: FnMut(&LabelSeq, &[Posting])>(
        &self,
        node: u32,
        stack: &mut Vec<LabelId>,
        f: &mut F,
    ) {
        let n = &self.nodes[node as usize];
        if n.live > 0 {
            // Stored sequences are canonical already; rebuilding from the
            // root preserves them. The slice may include tombstones.
            let seq = LabelSeq::canonical(stack);
            f(&seq, &n.postings);
        }
        for (&label, &child) in &n.children {
            stack.push(label);
            self.visit(child, stack, f);
            stack.pop();
        }
    }
}

/// First index `i >= from` with `postings[i].graph >= id` (`postings.len()`
/// when there is none): doubling probes from `from`, then a binary search
/// inside the last stride.
fn gallop(postings: &[Posting], from: usize, id: GraphId) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < postings.len() && postings[hi].graph < id {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(postings.len());
    lo + postings[lo..hi].partition_point(|p| p.graph < id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(raws: &[u32]) -> LabelSeq {
        let ls: Vec<LabelId> = raws.iter().map(|&r| LabelId::new(r)).collect();
        LabelSeq::canonical(&ls)
    }

    fn g(i: u32) -> GraphId {
        GraphId::new(i)
    }

    #[test]
    fn insert_and_get() {
        let mut t = FeatureTrie::new();
        t.insert(&seq(&[1, 2]), g(0), 3);
        t.insert(&seq(&[1, 2]), g(2), 1);
        assert_eq!(
            t.get(&seq(&[1, 2])),
            &[
                Posting {
                    graph: g(0),
                    count: 3
                },
                Posting {
                    graph: g(2),
                    count: 1
                }
            ]
        );
        assert_eq!(t.count_in(&seq(&[1, 2]), g(0)), 3);
        assert_eq!(t.count_in(&seq(&[1, 2]), g(1)), 0);
        assert!(t.get(&seq(&[9])).is_empty());
    }

    #[test]
    fn repeated_inserts_accumulate() {
        let mut t = FeatureTrie::new();
        t.insert(&seq(&[4]), g(1), 2);
        t.insert(&seq(&[4]), g(1), 5);
        assert_eq!(t.count_in(&seq(&[4]), g(1)), 7);
        assert_eq!(t.posting_count(), 1);
    }

    #[test]
    fn shares_prefixes() {
        let mut t = FeatureTrie::new();
        t.insert(&seq(&[1, 2, 3]), g(0), 1);
        t.insert(&seq(&[1, 2, 4]), g(0), 1);
        // root + 1 + 2 + {3,4} = 5 nodes
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.feature_count(), 2);
    }

    #[test]
    fn canonical_sequences_collide_correctly() {
        let mut t = FeatureTrie::new();
        // [3,2,1] canonicalizes to [1,2,3]; both writes hit one feature.
        t.insert(&seq(&[1, 2, 3]), g(0), 1);
        t.insert(&seq(&[3, 2, 1]), g(0), 1);
        assert_eq!(t.count_in(&seq(&[1, 2, 3]), g(0)), 2);
        assert_eq!(t.feature_count(), 1);
    }

    #[test]
    fn for_each_feature_visits_everything() {
        let mut t = FeatureTrie::new();
        t.insert(&seq(&[1]), g(0), 1);
        t.insert(&seq(&[1, 2]), g(1), 2);
        t.insert(&seq(&[5]), g(2), 1);
        let mut seen = Vec::new();
        t.for_each_feature(|s, p| seen.push((s.clone(), p.len())));
        seen.sort_by_key(|(s, _)| s.clone());
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|(_, l)| *l == 1));
    }

    #[test]
    fn heap_size_grows_with_content() {
        let mut t = FeatureTrie::new();
        let empty = t.heap_size_bytes();
        for i in 0..50 {
            t.insert(&seq(&[i, i + 1, i + 2]), g(0), 1);
        }
        assert!(t.heap_size_bytes() > empty);
    }

    #[test]
    fn empty_trie() {
        let t = FeatureTrie::new();
        assert_eq!(t.feature_count(), 0);
        assert_eq!(t.posting_count(), 0);
        assert!(!t.contains(&seq(&[1])));
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let mut t = FeatureTrie::new();
        for id in [5u32, 1, 3, 0, 4, 2] {
            t.insert(&seq(&[7, 8]), g(id), id + 1);
        }
        let graphs: Vec<u32> = t.get(&seq(&[7, 8])).iter().map(|p| p.graph.raw()).collect();
        assert_eq!(graphs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(t.count_in(&seq(&[7, 8]), g(3)), 4);
        assert_eq!(t.posting_count(), 6);
    }

    #[test]
    fn remove_tombstones_and_counters() {
        let mut t = FeatureTrie::new();
        t.insert(&seq(&[1]), g(0), 2);
        t.insert(&seq(&[1]), g(1), 3);
        t.insert(&seq(&[2]), g(0), 1);
        assert!(t.remove(&seq(&[1]), g(0)));
        assert!(!t.remove(&seq(&[1]), g(0)), "double remove is a no-op");
        assert!(!t.remove(&seq(&[9]), g(0)), "absent feature");
        assert_eq!(t.posting_count(), 2);
        assert_eq!(t.feature_count(), 2);
        assert_eq!(t.tombstone_count(), 1);
        assert_eq!(t.count_in(&seq(&[1]), g(0)), 0, "tombstone reads as absent");
        assert_eq!(t.count_in(&seq(&[1]), g(1)), 3);
        // Removing the last live posting of a feature drops the feature.
        assert!(t.remove(&seq(&[2]), g(0)));
        assert_eq!(t.feature_count(), 1);
        assert!(!t.contains(&seq(&[2])));
    }

    #[test]
    fn insert_revives_tombstone_in_place() {
        let mut t = FeatureTrie::new();
        t.insert(&seq(&[4, 4]), g(2), 5);
        t.insert(&seq(&[4, 4]), g(7), 1);
        t.remove(&seq(&[4, 4]), g(2));
        t.insert(&seq(&[4, 4]), g(2), 9);
        assert_eq!(t.count_in(&seq(&[4, 4]), g(2)), 9);
        assert_eq!(t.tombstone_count(), 0);
        assert_eq!(t.posting_count(), 2);
        assert_eq!(
            t.get(&seq(&[4, 4])).len(),
            2,
            "revived in place, no duplicate"
        );
    }

    #[test]
    fn heavy_removal_triggers_local_compaction() {
        let mut t = FeatureTrie::new();
        for id in 0..16u32 {
            t.insert(&seq(&[3]), g(id), 1);
        }
        for id in 0..9u32 {
            t.remove(&seq(&[3]), g(id));
        }
        assert_eq!(t.posting_count(), 7);
        assert_eq!(t.tombstone_count(), 0, "node compacted once mostly dead");
        assert_eq!(t.get(&seq(&[3])).len(), 7);
    }

    #[test]
    fn explicit_compact_sweeps_all_tombstones() {
        let mut t = FeatureTrie::new();
        for id in 0..4u32 {
            t.insert(&seq(&[6, 6, 6]), g(id), 1);
        }
        t.remove(&seq(&[6, 6, 6]), g(1));
        assert_eq!(t.tombstone_count(), 1);
        t.compact();
        assert_eq!(t.tombstone_count(), 0);
        let graphs: Vec<u32> = t
            .get(&seq(&[6, 6, 6]))
            .iter()
            .map(|p| p.graph.raw())
            .collect();
        assert_eq!(graphs, vec![0, 2, 3]);
    }

    #[test]
    fn containing_intersects_with_count_thresholds() {
        let mut t = FeatureTrie::new();
        for id in 0..40u32 {
            t.insert(&seq(&[1]), g(id), 1 + id % 3);
        }
        for id in (0..40u32).step_by(4) {
            t.insert(&seq(&[1, 2]), g(id), 2);
        }
        t.remove(&seq(&[1]), g(8));
        let (a, b) = (seq(&[1]), seq(&[1, 2]));
        let got = t.containing([(&a, 2), (&b, 1)], |id| id != g(20));
        // Multiples of 4 with 1 + id % 3 >= 2, minus the tombstoned 8 and
        // the ineligible 20.
        let want: Vec<GraphId> = [4u32, 16, 28, 32].iter().map(|&i| g(i)).collect();
        assert_eq!(got, want);
        assert!(t
            .containing([(&a, 1), (&seq(&[9]), 1)], |_| true)
            .is_empty());
        assert!(t.containing([], |_| true).is_empty());
    }

    #[test]
    fn covered_by_ignores_removed_members() {
        let mut t = FeatureTrie::new();
        t.insert(&seq(&[3]), g(0), 1);
        t.insert(&seq(&[3]), g(1), 1);
        t.insert(&seq(&[3, 4]), g(1), 2);
        let (a, b) = (seq(&[3]), seq(&[3, 4]));
        let nf = [Some(1), Some(2)];
        assert_eq!(t.covered_by([(&a, 1), (&b, 2)], 2, |m| nf[m]), vec![0, 1]);
        assert_eq!(t.covered_by([(&a, 1), (&b, 1)], 2, |m| nf[m]), vec![0]);
        // A tombstone (`count == 0 <= qcount`) must not count as covered.
        assert!(t.remove(&seq(&[3]), g(0)));
        assert_eq!(t.covered_by([(&a, 1), (&b, 2)], 2, |m| nf[m]), vec![1]);
    }

    #[test]
    fn heap_size_counts_capacity_not_len() {
        let mut t = FeatureTrie::new();
        for i in 0..50 {
            t.insert(&seq(&[i, i + 1, i + 2]), g(0), 1);
        }
        let mut cap_bytes = 0u64;
        for i in 0..50 {
            cap_bytes += t.get(&seq(&[i, i + 1, i + 2])).len() as u64;
        }
        assert!(cap_bytes > 0);
        // The capacity-aware estimate must be at least the len-based one.
        let len_based: u64 = (t.node_count() * std::mem::size_of::<TrieNode>()) as u64;
        assert!(t.heap_size_bytes() >= len_based);
    }
}
