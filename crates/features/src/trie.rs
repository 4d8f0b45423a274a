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
//! A posting list has one of two forms. A **sparse** list is the sorted
//! `Vec<Posting>` above. [`FeatureTrie::densify`] gives every list that
//! covers at least 1/8 of a universe of graph ids `0..universe` the
//! **dense** form: a row of one count byte per graph id, kept with every
//! other row in one flat `rows × universe` byte arena. At 1/8 density one
//! byte per graph costs what an 8-byte posting per member does, so the
//! index never grows. A row byte below 255 is the exact count (0:
//! absent); the node's postings then hold only what the row cannot, the
//! counts of 255 or more (byte 255) and ids at or past `universe`, and
//! never a tombstone. The dataset indexes (GGSX, Grapes) are densified
//! once built; the query indexes, which change on every flip, stay
//! sparse. A filter reads a dense list by graph id, or, when it seeds
//! from one, narrows a byte mask a whole row at a time.
//!
//! Filters read the trie through two kernels, which own the tombstone
//! rule and both forms: [`FeatureTrie::containing`] (graphs holding every
//! query feature often enough — the GGSX/Grapes dataset filter and
//! `Isub`) and [`FeatureTrie::covered_by`] (members whose every feature
//! the query holds often enough — Algorithm 2, `Isuper`). Readers of the
//! raw [`FeatureTrie::get`] lists (snapshots, persistence, debugging) must
//! treat `count == 0` postings as absent themselves.

use crate::label_seq::LabelSeq;
use igq_graph::fxhash::FxHashMap;
use igq_graph::{GraphId, LabelId};
use std::borrow::Cow;

/// One `(graph, occurrence-count)` posting. `count == 0` is a tombstone:
/// the posting was removed and awaits compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    pub graph: GraphId,
    pub count: u32,
}

/// `TrieNode::row` of a node whose postings are all in `postings`.
const SPARSE: u32 = u32::MAX;

/// A row byte at this value defers to the node's overflow postings.
const SATURATED: u8 = u8::MAX;

/// [`FeatureTrie::densify`] converts a list holding at least one graph in
/// `DENSITY` of the universe: a byte per graph then costs no more than
/// the 8-byte postings it replaces.
const DENSITY: u64 = 8;

#[derive(Debug, Clone)]
struct TrieNode {
    children: FxHashMap<LabelId, u32>,
    /// The sparse list; on a dense node only the overflow (counts of 255
    /// or more, ids at or past the universe), without tombstones.
    postings: Vec<Posting>,
    /// Live postings of the node, in both forms.
    live: u32,
    /// Index of the node's row in `FeatureTrie::rows`, or [`SPARSE`].
    /// Sits in the padding after `live`, so a node stays 64 bytes.
    row: u32,
}

impl Default for TrieNode {
    fn default() -> Self {
        TrieNode {
            children: FxHashMap::default(),
            postings: Vec::new(),
            live: 0,
            row: SPARSE,
        }
    }
}

impl TrieNode {
    /// Drops tombstones, preserving order of the live postings.
    fn compact(&mut self) -> u64 {
        let before = self.postings.len();
        self.postings.retain(|p| p.count > 0);
        debug_assert!(self.row != SPARSE || self.postings.len() == self.live as usize);
        (before - self.postings.len()) as u64
    }
}

/// What [`insert_sparse`] did to a sorted list.
enum Added {
    /// A new posting.
    Live,
    /// A live posting's count grew.
    Grown,
    /// A tombstone revived in place.
    Revived,
}

/// Adds `count` occurrences of `graph` to a sorted posting list: appends
/// stay O(1), out-of-order inserts pay a binary search plus a shift.
fn insert_sparse(postings: &mut Vec<Posting>, graph: GraphId, count: u32) -> Added {
    let i = match postings.last() {
        Some(last) if last.graph < graph => postings.len(),
        None => 0,
        Some(_) => match postings.binary_search_by_key(&graph, |p| p.graph) {
            Ok(i) => {
                let p = &mut postings[i];
                let revived = p.count == 0;
                p.count += count;
                return if revived {
                    Added::Revived
                } else {
                    Added::Grown
                };
            }
            Err(i) => i,
        },
    };
    postings.insert(i, Posting { graph, count });
    Added::Live
}

/// The count of `graph` in a sorted posting list (0 when absent).
fn sparse_count(postings: &[Posting], graph: GraphId) -> u32 {
    postings
        .binary_search_by_key(&graph, |p| p.graph)
        .map_or(0, |i| postings[i].count)
}

/// Trie over canonical label sequences with per-graph counts.
#[derive(Debug, Clone)]
pub struct FeatureTrie {
    nodes: Vec<TrieNode>,
    /// The dense rows, `universe` bytes each (see [`FeatureTrie::densify`]).
    rows: Vec<u8>,
    /// Graph ids a dense row covers: `0..universe` (0 before `densify`).
    universe: usize,
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
            rows: Vec::new(),
            universe: 0,
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

    /// The dense row of `n` (`None` for a sparse node).
    fn row(&self, n: &TrieNode) -> Option<&[u8]> {
        (n.row != SPARSE).then(|| {
            let start = n.row as usize * self.universe;
            &self.rows[start..start + self.universe]
        })
    }

    /// Offset of `graph`'s byte in `rows` when `n` is dense and `graph`
    /// inside its universe.
    fn row_offset(&self, n: &TrieNode, graph: GraphId) -> Option<usize> {
        (n.row != SPARSE && graph.index() < self.universe)
            .then(|| n.row as usize * self.universe + graph.index())
    }

    /// The exact count of `graph` in node `n`'s list, in either form.
    fn count_at(&self, n: &TrieNode, graph: GraphId) -> u32 {
        match self.row_offset(n, graph).map(|at| self.rows[at]) {
            Some(byte) if byte < SATURATED => u32::from(byte),
            _ => sparse_count(&n.postings, graph),
        }
    }

    /// Node `n`'s live and tombstoned postings, ascending: borrowed from a
    /// sparse node, merged from a dense node's row and overflow.
    fn postings_of<'t>(&'t self, n: &'t TrieNode) -> Cow<'t, [Posting]> {
        let Some(row) = self.row(n) else {
            return Cow::Borrowed(&n.postings);
        };
        let mut out = Vec::with_capacity(n.live as usize);
        let mut overflow = n.postings.iter();
        for (i, &byte) in row.iter().enumerate() {
            match byte {
                0 => {}
                SATURATED => {
                    let p = overflow.next().expect("a saturated byte has its posting");
                    debug_assert_eq!(p.graph.index(), i);
                    out.push(*p);
                }
                count => out.push(Posting {
                    graph: GraphId::from_index(i),
                    count: u32::from(count),
                }),
            }
        }
        out.extend(overflow);
        Cow::Owned(out)
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
        let at = self.row_offset(&self.nodes[node as usize], graph);
        let n = &mut self.nodes[node as usize];
        let was_dead = n.live == 0;
        let added = match at {
            Some(at) => match self.rows[at] {
                SATURATED => insert_sparse(&mut n.postings, graph, count),
                byte => {
                    let total = u32::from(byte) + count;
                    if total < u32::from(SATURATED) {
                        self.rows[at] = total as u8;
                    } else {
                        self.rows[at] = SATURATED;
                        insert_sparse(&mut n.postings, graph, total);
                    }
                    if byte == 0 {
                        Added::Live
                    } else {
                        Added::Grown
                    }
                }
            },
            None => insert_sparse(&mut n.postings, graph, count),
        };
        match added {
            Added::Grown => {}
            Added::Live => {
                n.live += 1;
                self.postings += 1;
            }
            Added::Revived => {
                n.live += 1;
                self.postings += 1;
                self.tombstones -= 1;
            }
        }
        if was_dead && n.live > 0 {
            self.features += 1;
        }
    }

    /// Removes the posting of `graph` under `seq`, returning `true` when a
    /// live posting existed. A sparse entry is tombstoned in place, and a
    /// node whose list becomes mostly tombstones is compacted immediately;
    /// a dense node clears the byte and deletes any overflow posting.
    pub fn remove(&mut self, seq: &LabelSeq, graph: GraphId) -> bool {
        let Some(node) = self.walk(seq) else {
            return false;
        };
        let at = self.row_offset(&self.nodes[node as usize], graph);
        let n = &mut self.nodes[node as usize];
        let find = |postings: &[Posting]| postings.binary_search_by_key(&graph, |p| p.graph);
        match at.map(|at| (at, self.rows[at])) {
            Some((_, 0)) => return false,
            Some((at, byte)) => {
                self.rows[at] = 0;
                if byte == SATURATED {
                    let i = find(&n.postings).expect("a saturated byte has its posting");
                    n.postings.remove(i);
                }
            }
            None => {
                let Ok(i) = find(&n.postings) else {
                    return false;
                };
                if n.postings[i].count == 0 {
                    return false;
                }
                if n.row != SPARSE {
                    n.postings.remove(i);
                } else {
                    n.postings[i].count = 0;
                    self.tombstones += 1;
                }
            }
        }
        n.live -= 1;
        self.postings -= 1;
        if n.live == 0 {
            self.features -= 1;
        }
        // Local compaction: once at least 8 entries and over half dead.
        if n.row == SPARSE && n.postings.len() >= 8 && (n.live as usize) * 2 < n.postings.len() {
            self.tombstones -= n.compact();
        }
        true
    }

    /// Gives every posting list whose live postings cover at least 1/8 of
    /// the graph ids `0..universe` its dense row (see the module docs), for
    /// an index over those ids that is read far more than it changes.
    /// Lists keep their contents, and every reader and writer stays exact
    /// on both forms. A trie is densified against one universe; a second
    /// call converts the lists that have grown dense since.
    pub fn densify(&mut self, universe: usize) {
        assert!(
            self.universe == 0 || self.universe == universe,
            "a trie densified over {} graph ids cannot take rows of {universe}",
            self.universe
        );
        let dense =
            |n: &TrieNode| n.row == SPARSE && u64::from(n.live) * DENSITY >= universe as u64;
        let fresh = self.nodes.iter().filter(|n| dense(n)).count();
        if universe == 0 || fresh == 0 {
            return;
        }
        self.universe = universe;
        let first = self.rows.len() / universe;
        if self.rows.is_empty() {
            // Zeroed pages are mapped as rows fill, while the lists they
            // replace are freed.
            self.rows = vec![0; fresh * universe];
        } else {
            self.rows.resize((first + fresh) * universe, 0);
        }
        let rows = (first..).zip(self.rows.chunks_exact_mut(universe).skip(first));
        for ((index, row), n) in rows.zip(self.nodes.iter_mut().filter(|n| dense(n))) {
            self.tombstones -= (n.postings.len() - n.live as usize) as u64;
            n.postings.retain(|p| match row.get_mut(p.graph.index()) {
                _ if p.count == 0 => false,
                Some(byte) if p.count < u32::from(SATURATED) => {
                    *byte = p.count as u8;
                    false
                }
                Some(byte) => {
                    *byte = SATURATED;
                    true
                }
                None => true,
            });
            n.postings.shrink_to_fit();
            n.row = index as u32;
        }
    }

    /// Number of dense rows (posting lists in the dense form).
    pub fn dense_count(&self) -> usize {
        self.rows.len().checked_div(self.universe).unwrap_or(0)
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

    /// The posting list of `seq`, ascending (empty when the feature is
    /// absent): borrowed from a sparse list, rebuilt from a dense one. May
    /// contain tombstones (`count == 0`); readers that treat postings as
    /// membership must skip them.
    pub fn get(&self, seq: &LabelSeq) -> Cow<'_, [Posting]> {
        match self.walk(seq) {
            Some(node) => self.postings_of(&self.nodes[node as usize]),
            None => Cow::Borrowed(&[]),
        }
    }

    /// Graphs that hold every feature of `features` at least as often as
    /// its paired count, ascending. Only graphs passing `eligible` are
    /// returned (callers exclude budget-truncated members, whose missing
    /// postings prove nothing). An empty feature set yields no graphs: the
    /// trie does not know the universe.
    ///
    /// The accumulator is seeded from the list with the fewest live
    /// postings. A sparse seed's qualifying postings are narrowed by every
    /// further list once: a sparse list is galloped through, a dense row
    /// read at each graph id. A dense seed (so every list in a static
    /// index is dense too) narrows a byte mask by all the dense rows at
    /// once instead, and the sparse lists then narrow what survives. The
    /// cost is bounded by the shortest list times the log of the others,
    /// or by the rows' bytes, not by the index. Counts must be positive:
    /// a tombstone then fails `count >= required` like any other too-rare
    /// posting.
    pub fn containing<'a>(
        &self,
        features: impl IntoIterator<Item = (&'a LabelSeq, u32)>,
        eligible: impl Fn(GraphId) -> bool,
    ) -> Vec<GraphId> {
        let mut lists: Vec<(&TrieNode, u32)> = Vec::new();
        for (seq, required) in features {
            debug_assert!(required > 0);
            let Some(node) = self.walk(seq) else {
                return Vec::new();
            };
            lists.push((&self.nodes[node as usize], required));
        }
        lists.sort_unstable_by_key(|(n, _)| n.live);
        let Some((&(seed, required), rest)) = lists.split_first() else {
            return Vec::new();
        };
        let seeded_by_row = seed.row != SPARSE;
        let mut acc: Vec<GraphId> = if seeded_by_row {
            self.narrow_by_rows(&lists, &eligible)
        } else {
            seed.postings
                .iter()
                .filter(|p| p.count >= required && eligible(p.graph))
                .map(|p| p.graph)
                .collect()
        };
        for &(n, required) in rest {
            if acc.is_empty() {
                break;
            }
            match self.row(n) {
                None => {
                    let postings = &n.postings[..];
                    let mut cursor = 0;
                    acc.retain(|&id| {
                        cursor = gallop(postings, cursor, id);
                        postings
                            .get(cursor)
                            .is_some_and(|p| p.graph == id && p.count >= required)
                    });
                }
                Some(_) if seeded_by_row => {}
                Some(row) => acc.retain(|&id| match row.get(id.index()) {
                    Some(&byte) if byte < SATURATED => u32::from(byte) >= required,
                    Some(_) if required <= u32::from(SATURATED) => true,
                    _ => sparse_count(&n.postings, id) >= required,
                }),
            }
        }
        acc
    }

    /// [`FeatureTrie::containing`] seeded by a row (`lists[0]`): a byte
    /// mask over the universe, narrowed by every dense list of `lists` one
    /// row at a time, then read out for the `eligible` graphs, followed by
    /// the qualifying ids past the universe. A row pass compiles to
    /// vector compares over the whole row, while a seed of thousands of
    /// graphs read one id at a time against each row cost several times
    /// as much.
    fn narrow_by_rows(
        &self,
        lists: &[(&TrieNode, u32)],
        eligible: &impl Fn(GraphId) -> bool,
    ) -> Vec<GraphId> {
        let mut mask = vec![1u8; self.universe];
        let (seed, required) = lists[0];
        let mut past: Vec<GraphId> = (seed.postings.iter())
            .filter(|p| p.graph.index() >= self.universe && p.count >= required)
            .map(|p| p.graph)
            .collect();
        for &(n, required) in lists {
            let Some(row) = self.row(n) else {
                continue;
            };
            let floor = required.min(u32::from(SATURATED)) as u8;
            for (m, &byte) in mask.iter_mut().zip(row) {
                *m &= u8::from(byte >= floor);
            }
            if required > u32::from(SATURATED) {
                let saturated = n
                    .postings
                    .iter()
                    .take_while(|p| p.graph.index() < self.universe);
                for p in saturated.filter(|p| p.count < required) {
                    mask[p.graph.index()] = 0;
                }
            }
            past.retain(|&id| sparse_count(&n.postings, id) >= required);
        }
        let mut acc = Vec::new();
        for (word, bytes) in mask.chunks(8).enumerate() {
            // Mask bytes are 0 or 1: one bit per surviving graph.
            let mut bits = (bytes.iter().rev()).fold(0u64, |bits, &m| bits << 8 | u64::from(m));
            while bits != 0 {
                let id = GraphId::from_index(word * 8 + bits.trailing_zeros() as usize / 8);
                bits &= bits - 1;
                if eligible(id) {
                    acc.push(id);
                }
            }
        }
        acc.extend(past.into_iter().filter(|&id| eligible(id)));
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
            for p in self.get(seq).iter() {
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
        self.walk(seq)
            .map_or(0, |node| self.count_at(&self.nodes[node as usize], graph))
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
    /// The dense rows count one byte per graph id each.
    pub fn heap_size_bytes(&self) -> u64 {
        let mut bytes = (self.nodes.capacity() * std::mem::size_of::<TrieNode>()) as u64;
        bytes += self.rows.capacity() as u64;
        let child_entry = (std::mem::size_of::<LabelId>() + std::mem::size_of::<u32>() + 1) as u64;
        for n in &self.nodes {
            let buckets = (n.children.capacity() as u64) * 8 / 7;
            bytes += buckets * child_entry;
            bytes += (n.postings.capacity() * std::mem::size_of::<Posting>()) as u64;
        }
        bytes
    }

    /// Visits every `(feature, postings)` pair. Sequences are rebuilt during
    /// the walk, and a dense list is rebuilt as postings, so this is for
    /// maintenance/debug paths, not hot loops.
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
            f(&seq, &self.postings_of(n));
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
            &*t.get(&seq(&[1, 2])),
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

    #[test]
    fn a_node_is_64_bytes() {
        // The row index sits in the padding after `live`; a boxed row per
        // node would add 16 bytes to every node of the index.
        assert_eq!(std::mem::size_of::<TrieNode>(), 64);
    }

    fn postings(t: &FeatureTrie, s: &LabelSeq) -> Vec<(u32, u32)> {
        t.get(s).iter().map(|p| (p.graph.raw(), p.count)).collect()
    }

    #[test]
    fn densify_converts_lists_covering_an_eighth() {
        let mut t = FeatureTrie::new();
        // Universe 16: 2 live postings are an eighth, 1 is not.
        let (one, two, three) = (seq(&[1]), seq(&[2]), seq(&[3]));
        t.insert(&one, g(5), 1);
        t.insert(&two, g(0), 2);
        t.insert(&two, g(15), 7);
        for id in [1u32, 4, 9, 12] {
            t.insert(&three, g(id), id + 1);
        }
        // A tombstone is live no more: three live postings, one dead.
        t.remove(&three, g(4));
        let before: Vec<_> = [&one, &two, &three].map(|s| postings(&t, s)).to_vec();
        t.densify(16);
        assert_eq!(t.dense_count(), 2);
        assert_eq!(
            t.tombstone_count(),
            0,
            "the dense list dropped its tombstone"
        );
        let live =
            |ps: &Vec<(u32, u32)>| ps.iter().copied().filter(|p| p.1 > 0).collect::<Vec<_>>();
        let after: Vec<_> = [&one, &two, &three].map(|s| postings(&t, s)).to_vec();
        assert_eq!(after, before.iter().map(live).collect::<Vec<_>>());
        assert_eq!(t.count_in(&two, g(15)), 7);
        assert_eq!(t.count_in(&three, g(4)), 0);
        assert_eq!(t.count_in(&three, g(9)), 10);
        assert_eq!((t.feature_count(), t.posting_count()), (3, 6));
        // Idempotent: nothing new qualifies.
        t.densify(16);
        assert_eq!(t.dense_count(), 2);
        // Once a list grows dense, a second call converts it.
        t.insert(&one, g(6), 1);
        t.densify(16);
        assert_eq!(t.dense_count(), 3);
        assert_eq!(postings(&t, &one), vec![(5, 1), (6, 1)]);
    }

    #[test]
    fn saturated_bytes_defer_to_the_overflow_postings() {
        let mut t = FeatureTrie::new();
        let a = seq(&[4, 2]);
        for (id, count) in [(0u32, 254u32), (1, 255), (2, 256), (3, 1_000_000)] {
            t.insert(&a, g(id), count);
        }
        t.densify(8);
        assert_eq!(t.dense_count(), 1);
        let want = vec![(0, 254), (1, 255), (2, 256), (3, 1_000_000)];
        assert_eq!(postings(&t, &a), want);
        for (id, count) in &want {
            assert_eq!(t.count_in(&a, g(*id)), *count);
        }
        let ids = |t: &FeatureTrie, required: u32| -> Vec<u32> {
            t.containing([(&a, required)], |_| true)
                .iter()
                .map(|id| id.raw())
                .collect()
        };
        assert_eq!(ids(&t, 254), vec![0, 1, 2, 3]);
        assert_eq!(ids(&t, 255), vec![1, 2, 3]);
        assert_eq!(ids(&t, 256), vec![2, 3]);
        assert_eq!(ids(&t, 1_000_001), Vec::<u32>::new());
        // 254 + 1 saturates the byte; 255 + 1 grows the overflow posting.
        t.insert(&a, g(0), 1);
        t.insert(&a, g(1), 1);
        assert_eq!(t.count_in(&a, g(0)), 255);
        assert_eq!(t.count_in(&a, g(1)), 256);
        // Ids past the universe live in the overflow, after the row's.
        t.insert(&a, g(9), 3);
        t.insert(&a, g(8), 300);
        assert_eq!(
            postings(&t, &a),
            vec![
                (0, 255),
                (1, 256),
                (2, 256),
                (3, 1_000_000),
                (8, 300),
                (9, 3)
            ]
        );
        assert_eq!(t.posting_count(), 6);
        assert!(t.remove(&a, g(1)));
        assert!(!t.remove(&a, g(1)));
        assert!(t.remove(&a, g(9)));
        assert!(!t.remove(&a, g(9)));
        assert!(!t.remove(&a, g(5)));
        assert_eq!(t.count_in(&a, g(1)), 0);
        assert_eq!(ids(&t, 256), vec![2, 3, 8]);
        assert_eq!(t.posting_count(), 4);
        assert_eq!(t.tombstone_count(), 0, "a dense list keeps no tombstones");
        t.insert(&a, g(1), 2);
        assert_eq!(t.count_in(&a, g(1)), 2);
        for id in [0u32, 1, 2, 3, 8] {
            assert!(t.remove(&a, g(id)));
        }
        assert_eq!((t.feature_count(), t.posting_count()), (0, 0));
        assert!(!t.contains(&a));
        assert!(postings(&t, &a).is_empty());
    }

    #[test]
    fn containing_reads_rows_as_seed_and_as_check() {
        let mut t = FeatureTrie::new();
        let (wide, mid, narrow) = (seq(&[1]), seq(&[1, 1]), seq(&[1, 2]));
        for id in 0..32u32 {
            t.insert(&wide, g(id), 1 + id % 2);
            if id % 3 == 0 {
                t.insert(&mid, g(id), 300);
            }
            if id % 16 == 2 {
                t.insert(&narrow, g(id), 1);
            }
        }
        let mut sparse = t.clone();
        sparse.compact();
        t.densify(32);
        assert_eq!(t.dense_count(), 2, "wide and mid dense, narrow sparse");
        for features in [
            vec![(&wide, 2)],
            vec![(&wide, 2), (&mid, 256)],
            vec![(&wide, 1), (&mid, 300), (&narrow, 1)],
            vec![(&mid, 301)],
        ] {
            assert_eq!(
                t.containing(features.clone(), |id| id != g(6)),
                sparse.containing(features.clone(), |id| id != g(6)),
                "{features:?}"
            );
        }
        let got = t.containing([(&wide, 2), (&mid, 256)], |_| true);
        let want: Vec<GraphId> = (0..32).filter(|i| i % 6 == 3).map(g).collect();
        assert_eq!(got, want);
    }
}
