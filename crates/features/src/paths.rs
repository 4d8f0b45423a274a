//! Exhaustive enumeration of simple-path features.
//!
//! GGSX and Grapes index *all* labeled simple paths up to a small maximum
//! length (4 edges in the paper's experiments); iGQ's own query indexes use
//! the same feature family. This module enumerates them with per-feature
//! occurrence counts and (optionally, for Grapes) endpoint locations.
//!
//! Counting convention: a path *occurrence* is a simple vertex path; a
//! path and its reverse are the same occurrence. We enumerate directed
//! simple paths from every start vertex — each undirected occurrence of
//! length ≥ 1 is visited exactly twice — and halve the counts at the end.
//! Length-0 paths (single labeled vertices) are counted once per vertex.
//!
//! # Budget
//!
//! Dense graphs can hold astronomically many paths, so enumeration takes a
//! *budget* of directed DFS edge visits, with the meaning of level-by-level
//! iterative deepening. Let `P_k` be the number of directed simple paths
//! of `k` edges. Walking level ℓ (the paths of exactly ℓ edges) from every
//! vertex costs `S(ℓ) = Σ_{k≤ℓ} P_k` visits, and level ℓ is committed iff
//! the cumulative cost of levels 1..=ℓ stays within budget:
//!
//! ```text
//! V(ℓ) = Σ_{j≤ℓ} Σ_{k≤j} P_k  ≤  budget
//! ```
//!
//! The result's `complete_len` is the deepest committed level: features of
//! length ≤ `complete_len` are exhaustively counted, deeper ones are absent,
//! which keeps filter code sound (no false negatives) for graphs whose deep
//! features were not enumerated.
//!
//! # Interning trie
//!
//! The schedule above is computed, not replayed. One DFS per start vertex
//! moves a cursor through a trie of *directed* label sequences. Labels are
//! remapped to dense per-graph ranks (in label order), and every trie node
//! that gets children owns a block of one slot per rank, so a step is an
//! array lookup. An occurrence only bumps its node's counter and `P_k`;
//! for locations, a node also records each start vertex it is reached
//! from (an undirected path's endpoints are the starts of its two
//! directions). `V(ℓ)` then follows from the `P_k`. Canonicalization —
//! `min(sequence, reverse)`, the merge of a node with its reverse node and
//! the [`LabelSeq`] allocation — happens once per distinct directed
//! sequence of a committed level, not once per occurrence.
//!
//! The walk goes as deep as `max_len`, less the levels that lower bounds
//! on `P_k` from vertex degrees alone already price over budget, and is
//! capped at `budget` visits. A walk that hits the cap proves its deepest
//! level cannot commit. The trie is then rebuilt level by level, each walk
//! counting only its new level and capped at the budget left by the levels
//! below, as iterative deepening spends it; a level whose count in the
//! capped walk already prices it over budget is not walked. So no graph
//! costs more than 2 × `budget` visits.

use crate::label_seq::LabelSeq;
use igq_graph::fxhash::{FxHashMap, FxHasher};
use igq_graph::{Graph, LabelId, VertexId};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

thread_local! {
    static ENUMERATIONS: Cell<u64> = const { Cell::new(0) };
    /// One trie workspace per thread, warmed to the largest graph seen
    /// (up to [`KEEP_SLOTS`]).
    static SCRATCH: RefCell<PathScratch> = RefCell::new(PathScratch::default());
}

/// Number of [`enumerate_paths`] calls performed by the current thread so
/// far. Tests use deltas of this counter to assert that hot paths extract a
/// query's features exactly once (the iGQ engine shares one extraction
/// between the base filter and both query-index probes).
pub fn thread_enumeration_count() -> u64 {
    ENUMERATIONS.with(|c| c.get())
}

/// Configuration for path enumeration.
#[derive(Debug, Clone, Copy)]
pub struct PathConfig {
    /// Maximum path length in edges (paper default: 4).
    pub max_len: usize,
    /// Include length-0 (single-vertex) features.
    pub include_vertices: bool,
    /// Budget on *directed* DFS edge visits per graph; `u64::MAX` = unlimited.
    pub budget: u64,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig {
            max_len: 4,
            include_vertices: true,
            budget: 40_000_000,
        }
    }
}

impl PathConfig {
    /// Paper-default configuration with a custom max length.
    pub fn with_max_len(max_len: usize) -> Self {
        PathConfig {
            max_len,
            ..Default::default()
        }
    }
}

/// Path features of one graph.
#[derive(Debug, Clone, Default)]
pub struct PathFeatures {
    /// Canonical label sequence → occurrence count.
    ///
    /// The map's iteration order reaches checkpoint bytes:
    /// `QueryIndex::insert` keeps a cached query's features in this order
    /// and `capture_state` writes them in it. The enumerator therefore
    /// fills the map by one fixed insertion sequence: the vertex features
    /// in vertex order, then level by level the keys in the iteration
    /// order of a level-local map that received them in first-occurrence
    /// order of the depth-first walk from vertex 0 upward.
    pub counts: FxHashMap<LabelSeq, u32>,
    /// Canonical label sequence → sorted, deduplicated endpoint vertices
    /// (present only when requested; Grapes' "location information").
    pub locations: FxHashMap<LabelSeq, Vec<VertexId>>,
    /// Features of length ≤ `complete_len` are exhaustively counted.
    pub complete_len: usize,
}

impl PathFeatures {
    /// Number of distinct features.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total occurrences across features.
    pub fn total_occurrences(&self) -> u64 {
        self.counts.values().map(|&c| c as u64).sum()
    }

    /// Approximate heap footprint (for index-size accounting).
    pub fn heap_size_bytes(&self) -> u64 {
        let counts: u64 = self
            .counts
            .keys()
            .map(|k| k.heap_size_bytes() + std::mem::size_of::<u32>() as u64 + 16)
            .sum();
        let locs: u64 = self
            .locations
            .iter()
            .map(|(k, v)| k.heap_size_bytes() + (v.len() * 4) as u64 + 16)
            .sum();
        counts + locs
    }
}

/// Enumerates path features of `g` under `config`.
pub fn enumerate_paths(g: &Graph, config: &PathConfig) -> PathFeatures {
    enumerate_paths_impl(g, config, false)
}

/// Enumerates path features with endpoint locations (Grapes).
pub fn enumerate_paths_with_locations(g: &Graph, config: &PathConfig) -> PathFeatures {
    enumerate_paths_impl(g, config, true)
}

fn enumerate_paths_impl(g: &Graph, config: &PathConfig, want_locations: bool) -> PathFeatures {
    ENUMERATIONS.with(|c| c.set(c.get() + 1));
    enumerate_counting_visits(g, config, want_locations).0
}

/// The features of `g` and the DFS edge visits spent on them.
fn enumerate_counting_visits(
    g: &Graph,
    config: &PathConfig,
    want_locations: bool,
) -> (PathFeatures, u64) {
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let out = scratch.enumerate(g, config, want_locations);
        if scratch.slot_capacity() > KEEP_SLOTS {
            // A dense graph's trie: give the memory back.
            *scratch = PathScratch::default();
        }
        out
    })
}

/// "No node" in [`Node`] fields and "no child yet" is slot value 0 (the
/// root is never a child).
const NONE: u32 = u32::MAX;
/// The trie's root: the empty sequence; its children are the single labels.
const ROOT: u32 = 0;
/// Workspace size, in trie nodes plus child slots plus location entries,
/// above which the workspace is released after the call.
const KEEP_SLOTS: usize = 1 << 20;

/// A directed label sequence, reached by appending `rank` to `parent`.
#[derive(Clone, Copy)]
struct Node {
    parent: u32,
    rank: u32,
    /// Path length in edges (the root's is [`NONE`]).
    depth: u32,
    /// Directed occurrences counted so far.
    count: u32,
    /// Offset of this node's child block in `PathScratch::children`.
    block: u32,
    /// The start vertex most recently recorded for this node's locations.
    last_start: u32,
}

impl Node {
    fn new(parent: u32, rank: u32, depth: u32) -> Node {
        Node {
            parent,
            rank,
            depth,
            count: 0,
            block: NONE,
            last_start: NONE,
        }
    }
}

#[derive(Default)]
struct PathScratch {
    /// The graph's distinct labels, sorted; a label's rank is its index.
    alphabet: Vec<LabelId>,
    /// Per vertex: the rank of its label.
    rank: Vec<u32>,
    on_path: Vec<bool>,
    /// The trie, in node-creation order; `nodes[ROOT]` is the root.
    nodes: Vec<Node>,
    /// Child blocks of `alphabet.len()` slots each: node id or 0.
    children: Vec<u32>,
    /// `(node, start vertex)` for every node's distinct start vertices, in
    /// start order (locations only).
    starts: Vec<(u32, u32)>,
    /// `P_k` of the current walk: its visits that reached depth `k`.
    per_len: Vec<u64>,
    /// Visits of the current walk, and the count it may not exceed.
    visits: u64,
    cap: u64,
    /// Deepest depth of the current walk; `fresh..=limit` are counted.
    limit: usize,
    fresh: usize,
    /// The current walk's start vertex.
    start: u32,
    /// Whether occurrences record their start vertices.
    want_locations: bool,
}

impl PathScratch {
    fn slot_capacity(&self) -> usize {
        self.nodes.capacity() + self.children.capacity() + self.starts.capacity()
    }

    fn enumerate(
        &mut self,
        g: &Graph,
        config: &PathConfig,
        want_locations: bool,
    ) -> (PathFeatures, u64) {
        self.alphabet.clear();
        // Ascending: `label_groups` yields labels in order.
        self.alphabet.extend(g.label_groups().map(|(l, _)| l));
        let alphabet = &self.alphabet;
        self.rank.clear();
        self.rank.extend(g.labels().iter().map(|l| {
            alphabet
                .binary_search(l)
                .expect("every label is in the alphabet") as u32
        }));
        self.on_path.clear();
        self.on_path.resize(g.vertex_count(), false);
        self.want_locations = want_locations;
        self.clear_trie();

        let budget = config.budget;
        // Levels that degree bounds alone price over budget are not walked.
        let floors = path_count_floors(g, config.max_len);
        let reach = deepest_within_budget(&floors, budget);
        let walked = self.walk(g, reach, budget);
        let mut visits = self.visits;
        let complete_len = if walked {
            deepest_within_budget(&self.per_len, budget)
        } else {
            // The walk's partial counts are lower bounds on `P_k` too.
            let partial = std::mem::take(&mut self.per_len);
            let floor = |level: usize| floors[level].max(partial[level]);
            let (complete_len, deepening) = self.deepen(g, reach, budget, floor);
            visits += deepening;
            complete_len
        };
        (self.features(config.include_vertices, complete_len), visits)
    }

    /// Iterative deepening on a fresh trie after the walk to depth `reach`
    /// stopped at `budget` visits, so that `S(reach)`, and with it
    /// `V(reach)`, exceeds the budget. Levels `1..reach` are walked one at a
    /// time, each counting only its new level and capped at the budget the
    /// levels below left, unless `floor(ℓ)` (a lower bound on `P_ℓ`)
    /// already prices level ℓ over budget. Returns the deepest committed
    /// level and the visits spent.
    fn deepen(
        &mut self,
        g: &Graph,
        reach: usize,
        budget: u64,
        floor: impl Fn(usize) -> u64,
    ) -> (usize, u64) {
        self.clear_trie();
        self.walk(g, 0, 0); // the single labels: no visits
        let mut spent = 0u64; // V(ℓ−1), this call's visits so far
        let mut shorter = 0u64; // S(ℓ−1)
        let mut complete_len = 0;
        for level in 1..reach {
            if spent.saturating_add(shorter).saturating_add(floor(level)) > budget {
                break;
            }
            let done = self.walk(g, level, budget - spent);
            spent += self.visits;
            if !done {
                break;
            }
            shorter = self.visits;
            complete_len = level;
        }
        (complete_len, spent)
    }

    fn clear_trie(&mut self) {
        self.nodes.clear();
        self.children.clear();
        self.starts.clear();
        self.nodes.push(Node::new(NONE, NONE, NONE));
        self.fresh = 0;
    }

    /// Walks every directed simple path of at most `limit` edges from every
    /// vertex, counting occurrences of lengths `fresh..=limit`. Returns
    /// `false` when it stopped at `cap` visits, leaving the walk's counts
    /// partial.
    fn walk(&mut self, g: &Graph, limit: usize, cap: u64) -> bool {
        self.limit = limit;
        self.cap = cap;
        self.visits = 0;
        self.per_len.clear();
        self.per_len.resize(limit + 1, 0);
        for v in g.vertices() {
            self.start = v.raw();
            let node = self.child(ROOT, self.rank[v.index()], 0);
            self.bump(node, 0);
            self.on_path[v.index()] = true;
            let done = limit == 0 || self.extend(g, v, node, 0);
            self.on_path[v.index()] = false;
            if !done {
                return false;
            }
        }
        self.fresh = limit + 1;
        true
    }

    fn extend(&mut self, g: &Graph, v: VertexId, node: u32, depth: usize) -> bool {
        let next = depth + 1;
        for &w in g.neighbors(v) {
            if self.on_path[w.index()] {
                continue;
            }
            if self.visits == self.cap {
                return false;
            }
            self.visits += 1;
            self.per_len[next] += 1;
            let child = self.child(node, self.rank[w.index()], next);
            self.bump(child, next);
            if next < self.limit {
                self.on_path[w.index()] = true;
                let done = self.extend(g, w, child, next);
                self.on_path[w.index()] = false;
                if !done {
                    return false;
                }
            }
        }
        true
    }

    /// The child of `parent` by `rank`, created on first use.
    #[inline]
    fn child(&mut self, parent: u32, rank: u32, depth: usize) -> u32 {
        let mut block = self.nodes[parent as usize].block;
        if block == NONE {
            block = u32::try_from(self.children.len()).expect("trie exceeds u32 slots");
            self.children
                .resize(self.children.len() + self.alphabet.len(), 0);
            self.nodes[parent as usize].block = block;
        }
        let slot = (block + rank) as usize;
        let mut child = self.children[slot];
        if child == 0 {
            child = u32::try_from(self.nodes.len()).expect("trie exceeds u32 nodes");
            self.nodes.push(Node::new(parent, rank, depth as u32));
            self.children[slot] = child;
        }
        child
    }

    /// Counts one occurrence of `node` from the current start vertex.
    #[inline]
    fn bump(&mut self, node: u32, depth: usize) {
        if depth < self.fresh {
            return;
        }
        let n = &mut self.nodes[node as usize];
        n.count += 1;
        if self.want_locations && n.last_start != self.start {
            n.last_start = self.start;
            self.starts.push((node, self.start));
        }
    }

    /// The existing child of `node` by `rank`.
    fn child_of(&self, node: u32, rank: u32) -> u32 {
        self.children[(self.nodes[node as usize].block + rank) as usize]
    }

    /// Every node's distinct start vertices, ascending, as offsets into
    /// one array: `starts` is in start order, so a stable bucketing by
    /// node keeps each node's sorted.
    fn starts_by_node(&self) -> (Vec<u32>, Vec<VertexId>) {
        let mut offsets = vec![0u32; self.nodes.len() + 1];
        for &(node, _) in &self.starts {
            offsets[node as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut ends = vec![VertexId::new(0); self.starts.len()];
        for &(node, start) in &self.starts {
            ends[cursor[node as usize] as usize] = VertexId::new(start);
            cursor[node as usize] += 1;
        }
        (offsets, ends)
    }

    /// Builds the output from the trie's counted levels `0..=complete_len`.
    fn features(&self, include_vertices: bool, complete_len: usize) -> PathFeatures {
        let want_locations = self.want_locations;
        let (offsets, ends) = if want_locations {
            self.starts_by_node()
        } else {
            Default::default()
        };
        let starts_of =
            |node: u32| &ends[offsets[node as usize] as usize..offsets[node as usize + 1] as usize];
        // The counted nodes of each length, in creation order.
        let mut by_depth: Vec<Vec<u32>> = vec![Vec::new(); complete_len + 1];
        for (id, node) in self.nodes.iter().enumerate().skip(1) {
            if let Some(level) = by_depth.get_mut(node.depth as usize) {
                level.push(id as u32);
            }
        }

        let mut counts: FxHashMap<LabelSeq, u32> = FxHashMap::default();
        let mut locations: FxHashMap<LabelSeq, Vec<VertexId>> = FxHashMap::default();
        if include_vertices {
            for &id in &by_depth[0] {
                let node = &self.nodes[id as usize];
                let seq = LabelSeq::single(self.alphabet[node.rank as usize]);
                if want_locations {
                    locations.insert(seq.clone(), starts_of(id).to_vec());
                }
                counts.insert(seq, node.count);
            }
        }

        // Each counted node's reverse sequence, level by level: with
        // `N = [f, …, r]`, its suffix `[…, r]` is the child by `r` of its
        // parent's suffix, and its reverse `[r, …, f]` is the child by `f`
        // of its suffix's reverse. Both exist: they spell sub-paths and
        // reversed paths of counted occurrences.
        let mut suffix = vec![ROOT; self.nodes.len()];
        let mut reverse_of = vec![ROOT; self.nodes.len()];
        let mut first = vec![0u32; self.nodes.len()];
        for &id in &by_depth[0] {
            reverse_of[id as usize] = id;
            first[id as usize] = self.nodes[id as usize].rank;
        }
        // A level's keys in first-occurrence order (canonical labels, a
        // stride of `len` each), their counts and endpoints.
        let mut keys: Vec<LabelId> = Vec::new();
        let mut key_counts: Vec<u32> = Vec::new();
        let mut key_ends: Vec<Vec<VertexId>> = Vec::new();
        for (len, level) in by_depth.iter().enumerate().skip(1).map(|(d, l)| (d + 1, l)) {
            for &id in level {
                let Node { parent, rank, .. } = self.nodes[id as usize];
                let s = self.child_of(suffix[parent as usize], rank);
                suffix[id as usize] = s;
                first[id as usize] = first[parent as usize];
                reverse_of[id as usize] = self.child_of(reverse_of[s as usize], first[id as usize]);
            }
            keys.clear();
            key_counts.clear();
            key_ends.clear();
            // The table a level-local `FxHashMap<LabelSeq, _>` filled in
            // first-occurrence order would hold the keys in.
            let mut layout: HashSet<Replayed, BuildHasherDefault<ReplayHasher>> =
                HashSet::default();
            for &id in level {
                // Node ids are creation order: a key's first occurrence
                // is whichever of its two directions came first.
                let reverse = reverse_of[id as usize];
                if reverse < id {
                    continue;
                }
                let mut directed = self.nodes[id as usize].count;
                if reverse != id {
                    directed += self.nodes[reverse as usize].count;
                }
                debug_assert!(
                    directed.is_multiple_of(2),
                    "each undirected path is seen twice"
                );
                if want_locations {
                    let mut ends = starts_of(id).to_vec();
                    if reverse != id {
                        ends.extend_from_slice(starts_of(reverse));
                        ends.sort_unstable();
                        ends.dedup();
                    }
                    key_ends.push(ends);
                }
                // The labels end to start, then `min(sequence, reverse)`.
                let start = keys.len();
                let mut at = id;
                while at != ROOT {
                    keys.push(self.alphabet[self.nodes[at as usize].rank as usize]);
                    at = self.nodes[at as usize].parent;
                }
                let key = &mut keys[start..];
                if key.iter().rev().lt(key.iter()) {
                    key.reverse();
                }
                layout.insert(Replayed {
                    // A `LabelSeq` hashes as its label slice.
                    hash: BuildHasherDefault::<FxHasher>::default().hash_one(&*key),
                    index: key_counts.len(),
                });
                key_counts.push(directed / 2);
            }
            for &Replayed { index, .. } in &layout {
                let seq = LabelSeq::canonical(&keys[index * len..][..len]);
                if want_locations {
                    locations.insert(seq.clone(), std::mem::take(&mut key_ends[index]));
                }
                counts.insert(seq, key_counts[index]);
            }
        }

        PathFeatures {
            counts,
            locations,
            complete_len,
        }
    }
}

/// A key of a level's layout table: the `FxHasher` hash of a feature's
/// [`LabelSeq`] and the feature's index. Keys are distinct per level, and
/// the table places entries by hash alone, so iterating it visits the
/// features in the order a `FxHashMap<LabelSeq, _>` filled in the same
/// order would — without rehashing (and dereferencing) every key each
/// time the table grows.
#[derive(PartialEq, Eq)]
struct Replayed {
    hash: u64,
    index: usize,
}

impl Hash for Replayed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands a [`Replayed`] key's stored hash to the table unchanged.
#[derive(Default)]
struct ReplayHasher(u64);

impl Hasher for ReplayHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only Replayed keys are hashed");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Lower bounds on `P_k` for `k ≤ max_len` from vertex degrees alone,
/// in `O(|V| + |E|)`: exact for `k ≤ 2`, and for `k = 3, 4` the choices
/// left at each step when every earlier path vertex is a neighbor. Index 0
/// and lengths past 4 hold 0.
fn path_count_floors(g: &Graph, max_len: usize) -> Vec<u64> {
    let mut floors = vec![0u64; max_len + 1];
    let degree = |v: VertexId| g.degree(v) as u64;
    // `x_v = (d(v) − 2)⁺` and `y_v = (d(v) − 3)⁺`: the neighbors left to
    // continue a path from `v` when two, or three, of the path's vertices
    // may be among them.
    let x = |v: VertexId| degree(v).saturating_sub(2);
    let y = |v: VertexId| degree(v).saturating_sub(3);
    for v in g.vertices() {
        let d = degree(v);
        let (mut xs, mut ys, mut xys) = (0u64, 0u64, 0u64);
        for &w in g.neighbors(v) {
            xs += x(w);
            ys += y(w);
            xys = xys.saturating_add(x(w) * y(w));
        }
        // P_1: v's edges. P_2: v in the middle. P_3: a–v–w–b over the
        // directed edge (v, w). P_4: v in the middle of a–u–v–w–b.
        let per_len = [
            d,
            d * d.saturating_sub(1),
            d.saturating_sub(1).saturating_mul(xs),
            xs.saturating_mul(ys).saturating_sub(xys),
        ];
        for (floor, bound) in floors.iter_mut().skip(1).zip(per_len) {
            *floor = floor.saturating_add(bound);
        }
    }
    floors
}

/// The deepest level ℓ < `per_len.len()` with `V(ℓ) ≤ budget` when
/// `P_k = per_len[k]`. Given lower bounds on the `P_k`, no deeper level
/// can commit.
fn deepest_within_budget(per_len: &[u64], budget: u64) -> usize {
    let (mut shorter, mut spent) = (0u64, 0u64);
    for (level, &paths) in per_len.iter().enumerate().skip(1) {
        shorter = shorter.saturating_add(paths); // S(ℓ)
        spent = spent.saturating_add(shorter); // V(ℓ)
        if spent > budget {
            return level - 1;
        }
    }
    per_len.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;

    fn seq(raws: &[u32]) -> LabelSeq {
        let ls: Vec<LabelId> = raws.iter().map(|&r| LabelId::new(r)).collect();
        LabelSeq::canonical(&ls)
    }

    #[test]
    fn triangle_path_counts() {
        // Triangle, all labels 0. Length-1 paths: 3 edges. Length-2: each of
        // the 3 vertices is the middle of exactly one simple path → 3.
        let g = graph_from(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let f = enumerate_paths(
            &g,
            &PathConfig {
                max_len: 2,
                include_vertices: true,
                budget: u64::MAX,
            },
        );
        assert_eq!(f.counts[&seq(&[0])], 3);
        assert_eq!(f.counts[&seq(&[0, 0])], 3);
        assert_eq!(f.counts[&seq(&[0, 0, 0])], 3);
        assert_eq!(f.complete_len, 2);
    }

    #[test]
    fn labeled_path_counts_respect_direction_normalization() {
        // Path 1-2-3: one length-2 occurrence; canonical seq is [1,2,3].
        let g = graph_from(&[1, 2, 3], &[(0, 1), (1, 2)]);
        let f = enumerate_paths(&g, &PathConfig::with_max_len(2));
        assert_eq!(f.counts[&seq(&[1, 2, 3])], 1);
        assert_eq!(f.counts[&seq(&[1, 2])], 1);
        assert_eq!(f.counts[&seq(&[2, 3])], 1);
        assert!(!f.counts.contains_key(&seq(&[1, 3])));
    }

    #[test]
    fn star_counts() {
        // Star center 0 (label 9), leaves labeled 1,1,1.
        let g = graph_from(&[9, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]);
        let f = enumerate_paths(&g, &PathConfig::with_max_len(2));
        assert_eq!(f.counts[&seq(&[1, 9])], 3);
        // Length-2 paths leaf-center-leaf: C(3,2) = 3 occurrences.
        assert_eq!(f.counts[&seq(&[1, 9, 1])], 3);
    }

    #[test]
    fn max_len_zero_yields_only_vertices() {
        let g = graph_from(&[0, 1], &[(0, 1)]);
        let f = enumerate_paths(
            &g,
            &PathConfig {
                max_len: 0,
                include_vertices: true,
                budget: u64::MAX,
            },
        );
        assert_eq!(f.distinct(), 2);
        assert_eq!(f.total_occurrences(), 2);
        assert_eq!(f.complete_len, 0);
    }

    #[test]
    fn locations_are_path_endpoints() {
        let g = graph_from(&[1, 2, 3], &[(0, 1), (1, 2)]);
        let f = enumerate_paths_with_locations(&g, &PathConfig::with_max_len(2));
        let locs = &f.locations[&seq(&[1, 2, 3])];
        assert_eq!(locs, &vec![VertexId::new(0), VertexId::new(2)]);
        let locs1 = &f.locations[&seq(&[1, 2])];
        assert_eq!(locs1, &vec![VertexId::new(0), VertexId::new(1)]);
    }

    #[test]
    fn budget_trip_keeps_committed_levels_exhaustive() {
        // Dense-ish graph with tiny budget.
        let g = graph_from(
            &[0; 6],
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 1),
            ],
        );
        let f = enumerate_paths(
            &g,
            &PathConfig {
                max_len: 4,
                include_vertices: true,
                budget: 30,
            },
        );
        assert!(f.complete_len < 4);
        let full = enumerate_paths(
            &g,
            &PathConfig {
                max_len: 4,
                include_vertices: true,
                budget: u64::MAX,
            },
        );
        // Every committed level must match the unbudgeted run exactly.
        for (s, &c) in &full.counts {
            if s.edge_len() <= f.complete_len {
                assert_eq!(f.counts.get(s), Some(&c), "mismatch at {s:?}");
            }
        }
        // And no features beyond the committed depth leak out.
        assert!(f.counts.keys().all(|s| s.edge_len() <= f.complete_len));
    }

    #[test]
    fn counts_match_on_disconnected_graph() {
        let g = graph_from(&[1, 1, 2, 2], &[(0, 1), (2, 3)]);
        let f = enumerate_paths(&g, &PathConfig::with_max_len(3));
        assert_eq!(f.counts[&seq(&[1, 1])], 1);
        assert_eq!(f.counts[&seq(&[2, 2])], 1);
        assert_eq!(f.counts.len(), 4); // [1],[2],[1,1],[2,2]
    }

    #[test]
    fn no_vertex_features_when_disabled() {
        let g = graph_from(&[0, 1], &[(0, 1)]);
        let f = enumerate_paths(
            &g,
            &PathConfig {
                max_len: 1,
                include_vertices: false,
                budget: u64::MAX,
            },
        );
        assert_eq!(f.distinct(), 1);
        assert_eq!(f.counts[&seq(&[0, 1])], 1);
    }

    #[test]
    fn long_path_enumeration_on_cycle() {
        // C5, labels 0..4: exactly 5 simple paths of each length 1..=4.
        let g = graph_from(&[0, 1, 2, 3, 4], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let f = enumerate_paths(&g, &PathConfig::with_max_len(4));
        for len in 1..=4usize {
            let total: u32 = f
                .counts
                .iter()
                .filter(|(s, _)| s.edge_len() == len)
                .map(|(_, &c)| c)
                .sum();
            assert_eq!(total, 5, "length {len}");
        }
    }

    /// DFS visits spent on `g` at `budget`, after checking that exactly
    /// the levels whose cumulative cost `V(ℓ)` (`levels[ℓ − 1]`) fits the
    /// budget were committed.
    fn visits_at(g: &Graph, levels: &[u64], budget: u64) -> u64 {
        let config = PathConfig {
            max_len: levels.len(),
            include_vertices: true,
            budget,
        };
        let (f, visits) = enumerate_counting_visits(g, &config, true);
        let committed = levels.iter().take_while(|&&v| v <= budget).count();
        assert_eq!(f.complete_len, committed, "budget {budget}");
        visits
    }

    #[test]
    fn complete_graph_is_walked_once_within_budget() {
        // K10: P_1..P_4 = 90, 720, 5 040, 30 240 directed paths, so
        // V(1..=4) = 90, 900, 6 750, 42 840. The degree floors are exact on
        // a complete graph, so the one walk goes as deep as the budget
        // allows and never stops early.
        let edges: Vec<(u32, u32)> = (0..10)
            .flat_map(|u| ((u + 1)..10).map(move |v| (u, v)))
            .collect();
        let g = graph_from(&[0, 1, 0, 1, 2, 0, 1, 2, 0, 1], &edges);
        let levels = [90, 900, 6_750, 42_840];
        for budget in [
            0, 1, 89, 90, 91, 899, 900, 901, 6_749, 6_750, 42_839, 42_840,
        ] {
            assert!(visits_at(&g, &levels, budget) <= budget, "budget {budget}");
        }
        assert_eq!(visits_at(&g, &levels, 6_750), 90 + 720 + 5_040);
        assert_eq!(visits_at(&g, &levels, u64::MAX), 36_090);
    }

    #[test]
    fn tripping_costs_at_most_twice_the_budget() {
        // The Petersen graph has girth 5: P_1..P_5 = 30, 60, 120, 240, 360,
        // so V(1..=5) = 30, 120, 330, 780, 1 590, while the degree floors
        // bound P_4 and P_5 by 0 only. Walks do stop at the cap here.
        let g = graph_from(
            &[0; 10],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (0, 5),
                (1, 6),
                (2, 7),
                (3, 8),
                (4, 9),
                (5, 7),
                (7, 9),
                (9, 6),
                (6, 8),
                (8, 5),
            ],
        );
        let levels = [30, 120, 330, 780, 1_590];
        for budget in 0..=1_600 {
            assert!(
                visits_at(&g, &levels, budget) <= 2 * budget,
                "budget {budget}"
            );
        }
        // The walk to depth 4 stops at 420 visits; levels 1..=3 are walked
        // again (330 visits) and its partial count rules level 4 out.
        assert_eq!(visits_at(&g, &levels, 420), 420 + 330);
        // The walk to depth 5 stops at 779; level 4 is walked again and
        // stops on the last visit the budget leaves it.
        assert_eq!(visits_at(&g, &levels, 779), 2 * 779);
    }

    #[test]
    fn heap_size_accounts_something() {
        let g = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let f = enumerate_paths_with_locations(&g, &PathConfig::default());
        assert!(f.heap_size_bytes() > 0);
    }
}
