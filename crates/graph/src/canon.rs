//! Isomorphism-invariant hashing for query graphs.
//!
//! iGQ's optimal case 1 (Section 4.3) detects an *exact repeat*: a new query
//! that is isomorphic to a cached one. We detect repeats in two steps:
//!
//! 1. a cheap **invariant hash** (this module) — a Weisfeiler–Lehman color
//!    refinement folded into a single `u64`. Isomorphic graphs always hash
//!    equal; non-isomorphic graphs collide only when WL cannot separate them
//!    (rare for labeled query-sized graphs, and harmless: callers confirm
//!    with an exact isomorphism test before using a match);
//! 2. an exact check in `igq-core` (same vertex/edge counts + a subgraph
//!    isomorphism test, which at equal sizes is full isomorphism).
//!
//! The hash is also used to deduplicate window inserts.
//!
//! # Canonical codes
//!
//! Ahead of both steps the engine tries an O(1) lookup keyed by
//! [`canonical_code`], an *equality oracle* (equal codes ⇔ isomorphic). Every
//! query pays for the code before anything else runs, so the search behind
//! it is built to cost a few microseconds at query sizes.
//!
//! **The tree.** Vertices are colored by the dense ranks of their (label,
//! degree) pairs and the coloring is refined to the coarsest equitable
//! partition (a vertex's new color is the rank of its old color plus its
//! sorted (edge label, neighbor color) profile — ranks, so colors are
//! isomorphism-invariant and refinement only splits classes in order). If
//! classes remain, the *target cell* — the smallest color with more than
//! one member — is split by individualizing each of its members in turn
//! (placing it strictly before its classmates and refining again), one
//! child per member. A discrete coloring is a leaf; it orders the vertices,
//! and its *leaf code* serializes the graph in that order (sizes, labels
//! by position, sorted packed edges). The canonical code is the
//! lexicographically smallest leaf code of the tree. The tree depends only
//! on the isomorphism class, hence so does its minimum.
//!
//! **The pruning.** An automorphism γ maps the subtree under prefix
//! `(v1..vk)` onto the subtree under `(γv1..γvk)`, leaf codes unchanged. The
//! tree of a graph with `|Aut|` automorphisms therefore repeats every leaf
//! code `|Aut|` times — `k!` leaves for `k` equal pendants on one atom. The
//! search visits leaves depth-first and compares each with the first and
//! the smallest leaf so far; equal codes yield an automorphism (match the
//! two labelings position by position), which is used twice:
//!
//! * *orbit merge* — γ fixes the two leaves' common prefix pointwise (an
//!   individualized vertex always lands on its node's target-cell position,
//!   the same in both leaves), so at each common ancestor it maps children
//!   to children: every ancestor keeps a union-find of such orbits and
//!   explores only the first member of each — the siblings' subtrees are
//!   images of the explored one and hold the same codes;
//! * *backjump* — one level below the deepest common ancestor, γ maps the
//!   earlier leaf's subtree (fully explored, depth-first) onto the one
//!   being explored, which can hold nothing smaller: the search returns
//!   straight to that ancestor.
//!
//! Both only ever skip subtrees whose leaf codes were already seen, so the
//! minimum — the code — is **byte-identical** to the exhaustive search this
//! replaced (`tests/common/canon_oracle.rs`, compared by
//! `tests/prop_canon.rs`); persisted checkpoints, WAL groups, shard routing
//! and follower streams carry these words and need no migration.
//!
//! **The budget.** The search gives up (`None`) after `MAX_CANON_LEAVES`
//! leaves *of the pruned tree*. Symmetry no longer spends it — a clique or
//! star on `k` equal vertices costs `k` leaves — so only graphs whose
//! refinement leaves many non-automorphic choices (large strongly regular
//! graphs, not molecules) can exhaust it. Graphs the exhaustive search gave
//! up on may now get a code; stored entries that were persisted without
//! one stay valid and are still found by the probe path.
//!
//! **Allocation.** All search state lives in one thread-local workspace of
//! flat buffers (CSR profile, vertex order, per-depth color and orbit
//! rows) that grows to the largest query seen: a warm call allocates only
//! the boxed words it returns.

use crate::fxhash::{hash_u64, FxHasher};
use crate::{Graph, VertexId};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::hash::Hasher;

/// Number of WL refinement rounds. Query graphs have ≤ ~21 vertices; three
/// rounds propagate information across diameter-6 neighborhoods which, with
/// vertex labels in the seed coloring, separates all structures we have
/// encountered in testing.
const WL_ROUNDS: usize = 3;

/// Computes a Weisfeiler–Lehman invariant hash of the graph.
///
/// Guarantee: isomorphic graphs produce identical values. The converse is
/// *not* guaranteed (WL-equivalent non-isomorphic graphs collide), so use
/// this as a prefilter, never as an equality oracle.
pub fn invariant_hash(g: &Graph) -> u64 {
    let n = g.vertex_count();
    if n == 0 {
        return 0x9e37_79b9_7f4a_7c15;
    }
    // Seed colors: vertex label and degree.
    let mut colors: Vec<u64> = g
        .vertices()
        .map(|v| hash_u64(((g.label(v).raw() as u64) << 32) | g.degree(v) as u64))
        .collect();
    let mut next = vec![0u64; n];
    let mut neigh_buf: Vec<u64> = Vec::new();

    // Edge labels (when present) are mixed into the propagated colors so
    // that graphs differing only in edge labels hash apart; for unlabeled
    // graphs this degenerates to the plain neighbor color (keeping hashes
    // stable for the common case).
    let edge_labeled = g.has_edge_labels();
    for _ in 0..WL_ROUNDS {
        for v in g.vertices() {
            neigh_buf.clear();
            neigh_buf.extend(g.neighbors(v).iter().map(|&w| {
                if edge_labeled {
                    hash_u64(
                        colors[w.index()]
                            ^ hash_u64(0x5bd1_e995 ^ g.edge_label_unchecked(v, w).raw() as u64),
                    )
                } else {
                    colors[w.index()]
                }
            }));
            // Multiset hash: sort then fold, so neighbor order is irrelevant.
            neigh_buf.sort_unstable();
            let mut h = FxHasher::default();
            h.write_u64(colors[v.index()]);
            for &c in &neigh_buf {
                h.write_u64(c);
            }
            next[v.index()] = h.finish();
        }
        std::mem::swap(&mut colors, &mut next);
    }

    // Graph hash = hash of the sorted multiset of final colors plus sizes.
    colors.sort_unstable();
    let mut h = FxHasher::default();
    h.write_u64(n as u64);
    h.write_u64(g.edge_count() as u64);
    for c in colors {
        h.write_u64(c);
    }
    h.finish()
}

/// A compact, order-insensitive *signature* (sizes + invariant hash) used as
/// a hash-map key for cached queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphSignature {
    pub vertices: u32,
    pub edges: u32,
    pub wl_hash: u64,
}

impl GraphSignature {
    /// Signature of a graph.
    pub fn of(g: &Graph) -> GraphSignature {
        GraphSignature {
            vertices: g.vertex_count() as u32,
            edges: g.edge_count() as u32,
            wl_hash: invariant_hash(g),
        }
    }
}

/// Vertex-count cap for [`canonical_code`]; beyond it the search space is
/// not worth exploring for a cache fast path (queries are ≤ ~25 vertices).
const MAX_CANON_VERTICES: usize = 128;

/// Leaf budget for the individualization search, counted over the
/// *orbit-pruned* tree: a symmetric graph costs about one leaf per
/// automorphism generator (a clique or star of `k` equal vertices visits
/// `k` leaves, not `k!`), so the budget is only reached by graphs whose
/// refinement leaves many mutually *non*-automorphic choices — the search
/// then gives up, soundly, rather than stall the query path.
const MAX_CANON_LEAVES: u64 = 4096;

/// A canonical form: two graphs have equal codes **iff** they are
/// isomorphic (vertex labels, edges, and edge labels all respected).
///
/// Unlike [`invariant_hash`], which only guarantees the forward direction,
/// a `CanonicalCode` is an equality oracle — iGQ's exact-repeat detection
/// (optimal case 1, Section 4.3) uses it as an O(1) hash-map fast path,
/// skipping the query-index probes entirely for repeats.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalCode(Box<[u64]>);

impl CanonicalCode {
    /// The underlying word sequence (for size accounting).
    pub fn words(&self) -> &[u64] {
        &self.0
    }

    /// Reconstructs a code from its [`words`](CanonicalCode::words), e.g.
    /// when loading a persisted cache. The caller is responsible for the
    /// words having been produced by [`canonical_code`] — a fabricated
    /// sequence would break the "equal codes ⇔ isomorphic" contract.
    pub fn from_words(words: Vec<u64>) -> CanonicalCode {
        CanonicalCode(words.into_boxed_slice())
    }
}

/// Computes the canonical code of `g`: the lexicographically smallest leaf
/// code of the individualization-refinement tree described in the
/// [module docs](self#canonical-codes), found by a search that skips the
/// subtrees automorphisms prove redundant.
///
/// Returns `None` when `g` exceeds `MAX_CANON_VERTICES` (128) or the pruned
/// search still exceeds its leaf budget — callers fall back to the
/// signature + exact isomorphism-test path, so a `None` is a missed
/// optimization, never an error.
pub fn canonical_code(g: &Graph) -> Option<CanonicalCode> {
    canonical_code_within(g, MAX_CANON_LEAVES)
}

/// [`canonical_code`] with an explicit leaf budget (tests drive the
/// give-up branch with a tiny one).
fn canonical_code_within(g: &Graph, max_leaves: u64) -> Option<CanonicalCode> {
    if g.vertex_count() > MAX_CANON_VERTICES {
        return None;
    }
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        s.canonize(g, max_leaves)
            .then(|| CanonicalCode(s.best.code.as_slice().into()))
    })
}

thread_local! {
    /// One search workspace per thread, warmed to the largest query seen:
    /// a call allocates nothing but the code it returns.
    static SCRATCH: RefCell<CanonScratch> = RefCell::new(CanonScratch::default());
}

/// A leaf kept for comparison: its code, its labeling (vertex →
/// canonical position) and the individualized vertices leading to it.
#[derive(Default)]
struct Leaf {
    code: Vec<u64>,
    labeling: Vec<u32>,
    path: Vec<u32>,
}

impl Leaf {
    fn copy_from(&mut self, other: &Leaf) {
        self.code.clone_from(&other.code);
        self.labeling.clone_from(&other.labeling);
        self.path.clone_from(&other.path);
    }
}

/// What a subtree tells its parent.
enum Step {
    /// Explored (or proven redundant): try the next sibling.
    Next,
    /// An automorphism maps an already explored subtree of the node at
    /// this depth onto the one being explored: abandon everything deeper.
    BackTo(usize),
    /// Leaf budget exhausted.
    GiveUp,
}

/// The search state, all in flat reusable buffers. Rows of `colors` and
/// `orbits` are indexed by tree depth (`row * n .. (row + 1) * n`).
#[derive(Default)]
struct CanonScratch {
    n: usize,
    /// CSR adjacency of the graph being canonized; entries are
    /// `(edge label << 32) | neighbor`.
    adj_off: Vec<usize>,
    adj: Vec<u64>,
    /// Refinement: `(edge label << 32) | neighbor color`, same CSR shape as
    /// `adj`, each vertex's slice sorted; the vertex order sorted by
    /// (color, profile); the ranks being assigned.
    profile: Vec<u64>,
    order: Vec<u32>,
    ranks: Vec<u32>,
    /// The (equitable, dense-rank) coloring of every node on the current
    /// path, root first.
    colors: Vec<u32>,
    /// Per node on the current path: a min-rooted union-find over the
    /// vertices, joining those that a discovered automorphism fixing the
    /// node's individualized prefix maps onto each other.
    orbits: Vec<u32>,
    cell_sizes: Vec<u32>,
    leaves: u64,
    max_leaves: u64,
    /// The node being visited (its `path` follows the search; code and
    /// labeling are filled in at leaves), the first leaf visited and the
    /// smallest so far; `first_is_best` spares the duplicate comparison.
    current: Leaf,
    first: Leaf,
    best: Leaf,
    first_is_best: bool,
    /// Canonical position → vertex of the leaf an automorphism is derived
    /// against.
    inverse: Vec<u32>,
}

impl CanonScratch {
    /// Runs the search; on `true` the canonical words are in `best.code`.
    fn canonize(&mut self, g: &Graph, max_leaves: u64) -> bool {
        let n = g.vertex_count();
        self.n = n;
        self.best.code.clear();
        if n == 0 {
            self.best.code.extend([0, 0]);
            return true;
        }
        self.adj_off.clear();
        self.adj.clear();
        self.adj_off.push(0);
        for v in g.vertices() {
            self.adj.extend(
                g.neighbors(v)
                    .iter()
                    .map(|&w| ((g.edge_label_unchecked(v, w).raw() as u64) << 32) | w.raw() as u64),
            );
            self.adj_off.push(self.adj.len());
        }
        self.profile.clear();
        self.profile.resize(self.adj.len(), 0);
        self.order.clear();
        self.order.extend(0..n as u32);
        self.ranks.clear();
        self.ranks.resize(n, 0);
        self.colors.clear();
        self.orbits.clear();
        self.current.path.clear();
        self.leaves = 0;
        self.max_leaves = max_leaves;

        // Seed colors: dense ranks of the (label, degree) pairs.
        let seed = |v: u32| {
            let v = VertexId::new(v);
            (g.label(v).raw(), g.degree(v) as u32)
        };
        self.order.sort_unstable_by_key(|&v| seed(v));
        let mut cells = 0u32;
        for i in 0..n {
            if i > 0 && seed(self.order[i - 1]) != seed(self.order[i]) {
                cells += 1;
            }
            self.ranks[self.order[i] as usize] = cells;
        }
        self.colors.extend_from_slice(&self.ranks);
        let cells = self.refine(0, cells as usize + 1);
        !matches!(self.search(g, 0, cells), Step::GiveUp)
    }

    /// Refines color row `row` (currently `cells` classes) to the coarsest
    /// stable (equitable) partition and returns its class count. Color ids
    /// are dense and isomorphism-invariant: ranks of the sorted (old color,
    /// sorted neighborhood profile) keys, so a round only ever splits
    /// classes, in order — it is stable exactly when the count stops
    /// growing, and nothing is left to split once every class is a
    /// singleton.
    fn refine(&mut self, row: usize, mut cells: usize) -> usize {
        let n = self.n;
        let Self {
            adj_off,
            adj,
            profile,
            order,
            ranks,
            colors,
            ..
        } = self;
        let colors = &mut colors[row * n..(row + 1) * n];
        loop {
            for (p, &a) in profile.iter_mut().zip(adj.iter()) {
                *p = (a & !0xffff_ffff) | colors[a as u32 as usize] as u64;
            }
            for v in 0..n {
                profile[adj_off[v]..adj_off[v + 1]].sort_unstable();
            }
            let key = |v: u32| {
                let v = v as usize;
                (colors[v], &profile[adj_off[v]..adj_off[v + 1]])
            };
            order.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
            let mut rank = 0u32;
            ranks[order[0] as usize] = 0;
            for w in order.windows(2) {
                if key(w[0]) != key(w[1]) {
                    rank += 1;
                }
                ranks[w[1] as usize] = rank;
            }
            colors.copy_from_slice(ranks);
            let refined = rank as usize + 1;
            if refined == cells || refined == n {
                return refined;
            }
            cells = refined;
        }
    }

    /// Depth-first individualization from the node at `depth`, whose
    /// coloring (row `depth`, `cells` classes) is already refined.
    fn search(&mut self, g: &Graph, depth: usize, cells: usize) -> Step {
        let n = self.n;
        if cells == n {
            return self.visit_leaf(g, depth);
        }
        // Target cell: the smallest color id with more than one member.
        self.cell_sizes.clear();
        self.cell_sizes.resize(cells, 0);
        for &c in &self.colors[depth * n..(depth + 1) * n] {
            self.cell_sizes[c as usize] += 1;
        }
        let target =
            self.cell_sizes
                .iter()
                .position(|&size| size > 1)
                .expect("a non-discrete coloring has a non-singleton class") as u32;

        // This node's orbit partition starts discrete; its child's color
        // row is written below.
        self.orbits.truncate(depth * n);
        self.orbits.extend(0..n as u32);
        self.colors.resize((depth + 2) * n, 0);
        for v in 0..n {
            // Automorphisms fixing this node's prefix map the subtree of an
            // explored sibling onto the subtree of every other member of
            // its orbit: only the smallest member of each orbit (visited
            // first) needs exploring.
            if self.colors[depth * n + v] != target || find(&mut self.orbits[depth * n..], v) != v {
                continue;
            }
            // Individualize v ahead of its classmates: double every color
            // (order-preserving), then put v strictly first within its class.
            let (parents, child) = self.colors.split_at_mut((depth + 1) * n);
            for (c, &p) in child[..n].iter_mut().zip(&parents[depth * n..]) {
                *c = p * 2 + 1;
            }
            child[v] -= 1;
            self.current.path.push(v as u32);
            let child_cells = self.refine(depth + 1, cells + 1);
            let step = self.search(g, depth + 1, child_cells);
            self.current.path.pop();
            match step {
                Step::Next => {}
                Step::BackTo(d) if d == depth => {}
                step => return step,
            }
        }
        Step::Next
    }

    /// Serializes the discrete coloring at `depth` and compares it with the
    /// best and the first leaf: smaller becomes the new best, equal yields
    /// an automorphism.
    fn visit_leaf(&mut self, g: &Graph, depth: usize) -> Step {
        self.leaves += 1;
        if self.leaves > self.max_leaves {
            return Step::GiveUp;
        }
        let n = self.n;
        self.current.labeling.clear();
        self.current
            .labeling
            .extend_from_slice(&self.colors[depth * n..(depth + 1) * n]);
        leaf_code(g, &self.current.labeling, &mut self.current.code);

        if self.leaves == 1 {
            self.first.copy_from(&self.current);
            self.best.copy_from(&self.current);
            self.first_is_best = true;
            return Step::Next;
        }
        match self.current.code.cmp(&self.best.code) {
            Ordering::Less => {
                self.best.copy_from(&self.current);
                self.first_is_best = false;
                Step::Next
            }
            Ordering::Equal => self.merge_automorphism(false),
            Ordering::Greater if !self.first_is_best && self.current.code == self.first.code => {
                self.merge_automorphism(true)
            }
            Ordering::Greater => Step::Next,
        }
    }

    /// The current leaf's code equals an earlier leaf's (the first or the
    /// best), so `γ = earlier⁻¹ ∘ current` (vertex → canonical position →
    /// the earlier leaf's vertex there) is an automorphism mapping the
    /// earlier leaf's path onto the current one. An individualized vertex
    /// always lands on the position of its node's target cell, so γ fixes
    /// the two paths' common prefix pointwise: its orbits hold at every
    /// common ancestor, and it maps the fully explored subtree that holds
    /// the earlier leaf, one level below the deepest of them, onto the
    /// subtree being explored — which therefore has no smaller leaf to
    /// offer. Merge the orbits, and return to that ancestor.
    fn merge_automorphism(&mut self, with_first: bool) -> Step {
        let n = self.n;
        let earlier = if with_first { &self.first } else { &self.best };
        self.inverse.clear();
        self.inverse.resize(n, 0);
        for (v, &position) in earlier.labeling.iter().enumerate() {
            self.inverse[position as usize] = v as u32;
        }
        let common = earlier
            .path
            .iter()
            .zip(&self.current.path)
            .take_while(|(a, b)| a == b)
            .count();
        debug_assert!(
            self.current.path[..common]
                .iter()
                .all(|&v| self.inverse[self.current.labeling[v as usize] as usize] == v),
            "the automorphism fixes the common prefix"
        );
        for row in self.orbits[..(common + 1) * n].chunks_exact_mut(n) {
            for (v, &position) in self.current.labeling.iter().enumerate() {
                union(row, v, self.inverse[position as usize] as usize);
            }
        }
        Step::BackTo(common)
    }
}

/// Root (smallest member) of `v`'s orbit, with path halving.
fn find(orbits: &mut [u32], mut v: usize) -> usize {
    while orbits[v] as usize != v {
        orbits[v] = orbits[orbits[v] as usize];
        v = orbits[v] as usize;
    }
    v
}

fn union(orbits: &mut [u32], a: usize, b: usize) {
    let (a, b) = (find(orbits, a), find(orbits, b));
    let (root, child) = if a < b { (a, b) } else { (b, a) };
    orbits[child] = root as u32;
}

/// Serializes the graph under the discrete coloring (color = position)
/// into `code`.
fn leaf_code(g: &Graph, colors: &[u32], code: &mut Vec<u64>) {
    let n = g.vertex_count();
    code.clear();
    code.push(n as u64);
    code.push(g.edge_count() as u64);
    // Vertex labels by canonical position.
    code.resize(2 + n, 0);
    for v in g.vertices() {
        code[2 + colors[v.index()] as usize] = g.label(v).raw() as u64;
    }
    // Edges as (min position, max position, edge label), sorted. Packed
    // (a, b, label): positions need ≤ 8 bits (n ≤ 128), labels 32 — so the
    // packed words sort exactly like the triples.
    code.extend(g.labeled_edges().map(|((u, v), l)| {
        let (a, b) = (colors[u.index()], colors[v.index()]);
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        ((a as u64) << 44) | ((b as u64) << 32) | l.raw() as u64
    }));
    code[2 + n..].sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_from;

    #[test]
    fn isomorphic_relabelings_hash_equal() {
        // Same triangle with pendant, two different vertex orders.
        let a = graph_from(&[1, 2, 3, 4], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let b = graph_from(&[4, 3, 1, 2], &[(1, 2), (2, 3), (1, 3), (1, 0)]);
        assert_eq!(invariant_hash(&a), invariant_hash(&b));
        assert_eq!(GraphSignature::of(&a), GraphSignature::of(&b));
    }

    #[test]
    fn label_change_changes_hash() {
        let a = graph_from(&[0, 0], &[(0, 1)]);
        let b = graph_from(&[0, 1], &[(0, 1)]);
        assert_ne!(invariant_hash(&a), invariant_hash(&b));
    }

    #[test]
    fn structure_change_changes_hash() {
        let path = graph_from(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        let star = graph_from(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        assert_ne!(invariant_hash(&path), invariant_hash(&star));
    }

    #[test]
    fn wl_separates_c6_from_two_triangles_with_labels_even_when_sizes_match() {
        // C6 vs 2xC3: the classic 1-WL-indistinguishable pair when unlabeled
        // and regular. Our signature still differs because... it actually
        // does NOT differ under pure 1-WL. We assert only that the signature
        // treats them as *candidates* (equal hash is permitted) and that the
        // documented contract (prefilter, not oracle) holds: sizes match.
        let c6 = graph_from(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let c3x2 = graph_from(&[0; 6], &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let s1 = GraphSignature::of(&c6);
        let s2 = GraphSignature::of(&c3x2);
        assert_eq!(s1.vertices, s2.vertices);
        assert_eq!(s1.edges, s2.edges);
        // (No assertion on wl_hash: 1-WL cannot separate these; the engine's
        // exact verification step is what guarantees correctness.)
    }

    #[test]
    fn empty_and_singleton() {
        let empty = graph_from(&[], &[]);
        let single = graph_from(&[0], &[]);
        assert_ne!(invariant_hash(&empty), invariant_hash(&single));
    }

    #[test]
    fn deterministic_across_calls() {
        let g = graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]);
        assert_eq!(invariant_hash(&g), invariant_hash(&g));
    }

    #[test]
    fn edge_label_change_changes_hash() {
        let a = crate::graph_from_el(&[0, 1], &[(0, 1, 1)]);
        let b = crate::graph_from_el(&[0, 1], &[(0, 1, 2)]);
        let plain = graph_from(&[0, 1], &[(0, 1)]);
        assert_ne!(invariant_hash(&a), invariant_hash(&b));
        assert_ne!(invariant_hash(&a), invariant_hash(&plain));
    }

    #[test]
    fn isomorphic_edge_labeled_graphs_hash_equal() {
        // Same labeled path under two vertex orders: a-5-b-9-c.
        let a = crate::graph_from_el(&[0, 1, 2], &[(0, 1, 5), (1, 2, 9)]);
        let b = crate::graph_from_el(&[2, 1, 0], &[(1, 2, 5), (0, 1, 9)]);
        assert_eq!(invariant_hash(&a), invariant_hash(&b));
        assert_eq!(GraphSignature::of(&a), GraphSignature::of(&b));
    }

    #[test]
    fn canonical_code_equal_for_relabelings() {
        let a = graph_from(&[1, 2, 3, 4], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let b = graph_from(&[4, 3, 1, 2], &[(1, 2), (2, 3), (1, 3), (1, 0)]);
        assert_eq!(canonical_code(&a), canonical_code(&b));
        assert!(canonical_code(&a).is_some());
    }

    #[test]
    fn canonical_code_separates_wl_indistinguishable_pair() {
        // C6 vs 2×C3: equal under 1-WL (same invariant_hash is permitted),
        // but the canonical code is an exact oracle and must differ.
        let c6 = graph_from(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let c3x2 = graph_from(&[0; 6], &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let a = canonical_code(&c6).expect("c6 in budget");
        let b = canonical_code(&c3x2).expect("c3x2 in budget");
        assert_ne!(a, b);
    }

    #[test]
    fn canonical_code_respects_vertex_and_edge_labels() {
        let base = graph_from(&[0, 1], &[(0, 1)]);
        let vdiff = graph_from(&[0, 2], &[(0, 1)]);
        let ediff = crate::graph_from_el(&[0, 1], &[(0, 1, 7)]);
        let c = |g: &Graph| canonical_code(g).unwrap();
        assert_ne!(c(&base), c(&vdiff));
        assert_ne!(c(&base), c(&ediff));
        // And the edge-labeled graph under another order matches itself.
        let ediff2 = crate::graph_from_el(&[1, 0], &[(0, 1, 7)]);
        assert_eq!(c(&ediff), c(&ediff2));
    }

    #[test]
    fn canonical_code_small_cases() {
        assert!(canonical_code(&graph_from(&[], &[])).is_some());
        assert!(canonical_code(&graph_from(&[9], &[])).is_some());
        assert_ne!(
            canonical_code(&graph_from(&[], &[])),
            canonical_code(&graph_from(&[0], &[]))
        );
    }

    fn clique(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        graph_from(&vec![0; n as usize], &edges)
    }

    /// `K1,k` with equal leaves, the center at vertex `center`.
    fn star(k: u32, center: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..=k)
            .filter(|&v| v != center)
            .map(|v| (center, v))
            .collect();
        let mut labels = vec![1; k as usize + 1];
        labels[center as usize] = 0;
        graph_from(&labels, &edges)
    }

    fn leaves_visited() -> u64 {
        SCRATCH.with(|s| s.borrow().leaves)
    }

    #[test]
    fn canonical_code_prunes_symmetric_blowups() {
        // K8 has 8! = 40 320 leaves, K9 362 880, a 9-leaf star 9!: the
        // orbit-pruned search visits one leaf per level instead.
        for n in [6, 8, 9] {
            let code = canonical_code(&clique(n)).expect("cliques canonize");
            assert_eq!(leaves_visited(), n as u64, "K{n}");
            assert_eq!(
                code.words().len(),
                2 + n as usize + (n * (n - 1) / 2) as usize
            );
        }
        let a = canonical_code(&star(9, 0)).expect("stars canonize");
        assert_eq!(leaves_visited(), 9);
        // Equal across relabelings (the center moved to another vertex id).
        assert_eq!(Some(a), canonical_code(&star(9, 4)));
        assert_ne!(canonical_code(&clique(8)), canonical_code(&clique(9)));
    }

    #[test]
    fn canonical_code_gives_up_when_the_leaf_budget_runs_out() {
        // K5's pruned search needs 5 leaves: 4 are not enough, and the
        // partial minimum must not leak out as a code.
        assert_eq!(canonical_code_within(&clique(5), 4), None);
        assert_eq!(
            canonical_code_within(&clique(5), 5),
            canonical_code(&clique(5))
        );
        assert!(canonical_code(&clique(5)).is_some());
        // The vertex cap is checked before the search runs.
        let big = graph_from(&vec![0; MAX_CANON_VERTICES + 1], &[]);
        assert_eq!(canonical_code(&big), None);
    }

    #[test]
    fn canonical_code_handles_disconnected_graphs() {
        let a = graph_from(&[0, 1, 0, 1], &[(0, 1), (2, 3)]);
        let b = graph_from(&[1, 0, 1, 0], &[(0, 1), (2, 3)]);
        assert_eq!(canonical_code(&a), canonical_code(&b));
        let c = graph_from(&[0, 1, 0, 1], &[(0, 1), (0, 3)]);
        assert_ne!(canonical_code(&a), canonical_code(&c));
    }
}
