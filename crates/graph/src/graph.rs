//! The immutable labeled undirected graph type (paper Definition 1).
//!
//! A `Graph` is a simple (no self-loops, no parallel edges) undirected graph
//! with one label per vertex. Adjacency is stored in CSR form (offset array +
//! flat sorted neighbor array) so that neighbor scans — the inner loop of
//! both isomorphism search and feature enumeration — touch contiguous memory,
//! and `has_edge` is a binary search over a vertex's neighbor slice (one
//! shift-and-mask on bitset rows for graphs of at most 64 vertices). The
//! label index is flat too: sorted `(label, end)` keys over one
//! label-grouped member array. Verification walks these arrays for every
//! candidate, so a graph is a handful of allocations whatever its label
//! count, and [`Graph::touch`] can pull all of a small graph's in ahead of
//! the search.

use crate::fxhash::FxHashMap;
use crate::{LabelId, VertexId};
use serde_json::FromJson;
use std::fmt;

/// An immutable, vertex-labeled, undirected simple graph, with optional
/// edge labels (the paper's Definition 1 covers vertex labels; Section 3
/// notes the results "straightforwardly generalize to graphs with edge
/// labels" — this type carries that generalization).
///
/// Construct via [`crate::GraphBuilder`], [`crate::graph_from`], or
/// [`crate::graph_from_el`].
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// Vertex labels, indexed by vertex.
    labels: Box<[LabelId]>,
    /// CSR offsets: neighbors of `v` are `neighbors[offsets[v]..offsets[v+1]]`.
    offsets: Box<[u32]>,
    /// Flat neighbor array; each vertex's slice is sorted ascending.
    neighbors: Box<[VertexId]>,
    /// Canonical edge list: `(u, v)` with `u < v`, sorted lexicographically.
    edges: Box<[(VertexId, VertexId)]>,
    /// Edge labels aligned with `edges`. `None` means "all edges carry the
    /// default label 0" — construction normalizes an all-zero label vector
    /// to `None`, so the derived equality stays canonical.
    edge_labels: Option<Box<[LabelId]>>,
    /// The label index, keys half: one `(label, end)` pair per distinct
    /// label, ascending by label; `end` is where the label's group ends in
    /// `label_members` (it starts where the previous key's group ends).
    /// `vertices_with_label` is a binary search here, and the whole index
    /// is two allocations however many labels the graph has.
    label_keys: Box<[(LabelId, u32)]>,
    /// The label index, members half: every vertex once, grouped by label
    /// in `label_keys` order, each group sorted ascending. Both halves are
    /// derived from `labels`, so the derived equality stays canonical.
    label_members: Box<[VertexId]>,
    /// Bitset adjacency rows for graphs with at most 64 vertices
    /// (`bitset[u] >> v & 1`): the isomorphism engines' `has_edge` inner
    /// loop becomes a single shift-and-mask instead of a binary search.
    /// `None` for larger graphs. Derived from `edges`, so the derived
    /// equality stays canonical.
    bitset: Option<Box<[u64]>>,
}

/// Vertex-count ceiling for the bitset adjacency fast path (and for
/// [`Graph::touch`]).
pub(crate) const BITSET_MAX_VERTICES: usize = 64;

/// Reads one element of every 64-byte line `s` spans (the first, one
/// per line's worth of elements after it, and the last, which may sit on
/// a line of its own when `s` does not start on a line boundary) through
/// [`std::hint::black_box`], so the loads are neither elided nor used.
#[inline]
pub(crate) fn touch_lines<T: Copy>(s: &[T]) {
    let step = (64 / std::mem::size_of::<T>().max(1)).max(1);
    for x in s.iter().step_by(step) {
        std::hint::black_box(*x);
    }
    if let Some(last) = s.last() {
        std::hint::black_box(*last);
    }
}

impl Graph {
    pub(crate) fn from_parts(labels: Vec<LabelId>, edge_list: Vec<(VertexId, VertexId)>) -> Self {
        let labeled = edge_list
            .into_iter()
            .map(|(u, v)| (u, v, LabelId::new(0)))
            .collect();
        Self::from_parts_labeled(labels, labeled).expect("unlabeled edges cannot conflict")
    }

    /// Builds from vertex labels and a labeled edge list. Edges are
    /// normalized to `u < v`, sorted, and deduplicated; the same edge
    /// appearing with two different labels is an error.
    pub(crate) fn from_parts_labeled(
        labels: Vec<LabelId>,
        mut triples: Vec<(VertexId, VertexId, LabelId)>,
    ) -> crate::Result<Self> {
        let n = labels.len();
        triples.sort_unstable();
        triples.dedup();
        // After dedup, a duplicated edge that survives differs in label.
        for w in triples.windows(2) {
            if (w[0].0, w[0].1) == (w[1].0, w[1].1) {
                return Err(crate::GraphError::EdgeLabelConflict(w[0].0, w[0].1));
            }
        }
        let mut edge_list: Vec<(VertexId, VertexId)> = Vec::with_capacity(triples.len());
        let mut edge_labels: Vec<LabelId> = Vec::with_capacity(triples.len());
        for (u, v, l) in triples {
            edge_list.push((u, v));
            edge_labels.push(l);
        }
        let edge_labels = if edge_labels.iter().all(|l| l.raw() == 0) {
            None
        } else {
            Some(edge_labels.into_boxed_slice())
        };

        let mut degree = vec![0u32; n];
        for &(u, v) in &edge_list {
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }

        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![VertexId::new(0); acc as usize];
        for &(u, v) in &edge_list {
            neighbors[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
            neighbors[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }
        // Each vertex slice must be sorted for binary-search adjacency tests.
        for v in 0..n {
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            neighbors[s..e].sort_unstable();
        }

        // A stable sort by label keeps each group in ascending vertex order.
        let mut label_members: Vec<VertexId> = (0..n).map(VertexId::from_index).collect();
        label_members.sort_by_key(|v| labels[v.index()]);
        let mut label_keys: Vec<(LabelId, u32)> = Vec::new();
        for (i, v) in label_members.iter().enumerate() {
            let l = labels[v.index()];
            match label_keys.last_mut() {
                Some((last, end)) if *last == l => *end = i as u32 + 1,
                _ => label_keys.push((l, i as u32 + 1)),
            }
        }

        let bitset = if n <= BITSET_MAX_VERTICES {
            let mut rows = vec![0u64; n];
            for &(u, v) in &edge_list {
                rows[u.index()] |= 1u64 << v.raw();
                rows[v.index()] |= 1u64 << u.raw();
            }
            Some(rows.into_boxed_slice())
        } else {
            None
        };

        Ok(Graph {
            labels: labels.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            neighbors: neighbors.into_boxed_slice(),
            edges: edge_list.into_boxed_slice(),
            edge_labels,
            label_keys: label_keys.into_boxed_slice(),
            label_members: label_members.into_boxed_slice(),
            bitset,
        })
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> LabelId {
        self.labels[v.index()]
    }

    /// All vertex labels, indexed by vertex.
    #[inline]
    pub fn labels(&self) -> &[LabelId] {
        &self.labels
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let s = self.offsets[v.index()] as usize;
        let e = self.offsets[v.index() + 1] as usize;
        &self.neighbors[s..e]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Adjacency test: one shift-and-mask on the bitset rows for graphs of
    /// at most 64 vertices, a binary search over the smaller neighbor
    /// slice otherwise.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if let Some(rows) = &self.bitset {
            return (rows[u.index()] >> v.raw()) & 1 == 1;
        }
        // Search the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + Clone {
        (0..self.labels.len() as u32).map(VertexId::new)
    }

    /// The canonical `(u, v), u < v` edge list, sorted.
    #[inline]
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// True when any edge carries a non-default label.
    #[inline]
    pub fn has_edge_labels(&self) -> bool {
        self.edge_labels.is_some()
    }

    /// The label of edge `{u, v}`, or `None` when the edge is absent.
    /// Unlabeled graphs report the default label `0` for every edge.
    pub fn edge_label(&self, u: VertexId, v: VertexId) -> Option<LabelId> {
        let key = if u < v { (u, v) } else { (v, u) };
        let idx = self.edges.binary_search(&key).ok()?;
        Some(match &self.edge_labels {
            Some(ls) => ls[idx],
            None => LabelId::new(0),
        })
    }

    /// The label of edge `{u, v}`, assuming the edge exists (the matcher's
    /// hot path, called right after a successful adjacency check).
    ///
    /// # Panics
    /// Panics in debug builds when the edge is absent; in release builds the
    /// result for an absent edge is unspecified.
    #[inline]
    pub fn edge_label_unchecked(&self, u: VertexId, v: VertexId) -> LabelId {
        match &self.edge_labels {
            None => LabelId::new(0),
            Some(ls) => {
                let key = if u < v { (u, v) } else { (v, u) };
                let idx = self.edges.binary_search(&key);
                debug_assert!(idx.is_ok(), "edge_label_unchecked on absent edge {key:?}");
                ls[idx.unwrap_or(0)]
            }
        }
    }

    /// Iterates `((u, v), label)` over the canonical edge list. Unlabeled
    /// graphs yield label `0` everywhere.
    pub fn labeled_edges(
        &self,
    ) -> impl ExactSizeIterator<Item = ((VertexId, VertexId), LabelId)> + '_ {
        self.edges.iter().enumerate().map(move |(i, &e)| {
            let l = match &self.edge_labels {
                Some(ls) => ls[i],
                None => LabelId::new(0),
            };
            (e, l)
        })
    }

    /// Histogram `edge label -> multiplicity`. Unlabeled graphs report all
    /// edges under label `0`.
    pub fn edge_label_histogram(&self) -> FxHashMap<LabelId, u32> {
        let mut h = FxHashMap::default();
        for (_, l) in self.labeled_edges() {
            *h.entry(l).or_insert(0) += 1;
        }
        h
    }

    /// Vertices carrying `label`, sorted ascending (empty if absent).
    #[inline]
    pub fn vertices_with_label(&self, label: LabelId) -> &[VertexId] {
        match self.label_keys.binary_search_by_key(&label, |&(l, _)| l) {
            Ok(i) => {
                let start = i.checked_sub(1).map_or(0, |p| self.label_keys[p].1);
                &self.label_members[start as usize..self.label_keys[i].1 as usize]
            }
            Err(_) => &[],
        }
    }

    /// Number of distinct labels present in this graph.
    #[inline]
    pub fn distinct_label_count(&self) -> usize {
        self.label_keys.len()
    }

    /// Iterator over `(label, vertices)` groups, in ascending label order.
    pub fn label_groups(&self) -> impl Iterator<Item = (LabelId, &[VertexId])> {
        let mut start = 0;
        self.label_keys.iter().map(move |&(l, end)| {
            let group = &self.label_members[start as usize..end as usize];
            start = end;
            (l, group)
        })
    }

    /// Histogram `label -> multiplicity` of vertex labels.
    pub fn label_histogram(&self) -> FxHashMap<LabelId, u32> {
        self.label_groups()
            .map(|(l, vs)| (l, vs.len() as u32))
            .collect()
    }

    /// Reads one word of every 64-byte line of the arrays the matcher
    /// walks — labels, CSR offsets and neighbors, the label index and the
    /// bitset rows — and discards it. Verification calls this on the next
    /// candidate before it screens and searches the current one, so the
    /// next graph's lines are loaded while this one is searched rather
    /// than missed one dependent load at a time. Safe reads only: a
    /// `black_box` keeps each load alive.
    ///
    /// Only graphs with bitset rows (at most 64 vertices) are touched. A
    /// larger graph spans far more lines than one search reads: touching
    /// all of a PDBS-like target's arrays made its verification slower,
    /// not faster.
    pub fn touch(&self) {
        let Some(rows) = &self.bitset else { return };
        touch_lines(&self.labels);
        touch_lines(&self.offsets);
        touch_lines(&self.neighbors);
        touch_lines(&self.label_keys);
        touch_lines(&self.label_members);
        touch_lines(rows);
    }

    /// Maximum vertex degree (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2|E| / |V|` (0.0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            2.0 * self.edges.len() as f64 / self.labels.len() as f64
        }
    }

    /// True when every pair of vertices is connected by a path.
    /// The empty graph and singletons count as connected.
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }

    /// Connected components as sorted vertex lists, largest first.
    pub fn connected_components(&self) -> Vec<Vec<VertexId>> {
        let n = self.vertex_count();
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        let mut stack = Vec::new();
        for start in self.vertices() {
            if seen[start.index()] {
                continue;
            }
            let mut comp = Vec::new();
            seen[start.index()] = true;
            stack.push(start);
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &w in self.neighbors(v) {
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        stack.push(w);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps.sort_by_key(|c| std::cmp::Reverse(c.len()));
        comps
    }

    /// Extracts the subgraph induced by `keep` (which must be sorted and
    /// deduplicated), remapping vertex ids to `0..keep.len()`.
    ///
    /// Returns the subgraph and the mapping `new VertexId -> old VertexId`
    /// (that is, `mapping[new.index()] == old`).
    pub fn induced_subgraph(&self, keep: &[VertexId]) -> (Graph, Vec<VertexId>) {
        debug_assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "keep must be sorted+dedup"
        );
        let mut remap: FxHashMap<VertexId, VertexId> = FxHashMap::default();
        remap.reserve(keep.len());
        for (new_idx, &old) in keep.iter().enumerate() {
            remap.insert(old, VertexId::from_index(new_idx));
        }
        let labels: Vec<LabelId> = keep.iter().map(|&v| self.label(v)).collect();
        let mut edges = Vec::new();
        for &old_u in keep {
            let new_u = remap[&old_u];
            for &old_v in self.neighbors(old_u) {
                if old_u < old_v {
                    if let Some(&new_v) = remap.get(&old_v) {
                        edges.push((new_u, new_v, self.edge_label_unchecked(old_u, old_v)));
                    }
                }
            }
        }
        let g =
            Graph::from_parts_labeled(labels, edges).expect("induced edges inherit unique labels");
        (g, keep.to_vec())
    }

    /// Rough in-memory footprint of this graph, in bytes. Used by the
    /// Figure 18 index-size accounting.
    pub fn heap_size_bytes(&self) -> u64 {
        let labels = self.labels.len() * std::mem::size_of::<LabelId>();
        let offsets = self.offsets.len() * std::mem::size_of::<u32>();
        let neigh = self.neighbors.len() * std::mem::size_of::<VertexId>();
        let edges = self.edges.len() * std::mem::size_of::<(VertexId, VertexId)>();
        let elabels = self
            .edge_labels
            .as_ref()
            .map_or(0, |ls| ls.len() * std::mem::size_of::<LabelId>());
        let idx =
            std::mem::size_of_val(&*self.label_keys) + std::mem::size_of_val(&*self.label_members);
        let bitset = self
            .bitset
            .as_ref()
            .map_or(0, |rows| rows.len() * std::mem::size_of::<u64>());
        (labels + offsets + neigh + edges + elabels + idx + bitset) as u64
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, labels={:?})",
            self.vertex_count(),
            self.edge_count(),
            &self.labels[..self.labels.len().min(16)]
        )
    }
}

/// JSON support uses the compact `{labels, edges[, edge_labels]}`
/// representation; CSR and the label index are rebuilt on deserialize.
/// `edge_labels` is omitted for unlabeled graphs, so files written before
/// edge-label support parse unchanged.
impl serde_json::ToJson for Graph {
    fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert("labels".to_owned(), self.labels.to_vec().to_json());
        m.insert("edges".to_owned(), self.edges.to_vec().to_json());
        if let Some(ls) = self.edge_labels.as_ref() {
            m.insert("edge_labels".to_owned(), ls.to_vec().to_json());
        }
        serde_json::Value::Object(m)
    }
}

impl serde_json::FromJson for Graph {
    fn from_json(v: &serde_json::Value) -> std::result::Result<Self, serde_json::Error> {
        let labels: Vec<LabelId> = FromJson::from_json(
            v.get("labels")
                .ok_or_else(|| serde_json::Error::custom("missing labels"))?,
        )?;
        let edges: Vec<(VertexId, VertexId)> = FromJson::from_json(
            v.get("edges")
                .ok_or_else(|| serde_json::Error::custom("missing edges"))?,
        )?;
        let edge_labels: Option<Vec<LabelId>> = match v.get("edge_labels") {
            None => None,
            Some(el) => FromJson::from_json(el)?,
        };
        let n = labels.len() as u32;
        for &(u, v) in &edges {
            if u.raw() >= n || v.raw() >= n || u == v {
                return Err(serde_json::Error::custom(
                    "invalid edge in serialized graph",
                ));
            }
        }
        match edge_labels {
            None => Ok(Graph::from_parts(labels, edges)),
            Some(ls) => {
                if ls.len() != edges.len() {
                    return Err(serde_json::Error::custom(
                        "edge_labels length does not match edges",
                    ));
                }
                let triples = edges
                    .into_iter()
                    .zip(ls)
                    .map(|((u, v), l)| (u, v, l))
                    .collect();
                Graph::from_parts_labeled(labels, triples)
                    .map_err(|e| serde_json::Error::custom(e.to_string()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::graph_from;
    use crate::{LabelId, VertexId};

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    /// Path a-b-c with labels 0,1,0.
    fn path3() -> crate::Graph {
        graph_from(&[0, 1, 0], &[(0, 1), (1, 2)])
    }

    #[test]
    fn counts() {
        let g = path3();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let g = graph_from(&[0, 0, 0, 0], &[(2, 0), (0, 1), (3, 0)]);
        assert_eq!(g.neighbors(v(0)), &[v(1), v(2), v(3)]);
        assert!(g.has_edge(v(0), v(2)));
        assert!(g.has_edge(v(2), v(0)));
        assert!(!g.has_edge(v(1), v(2)));
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = graph_from(&[0, 0], &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(v(0)), 1);
    }

    #[test]
    fn label_index_groups_vertices() {
        let g = path3();
        assert_eq!(g.vertices_with_label(LabelId::new(0)), &[v(0), v(2)]);
        assert_eq!(g.vertices_with_label(LabelId::new(1)), &[v(1)]);
        assert_eq!(g.vertices_with_label(LabelId::new(9)), &[] as &[VertexId]);
        assert_eq!(g.distinct_label_count(), 2);
    }

    #[test]
    fn degree_statistics() {
        let g = graph_from(&[0; 4], &[(0, 1), (0, 2), (0, 3)]); // star
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn connectivity_and_components() {
        let g = graph_from(&[0; 5], &[(0, 1), (1, 2), (3, 4)]);
        assert!(!g.is_connected());
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![v(0), v(1), v(2)]);
        assert_eq!(comps[1], vec![v(3), v(4)]);
        assert!(path3().is_connected());
    }

    #[test]
    fn empty_graph_behaves() {
        let g = graph_from(&[], &[]);
        assert!(g.is_empty());
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.connected_components().is_empty());
    }

    #[test]
    fn induced_subgraph_remaps_ids() {
        // Triangle 0-1-2 plus pendant 3 on 2; keep {1, 2, 3}.
        let g = graph_from(&[5, 6, 7, 8], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let (sub, mapping) = g.induced_subgraph(&[v(1), v(2), v(3)]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 2); // (1,2) and (2,3) survive
        assert_eq!(sub.label(v(0)), LabelId::new(6));
        assert_eq!(mapping, vec![v(1), v(2), v(3)]);
        assert!(sub.has_edge(v(0), v(1)));
        assert!(sub.has_edge(v(1), v(2)));
        assert!(!sub.has_edge(v(0), v(2)));
    }

    #[test]
    fn serde_roundtrip() {
        let g = path3();
        let json = serde_json::to_string(&g).unwrap();
        let back: crate::Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn edge_labels_store_and_lookup() {
        let g = crate::graph_from_el(&[0, 1, 2], &[(0, 1, 5), (1, 2, 9)]);
        assert!(g.has_edge_labels());
        assert_eq!(g.edge_label(v(0), v(1)), Some(LabelId::new(5)));
        assert_eq!(
            g.edge_label(v(1), v(0)),
            Some(LabelId::new(5)),
            "order-insensitive"
        );
        assert_eq!(g.edge_label(v(1), v(2)), Some(LabelId::new(9)));
        assert_eq!(g.edge_label(v(0), v(2)), None, "absent edge");
        assert_eq!(g.edge_label_unchecked(v(2), v(1)), LabelId::new(9));
    }

    #[test]
    fn all_zero_edge_labels_normalize_to_unlabeled() {
        let explicit = crate::graph_from_el(&[0, 1], &[(0, 1, 0)]);
        let implicit = graph_from(&[0, 1], &[(0, 1)]);
        assert!(!explicit.has_edge_labels());
        assert_eq!(explicit, implicit);
        assert_eq!(implicit.edge_label(v(0), v(1)), Some(LabelId::new(0)));
    }

    #[test]
    fn edge_label_histogram_counts() {
        let g = crate::graph_from_el(&[0; 4], &[(0, 1, 2), (1, 2, 2), (2, 3, 7)]);
        let h = g.edge_label_histogram();
        assert_eq!(h.get(&LabelId::new(2)), Some(&2));
        assert_eq!(h.get(&LabelId::new(7)), Some(&1));
        let plain = graph_from(&[0, 1], &[(0, 1)]);
        assert_eq!(plain.edge_label_histogram().get(&LabelId::new(0)), Some(&1));
    }

    #[test]
    fn induced_subgraph_keeps_edge_labels() {
        let g = crate::graph_from_el(&[0, 1, 2], &[(0, 1, 4), (1, 2, 6)]);
        let (sub, _) = g.induced_subgraph(&[v(1), v(2)]);
        assert_eq!(sub.edge_label(v(0), v(1)), Some(LabelId::new(6)));
    }

    #[test]
    fn serde_roundtrip_with_edge_labels_and_backwards_compat() {
        let g = crate::graph_from_el(&[0, 1], &[(0, 1, 3)]);
        let json = serde_json::to_string(&g).unwrap();
        assert!(json.contains("edge_labels"));
        let back: crate::Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);

        // Unlabeled graphs omit the field entirely (old format)...
        let plain = path3();
        let json = serde_json::to_string(&plain).unwrap();
        assert!(!json.contains("edge_labels"));
        // ...and old files without the field still parse.
        let legacy = r#"{"labels":[0,1],"edges":[[0,1]]}"#;
        let back: crate::Graph = serde_json::from_str(legacy).unwrap();
        assert!(!back.has_edge_labels());
    }

    #[test]
    fn serde_rejects_edge_label_length_mismatch() {
        let bad = r#"{"labels":[0,1],"edges":[[0,1]],"edge_labels":[1,2]}"#;
        assert!(serde_json::from_str::<crate::Graph>(bad).is_err());
    }

    #[test]
    fn labeled_edges_iterates_canonically() {
        let g = crate::graph_from_el(&[0, 1, 2], &[(2, 1, 9), (1, 0, 5)]);
        let all: Vec<_> = g.labeled_edges().collect();
        assert_eq!(
            all,
            vec![
                ((v(0), v(1)), LabelId::new(5)),
                ((v(1), v(2)), LabelId::new(9))
            ]
        );
    }

    #[test]
    fn serde_rejects_corrupt_edges() {
        let json = r#"{"labels":[0,1],"edges":[[0,5]]}"#;
        assert!(serde_json::from_str::<crate::Graph>(json).is_err());
        let json = r#"{"labels":[0,1],"edges":[[1,1]]}"#;
        assert!(serde_json::from_str::<crate::Graph>(json).is_err());
    }

    #[test]
    fn bitset_and_binary_search_adjacency_agree() {
        // 64 vertices (bitset path, bit 63 exercised) and a 70-vertex ring
        // (binary-search path), each against its neighbor-slice truth.
        let ring = |n: u32| -> Vec<(u32, u32)> { (0..n).map(|i| (i, (i + 1) % n)).collect() };
        for g in [
            graph_from(&vec![0; 64], &ring(64)),
            graph_from(&vec![0; 70], &ring(70)),
        ] {
            let n = g.vertex_count() as u32;
            for u in 0..n {
                for w in 0..n {
                    let expect = g.neighbors(v(u)).binary_search(&v(w)).is_ok();
                    assert_eq!(g.has_edge(v(u), v(w)), expect, "({u},{w}) n={n}");
                }
            }
        }
    }

    #[test]
    fn heap_size_is_positive_and_monotone() {
        let small = path3();
        let big = graph_from(&[0; 100], &(0..99).map(|i| (i, i + 1)).collect::<Vec<_>>());
        assert!(small.heap_size_bytes() > 0);
        assert!(big.heap_size_bytes() > small.heap_size_bytes());
    }
}
