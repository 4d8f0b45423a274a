//! The dataset: a `GraphStore` holds `D = {G1, ..., Gn}`.

use crate::fxhash::FxHashMap;
use crate::profile::GraphProfile;
use crate::{Graph, GraphId, LabelId};

/// An append-only collection of dataset graphs with stable, dense
/// [`GraphId`]s.
///
/// The subgraph querying problem (paper Definition 3) asks, for a query `g`,
/// which `Gi` in the store satisfy `g ⊆ Gi`; the supergraph problem
/// (Definition 4) asks for `g ⊇ Gi`. Every index method in `igq-methods`
/// and iGQ itself are built over a `GraphStore`.
///
/// Alongside the graphs, the store precomputes per-graph
/// [`GraphProfile`]s (label histogram, degree sequence) and a
/// dataset-wide label-frequency table, so the verification hot path can
/// seed matching plans and run the pre-verify screen without scanning any
/// target graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphStore {
    graphs: Vec<Graph>,
    /// One precomputed profile per graph, id-aligned with `graphs`.
    profiles: Vec<GraphProfile>,
    /// Total multiplicity of each vertex label across the dataset — the
    /// store-level rarity statistic behind target-independent matching
    /// plans.
    label_totals: FxHashMap<LabelId, u64>,
}

impl serde_json::ToJson for GraphStore {
    fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert(
            "graphs".to_owned(),
            serde_json::ToJson::to_json(&self.graphs),
        );
        serde_json::Value::Object(m)
    }
}

impl serde_json::FromJson for GraphStore {
    fn from_json(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        let graphs = v
            .get("graphs")
            .ok_or_else(|| serde_json::Error::custom("missing graphs"))?;
        Ok(GraphStore::from_graphs(serde_json::FromJson::from_json(
            graphs,
        )?))
    }
}

impl GraphStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a store from a vector of graphs (ids follow vector order).
    pub fn from_graphs(graphs: Vec<Graph>) -> Self {
        let mut store = GraphStore::default();
        for g in graphs {
            store.push(g);
        }
        store
    }

    /// Appends a graph, returning its id. Profiles and the label-frequency
    /// table are maintained incrementally.
    pub fn push(&mut self, g: Graph) -> GraphId {
        let id = GraphId::from_index(self.graphs.len());
        let profile = GraphProfile::of(&g);
        for &(l, c) in profile.label_counts() {
            *self.label_totals.entry(l).or_insert(0) += c as u64;
        }
        self.profiles.push(profile);
        self.graphs.push(g);
        id
    }

    /// The precomputed [`GraphProfile`] of the graph with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids are only minted by this store).
    #[inline]
    pub fn profile(&self, id: GraphId) -> &GraphProfile {
        &self.profiles[id.index()]
    }

    /// Total multiplicity of `label` across all stored graphs (0 when the
    /// label never occurs). The rarity statistic used to seed
    /// target-independent matching plans.
    #[inline]
    pub fn label_frequency(&self, label: LabelId) -> u64 {
        self.label_totals.get(&label).copied().unwrap_or(0)
    }

    /// The graph with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids are only minted by this store).
    #[inline]
    pub fn get(&self, id: GraphId) -> &Graph {
        &self.graphs[id.index()]
    }

    /// Checked lookup.
    #[inline]
    pub fn try_get(&self, id: GraphId) -> Option<&Graph> {
        self.graphs.get(id.index())
    }

    /// Number of graphs.
    #[inline]
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when the store holds no graphs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Iterates `(id, graph)` pairs in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (GraphId, &Graph)> {
        self.graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (GraphId::from_index(i), g))
    }

    /// All ids, in order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = GraphId> + Clone {
        (0..self.graphs.len() as u32).map(GraphId::new)
    }

    /// Sum of vertex counts across the dataset.
    pub fn total_vertices(&self) -> usize {
        self.graphs.iter().map(|g| g.vertex_count()).sum()
    }

    /// Sum of edge counts across the dataset.
    pub fn total_edges(&self) -> usize {
        self.graphs.iter().map(|g| g.edge_count()).sum()
    }

    /// Approximate heap footprint, in bytes: the stored graphs plus their
    /// precomputed [`GraphProfile`]s.
    pub fn heap_size_bytes(&self) -> u64 {
        let graphs: u64 = self.graphs.iter().map(|g| g.heap_size_bytes()).sum();
        let profiles: u64 = self.profiles.iter().map(|p| p.heap_size_bytes()).sum();
        graphs + profiles
    }
}

impl std::ops::Index<GraphId> for GraphStore {
    type Output = Graph;
    #[inline]
    fn index(&self, id: GraphId) -> &Graph {
        self.get(id)
    }
}

impl FromIterator<Graph> for GraphStore {
    fn from_iter<T: IntoIterator<Item = Graph>>(iter: T) -> Self {
        GraphStore::from_graphs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_from;

    fn store3() -> GraphStore {
        vec![
            graph_from(&[0], &[]),
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut s = GraphStore::new();
        let a = s.push(graph_from(&[0], &[]));
        let b = s.push(graph_from(&[1], &[]));
        assert_eq!(a, GraphId::new(0));
        assert_eq!(b, GraphId::new(1));
        assert_eq!(
            s.get(a).label(crate::VertexId::new(0)),
            crate::LabelId::new(0)
        );
    }

    #[test]
    fn totals() {
        let s = store3();
        assert_eq!(s.len(), 3);
        assert_eq!(s.total_vertices(), 6);
        assert_eq!(s.total_edges(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn iter_yields_in_order() {
        let s = store3();
        let sizes: Vec<usize> = s.iter().map(|(_, g)| g.vertex_count()).collect();
        assert_eq!(sizes, vec![1, 2, 3]);
        let ids: Vec<u32> = s.ids().map(|i| i.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn try_get_bounds() {
        let s = store3();
        assert!(s.try_get(GraphId::new(2)).is_some());
        assert!(s.try_get(GraphId::new(3)).is_none());
    }

    #[test]
    fn index_operator() {
        let s = store3();
        assert_eq!(s[GraphId::new(2)].vertex_count(), 3);
    }

    #[test]
    fn profiles_and_label_frequencies_track_pushes() {
        let mut s = store3();
        // store3 labels: g0=[0], g1=[0,1], g2=[0,1,2].
        assert_eq!(s.label_frequency(crate::LabelId::new(0)), 3);
        assert_eq!(s.label_frequency(crate::LabelId::new(1)), 2);
        assert_eq!(s.label_frequency(crate::LabelId::new(9)), 0);
        assert_eq!(s.profile(GraphId::new(2)).max_degree(), 2);
        s.push(graph_from(&[9, 9], &[(0, 1)]));
        assert_eq!(s.label_frequency(crate::LabelId::new(9)), 2);
        assert_eq!(s.profile(GraphId::new(3)).degree_desc(), &[1, 1]);
    }

    #[test]
    fn serde_roundtrip_restores_profiles() {
        let s = store3();
        let json = serde_json::to_string(&s).unwrap();
        let back: GraphStore = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(
            back.label_frequency(crate::LabelId::new(0)),
            s.label_frequency(crate::LabelId::new(0))
        );
    }
}
