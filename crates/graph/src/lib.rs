//! # igq-graph
//!
//! Labeled undirected graph core for the iGQ reproduction (Wang, Ntarmos,
//! Triantafillou, *Indexing Query Graphs to Speedup Graph Query Processing*,
//! EDBT 2016).
//!
//! The paper (Definition 1) works over undirected, vertex-labeled simple
//! graphs. This crate provides:
//!
//! * [`Graph`] — an immutable, compact adjacency-list representation with
//!   per-vertex labels and a label→vertices inverted list;
//! * [`GraphBuilder`] — the mutable construction API (deduplicates edges,
//!   rejects self-loops);
//! * [`GraphStore`] — a dataset `D = {G1..Gn}` with stable [`GraphId`]s;
//! * [`stats`] — per-graph and per-dataset statistics (Table 1 of the paper);
//! * [`io`] — a line-oriented text format (GFU-like, as used by the
//!   GraphGrepSX/Grapes distributions) plus serde support;
//! * [`canon`] — canonical codes for *small* graphs (query-sized), used by
//!   iGQ to detect exact-repeat queries (Section 4.3, optimal case 1);
//! * [`fxhash`] — a small FxHash-style hasher for hot hash maps.
//!
//! Everything downstream (isomorphism engines, feature extraction, the three
//! filter-then-verify methods, and iGQ itself) builds on these types.

#![forbid(unsafe_code)]

pub mod builder;
pub mod canon;
pub mod error;
pub mod fxhash;
pub mod graph;
pub mod io;
pub mod profile;
pub mod stats;
pub mod store;

mod ids;

pub use builder::GraphBuilder;
pub use error::{GraphError, Result};
pub use graph::Graph;
pub use ids::{GraphId, LabelId, VertexId};
pub use profile::GraphProfile;
pub use store::GraphStore;

/// Convenience constructor used pervasively in tests and examples:
/// builds a graph from a label slice and an undirected edge list.
///
/// ```
/// use igq_graph::graph_from;
/// let g = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
/// assert_eq!(g.vertex_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// ```
pub fn graph_from(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(labels.len(), edges.len());
    for &l in labels {
        b.add_vertex(LabelId::new(l));
    }
    for &(u, v) in edges {
        b.add_edge(VertexId::new(u), VertexId::new(v))
            .expect("invalid edge in graph_from");
    }
    b.build()
}

/// Like [`graph_from`], with per-edge labels (third tuple component).
///
/// ```
/// use igq_graph::graph_from_el;
/// let g = graph_from_el(&[0, 1], &[(0, 1, 7)]);
/// assert!(g.has_edge_labels());
/// assert_eq!(g.edge_label(igq_graph::VertexId::new(0), igq_graph::VertexId::new(1)),
///            Some(igq_graph::LabelId::new(7)));
/// ```
pub fn graph_from_el(labels: &[u32], edges: &[(u32, u32, u32)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(labels.len(), edges.len());
    for &l in labels {
        b.add_vertex(LabelId::new(l));
    }
    for &(u, v, l) in edges {
        b.add_edge_labeled(VertexId::new(u), VertexId::new(v), LabelId::new(l))
            .expect("invalid edge in graph_from_el");
    }
    b.build()
}
