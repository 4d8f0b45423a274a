//! AIDS-like synthesizer.
//!
//! Table 1 targets: 62 vertex labels, 40,000 graphs, average degree 2.09,
//! nodes avg 45 / sd 22 / max 245, edges avg 47 / sd 23 / max 250.
//!
//! Molecule graphs are sparse — essentially trees with a sprinkle of rings —
//! and their label (element) distribution is heavily skewed toward a few
//! atoms (C, O, N, ...), which we model with Zipf(1.6) labels.

use super::{graph_rng, random_graph, sample_normal_clamped, GraphShape, LabelModel};
use igq_graph::GraphStore;

/// Number of distinct vertex labels (chemical elements) in AIDS.
pub const AIDS_LABELS: u32 = 62;

/// Default label-skew α for [`aids_like`]. Real AIDS molecules are
/// dominated by a handful of elements — heavy-atom composition is roughly
/// C 70%, O 12%, N 10% — and Zipf(2.2) over 62 labels reproduces exactly
/// that profile (0.67 / 0.15 / 0.06). The skew is the main driver of
/// cross-query sub/supergraph relationships, and therefore of iGQ's
/// speedup.
pub const AIDS_LABEL_ALPHA: f64 = 2.2;

/// Generates an AIDS-like dataset of `graph_count` molecule graphs.
pub fn aids_like(graph_count: usize, seed: u64) -> GraphStore {
    aids_like_skewed(graph_count, seed, AIDS_LABEL_ALPHA)
}

/// [`aids_like`] with an explicit label-skew α (diagnostics/ablations).
pub fn aids_like_skewed(graph_count: usize, seed: u64, alpha: f64) -> GraphStore {
    (0..graph_count)
        .map(|i| {
            let mut rng = graph_rng(seed, i);
            let nodes = sample_normal_clamped(&mut rng, 45.0, 22.0, 4, 245);
            // Average degree 2.09 ⇒ m ≈ 1.045·n: a spanning tree plus ~4.5%
            // ring-closing edges.
            let edges = ((nodes as f64) * 1.045).round() as usize;
            random_graph(
                &mut rng,
                &GraphShape {
                    nodes,
                    edges,
                    labels: LabelModel::Skewed {
                        universe: AIDS_LABELS,
                        alpha,
                    },
                    preferential: false,
                    edge_label_universe: 0,
                },
            )
        })
        .collect()
}

/// Number of bond types in the edge-labeled AIDS variant (single, double,
/// triple, aromatic — as in the real NCI SD files).
pub const AIDS_BOND_TYPES: u32 = 4;

/// Generates an AIDS-like dataset whose edges carry bond-type labels —
/// the paper's Section 3 edge-label generalization, exercised end-to-end.
/// Same shapes as [`aids_like`]; bond labels are Zipf(1.8)-skewed toward
/// label 0 (single bonds dominate real molecules).
pub fn aids_like_bonds(graph_count: usize, seed: u64) -> GraphStore {
    (0..graph_count)
        .map(|i| {
            let mut rng = graph_rng(seed, i);
            let nodes = sample_normal_clamped(&mut rng, 45.0, 22.0, 4, 245);
            let edges = ((nodes as f64) * 1.045).round() as usize;
            random_graph(
                &mut rng,
                &GraphShape {
                    nodes,
                    edges,
                    labels: LabelModel::Skewed {
                        universe: AIDS_LABELS,
                        alpha: AIDS_LABEL_ALPHA,
                    },
                    preferential: false,
                    edge_label_universe: AIDS_BOND_TYPES,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::stats::DatasetStats;

    #[test]
    fn shape_matches_table1() {
        let store = aids_like(300, 17);
        let s = DatasetStats::of(&store);
        assert_eq!(s.graph_count, 300);
        assert!((s.nodes.avg - 45.0).abs() < 5.0, "node avg {}", s.nodes.avg);
        assert!(
            (s.avg_degree - 2.09).abs() < 0.15,
            "avg degree {}",
            s.avg_degree
        );
        assert!(s.nodes.max <= 245.0);
        assert!(s.vertex_labels <= AIDS_LABELS as usize);
        // The skewed model should still exercise a good part of the universe.
        assert!(s.vertex_labels > 20, "labels used {}", s.vertex_labels);
    }

    #[test]
    fn graphs_are_sparse() {
        let store = aids_like(50, 3);
        for (_, g) in store.iter() {
            let density = g.edge_count() as f64 / g.vertex_count() as f64;
            assert!(density < 1.3, "density {density}");
        }
    }

    #[test]
    fn bond_variant_labels_edges() {
        let store = aids_like_bonds(30, 3);
        let labeled = store.iter().filter(|(_, g)| g.has_edge_labels()).count();
        assert!(
            labeled > 20,
            "most molecule graphs should carry bond labels"
        );
        // Bond labels stay inside the declared universe, skewed toward 0.
        let mut hist = std::collections::BTreeMap::new();
        for (_, g) in store.iter() {
            for (_, l) in g.labeled_edges() {
                assert!(l.raw() < AIDS_BOND_TYPES);
                *hist.entry(l.raw()).or_insert(0u32) += 1;
            }
        }
        let single = hist.get(&0).copied().unwrap_or(0);
        let total: u32 = hist.values().sum();
        assert!(single * 2 > total, "single bonds should dominate: {hist:?}");
    }

    #[test]
    fn bond_variant_same_topology_as_plain() {
        // Same seed ⇒ identical topology and vertex labels; edge labels
        // are layered on a forked RNG stream.
        let plain = aids_like(5, 11);
        let bonds = aids_like_bonds(5, 11);
        for i in 0..5 {
            let id = igq_graph::GraphId::new(i);
            let (p, b) = (plain.get(id), bonds.get(id));
            assert_eq!(p.labels(), b.labels());
            assert_eq!(p.edges(), b.edges());
        }
    }
}
