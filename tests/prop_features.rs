//! Property tests over feature extraction and index filters: the
//! no-false-negative contracts everything else rests on, and the path
//! enumerator pinned to the level-by-level one it replaced
//! (`common::paths_oracle`).

mod common;

use common::paths_oracle::oracle_paths;
use common::{arb_graph, arb_store, oracle_answers, oracle_is_subgraph, oracle_super_answers};
use igq::features::{
    enumerate_cycles, enumerate_paths, enumerate_paths_with_locations, enumerate_trees,
    CycleConfig, FeatureSet, PathConfig, TreeConfig,
};
use igq::graph::{graph_from, Graph};
use igq::methods::{
    ContainmentIndex, CtIndex, CtIndexConfig, Ggsx, GgsxConfig, Grapes, GrapesConfig,
    SubgraphMethod,
};
use proptest::prelude::*;

/// Asserts that `enumerate_paths` and `enumerate_paths_with_locations`
/// return the oracle's features exactly — `counts` and `locations` in the
/// same iteration order (it reaches checkpoint bytes), and `complete_len` —
/// for every `max_len` in 0..=5, with and without vertex features, under
/// budgets that land on and next to every level's cumulative cost V(ℓ).
fn assert_paths_match_oracle(g: &Graph) {
    for max_len in 0..=5 {
        let mut budgets = vec![0, u64::MAX];
        for level in 1..=max_len {
            let unbudgeted = PathConfig {
                max_len: level,
                include_vertices: true,
                budget: u64::MAX,
            };
            let cost = oracle_paths(g, &unbudgeted, false).1; // V(level)
            budgets.extend([cost.saturating_sub(1), cost, cost + 1]);
        }
        budgets.sort_unstable();
        budgets.dedup();
        for budget in budgets {
            for include_vertices in [true, false] {
                let config = PathConfig {
                    max_len,
                    include_vertices,
                    budget,
                };
                for want_locations in [false, true] {
                    let (expected, _) = oracle_paths(g, &config, want_locations);
                    let actual = if want_locations {
                        enumerate_paths_with_locations(g, &config)
                    } else {
                        enumerate_paths(g, &config)
                    };
                    let context = format!("{config:?} locations={want_locations} on {g:?}");
                    assert_eq!(actual.complete_len, expected.complete_len, "{context}");
                    assert_eq!(
                        actual.counts.iter().collect::<Vec<_>>(),
                        expected.counts.iter().collect::<Vec<_>>(),
                        "{context}"
                    );
                    assert_eq!(
                        actual.locations.iter().collect::<Vec<_>>(),
                        expected.locations.iter().collect::<Vec<_>>(),
                        "{context}"
                    );
                }
            }
        }
    }
}

/// A graph on `2..=max_n` vertices keeping each possible edge with
/// probability `keep`/8: near-complete at 7, sparse at 2.
fn arb_graph_density(max_n: usize, labels: u32, keep: u8) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .collect();
        let drop = proptest::collection::vec(0u8..8, pairs.len());
        let label_vec = proptest::collection::vec(0..labels, n);
        (label_vec, drop).prop_map(move |(ls, drop)| {
            let edges: Vec<(u32, u32)> = pairs
                .iter()
                .zip(&drop)
                .filter(|(_, &d)| d < keep)
                .map(|(&e, _)| e)
                .collect();
            graph_from(&ls, &edges)
        })
    })
}

/// The disjoint union of two graphs.
fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let offset = a.vertex_count() as u32;
    let labels: Vec<u32> = a
        .labels()
        .iter()
        .chain(b.labels())
        .map(|l| l.raw())
        .collect();
    let edges: Vec<(u32, u32)> = a
        .edges()
        .iter()
        .map(|&(u, v)| (u.raw(), v.raw()))
        .chain(
            b.edges()
                .iter()
                .map(|&(u, v)| (u.raw() + offset, v.raw() + offset)),
        )
        .collect();
    graph_from(&labels, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The path enumerator equals the oracle on random graphs.
    #[test]
    fn paths_match_oracle_on_random_graphs(g in arb_graph(8, 3)) {
        assert_paths_match_oracle(&g);
    }

    /// ... on near-complete graphs, where every level has many paths and
    /// most budgets trip the single walk.
    #[test]
    fn paths_match_oracle_on_dense_graphs(g in arb_graph_density(7, 3, 7)) {
        assert_paths_match_oracle(&g);
    }

    /// ... on sparse graphs, where the degree floors are loose, so capped
    /// walks and the level-by-level fallback run.
    #[test]
    fn paths_match_oracle_on_sparse_graphs(g in arb_graph_density(12, 3, 2)) {
        assert_paths_match_oracle(&g);
    }

    /// ... on disconnected graphs.
    #[test]
    fn paths_match_oracle_on_disconnected_graphs(a in arb_graph(5, 3), b in arb_graph(5, 3)) {
        assert_paths_match_oracle(&disjoint_union(&a, &b));
    }

    /// ... on edgeless graphs, where every level commits at zero cost.
    #[test]
    fn paths_match_oracle_on_edgeless_graphs(labels in proptest::collection::vec(0u32..3, 1..7)) {
        assert_paths_match_oracle(&graph_from(&labels, &[]));
    }

    /// Subgraph containment implies path-feature count dominance
    /// (the `Isub` filter invariant).
    #[test]
    fn containment_implies_feature_subset(q in arb_graph(5, 3), g in arb_graph(8, 3)) {
        if oracle_is_subgraph(&q, &g) {
            let fq = FeatureSet::of(&q, &PathConfig::default());
            let fg = FeatureSet::of(&g, &PathConfig::default());
            prop_assert!(fq.count_subset_of(&fg));
        }
    }

    /// Containment implies tree-feature subset per size bucket.
    #[test]
    fn containment_implies_tree_subset(q in arb_graph(5, 2), g in arb_graph(7, 2)) {
        if oracle_is_subgraph(&q, &g) {
            let tq = enumerate_trees(&q, &TreeConfig::default());
            let tg = enumerate_trees(&g, &TreeConfig::default());
            for s in 0..tq.by_size.len().min(tg.by_size.len()) {
                for feat in &tq.by_size[s] {
                    prop_assert!(tg.by_size[s].contains(feat), "size {} missing", s);
                }
            }
        }
    }

    /// Containment implies cycle-feature subset per length bucket.
    #[test]
    fn containment_implies_cycle_subset(q in arb_graph(5, 2), g in arb_graph(7, 2)) {
        if oracle_is_subgraph(&q, &g) {
            let cq = enumerate_cycles(&q, &CycleConfig::default());
            let cg = enumerate_cycles(&g, &CycleConfig::default());
            for l in 3..cq.by_len.len().min(cg.by_len.len()) {
                for feat in &cq.by_len[l] {
                    prop_assert!(cg.by_len[l].contains(feat), "len {} missing", l);
                }
            }
        }
    }

    /// GGSX filtering never loses a true answer.
    #[test]
    fn ggsx_has_no_false_negatives(store in arb_store(6, 7, 3), q in arb_graph(4, 3)) {
        let m = Ggsx::build(&store, GgsxConfig::default());
        let truth = oracle_answers(&store, &q);
        let f = m.filter(&q);
        for id in truth {
            prop_assert!(f.candidates.contains(&id));
        }
    }

    /// Grapes end-to-end equals the oracle (filter + component verify).
    #[test]
    fn grapes_matches_oracle(store in arb_store(5, 7, 3), q in arb_graph(4, 3)) {
        let m = Grapes::build(&store, GrapesConfig::default());
        prop_assert_eq!(m.query(&q).0, oracle_answers(&store, &q));
    }

    /// CT-Index end-to-end equals the oracle.
    #[test]
    fn ctindex_matches_oracle(store in arb_store(5, 7, 3), q in arb_graph(4, 3)) {
        let m = CtIndex::build(&store, CtIndexConfig::default());
        prop_assert_eq!(m.query(&q).0, oracle_answers(&store, &q));
    }

    /// Algorithm 2 candidates never lose a contained member graph.
    #[test]
    fn containment_index_has_no_false_negatives(store in arb_store(6, 6, 3), q in arb_graph(8, 3)) {
        let index = ContainmentIndex::build(store.iter().map(|(_, g)| g), PathConfig::default());
        let truth = oracle_super_answers(&store, &q);
        let candidates = index.candidates_for(&q);
        for id in truth {
            prop_assert!(candidates.contains(&id.index()), "lost member {:?}", id);
        }
    }

    /// gCode end-to-end equals the oracle.
    #[test]
    fn gcode_matches_oracle(store in arb_store(5, 7, 3), q in arb_graph(4, 3)) {
        let m = igq::methods::GCode::build(&store, igq::methods::GCodeConfig::default());
        prop_assert_eq!(m.query(&q).0, oracle_answers(&store, &q));
    }

    /// gCode's dominance filter never loses a true answer, with or without
    /// the bipartite-matching stage.
    #[test]
    fn gcode_has_no_false_negatives(store in arb_store(6, 7, 3), q in arb_graph(4, 3)) {
        use igq::methods::{GCode, GCodeConfig};
        let truth = oracle_answers(&store, &q);
        for matching in [true, false] {
            let m = GCode::build(&store, GCodeConfig { matching, ..Default::default() });
            let f = m.filter(&q);
            for id in &truth {
                prop_assert!(f.candidates.contains(id), "matching={} lost {:?}", matching, id);
            }
        }
    }

    /// The matching stage only ever *removes* candidates.
    #[test]
    fn gcode_matching_monotone(store in arb_store(5, 6, 3), q in arb_graph(4, 3)) {
        use igq::methods::{GCode, GCodeConfig};
        let strict = GCode::build(&store, GCodeConfig::default()).filter(&q).candidates;
        let loose = GCode::build(&store, GCodeConfig { matching: false, ..Default::default() })
            .filter(&q)
            .candidates;
        for id in &strict {
            prop_assert!(loose.contains(id));
        }
    }
}
