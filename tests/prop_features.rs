//! Property tests over feature extraction and index filters: the
//! no-false-negative contracts everything else rests on.

mod common;

use common::{arb_graph, arb_store, oracle_answers, oracle_is_subgraph, oracle_super_answers};
use igq::features::{
    enumerate_cycles, enumerate_trees, CycleConfig, FeatureSet, PathConfig, TreeConfig,
};
use igq::methods::{
    ContainmentIndex, CtIndex, CtIndexConfig, Ggsx, GgsxConfig, Grapes, GrapesConfig,
    SubgraphMethod,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
