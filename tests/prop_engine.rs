//! Property tests of the full iGQ engines against the oracles — the
//! empirical counterpart of the paper's Theorems 1 and 2 on arbitrary
//! inputs, including adversarial cache states (tiny windows force heavy
//! replacement churn).

mod common;

use common::{arb_graph, arb_store, oracle_answers, oracle_super_answers};
use igq::core::IgqSuperEngine;
use igq::features::PathConfig;
use igq::iso::MatchConfig;
use igq::methods::TrieSupergraphMethod;
use igq::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1: the subgraph engine is exact for any dataset, any query
    /// stream, and any (tiny) cache/window configuration.
    #[test]
    fn subgraph_engine_is_exact(
        store in arb_store(6, 7, 3),
        queries in proptest::collection::vec(arb_graph(5, 3), 1..12),
        capacity in 1usize..6,
        window in 1usize..4,
    ) {
        let method = Ggsx::build(&store, GgsxConfig::default());
        let engine = IgqEngine::new(
            method,
            IgqConfig { cache_capacity: capacity, window: window.min(capacity), ..Default::default() },
        ).expect("valid engine");
        for q in &queries {
            let out = engine.query(q);
            prop_assert_eq!(out.answers, oracle_answers(&store, q), "query {:?}", q);
        }
    }

    /// Theorem 2 (Section 4.4): the supergraph engine is exact too.
    #[test]
    fn supergraph_engine_is_exact(
        store in arb_store(6, 5, 3),
        queries in proptest::collection::vec(arb_graph(8, 3), 1..10),
        capacity in 1usize..6,
        window in 1usize..4,
    ) {
        let method = TrieSupergraphMethod::build(
            &store,
            PathConfig::default(),
            MatchConfig::default(),
        );
        let engine = IgqSuperEngine::new(
            method,
            IgqConfig { cache_capacity: capacity, window: window.min(capacity), ..Default::default() },
        ).expect("valid engine");
        for q in &queries {
            let out = engine.query(q);
            prop_assert_eq!(out.answers, oracle_super_answers(&store, q), "query {:?}", q);
        }
    }

    /// The pruned candidate count plus prune tallies reconcile.
    #[test]
    fn prune_accounting_reconciles(
        store in arb_store(5, 6, 2),
        queries in proptest::collection::vec(arb_graph(4, 2), 1..10),
    ) {
        let method = Ggsx::build(&store, GgsxConfig::default());
        let engine = IgqEngine::new(
            method,
            IgqConfig { cache_capacity: 6, window: 2, ..Default::default() },
        ).expect("valid engine");
        for q in &queries {
            let out = engine.query(q);
            prop_assert_eq!(
                out.candidates_before - out.candidates_after,
                out.pruned_by_isub + out.pruned_by_isuper,
                "accounting mismatch"
            );
            if out.resolution == igq::core::Resolution::Verified {
                prop_assert_eq!(out.db_iso_tests as usize, out.candidates_after);
            } else {
                prop_assert_eq!(out.db_iso_tests, 0);
            }
        }
    }

    /// Incremental delta maintenance and the paper's shadow rebuild are
    /// observationally identical: on any randomized workload with
    /// churn-heavy cache configurations the incrementally maintained
    /// indexes diff clean against a fresh from-scratch rebuild
    /// (`self_check`) after every query — so after every window flip —
    /// and the answers are the oracle's.
    #[test]
    fn incremental_maintenance_equals_shadow_rebuild(
        store in arb_store(6, 6, 3),
        queries in proptest::collection::vec(arb_graph(5, 3), 1..14),
        capacity in 1usize..5,
        window in 1usize..4,
    ) {
        let method = Ggsx::build(&store, GgsxConfig::default());
        let inc = IgqEngine::new(
            method,
            IgqConfig { cache_capacity: capacity, window: window.min(capacity), ..Default::default() },
        ).expect("valid engine");
        for q in &queries {
            let a = inc.query(q);
            prop_assert_eq!(&a.answers, &oracle_answers(&store, q), "oracle mismatch for {:?}", q);
            inc.self_check().expect("incremental indexes equal a fresh shadow rebuild");
        }
    }

    /// Same equivalence for the supergraph engine.
    #[test]
    fn super_engine_incremental_maintenance_equals_rebuild(
        store in arb_store(5, 5, 3),
        queries in proptest::collection::vec(arb_graph(7, 3), 1..10),
        capacity in 1usize..4,
    ) {
        let method = TrieSupergraphMethod::build(
            &store,
            PathConfig::default(),
            MatchConfig::default(),
        );
        let inc = IgqSuperEngine::new(
            method,
            IgqConfig { cache_capacity: capacity, window: 1, ..Default::default() },
        ).expect("valid engine");
        for q in &queries {
            let a = inc.query(q);
            prop_assert_eq!(&a.answers, &oracle_super_answers(&store, q), "oracle mismatch");
            inc.self_check().expect("incremental indexes equal a fresh shadow rebuild");
        }
    }

    /// Duplicate queries in a stream never corrupt the cache: answers stay
    /// exact after arbitrary interleavings of three query shapes.
    #[test]
    fn interleaved_repeats_stay_exact(
        store in arb_store(5, 6, 2),
        pattern in proptest::collection::vec(0usize..3, 1..16),
        qa in arb_graph(4, 2),
        qb in arb_graph(4, 2),
        qc in arb_graph(4, 2),
    ) {
        let shapes = [qa, qb, qc];
        let method = Ggsx::build(&store, GgsxConfig::default());
        let engine = IgqEngine::new(
            method,
            IgqConfig { cache_capacity: 3, window: 1, ..Default::default() },
        ).expect("valid engine");
        for &i in &pattern {
            let q = &shapes[i];
            let out = engine.query(q);
            prop_assert_eq!(out.answers, oracle_answers(&store, q));
        }
    }
}
