//! Edge-label generalization, end to end (paper Section 3: "all our
//! results straightforwardly generalize to graphs with edge labels").
//!
//! Filtering stays vertex-label-based (sound: edge labels only shrink the
//! true answer set, so vertex-only candidate sets remain supersets), while
//! verification — and therefore every final answer — is edge-label-exact.

mod common;

use common::{oracle_answers, oracle_super_answers};
use igq::prelude::*;
use igq::workload::datasets::aids_like_bonds;
use proptest::prelude::*;
use std::sync::Arc;

fn bond_workload(graphs: usize, queries: usize, seed: u64) -> (Arc<GraphStore>, Vec<Graph>) {
    let store = Arc::new(aids_like_bonds(graphs, seed));
    let qs = QueryGenerator::new(
        &store,
        Distribution::Zipf(1.4),
        Distribution::Zipf(1.4),
        seed ^ 1,
    )
    .take(queries);
    (store, qs)
}

fn methods(store: &Arc<GraphStore>) -> Vec<Box<dyn SubgraphMethod>> {
    vec![
        Box::new(Ggsx::build(store, GgsxConfig::default())),
        Box::new(Grapes::build(store, GrapesConfig::default())),
        Box::new(CtIndex::build(store, CtIndexConfig::default())),
        Box::new(GCode::build(store, GCodeConfig::default())),
    ]
}

#[test]
fn queries_carved_from_bond_graphs_carry_bond_labels() {
    let (_, queries) = bond_workload(40, 30, 5);
    let labeled = queries.iter().filter(|q| q.has_edge_labels()).count();
    assert!(
        labeled > queries.len() / 2,
        "{labeled}/{} labeled",
        queries.len()
    );
}

#[test]
fn all_methods_match_oracle_on_bond_workload() {
    let (store, queries) = bond_workload(80, 20, 7);
    for method in methods(&store) {
        for q in &queries {
            let (answers, _) = method.query(q);
            assert_eq!(
                answers,
                oracle_answers(&store, q),
                "{} on {q:?}",
                method.name()
            );
        }
    }
}

#[test]
fn igq_engine_matches_oracle_on_bond_workload() {
    let (store, queries) = bond_workload(60, 50, 13);
    for method in methods(&store) {
        let name = method.name();
        let engine = IgqEngine::new(
            method,
            IgqConfig {
                cache_capacity: 20,
                window: 5,
                ..Default::default()
            },
        )
        .expect("valid engine");
        for q in &queries {
            let out = engine.query(q);
            assert_eq!(
                out.answers,
                oracle_answers(&store, q),
                "iGQ∘{name} on {q:?}"
            );
        }
        engine.self_check().expect("invariants hold");
    }
}

#[test]
fn bond_labels_change_answers_on_fixed_store() {
    // Two molecules with identical topology, different bonds.
    let single = graph_from_el(&[0, 1], &[(0, 1, 0)]); // C-O single
    let double = graph_from_el(&[0, 1], &[(0, 1, 1)]); // C=O double
    let store: Arc<GraphStore> =
        Arc::new(vec![single.clone(), double.clone()].into_iter().collect());
    for method in methods(&store) {
        let (a_single, _) = method.query(&single);
        let (a_double, _) = method.query(&double);
        assert_eq!(a_single, vec![GraphId::new(0)], "{}", method.name());
        assert_eq!(a_double, vec![GraphId::new(1)], "{}", method.name());
    }
}

#[test]
fn cache_never_conflates_edge_label_variants() {
    // The same shape with different bond labels must not be treated as an
    // exact repeat by the query cache.
    let store: Arc<GraphStore> = Arc::new(
        vec![
            graph_from_el(&[0, 1, 0], &[(0, 1, 0), (1, 2, 1)]),
            graph_from_el(&[0, 1], &[(0, 1, 0)]),
            graph_from_el(&[0, 1], &[(0, 1, 1)]),
        ]
        .into_iter()
        .collect(),
    );
    let method = Ggsx::build(&store, GgsxConfig::default());
    let engine = IgqEngine::new(
        method,
        IgqConfig {
            cache_capacity: 8,
            window: 1,
            ..Default::default()
        },
    )
    .expect("valid engine");

    let q_single = graph_from_el(&[0, 1], &[(0, 1, 0)]);
    let q_double = graph_from_el(&[0, 1], &[(0, 1, 1)]);
    let first = engine.query(&q_single);
    assert_eq!(first.answers, vec![GraphId::new(0), GraphId::new(1)]);
    let second = engine.query(&q_double);
    assert_eq!(second.answers, vec![GraphId::new(0), GraphId::new(2)]);
    // Repeating each query now hits exactly, with the right stored answer.
    assert_eq!(engine.query(&q_single).answers, first.answers);
    assert_eq!(engine.query(&q_double).answers, second.answers);
}

#[test]
fn supergraph_engine_is_exact_on_bond_data() {
    use igq::methods::TrieSupergraphMethod;
    let store = Arc::new(aids_like_bonds(30, 21));
    let queries =
        QueryGenerator::new(&store, Distribution::Uniform, Distribution::Uniform, 3).take(10);
    let method = TrieSupergraphMethod::build(
        &store,
        PathConfig::default(),
        igq::iso::MatchConfig::default(),
    );
    let engine = IgqSuperEngine::new(
        method,
        IgqConfig {
            cache_capacity: 8,
            window: 2,
            ..Default::default()
        },
    )
    .expect("valid engine");
    for q in &queries {
        let out = engine.query(q);
        let truth = oracle_super_answers(&store, q);
        assert_eq!(out.answers, truth, "supergraph query {q:?}");
    }
}

use common::arb_graph_el;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_methods_exact_on_edge_labeled_stores(
        graphs in proptest::collection::vec(arb_graph_el(6, 3, 2), 1..8),
        query in arb_graph_el(4, 3, 2),
    ) {
        let store: Arc<GraphStore> = Arc::new(graphs.into_iter().collect());
        let truth = oracle_answers(&store, &query);
        for method in methods(&store) {
            let (answers, _) = method.query(&query);
            prop_assert_eq!(&answers, &truth, "{} on {:?}", method.name(), &query);
        }
    }

    #[test]
    fn prop_igq_engine_exact_on_edge_labeled_stream(
        graphs in proptest::collection::vec(arb_graph_el(6, 3, 2), 2..8),
        queries in proptest::collection::vec(arb_graph_el(4, 3, 2), 1..12),
    ) {
        let store: Arc<GraphStore> = Arc::new(graphs.into_iter().collect());
        let method = Ggsx::build(&store, GgsxConfig::default());
        let engine = IgqEngine::new(
            method,
            IgqConfig { cache_capacity: 6, window: 2, ..Default::default() },
        ).expect("valid engine");
        for q in &queries {
            let out = engine.query(q);
            prop_assert_eq!(&out.answers, &oracle_answers(&store, q), "query {:?}", q);
        }
    }
}
