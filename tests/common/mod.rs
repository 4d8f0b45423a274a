//! Shared helpers for the cross-crate integration tests.
#![allow(dead_code)] // each test binary uses a different helper subset

pub mod canon_oracle;
pub mod chaos;
pub mod fault;
pub mod filter_oracle;
pub mod paths_oracle;
pub mod ullmann_oracle;
pub mod vf2_oracle;

use igq::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// A proptest strategy producing small arbitrary labeled graphs: up to
/// `max_n` vertices with labels in `0..labels`, and an arbitrary subset of
/// the possible edges.
pub fn arb_graph(max_n: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(move |n| {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .collect();
        let edge_mask = proptest::collection::vec(any::<bool>(), pairs.len());
        let label_vec = proptest::collection::vec(0..labels, n);
        (label_vec, edge_mask).prop_map(move |(ls, mask)| {
            let edges: Vec<(u32, u32)> = pairs
                .iter()
                .zip(mask.iter())
                .filter(|(_, &m)| m)
                .map(|(&e, _)| e)
                .collect();
            graph_from(&ls, &edges)
        })
    })
}

/// A proptest strategy producing a small dataset store.
pub fn arb_store(
    max_graphs: usize,
    max_n: usize,
    labels: u32,
) -> impl Strategy<Value = Arc<GraphStore>> {
    proptest::collection::vec(arb_graph(max_n, labels), 1..=max_graphs)
        .prop_map(|graphs| Arc::new(graphs.into_iter().collect()))
}

/// A proptest strategy for small *edge-labeled* graphs: each potential
/// edge is either absent or present with a label in `0..elabels`.
pub fn arb_graph_el(max_n: usize, vlabels: u32, elabels: u32) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(move |n| {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .collect();
        let edge_picks = proptest::collection::vec(proptest::option::of(0..elabels), pairs.len());
        let label_vec = proptest::collection::vec(0..vlabels, n);
        (label_vec, edge_picks).prop_map(move |(ls, picks)| {
            let edges: Vec<(u32, u32, u32)> = pairs
                .iter()
                .zip(picks.iter())
                .filter_map(|(&(u, v), pick)| pick.map(|l| (u, v, l)))
                .collect();
            graph_from_el(&ls, &edges)
        })
    })
}

/// Ground-truth monomorphism test: the [`vf2_oracle`], never the
/// production matcher behind `igq::iso::is_subgraph`.
pub fn oracle_is_subgraph(pattern: &Graph, target: &Graph) -> bool {
    vf2_oracle::find_one(pattern, target, &igq::iso::MatchConfig::default())
        .outcome
        .is_found()
}

/// Checks a production match result for `pattern` in `target` under
/// `config` against the [`vf2_oracle`]. Both search in the same order, but
/// the production lookahead counts free neighbors *per label* where the
/// oracle's counts them label-blind, so production explores a
/// subsequence of the oracle's states. Hence:
/// * it never explores more states than the oracle;
/// * when the oracle completes, the outcome is identical, mapping
///   included;
/// * when production completes (the oracle may have aborted under the
///   same budget), the outcome is the unbudgeted oracle's.
pub fn assert_oracle_contract(
    production: &igq::iso::semantics::MatchResult,
    pattern: &Graph,
    target: &Graph,
    config: &igq::iso::MatchConfig,
) {
    use igq::iso::{Budget, Outcome};
    let oracle = vf2_oracle::find_one(pattern, target, config);
    assert!(
        production.states <= oracle.states,
        "{} states vs the oracle's {}: pattern {pattern:?} target {target:?}",
        production.states,
        oracle.states
    );
    if oracle.outcome != Outcome::Aborted {
        assert_eq!(
            production.outcome, oracle.outcome,
            "pattern {pattern:?} target {target:?}"
        );
    } else if production.outcome != Outcome::Aborted {
        let unbudgeted = igq::iso::MatchConfig {
            budget: Budget::unlimited(),
            ..*config
        };
        assert_eq!(
            production.outcome,
            vf2_oracle::find_one(pattern, target, &unbudgeted).outcome,
            "pattern {pattern:?} target {target:?}"
        );
    }
}

/// Ground-truth isomorphism test over [`oracle_is_subgraph`].
pub fn oracle_are_isomorphic(a: &Graph, b: &Graph) -> bool {
    a.vertex_count() == b.vertex_count()
        && a.edge_count() == b.edge_count()
        && oracle_is_subgraph(a, b)
}

/// Ground-truth subgraph answers: a full scan with the VF2 oracle.
pub fn oracle_answers(store: &GraphStore, q: &Graph) -> Vec<GraphId> {
    store
        .iter()
        .filter(|(_, g)| oracle_is_subgraph(q, g))
        .map(|(id, _)| id)
        .collect()
}

/// Ground-truth supergraph answers.
pub fn oracle_super_answers(store: &GraphStore, q: &Graph) -> Vec<GraphId> {
    store
        .iter()
        .filter(|(_, g)| oracle_is_subgraph(g, q))
        .map(|(id, _)| id)
        .collect()
}
