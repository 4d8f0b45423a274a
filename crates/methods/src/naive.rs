//! The no-index baseline and correctness oracle.
//!
//! `NaiveMethod` performs no feature indexing: its candidate set is every
//! dataset graph that passes the trivially sound size screen
//! (`|V(G)| ≥ |V(q)|` and `|E(G)| ≥ |E(q)|`). It exists as (a) the lower
//! bound every index method must beat and (b) the ground-truth oracle the
//! test suite compares every other method — and the iGQ engine — against.

use crate::method::{Filtered, QueryContext, SubgraphMethod, VerifyOutcome};
use igq_graph::{Graph, GraphId, GraphStore};
use igq_iso::MatchConfig;
use std::sync::Arc;

/// The naive scan-everything method.
#[derive(Debug, Clone)]
pub struct NaiveMethod {
    store: Arc<GraphStore>,
    match_config: MatchConfig,
}

impl NaiveMethod {
    /// Wraps a dataset with no index build cost.
    pub fn build(store: &Arc<GraphStore>) -> NaiveMethod {
        NaiveMethod {
            store: Arc::clone(store),
            match_config: MatchConfig::default(),
        }
    }

    /// Overrides the verification engine configuration.
    pub fn with_match_config(mut self, config: MatchConfig) -> NaiveMethod {
        self.match_config = config;
        self
    }
}

impl SubgraphMethod for NaiveMethod {
    fn name(&self) -> String {
        "Naive".to_owned()
    }

    fn store(&self) -> &GraphStore {
        &self.store
    }

    fn filter(&self, q: &Graph) -> Filtered {
        let candidates = self
            .store
            .iter()
            .filter(|(_, g)| {
                g.vertex_count() >= q.vertex_count() && g.edge_count() >= q.edge_count()
            })
            .map(|(id, _)| id)
            .collect();
        Filtered::new(candidates)
    }

    /// Plan-amortized batch verification (see [`crate::batch`]).
    fn verify_batch_with_plans(
        &self,
        q: &Graph,
        _context: &QueryContext,
        candidates: &[GraphId],
        plans: Option<crate::batch::PlanSource<'_>>,
    ) -> (Vec<VerifyOutcome>, crate::batch::VerifyBatchStats) {
        crate::batch::verify_batch_plain_with(&self.store, q, &self.match_config, candidates, plans)
    }

    fn index_size_bytes(&self) -> u64 {
        0
    }

    fn match_config(&self) -> MatchConfig {
        self.match_config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;

    fn store() -> Arc<GraphStore> {
        Arc::new(
            vec![
                graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]), // g0: path 0-1-0
                graph_from(&[0, 1], &[(0, 1)]),            // g1: edge 0-1
                graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]), // g2: triangle of 2s
            ]
            .into_iter()
            .collect(),
        )
    }

    #[test]
    fn filter_screens_by_size_only() {
        let m = NaiveMethod::build(&store());
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let f = m.filter(&q);
        assert_eq!(f.candidates.len(), 3); // everything passes the size screen
    }

    #[test]
    fn query_returns_exact_answers() {
        let m = NaiveMethod::build(&store());
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let (answers, tests) = m.query(&q);
        assert_eq!(answers, vec![GraphId::new(0), GraphId::new(1)]);
        assert_eq!(tests, 3);
    }

    #[test]
    fn large_query_prunes_all() {
        let m = NaiveMethod::build(&store());
        let q = graph_from(&[0; 9], &(0..8).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let f = m.filter(&q);
        assert!(f.candidates.is_empty());
    }

    #[test]
    fn index_is_free() {
        assert_eq!(NaiveMethod::build(&store()).index_size_bytes(), 0);
    }
}
