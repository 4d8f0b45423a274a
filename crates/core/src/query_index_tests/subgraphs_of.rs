//! Unit tests of the `Isuper` probe, [`QueryIndex::subgraphs_of`].

#[cfg(test)]
mod tests {
    use crate::query_index::QueryIndex;
    use igq_features::{enumerate_paths, PathConfig};
    use igq_graph::{graph_from, Graph};
    use igq_iso::IsoStats;
    use std::sync::Arc;

    fn probe(idx: &QueryIndex, q: &Graph) -> (Vec<usize>, IsoStats) {
        let qf = enumerate_paths(q, &PathConfig::default());
        idx.subgraphs_of(q, &qf)
    }

    /// `(labels, edges)` shorthand for building test graphs.
    type GraphSpec<'a> = (&'a [u32], &'a [(u32, u32)]);

    fn slots_of(labels_edges: &[GraphSpec]) -> QueryIndex {
        QueryIndex::build(
            labels_edges
                .iter()
                .enumerate()
                .map(|(i, (ls, es))| (i, Arc::new(graph_from(ls, es)))),
            PathConfig::default(),
        )
    }

    #[test]
    fn finds_subgraphs_among_cache() {
        let idx = slots_of(&[
            (&[0, 1], &[(0, 1)]),            // slot 0: 0-1 edge
            (&[0, 1, 0], &[(0, 1), (1, 2)]), // slot 1: 0-1-0 path
            (&[7, 7], &[(0, 1)]),            // slot 2: unrelated
        ]);
        let q = graph_from(&[0, 1, 0, 2], &[(0, 1), (1, 2), (2, 3)]);
        let (slots, stats) = probe(&idx, &q);
        assert_eq!(slots, vec![0, 1]);
        assert!(stats.tests >= 2);
    }

    #[test]
    fn returns_only_true_subgraphs_formula_2() {
        let idx = slots_of(&[(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)])]); // triangle
        let q = graph_from(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]); // P4: no triangle
        let (slots, _) = probe(&idx, &q);
        assert!(slots.is_empty());
    }

    #[test]
    fn occurrence_counting_prunes_before_verification() {
        // Cached graph needs two 0-labels; query has one: Algorithm 2 must
        // prune it without an iso test.
        let idx = slots_of(&[(&[0, 0], &[(0, 1)])]);
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let (slots, stats) = probe(&idx, &q);
        assert!(slots.is_empty());
        assert_eq!(stats.tests, 0, "count filter should preempt iso tests");
    }

    #[test]
    fn empty_cache() {
        let idx = QueryIndex::new(PathConfig::default());
        let (slots, stats) = probe(&idx, &graph_from(&[0], &[]));
        assert!(slots.is_empty());
        assert_eq!(stats.tests, 0);
    }

    #[test]
    fn exact_same_graph_is_its_own_subgraph() {
        let idx = slots_of(&[(&[4, 5], &[(0, 1)])]);
        let (slots, _) = probe(&idx, &graph_from(&[4, 5], &[(0, 1)]));
        assert_eq!(slots, vec![0]);
    }

    #[test]
    fn remove_then_reinsert_matches_fresh_build() {
        let mut idx = slots_of(&[(&[0, 1], &[(0, 1)]), (&[0, 1, 0], &[(0, 1), (1, 2)])]);
        idx.remove(0);
        let newcomer = Arc::new(graph_from(&[9], &[]));
        let features = enumerate_paths(&newcomer, &PathConfig::default());
        idx.insert(0, Arc::clone(&newcomer), &features);

        let fresh = QueryIndex::build(
            [
                (0, newcomer),
                (1, Arc::new(graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]))),
            ],
            PathConfig::default(),
        );
        idx.snapshot()
            .diff(&fresh.snapshot())
            .expect("incremental == rebuild");

        // The removed 0-1 edge graph no longer reports as a subgraph...
        let q = graph_from(&[0, 1, 9], &[(0, 1)]);
        let (slots, _) = probe(&idx, &q);
        // ...but the newcomer single-9 graph does.
        assert_eq!(slots, vec![0]);
    }

    /// Resident plans are built on a resident's first `Isuper` test and
    /// reused after: a probe over built plans agrees with a fresh index's
    /// cold probe, and a slot reused by another graph plans afresh.
    #[test]
    fn plan_cached_probe_agrees_with_fresh_probe() {
        let specs: &[GraphSpec] = &[
            (&[0, 1], &[(0, 1)]),
            (&[0, 1, 0], &[(0, 1), (1, 2)]),
            (&[0, 0], &[(0, 1)]),
            (&[7, 7], &[(0, 1)]),
        ];
        let queries = [
            graph_from(&[0, 1, 0, 2], &[(0, 1), (1, 2), (2, 3)]),
            graph_from(&[0, 0, 1], &[(0, 1), (1, 2)]),
            graph_from(&[7, 7, 7], &[(0, 1), (1, 2)]),
        ];
        let agree = |live: &QueryIndex, residents: &[(usize, Arc<Graph>)]| {
            let fresh = QueryIndex::build(residents.iter().cloned(), PathConfig::default());
            for q in &queries {
                let (slots, stats) = probe(live, q);
                let (fresh_slots, fresh_stats) = probe(&fresh, q);
                assert_eq!(slots, fresh_slots, "query {q:?}");
                assert_eq!(stats.tests, fresh_stats.tests, "query {q:?}");
                assert_eq!(stats.states, fresh_stats.states, "same plans");
                let (_, again) = probe(live, q);
                assert_eq!(again.plan_builds, 0, "a second probe reuses every plan");
            }
        };
        let mut residents: Vec<(usize, Arc<Graph>)> = specs
            .iter()
            .enumerate()
            .map(|(slot, (ls, es))| (slot, Arc::new(graph_from(ls, es))))
            .collect();
        let mut idx = QueryIndex::build(residents.iter().cloned(), PathConfig::default());
        let (_, cold) = probe(&idx, &queries[0]);
        assert_eq!(cold.plan_builds, cold.tests, "the first tests build");
        agree(&idx, &residents);

        // Slot 0 (0-1 edge, a subgraph of query 0) is reused by a 7-7 edge.
        idx.remove(0);
        let newcomer = Arc::new(graph_from(&[7, 7], &[(0, 1)]));
        let features = enumerate_paths(&newcomer, &PathConfig::default());
        idx.insert(0, Arc::clone(&newcomer), &features);
        residents[0].1 = newcomer;
        let (slots, reused) = probe(&idx, &queries[2]);
        assert_eq!(slots, vec![0, 3]);
        assert_eq!(reused.plan_builds, 1, "the reused slot plans afresh");
        agree(&idx, &residents);
    }

    #[test]
    fn tombstoned_slot_is_not_a_candidate() {
        let mut idx = slots_of(&[(&[3, 4], &[(0, 1)])]);
        idx.remove(0);
        let q = graph_from(&[3, 4, 5], &[(0, 1), (1, 2)]);
        let (slots, stats) = probe(&idx, &q);
        assert!(slots.is_empty());
        assert_eq!(stats.tests, 0);
    }
}
