//! Unit tests of the `Isub` probe, [`QueryIndex::supergraphs_of`].

#[cfg(test)]
mod tests {
    use crate::query_index::QueryIndex;
    use igq_features::{enumerate_paths, PathConfig};
    use igq_graph::{graph_from, Graph};
    use igq_iso::IsoStats;
    use std::sync::Arc;

    fn probe(idx: &QueryIndex, q: &Graph) -> (Vec<usize>, IsoStats) {
        let qf = enumerate_paths(q, &PathConfig::default());
        idx.supergraphs_of(q, &qf)
    }

    fn insert(idx: &mut QueryIndex, slot: usize, g: Arc<Graph>) -> u64 {
        let features = enumerate_paths(&g, &PathConfig::default());
        idx.insert(slot, g, &features, None)
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
    fn finds_supergraphs_among_cache() {
        let idx = slots_of(&[
            (&[0, 1, 0], &[(0, 1), (1, 2)]),            // slot 0: 0-1-0 path
            (&[2, 2], &[(0, 1)]),                       // slot 1: 2-2 edge
            (&[0, 1, 0, 3], &[(0, 1), (1, 2), (2, 3)]), // slot 2: longer path
        ]);
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let (slots, stats) = probe(&idx, &q);
        assert_eq!(slots, vec![0, 2]);
        assert!(stats.tests >= 2);
    }

    #[test]
    fn returns_only_true_supergraphs_formula_1() {
        let idx = slots_of(&[
            (&[0, 0], &[(0, 1)]),
            (&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
        ]);
        // C4 query: neither cached entry contains it.
        let q = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (slots, _) = probe(&idx, &q);
        assert!(slots.is_empty());
    }

    #[test]
    fn empty_cache() {
        let idx = QueryIndex::new(PathConfig::default());
        let q = graph_from(&[0], &[]);
        let (slots, stats) = probe(&idx, &q);
        assert!(slots.is_empty());
        assert_eq!(stats.tests, 0);
    }

    #[test]
    fn exact_same_graph_is_its_own_supergraph() {
        let idx = slots_of(&[(&[4, 5], &[(0, 1)])]);
        let q = graph_from(&[4, 5], &[(0, 1)]);
        let (slots, _) = probe(&idx, &q);
        assert_eq!(slots, vec![0]);
    }

    #[test]
    fn remove_then_reinsert_matches_fresh_build() {
        let mut idx = slots_of(&[
            (&[0, 1], &[(0, 1)]),
            (&[0, 1, 0], &[(0, 1), (1, 2)]),
            (&[2, 2], &[(0, 1)]),
        ]);
        // Evict slot 1, admit a different graph into it.
        let removed = idx.remove(1);
        assert!(removed > 0);
        assert_eq!(idx.remove(1), 0, "second remove is a no-op");
        let newcomer = Arc::new(graph_from(&[7, 8], &[(0, 1)]));
        insert(&mut idx, 1, Arc::clone(&newcomer));

        let fresh = QueryIndex::build(
            [
                (0, Arc::new(graph_from(&[0, 1], &[(0, 1)]))),
                (1, newcomer),
                (2, Arc::new(graph_from(&[2, 2], &[(0, 1)]))),
            ],
            PathConfig::default(),
        );
        idx.snapshot()
            .diff(&fresh.snapshot())
            .expect("incremental == rebuild");

        let q = graph_from(&[7, 8], &[(0, 1)]);
        let (slots, _) = probe(&idx, &q);
        assert_eq!(slots, vec![1]);
        let gone = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let (slots, _) = probe(&idx, &gone);
        assert!(slots.is_empty(), "removed slot no longer probes");
    }

    #[test]
    fn sparse_slots_are_handled() {
        let mut idx = QueryIndex::new(PathConfig::default());
        insert(&mut idx, 5, Arc::new(graph_from(&[1, 2], &[(0, 1)])));
        let q = graph_from(&[1, 2], &[(0, 1)]);
        let (slots, _) = probe(&idx, &q);
        assert_eq!(slots, vec![5]);
        assert_eq!(idx.snapshot().slots, vec![5]);
    }
}
