//! Parallel feature enumeration for index construction.
//!
//! The original Grapes splits each graph across threads that build partial
//! tries and merges them. We parallelize at graph granularity instead —
//! datasets have many graphs and enumeration dominates the build — and
//! merge into a single trie afterwards; the resulting index is identical.

use igq_features::{enumerate_paths_with_locations, PathConfig, PathFeatures};
use igq_graph::{GraphId, GraphStore};

/// Enumerates path features (with locations) of every graph in `store`
/// using `threads` workers. Output is indexed by graph id.
pub fn parallel_enumerate(
    store: &GraphStore,
    config: &PathConfig,
    threads: usize,
) -> Vec<PathFeatures> {
    crate::par_map(store.len(), threads, |_, i| {
        enumerate_paths_with_locations(store.get(GraphId::from_index(i)), config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;

    fn store(n: usize) -> GraphStore {
        (0..n)
            .map(|i| {
                let k = (i % 4 + 2) as u32;
                let labels: Vec<u32> = (0..k).collect();
                let edges: Vec<(u32, u32)> = (0..k - 1).map(|j| (j, j + 1)).collect();
                graph_from(&labels, &edges)
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let s = store(17);
        let config = PathConfig::default();
        let seq = parallel_enumerate(&s, &config, 1);
        let par = parallel_enumerate(&s, &config, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.locations, b.locations);
            assert_eq!(a.complete_len, b.complete_len);
        }
    }

    #[test]
    fn empty_store() {
        let s = GraphStore::new();
        assert!(parallel_enumerate(&s, &PathConfig::default(), 4).is_empty());
    }

    #[test]
    fn more_threads_than_graphs() {
        let s = store(2);
        let out = parallel_enumerate(&s, &PathConfig::default(), 16);
        assert_eq!(out.len(), 2);
    }
}
