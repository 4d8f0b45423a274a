//! GraphGrepSX (Bonnici et al., PRIB 2010) — path-trie indexing.
//!
//! GGSX exhaustively enumerates all labeled simple paths of every dataset
//! graph up to a maximum length (4 in the paper's experiments) and stores
//! them, with occurrence counts, in a suffix-tree-like trie. A query is
//! decomposed the same way; a graph survives filtering only if it contains
//! every query path feature at least as often as the query does. VF2 decides
//! the survivors.
//!
//! Budget-truncated graphs (possible on adversarially dense inputs) are
//! tracked per graph: a feature longer than a graph's exhaustively
//! enumerated depth never excludes that graph, preserving the no-false-
//! negative contract at the price of filtering power.
//!
//! The build enumerates graphs on every core, a few per worker ahead of
//! the trie (`par::map_in_order`), and inserts their features into the
//! trie in id order, so the index is identical to the serial build's,
//! down to its byte size.

use crate::batch::available_cores;
use crate::method::{Filtered, QueryContext, SubgraphMethod, VerifyOutcome};
use crate::par::map_in_order;
use igq_features::{enumerate_paths, FeatureTrie, LabelSeq, PathConfig, PathFeatures};
use igq_graph::fxhash::FxHashMap;
use igq_graph::{Graph, GraphId, GraphStore, LabelId};
use igq_iso::MatchConfig;
use std::sync::Arc;

/// GGSX configuration.
#[derive(Debug, Clone, Copy)]
pub struct GgsxConfig {
    /// Maximum indexed path length in edges (paper default: 4).
    pub max_path_len: usize,
    /// Per-graph enumeration budget (see [`PathConfig::budget`]).
    pub path_budget: u64,
    /// Verification engine configuration.
    pub match_config: MatchConfig,
}

impl Default for GgsxConfig {
    fn default() -> Self {
        let p = PathConfig::default();
        GgsxConfig {
            max_path_len: p.max_len,
            path_budget: p.budget,
            match_config: MatchConfig::default(),
        }
    }
}

impl GgsxConfig {
    fn path_config(&self) -> PathConfig {
        PathConfig {
            max_len: self.max_path_len,
            include_vertices: true,
            budget: self.path_budget,
        }
    }
}

/// One graph's path counts in map order, flattened on the worker that
/// enumerated them: every feature's labels back to back, and each
/// feature's end offset into them with its count. The serial insert reads
/// two arrays instead of a map of boxed keys, and the keys are freed by
/// the thread that allocated them.
struct FlatCounts {
    labels: Vec<LabelId>,
    ends: Vec<(u32, u32)>,
}

impl FlatCounts {
    fn of(counts: &FxHashMap<LabelSeq, u32>) -> FlatCounts {
        let mut flat = FlatCounts {
            labels: Vec::with_capacity(counts.keys().map(|seq| seq.labels().len()).sum()),
            ends: Vec::with_capacity(counts.len()),
        };
        for (seq, &count) in counts {
            flat.labels.extend_from_slice(seq.labels());
            flat.ends.push((flat.labels.len() as u32, count));
        }
        flat
    }
}

/// What GGSX and Grapes build from their path features: the trie of
/// per-graph counts, each graph's exhaustively enumerated depth, and the
/// graphs whose enumeration stopped short of `max_path_len`. Graphs are
/// enumerated with `enumerate` on `width` workers and their counts
/// inserted in id order; `keep` then receives each graph's features with
/// the counts taken out. The insert sequence is the serial one, so the
/// trie is bit-identical at any width.
pub(crate) fn build_path_trie(
    store: &GraphStore,
    max_path_len: usize,
    width: usize,
    enumerate: impl Fn(&Graph) -> PathFeatures + Sync,
    mut keep: impl FnMut(PathFeatures),
) -> (FeatureTrie, Vec<u8>, Vec<GraphId>) {
    let mut trie = FeatureTrie::new();
    let mut complete_len = Vec::with_capacity(store.len());
    let mut shallow = Vec::new();
    map_in_order(
        store.len(),
        width,
        |i| {
            let mut features = enumerate(store.get(GraphId::from_index(i)));
            let counts = FlatCounts::of(&std::mem::take(&mut features.counts));
            (counts, features)
        },
        |i, (counts, features)| {
            let id = GraphId::from_index(i);
            let mut start = 0;
            for &(end, count) in &counts.ends {
                trie.insert_labels(&counts.labels[start..end as usize], id, count);
                start = end as usize;
            }
            complete_len.push(features.complete_len as u8);
            if features.complete_len < max_path_len {
                shallow.push(id);
            }
            keep(features);
        },
    );
    (trie, complete_len, shallow)
}

/// The GGSX index.
pub struct Ggsx {
    store: Arc<GraphStore>,
    config: GgsxConfig,
    trie: FeatureTrie,
    /// Per-graph deepest exhaustively enumerated path length.
    complete_len: Vec<u8>,
    /// Graphs whose enumeration was truncated below `max_path_len`.
    shallow: Vec<GraphId>,
}

impl Ggsx {
    /// Builds the index over `store` on every core.
    pub fn build(store: &Arc<GraphStore>, config: GgsxConfig) -> Ggsx {
        Ggsx::build_at(store, config, available_cores())
    }

    /// [`Ggsx::build`] on `width` workers; the index is the same at any
    /// width.
    pub(crate) fn build_at(store: &Arc<GraphStore>, config: GgsxConfig, width: usize) -> Ggsx {
        let path_config = config.path_config();
        let (trie, complete_len, shallow) = build_path_trie(
            store,
            config.max_path_len,
            width,
            |g| enumerate_paths(g, &path_config),
            |_| {},
        );
        Ggsx {
            store: Arc::clone(store),
            config,
            trie,
            complete_len,
            shallow,
        }
    }

    /// Shared body of `filter`/`filter_with_features`: trie filtering from
    /// an already-extracted query feature set.
    fn filter_from(&self, q: &Graph, qf: &PathFeatures) -> Filtered {
        Filtered::new(Ggsx::trie_filter(
            &self.store,
            &self.trie,
            &self.complete_len,
            &self.shallow,
            self.config.max_path_len,
            q,
            qf,
        ))
    }

    /// Candidate computation shared with Grapes (which layers location-aware
    /// verification on the same trie filter). Features of `qf` longer than
    /// `max_path_len` are ignored.
    pub(crate) fn trie_filter(
        store: &GraphStore,
        trie: &FeatureTrie,
        complete_len: &[u8],
        shallow: &[GraphId],
        max_path_len: usize,
        q: &Graph,
        qf: &PathFeatures,
    ) -> Vec<GraphId> {
        let size_ok = |id: GraphId| {
            let g = store.get(id);
            g.vertex_count() >= q.vertex_count() && g.edge_count() >= q.edge_count()
        };
        let features = || {
            qf.counts
                .iter()
                .filter(|(seq, _)| seq.edge_len() <= max_path_len)
                .map(|(seq, &count)| (seq, count))
        };
        if features().next().is_none() {
            return store.ids().filter(|&id| size_ok(id)).collect();
        }

        // Fully-indexed graphs: one pass of the posting-list kernel.
        let mut candidates = trie.containing(features(), |id| {
            complete_len[id.index()] as usize == max_path_len
        });

        // Truncated graphs: only features within each graph's exhaustive
        // depth may exclude it.
        for &id in shallow {
            let depth = complete_len[id.index()] as usize;
            let ok = features()
                .filter(|(seq, _)| seq.edge_len() <= depth)
                .all(|(seq, count)| trie.count_in(seq, id) >= count);
            if ok {
                candidates.push(id);
            }
        }
        candidates.sort_unstable();
        candidates.retain(|&id| size_ok(id));
        candidates
    }
}

impl SubgraphMethod for Ggsx {
    fn name(&self) -> String {
        "GGSX".to_owned()
    }

    fn store(&self) -> &GraphStore {
        &self.store
    }

    fn filter(&self, q: &Graph) -> Filtered {
        let qf = enumerate_paths(q, &self.config.path_config());
        self.filter_from(q, &qf)
    }

    /// Reuses externally extracted path features (the iGQ engine's
    /// single-pass extraction) instead of enumerating again. Features
    /// longer than this index's depth are ignored — the extraction config
    /// may differ from the index config, and over-long features have no
    /// postings here, so keeping them would filter unsoundly.
    fn filter_with_features(&self, q: &Graph, features: Option<&PathFeatures>) -> Filtered {
        match features {
            Some(qf) => self.filter_from(q, qf),
            None => self.filter(q),
        }
    }

    /// Plan-amortized batch verification: one matching plan per query,
    /// thread-local scratch, profile pre-verify screening (see
    /// [`crate::batch`]).
    fn verify_batch_with_plans(
        &self,
        q: &Graph,
        _context: &QueryContext,
        candidates: &[GraphId],
        plans: Option<crate::batch::PlanSource<'_>>,
    ) -> (Vec<VerifyOutcome>, crate::batch::VerifyBatchStats) {
        crate::batch::verify_batch_plain_with(
            &self.store,
            q,
            &self.config.match_config,
            candidates,
            plans,
        )
    }

    fn index_size_bytes(&self) -> u64 {
        self.trie.heap_size_bytes() + self.complete_len.len() as u64
    }

    fn match_config(&self) -> MatchConfig {
        self.config.match_config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;

    fn store() -> Arc<GraphStore> {
        Arc::new(
            vec![
                graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]), // g0: 0-1-0 path
                graph_from(&[0, 1], &[(0, 1)]),            // g1: 0-1 edge
                graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]), // g2: triangle of 2s
                graph_from(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3)]), // g3: 0-1-2-0 path
            ]
            .into_iter()
            .collect(),
        )
    }

    #[test]
    fn filter_uses_path_features() {
        let m = Ggsx::build(&store(), GgsxConfig::default());
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let f = m.filter(&q);
        // g2 has no 0 or 1 labels; all others contain the 0-1 edge feature.
        assert_eq!(
            f.candidates,
            vec![GraphId::new(0), GraphId::new(1), GraphId::new(3)]
        );
    }

    #[test]
    fn multiplicity_filtering() {
        // Query needs two 0-labeled vertices: g1 has only one.
        let m = Ggsx::build(&store(), GgsxConfig::default());
        let q = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let f = m.filter(&q);
        assert_eq!(f.candidates, vec![GraphId::new(0)]);
    }

    #[test]
    fn query_answers_match_naive() {
        let s = store();
        let ggsx = Ggsx::build(&s, GgsxConfig::default());
        let naive = crate::naive::NaiveMethod::build(&s);
        for q in [
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2], &[(0, 1)]),
            graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
            graph_from(&[9], &[]),
        ] {
            let (a, ta) = ggsx.query(&q);
            let (b, tb) = naive.query(&q);
            assert_eq!(a, b, "answers differ for {q:?}");
            assert!(ta <= tb, "ggsx must never verify more than naive");
        }
    }

    #[test]
    fn filtering_never_loses_answers() {
        let s = store();
        let ggsx = Ggsx::build(&s, GgsxConfig::default());
        let naive = crate::naive::NaiveMethod::build(&s);
        let q = graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let (truth, _) = naive.query(&q);
        let f = ggsx.filter(&q);
        for id in truth {
            assert!(f.candidates.contains(&id));
        }
    }

    #[test]
    fn empty_query_matches_every_graph() {
        let m = Ggsx::build(&store(), GgsxConfig::default());
        let q = graph_from(&[], &[]);
        let f = m.filter(&q);
        assert_eq!(f.candidates.len(), 4);
    }

    #[test]
    fn index_size_is_positive() {
        let m = Ggsx::build(&store(), GgsxConfig::default());
        assert!(m.index_size_bytes() > 0);
    }

    /// The trie, depths and shallow list are the serial build's at any
    /// width, over many windows, on molecules and on dense graphs a
    /// small budget truncates; and the serial build's trie is the one a
    /// plain loop of `FeatureTrie::insert` over each graph's map builds.
    #[test]
    fn build_is_bit_identical_at_any_width() {
        let s = crate::build_fixture::store();
        let small_budget = GgsxConfig {
            path_budget: 2_000,
            ..Default::default()
        };
        for config in [GgsxConfig::default(), small_budget] {
            let serial = Ggsx::build_at(&s, config, 1);
            let mut reference = FeatureTrie::new();
            for (id, g) in s.iter() {
                for (seq, count) in &enumerate_paths(g, &config.path_config()).counts {
                    reference.insert(seq, id, *count);
                }
            }
            assert_eq!(format!("{:?}", serial.trie), format!("{reference:?}"));
            for width in crate::build_fixture::widths() {
                let built = Ggsx::build_at(&s, config, width);
                assert_eq!(
                    format!("{:?}", built.trie),
                    format!("{:?}", serial.trie),
                    "width {width}"
                );
                assert_eq!(built.trie.node_count(), serial.trie.node_count());
                assert_eq!(built.trie.heap_size_bytes(), serial.trie.heap_size_bytes());
                assert_eq!(built.complete_len, serial.complete_len);
                assert_eq!(built.shallow, serial.shallow);
            }
        }
        let truncated = Ggsx::build_at(&s, small_budget, 1).shallow;
        assert!(
            truncated.contains(&GraphId::new(0)),
            "the dense graphs trip the budget"
        );
        assert!(
            truncated.len() < s.len() / 2,
            "most molecules stay complete"
        );
    }

    #[test]
    fn shallow_graphs_survive_long_feature_filtering() {
        // Force truncation on a dense graph with a tiny budget; the dense
        // graph must still be a candidate for long-path queries.
        let mut edges = Vec::new();
        for i in 0..10u32 {
            for j in (i + 1)..10u32 {
                edges.push((i, j));
            }
        }
        let dense = graph_from(&[0; 10], &edges); // K10, all label 0
        let s: Arc<GraphStore> = Arc::new(vec![dense].into_iter().collect());
        let config = GgsxConfig {
            path_budget: 50,
            ..Default::default()
        };
        let m = Ggsx::build(&s, config);
        let q = graph_from(&[0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4)]); // P5 of 0s
        let f = m.filter(&q);
        assert_eq!(f.candidates, vec![GraphId::new(0)]);
        let (answers, _) = m.query(&q);
        assert_eq!(answers, vec![GraphId::new(0)]);
    }
}
