//! Supergraph query processing — the paper's own Algorithms 1 & 2.
//!
//! The supergraph querying problem (Definition 4) asks for all dataset
//! graphs *contained in* the query. Section 6.2 of the paper proposes a
//! simple occurrence-counting trie for this task — deliberately simpler
//! than prior supergraph indexes ([5, 44, 46, 6, 51]) so the same machinery
//! can serve as iGQ's `Isuper` component. We implement it once, as
//! [`ContainmentIndex`], and reuse it both here (as a dataset-side
//! supergraph method, enabling the Section 4.4 engine) and in `igq-core`
//! (as the query-cache `Isuper`).
//!
//! Algorithm 1 (build): for every member graph `gi`, insert each feature
//! `f` with its occurrence count `o` into a trie posting `{gi, o}`, and
//! record `NF[gi]`, the number of distinct features of `gi`.
//!
//! Algorithm 2 (candidates): for query `g` with feature counts `O[f, g]`,
//! a member `gi` is a candidate iff **every** feature of `gi` appears in
//! `g` at least as often (checked by counting, per member, the query
//! features that cover it: `count(gi) == NF[gi]`).

use crate::batch::{available_cores, VerifyBatchStats};
use crate::method::VerifyOutcome;
use crate::par::map_in_order;
use igq_features::{enumerate_paths, FeatureTrie, PathConfig, PathFeatures};
use igq_graph::{Graph, GraphId, GraphProfile, GraphStore};
use igq_iso::plan::{matches_with_plan, MatchPlan};
use igq_iso::{with_thread_scratch, MatchConfig};
use std::sync::Arc;

/// Occurrence-counting containment filter over an ordered collection of
/// member graphs (Algorithms 1 & 2). Members are addressed by their
/// insertion index.
#[derive(Debug, Clone)]
pub struct ContainmentIndex {
    trie: FeatureTrie,
    /// Per member: cumulative distinct-feature counts by feature length
    /// (`nf_by_len[m][l]` = #distinct features of member `m` with
    /// `edge_len ≤ l`). `NF[gi]` of Algorithm 1 is the last entry.
    nf_by_len: Vec<Vec<u32>>,
    path_config: PathConfig,
}

impl ContainmentIndex {
    /// Builds the index (Algorithm 1) over `members`, in order.
    pub fn build<'a>(members: impl Iterator<Item = &'a Graph>, path_config: PathConfig) -> Self {
        let mut index = ContainmentIndex {
            trie: FeatureTrie::new(),
            nf_by_len: Vec::new(),
            path_config,
        };
        for g in members {
            index.push(g);
        }
        index
    }

    /// Builds the index over every graph of `store`, in id order,
    /// enumerating on `width` workers; the index is the same at any width.
    fn build_store(store: &GraphStore, path_config: PathConfig, width: usize) -> Self {
        let mut index = ContainmentIndex::build(std::iter::empty(), path_config);
        map_in_order(
            store.len(),
            width,
            |i| enumerate_paths(store.get(GraphId::from_index(i)), &path_config),
            |_, features| index.push_features(&features),
        );
        index
    }

    /// Appends one member graph.
    pub fn push(&mut self, g: &Graph) {
        self.push_features(&enumerate_paths(g, &self.path_config));
    }

    /// Appends one member graph, from its features under `path_config`.
    fn push_features(&mut self, features: &PathFeatures) {
        let member = GraphId::from_index(self.nf_by_len.len());
        let mut by_len = vec![0u32; self.path_config.max_len + 1];
        for (seq, count) in &features.counts {
            self.trie.insert(seq, member, *count);
            by_len[seq.edge_len()] += 1;
        }
        // Make cumulative, clamped at the member's exhaustive depth (only
        // enumerated features were inserted, so deeper slots stay flat).
        for l in 1..by_len.len() {
            by_len[l] += by_len[l - 1];
        }
        self.nf_by_len.push(by_len);
    }

    /// Number of member graphs.
    pub fn len(&self) -> usize {
        self.nf_by_len.len()
    }

    /// True when no members are indexed.
    pub fn is_empty(&self) -> bool {
        self.nf_by_len.is_empty()
    }

    /// The path configuration members were indexed with.
    pub fn path_config(&self) -> &PathConfig {
        &self.path_config
    }

    /// Algorithm 2: member indexes that *may* be subgraphs of the query
    /// with the given (already-extracted) features. No false negatives.
    pub fn candidates(&self, query_features: &PathFeatures) -> Vec<usize> {
        let ql = query_features.complete_len;
        let features = query_features.counts.iter().map(|(seq, &c)| (seq, c));
        self.trie
            .covered_by(features, self.nf_by_len.len(), |member| {
                let nf = &self.nf_by_len[member];
                Some(nf[ql.min(nf.len() - 1)])
            })
    }

    /// Convenience: extract query features and run Algorithm 2.
    pub fn candidates_for(&self, query: &Graph) -> Vec<usize> {
        let features = enumerate_paths(query, &self.path_config);
        self.candidates(&features)
    }

    /// Approximate heap footprint.
    pub fn heap_size_bytes(&self) -> u64 {
        let nf: u64 = self
            .nf_by_len
            .iter()
            .map(|v| (v.len() * 4 + 24) as u64)
            .sum();
        self.trie.heap_size_bytes() + nf
    }
}

/// A dataset-side supergraph query processing method built on
/// [`ContainmentIndex`] — the `Msuper` of Section 4.4.
pub struct TrieSupergraphMethod {
    store: Arc<GraphStore>,
    index: ContainmentIndex,
    match_config: MatchConfig,
}

impl TrieSupergraphMethod {
    /// Builds the supergraph index over `store` on every core.
    pub fn build(
        store: &Arc<GraphStore>,
        path_config: PathConfig,
        match_config: MatchConfig,
    ) -> Self {
        Self::build_at(store, path_config, match_config, available_cores())
    }

    /// [`TrieSupergraphMethod::build`] on `width` workers; the index is
    /// the same at any width.
    pub(crate) fn build_at(
        store: &Arc<GraphStore>,
        path_config: PathConfig,
        match_config: MatchConfig,
        width: usize,
    ) -> Self {
        let index = ContainmentIndex::build_store(store, path_config, width);
        TrieSupergraphMethod {
            store: Arc::clone(store),
            index,
            match_config,
        }
    }

    /// Method name for reports.
    pub fn name(&self) -> String {
        "TrieSuper".to_owned()
    }

    /// The dataset.
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// Filtering stage: graphs that may be contained in `q`.
    pub fn filter_super(&self, q: &Graph) -> Vec<GraphId> {
        let features = enumerate_paths(q, self.index.path_config());
        self.filter_super_with_features(q, &features)
    }

    /// Filtering with the query's path features already extracted (the iGQ
    /// supergraph engine enumerates once and shares the set with its index
    /// probes). Sound for any exhaustively enumerated feature set:
    /// Algorithm 2 compares at the common exhaustive depth.
    pub fn filter_super_with_features(&self, q: &Graph, features: &PathFeatures) -> Vec<GraphId> {
        self.index
            .candidates(features)
            .into_iter()
            .map(GraphId::from_index)
            .filter(|&id| {
                let g = self.store.get(id);
                g.vertex_count() <= q.vertex_count() && g.edge_count() <= q.edge_count()
            })
            .collect()
    }

    /// Verification stage: does `q` contain `candidate`? A one-candidate
    /// [`Self::verify_super_batch`].
    pub fn verify_super(&self, q: &Graph, candidate: GraphId) -> VerifyOutcome {
        self.verify_super_batch(q, &[candidate]).0[0]
    }

    /// Batched verification of the inverted direction. The *pattern*
    /// varies per candidate here (each stored graph is searched inside the
    /// fixed query), so plans are per-pair — built against the query's own
    /// label index, the best possible rarity statistic since the target is
    /// known. What amortizes across the batch: the query's
    /// [`GraphProfile`] is built once as the target side of every
    /// pre-verify screen, the match configuration is captured once (not
    /// per `verify` call), and the thread-local scratch gives zero
    /// per-candidate mapping/visited allocations.
    pub fn verify_super_batch(
        &self,
        q: &Graph,
        candidates: &[GraphId],
    ) -> (Vec<VerifyOutcome>, VerifyBatchStats) {
        if candidates.is_empty() {
            return (Vec::new(), VerifyBatchStats::default());
        }
        let query_profile = GraphProfile::of(q);
        let config = self.match_config;
        let mut stats = VerifyBatchStats::default();
        let outcomes = with_thread_scratch(|scratch| {
            candidates
                .iter()
                .map(|&id| {
                    if !query_profile.may_contain(self.store.profile(id)) {
                        stats.preverify_rejections += 1;
                        return VerifyOutcome {
                            contains: false,
                            aborted: false,
                            states: 0,
                        };
                    }
                    let plan = MatchPlan::for_target(self.store.get(id), q, &config);
                    stats.plan_builds += 1;
                    let before = scratch.alloc_events();
                    let (verdict, states) = matches_with_plan(&plan, q, scratch);
                    stats.scratch_allocs += scratch.alloc_events() - before;
                    VerifyOutcome {
                        contains: verdict.is_found(),
                        aborted: verdict.is_aborted(),
                        states,
                    }
                })
                .collect()
        });
        (outcomes, stats)
    }

    /// Full supergraph query: answers and test count, routed through
    /// [`Self::verify_super_batch`].
    pub fn query_super(&self, q: &Graph) -> (Vec<GraphId>, u64) {
        let candidates = self.filter_super(q);
        let (outcomes, _) = self.verify_super_batch(q, &candidates);
        let answers = candidates
            .iter()
            .zip(outcomes.iter())
            .filter(|(_, o)| o.contains)
            .map(|(&id, _)| id)
            .collect();
        (answers, candidates.len() as u64)
    }

    /// Approximate index footprint.
    pub fn index_size_bytes(&self) -> u64 {
        self.index.heap_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;

    fn store() -> Arc<GraphStore> {
        Arc::new(
            vec![
                graph_from(&[0, 1], &[(0, 1)]),                    // g0: 0-1 edge
                graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]), // g1: 2-triangle
                graph_from(&[0], &[]),                             // g2: single 0
                graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),         // g3: 0-1-0 path
            ]
            .into_iter()
            .collect(),
        )
    }

    /// Brute-force supergraph answers.
    fn naive_super(store: &GraphStore, q: &Graph) -> Vec<GraphId> {
        store
            .iter()
            .filter(|(_, g)| igq_iso::is_subgraph(g, q))
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn algorithm2_matches_brute_force() {
        let s = store();
        let m = TrieSupergraphMethod::build(&s, PathConfig::default(), MatchConfig::default());
        for q in [
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[2, 2, 2, 0], &[(0, 1), (1, 2), (0, 2)]),
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[9, 9], &[(0, 1)]),
        ] {
            assert_eq!(m.query_super(&q).0, naive_super(&s, &q), "query {q:?}");
        }
    }

    #[test]
    fn no_false_negatives_in_candidates() {
        let s = store();
        let m = TrieSupergraphMethod::build(&s, PathConfig::default(), MatchConfig::default());
        let q = graph_from(&[0, 1, 0, 2], &[(0, 1), (1, 2), (2, 3)]);
        let truth = naive_super(&s, &q);
        let candidates = m.filter_super(&q);
        for id in truth {
            assert!(candidates.contains(&id), "lost {id:?}");
        }
    }

    #[test]
    fn occurrence_counts_prune() {
        // Query with a single 0: g3 (two 0s) must be pruned by counts.
        let s = store();
        let m = TrieSupergraphMethod::build(&s, PathConfig::default(), MatchConfig::default());
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let candidates = m.filter_super(&q);
        assert!(!candidates.contains(&GraphId::new(3)));
        assert!(candidates.contains(&GraphId::new(0)));
        assert!(candidates.contains(&GraphId::new(2)));
    }

    #[test]
    fn featureless_members_are_vacuous_candidates() {
        let s: Arc<GraphStore> = Arc::new(vec![graph_from(&[], &[])].into_iter().collect());
        let m = TrieSupergraphMethod::build(&s, PathConfig::default(), MatchConfig::default());
        let q = graph_from(&[5], &[]);
        assert_eq!(m.query_super(&q).0, vec![GraphId::new(0)]);
    }

    #[test]
    fn incremental_push_equals_batch_build() {
        let s = store();
        let batch = ContainmentIndex::build(s.iter().map(|(_, g)| g), PathConfig::default());
        let mut inc = ContainmentIndex::build(std::iter::empty(), PathConfig::default());
        for (_, g) in s.iter() {
            inc.push(g);
        }
        let q = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        assert_eq!(batch.candidates_for(&q), inc.candidates_for(&q));
        assert_eq!(batch.len(), inc.len());
    }

    #[test]
    fn empty_index() {
        let idx = ContainmentIndex::build(std::iter::empty(), PathConfig::default());
        assert!(idx.is_empty());
        let q = graph_from(&[0], &[]);
        assert!(idx.candidates_for(&q).is_empty());
    }

    /// The containment trie and per-member feature counts are the serial
    /// build's at any width, over many windows, on molecules and on
    /// dense graphs a small budget truncates.
    #[test]
    fn build_is_bit_identical_at_any_width() {
        let s = crate::build_fixture::store();
        let small_budget = PathConfig {
            budget: 2_000,
            ..Default::default()
        };
        for path_config in [PathConfig::default(), small_budget] {
            let build = |width| {
                TrieSupergraphMethod::build_at(&s, path_config, MatchConfig::default(), width)
            };
            let serial = format!("{:?}", build(1).index);
            for width in crate::build_fixture::widths() {
                assert_eq!(format!("{:?}", build(width).index), serial, "width {width}");
            }
        }
    }
}
