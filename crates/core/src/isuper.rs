//! `Isuper` — the supergraph component of the iGQ query index
//! (Section 6.2, Algorithms 1 & 2).
//!
//! Given a new query `g`, `Isuper` finds cached queries `G` with `G ⊆ g`
//! (whose stored answers then bound `g`'s answers from above, formula (5)).
//! It implements the paper's occurrence-counting trie directly over the
//! cache's stable slots and verifies each Algorithm-2 candidate with VF2,
//! satisfying formula (2): every returned `G` really is a subgraph of `g`.
//!
//! Like [`crate::isub`], the index is **incrementally maintained**:
//! [`IsuperIndex::insert`]/[`IsuperIndex::remove`] touch only the affected
//! slot's postings, so steady-state window maintenance is O(window delta);
//! the wholesale shadow rebuild of Section 5.2 survives as the
//! [`IsuperIndex::build`] cold-start path and `self_check` oracle. Graphs
//! are shared with the cache via `Arc`, not cloned.

use crate::isub::IndexSnapshot;
use igq_features::{enumerate_paths, FeatureTrie, LabelSeq, PathConfig, PathFeatures};
use igq_graph::canon::CanonicalCode;
use igq_graph::{Graph, GraphId};
use igq_iso::plan::{matches_with_plan, MatchPlan};
use igq_iso::plan_cache::PlanCache;
use igq_iso::{with_thread_scratch, IsoStats, MatchConfig};
use std::sync::Arc;

/// One indexed cache slot.
#[derive(Debug, Clone)]
struct SlotEntry {
    graph: Arc<Graph>,
    /// Distinct path features inserted for this slot (for removal);
    /// shared with the sibling `IsubIndex` entry when both were fed by
    /// one extraction.
    features: Arc<[LabelSeq]>,
    /// Cumulative distinct-feature counts by feature length
    /// (`nf_by_len[l]` = #distinct features with `edge_len ≤ l`).
    /// `NF[gi]` of Algorithm 1 is the last entry.
    nf_by_len: Vec<u32>,
    /// The cached query's canonical code, when the cache computed one —
    /// the probe's plan-cache key (this graph is the *pattern* of every
    /// probe pair it participates in).
    code: Option<CanonicalCode>,
}

/// Supergraph index over the cached queries, maintained incrementally.
pub struct IsuperIndex {
    path_config: PathConfig,
    trie: FeatureTrie,
    slots: Vec<Option<SlotEntry>>,
}

impl IsuperIndex {
    /// An empty index.
    pub fn new(path_config: PathConfig) -> IsuperIndex {
        IsuperIndex {
            path_config,
            trie: FeatureTrie::new(),
            slots: Vec::new(),
        }
    }

    /// Cold-start build over `(slot, graph)` pairs (the `self_check`
    /// oracle).
    pub fn build(
        entries: impl IntoIterator<Item = (usize, Arc<Graph>)>,
        path_config: PathConfig,
    ) -> IsuperIndex {
        let mut index = IsuperIndex::new(path_config);
        for (slot, graph) in entries {
            index.insert(slot, graph);
        }
        index
    }

    /// Indexes `graph` under `slot` (Algorithm 1 for one member),
    /// returning the number of postings touched. No canonical code is
    /// attached (probe pairs for this slot plan fresh); maintenance paths
    /// use [`IsuperIndex::insert_features`] to carry the cache's code.
    pub fn insert(&mut self, slot: usize, graph: Arc<Graph>) -> u64 {
        let features = enumerate_paths(&graph, &self.path_config);
        let keys: Arc<[LabelSeq]> = features.counts.keys().cloned().collect();
        self.insert_features(slot, graph, &features, keys, None)
    }

    /// [`IsuperIndex::insert`] with the path features already extracted —
    /// window maintenance enumerates each admitted graph once and feeds
    /// the same `features`/`keys` to both indexes. `keys` must be the
    /// distinct feature sequences of `features`. `code` is the cached
    /// query's canonical code (the plan-cache key for probe pairs
    /// involving this slot), when the cache holds one.
    pub fn insert_features(
        &mut self,
        slot: usize,
        graph: Arc<Graph>,
        features: &PathFeatures,
        keys: Arc<[LabelSeq]>,
        code: Option<CanonicalCode>,
    ) -> u64 {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        debug_assert!(
            self.slots[slot].is_none(),
            "insert into occupied Isuper slot"
        );
        debug_assert_eq!(keys.len(), features.counts.len());
        let id = GraphId::from_index(slot);
        let mut by_len = vec![0u32; self.path_config.max_len + 1];
        for (seq, count) in &features.counts {
            self.trie.insert(seq, id, *count);
            by_len[seq.edge_len()] += 1;
        }
        for l in 1..by_len.len() {
            by_len[l] += by_len[l - 1];
        }
        let touched = keys.len() as u64;
        self.slots[slot] = Some(SlotEntry {
            graph,
            features: keys,
            nf_by_len: by_len,
            code,
        });
        touched
    }

    /// Unindexes `slot`, returning the number of postings touched.
    pub fn remove(&mut self, slot: usize) -> u64 {
        let Some(entry) = self.slots.get_mut(slot).and_then(Option::take) else {
            return 0;
        };
        let id = GraphId::from_index(slot);
        let mut touched = 0u64;
        for seq in entry.features.iter() {
            if self.trie.remove(seq, id) {
                touched += 1;
            }
        }
        touched
    }

    /// Number of indexed cache slots.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Cache slots whose graph is a (verified) subgraph of `q`, plus the
    /// iGQ-internal iso work performed. `qf` is the query's path-feature
    /// set, extracted once by the engine and shared with the other probe
    /// and the base filter.
    pub fn subgraphs_of(&self, q: &Graph, qf: &PathFeatures) -> (Vec<usize>, IsoStats) {
        self.subgraphs_of_with_plans(q, qf, None)
    }

    /// [`IsuperIndex::subgraphs_of`] with the engine's plan cache: cached
    /// patterns recur across probes (every query probes the same resident
    /// set), so each pattern's per-pair plan is cached under *its own*
    /// canonical code and rebuilt only when the rarity statistic — the
    /// probing query's label index — drifts.
    pub fn subgraphs_of_with_plans(
        &self,
        q: &Graph,
        qf: &PathFeatures,
        plans: Option<&PlanCache>,
    ) -> (Vec<usize>, IsoStats) {
        let mut stats = IsoStats::new();
        let mut slots = Vec::new();
        let config = MatchConfig::default();
        // The inverted probe: each cached graph is the pattern, searched
        // inside the fixed query — plans are per pair (ordered by the
        // query's label index, the best statistic since the target is
        // known), the thread scratch is reused throughout.
        with_thread_scratch(|scratch| {
            for slot in self.candidates(qf) {
                let entry = self.slots[slot].as_ref().expect("candidate slot occupied");
                let cached = &entry.graph;
                if cached.vertex_count() > q.vertex_count() || cached.edge_count() > q.edge_count()
                {
                    continue;
                }
                let mut rarity = |l| q.vertices_with_label(l).len() as u64;
                let (verdict, states) = match (plans, entry.code.as_ref()) {
                    (Some(cache), Some(code)) => {
                        let (plan, _) = cache.get_or_build(code, cached, &config, &mut rarity);
                        matches_with_plan(&plan, q, scratch)
                    }
                    _ => {
                        let plan = MatchPlan::build(cached, &config, &mut rarity);
                        matches_with_plan(&plan, q, scratch)
                    }
                };
                stats.record_verdict(verdict, states);
                if verdict.is_found() {
                    slots.push(slot);
                }
            }
        });
        (slots, stats)
    }

    /// Algorithm 2: slots that *may* be subgraphs of a query with feature
    /// counts `qf`. No false negatives.
    fn candidates(&self, qf: &PathFeatures) -> Vec<usize> {
        let ql = qf.complete_len;
        let features = qf.counts.iter().map(|(seq, &c)| (seq, c));
        self.trie.covered_by(features, self.slots.len(), |slot| {
            let nf = &self.slots[slot].as_ref()?.nf_by_len;
            Some(nf[ql.min(nf.len() - 1)])
        })
    }

    /// Approximate heap footprint (Fig. 18 accounting).
    pub fn heap_size_bytes(&self) -> u64 {
        let mut bytes = self.trie.heap_size_bytes();
        bytes += (self.slots.capacity() * std::mem::size_of::<Option<SlotEntry>>()) as u64;
        for entry in self.slots.iter().flatten() {
            // The feature-key list is shared with IsubIndex, which accounts
            // its contents; this side pays only the pointer plus its own
            // cumulative-count table.
            bytes += std::mem::size_of::<Arc<[LabelSeq]>>() as u64;
            bytes += (entry.nf_by_len.capacity() * std::mem::size_of::<u32>()) as u64;
            if let Some(code) = &entry.code {
                bytes += std::mem::size_of_val(code.words()) as u64;
            }
        }
        bytes
    }

    /// Canonical contents summary for `self_check` equivalence diffs (same
    /// shape as [`crate::isub::IsubIndex::snapshot`]).
    pub fn snapshot(&self) -> IndexSnapshot {
        let mut postings: Vec<(LabelSeq, Vec<(usize, u32)>)> = Vec::new();
        self.trie.for_each_feature(|seq, ps| {
            let live: Vec<(usize, u32)> = ps
                .iter()
                .filter(|p| p.count > 0)
                .map(|p| (p.graph.index(), p.count))
                .collect();
            if !live.is_empty() {
                postings.push((seq.clone(), live));
            }
        });
        postings.sort_by(|a, b| a.0.cmp(&b.0));
        let slots = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| i)
            .collect();
        IndexSnapshot { slots, postings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;

    fn probe(idx: &IsuperIndex, q: &Graph) -> (Vec<usize>, IsoStats) {
        let qf = enumerate_paths(q, &PathConfig::default());
        idx.subgraphs_of(q, &qf)
    }

    /// `(labels, edges)` shorthand for building test graphs.
    type GraphSpec<'a> = (&'a [u32], &'a [(u32, u32)]);

    fn slots_of(labels_edges: &[GraphSpec]) -> IsuperIndex {
        IsuperIndex::build(
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
        let idx = IsuperIndex::new(PathConfig::default());
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
        idx.insert(0, Arc::clone(&newcomer));

        let fresh = IsuperIndex::build(
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

    #[test]
    fn plan_cached_probe_agrees_with_fresh_probe() {
        use igq_graph::canon::canonical_code;
        let specs: &[GraphSpec] = &[
            (&[0, 1], &[(0, 1)]),
            (&[0, 1, 0], &[(0, 1), (1, 2)]),
            (&[0, 0], &[(0, 1)]),
            (&[7, 7], &[(0, 1)]),
        ];
        let mut idx = IsuperIndex::new(PathConfig::default());
        for (slot, (ls, es)) in specs.iter().enumerate() {
            let g = Arc::new(graph_from(ls, es));
            let features = enumerate_paths(&g, &PathConfig::default());
            let keys: Arc<[LabelSeq]> = features.counts.keys().cloned().collect();
            let code = canonical_code(&g);
            idx.insert_features(slot, g, &features, keys, code);
        }
        let cache = PlanCache::new(64);
        for q in [
            graph_from(&[0, 1, 0, 2], &[(0, 1), (1, 2), (2, 3)]),
            graph_from(&[0, 0, 1], &[(0, 1), (1, 2)]),
            graph_from(&[7, 7, 7], &[(0, 1), (1, 2)]),
        ] {
            let qf = enumerate_paths(&q, &PathConfig::default());
            let (fresh, fresh_stats) = idx.subgraphs_of(&q, &qf);
            // Twice with the cache: cold (build) then warm (hit).
            let (cold, _) = idx.subgraphs_of_with_plans(&q, &qf, Some(&cache));
            let (warm, warm_stats) = idx.subgraphs_of_with_plans(&q, &qf, Some(&cache));
            assert_eq!(cold, fresh, "query {q:?}");
            assert_eq!(warm, fresh, "query {q:?}");
            assert_eq!(warm_stats.tests, fresh_stats.tests);
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "repeat probes hit cached pattern plans");
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
