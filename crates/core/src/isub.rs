//! `Isub` — the subgraph component of the iGQ query index (Section 6.1).
//!
//! Given a new query `g`, `Isub` finds cached queries `G` with `g ⊆ G`
//! (whose stored answers are then *known answers* of `g`, formula (4)).
//! This is "a microcosm of our original problem": a GGSX-style path trie
//! over the cached query graphs filters candidates, and VF2 verifies them,
//! which trivially satisfies formula (1): every returned `G` really is a
//! supergraph of `g`.
//!
//! The index is **incrementally maintained**: posting lists are keyed by
//! the cache's stable slot indexes, [`IsubIndex::insert`] adds one cached
//! query's paths and [`IsubIndex::remove`] tombstones them again, so window
//! maintenance costs O(window delta) postings instead of re-enumerating
//! every cached graph ("shadow indexing", the paper's Section 5.2 approach,
//! survives as [`IsubIndex::build`]: the cold-start path and the oracle
//! [`Engine::self_check`](crate::Engine::self_check) diffs the live index
//! against). Graphs are shared with the cache via `Arc`, not cloned.

use igq_features::{enumerate_paths, FeatureTrie, LabelSeq, PathConfig, PathFeatures};
use igq_graph::{Graph, GraphId};
use igq_iso::plan::{matches_with_plan, MatchPlan};
use igq_iso::{with_thread_scratch, IsoStats, MatchConfig};
use std::sync::Arc;

/// One indexed cache slot.
#[derive(Debug, Clone)]
struct SlotEntry {
    graph: Arc<Graph>,
    /// The distinct path features inserted for this slot — kept so
    /// `remove(slot)` can find its postings without re-enumeration.
    /// Shared (`Arc`) with the sibling `IsuperIndex` entry for the same
    /// slot when both were fed by one extraction.
    features: Arc<[LabelSeq]>,
    /// Deepest exhaustively enumerated path length for this graph.
    complete_len: u8,
}

/// Subgraph index over the cached queries, maintained incrementally.
pub struct IsubIndex {
    path_config: PathConfig,
    trie: FeatureTrie,
    slots: Vec<Option<SlotEntry>>,
}

impl IsubIndex {
    /// An empty index.
    pub fn new(path_config: PathConfig) -> IsubIndex {
        IsubIndex {
            path_config,
            trie: FeatureTrie::new(),
            slots: Vec::new(),
        }
    }

    /// Cold-start build over `(slot, graph)` pairs — a sequence of
    /// [`IsubIndex::insert`]s, used by the `self_check` oracle.
    pub fn build(
        entries: impl IntoIterator<Item = (usize, Arc<Graph>)>,
        path_config: PathConfig,
    ) -> IsubIndex {
        let mut index = IsubIndex::new(path_config);
        for (slot, graph) in entries {
            index.insert(slot, graph);
        }
        index
    }

    /// Indexes `graph` under `slot`, returning the number of postings
    /// touched. The slot must be empty (freshly admitted or removed).
    pub fn insert(&mut self, slot: usize, graph: Arc<Graph>) -> u64 {
        let features = enumerate_paths(&graph, &self.path_config);
        let keys: Arc<[LabelSeq]> = features.counts.keys().cloned().collect();
        self.insert_features(slot, graph, &features, keys)
    }

    /// [`IsubIndex::insert`] with the path features already extracted —
    /// window maintenance enumerates each admitted graph once and feeds
    /// the same `features`/`keys` to both indexes. `keys` must be the
    /// distinct feature sequences of `features`.
    pub fn insert_features(
        &mut self,
        slot: usize,
        graph: Arc<Graph>,
        features: &PathFeatures,
        keys: Arc<[LabelSeq]>,
    ) -> u64 {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        debug_assert!(self.slots[slot].is_none(), "insert into occupied Isub slot");
        debug_assert_eq!(keys.len(), features.counts.len());
        let id = GraphId::from_index(slot);
        for (seq, count) in &features.counts {
            self.trie.insert(seq, id, *count);
        }
        let touched = keys.len() as u64;
        self.slots[slot] = Some(SlotEntry {
            graph,
            features: keys,
            complete_len: features.complete_len as u8,
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

    /// The distinct feature sequences indexed for `slot` with their live
    /// occurrence counts, plus the slot's exhaustively enumerated depth —
    /// the normalized per-slot index state the persistence layer
    /// checkpoints (so recovery can re-insert without re-enumerating the
    /// graph). `None` when the slot is not indexed. Both indexes hold the
    /// same feature multiset per slot, so reading one side suffices.
    pub fn slot_features(&self, slot: usize) -> Option<(Vec<(LabelSeq, u32)>, usize)> {
        let entry = self.slots.get(slot).and_then(Option::as_ref)?;
        let id = GraphId::from_index(slot);
        let counts = entry
            .features
            .iter()
            .map(|seq| (seq.clone(), self.trie.count_in(seq, id)))
            .collect();
        Some((counts, entry.complete_len as usize))
    }

    /// Cache slots whose graph is a (verified) supergraph of `q`, plus the
    /// iGQ-internal iso work performed. `qf` is the query's path-feature
    /// set, extracted once by the engine and shared across the base filter
    /// and both index probes.
    ///
    /// The probe's pattern is the query and every target is a (small)
    /// cached query graph, so one [`MatchPlan`] built per probe — ordered
    /// by the query's own label histogram, a fine seed ranking at cached
    /// queries' sizes — is shared across all filtered slots, with the
    /// thread's scratch: the probe performs no per-candidate allocations.
    pub fn supergraphs_of(&self, q: &Graph, qf: &PathFeatures) -> (Vec<usize>, IsoStats) {
        self.supergraphs_of_with_plans(q, qf, None)
    }

    /// [`IsubIndex::supergraphs_of`] with the engine's plan cache: a
    /// repeated query reuses its probe plan under its canonical code
    /// (`plans` is the cache plus the query's code) instead of rebuilding
    /// it.
    pub fn supergraphs_of_with_plans(
        &self,
        q: &Graph,
        qf: &PathFeatures,
        plans: Option<(
            &igq_iso::plan_cache::PlanCache,
            &igq_graph::canon::CanonicalCode,
        )>,
    ) -> (Vec<usize>, IsoStats) {
        let mut stats = IsoStats::new();
        let mut slots = Vec::new();
        let filtered = self.filter(q, qf);
        if filtered.is_empty() {
            return (slots, stats);
        }
        let config = MatchConfig::default();
        let mut rarity = |l| q.vertices_with_label(l).len() as u64;
        let plan = match plans {
            Some((cache, code)) => cache.get_or_build(code, q, &config, &mut rarity).0,
            None => std::sync::Arc::new(MatchPlan::build(q, &config, &mut rarity)),
        };
        with_thread_scratch(|scratch| {
            for slot in filtered {
                let cached = &self.slots[slot]
                    .as_ref()
                    .expect("filtered slot occupied")
                    .graph;
                let (verdict, states) = matches_with_plan(&plan, cached, scratch);
                stats.record_verdict(verdict, states);
                if verdict.is_found() {
                    slots.push(slot);
                }
            }
        });
        (slots, stats)
    }

    /// GGSX-style candidate filtering over the cached queries: a slot
    /// survives only if it contains every query path feature at least as
    /// often as the query does (restricted to lengths both sides
    /// enumerated exhaustively, so budget truncation weakens filtering
    /// instead of corrupting it).
    fn filter(&self, q: &Graph, qf: &PathFeatures) -> Vec<usize> {
        let max_len = self.path_config.max_len;
        let features = || {
            qf.counts
                .iter()
                .filter(|(seq, _)| seq.edge_len() <= max_len.min(qf.complete_len))
                .map(|(seq, &c)| (seq, c))
        };
        let size_ok = |slot: usize| {
            let g = &self.slots[slot].as_ref().expect("occupied").graph;
            g.vertex_count() >= q.vertex_count() && g.edge_count() >= q.edge_count()
        };

        if features().next().is_none() {
            return (0..self.slots.len())
                .filter(|&s| self.slots[s].is_some() && size_ok(s))
                .collect();
        }

        // Fully-indexed slots: one pass of the posting-list kernel.
        let fully_indexed = |id: GraphId| {
            self.slots[id.index()]
                .as_ref()
                .is_some_and(|e| e.complete_len as usize == max_len)
        };
        let mut candidates: Vec<usize> = self
            .trie
            .containing(features(), fully_indexed)
            .into_iter()
            .map(GraphId::index)
            .collect();

        // Budget-truncated slots: only features within each graph's
        // exhaustive depth may exclude it.
        for (slot, entry) in self.slots.iter().enumerate() {
            let Some(entry) = entry else { continue };
            let depth = entry.complete_len as usize;
            if depth == max_len {
                continue; // handled by the kernel above
            }
            let id = GraphId::from_index(slot);
            let ok = features()
                .filter(|(seq, _)| seq.edge_len() <= depth)
                .all(|(seq, count)| self.trie.count_in(seq, id) >= count);
            if ok {
                candidates.push(slot);
            }
        }
        candidates.sort_unstable();
        candidates.retain(|&s| size_ok(s));
        candidates
    }

    /// Approximate heap footprint (Fig. 18 accounting).
    pub fn heap_size_bytes(&self) -> u64 {
        let mut bytes = self.trie.heap_size_bytes();
        bytes += (self.slots.capacity() * std::mem::size_of::<Option<SlotEntry>>()) as u64;
        for entry in self.slots.iter().flatten() {
            // The graph itself is owned by (accounted to) the query cache;
            // the index pays for its feature key list (shared with the
            // sibling IsuperIndex, which counts only the pointer).
            bytes += (entry.features.len() * std::mem::size_of::<LabelSeq>()) as u64;
            bytes += entry
                .features
                .iter()
                .map(LabelSeq::heap_size_bytes)
                .sum::<u64>();
        }
        bytes
    }

    /// A canonical summary of the index contents — occupied slots and the
    /// live postings of every feature — used by `self_check` to diff an
    /// incrementally maintained index against a fresh shadow rebuild.
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

/// Canonical index contents for equivalence checks (see
/// [`IsubIndex::snapshot`]; `IsuperIndex` produces the same shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSnapshot {
    /// Occupied slot indexes, ascending.
    pub slots: Vec<usize>,
    /// Per-feature live postings `(slot, count)`, feature-sorted.
    pub postings: Vec<(LabelSeq, Vec<(usize, u32)>)>,
}

impl IndexSnapshot {
    /// Diffs two snapshots, reporting the first discrepancy.
    pub fn diff(&self, other: &IndexSnapshot) -> Result<(), String> {
        if self.slots != other.slots {
            return Err(format!(
                "slot sets differ: {:?} vs {:?}",
                self.slots, other.slots
            ));
        }
        if self.postings.len() != other.postings.len() {
            return Err(format!(
                "feature counts differ: {} vs {}",
                self.postings.len(),
                other.postings.len()
            ));
        }
        for ((seq_a, ps_a), (seq_b, ps_b)) in self.postings.iter().zip(&other.postings) {
            if seq_a != seq_b {
                return Err(format!("feature sets differ at {seq_a:?} vs {seq_b:?}"));
            }
            if ps_a != ps_b {
                return Err(format!(
                    "postings differ for {seq_a:?}: {ps_a:?} vs {ps_b:?}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;

    fn probe(idx: &IsubIndex, q: &Graph) -> (Vec<usize>, IsoStats) {
        let qf = enumerate_paths(q, &PathConfig::default());
        idx.supergraphs_of(q, &qf)
    }

    /// `(labels, edges)` shorthand for building test graphs.
    type GraphSpec<'a> = (&'a [u32], &'a [(u32, u32)]);

    fn slots_of(labels_edges: &[GraphSpec]) -> IsubIndex {
        IsubIndex::build(
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
        let idx = IsubIndex::new(PathConfig::default());
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
        idx.insert(1, Arc::clone(&newcomer));

        let fresh = IsubIndex::build(
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
        let mut idx = IsubIndex::new(PathConfig::default());
        idx.insert(5, Arc::new(graph_from(&[1, 2], &[(0, 1)])));
        let q = graph_from(&[1, 2], &[(0, 1)]);
        let (slots, _) = probe(&idx, &q);
        assert_eq!(slots, vec![5]);
        assert_eq!(idx.len(), 1);
    }
}
