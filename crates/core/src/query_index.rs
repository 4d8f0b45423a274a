//! The iGQ query index (paper Section 6): one path-feature trie and one
//! slot table over the cached queries, probed two ways.
//!
//! * **`Isub`** (Section 6.1): [`QueryIndex::supergraphs_of`] finds cached
//!   queries `G` with `g ⊆ G`, whose stored answers are *known answers*
//!   of the new query `g` (formula (4)). This is "a microcosm of our
//!   original problem": GGSX-style filtering over the trie
//!   ([`FeatureTrie::containing`]), then verification, so every returned
//!   `G` really is a supergraph of `g` (formula (1)).
//! * **`Isuper`** (Section 6.2, Algorithms 1 & 2):
//!   [`QueryIndex::subgraphs_of`] finds cached queries `G ⊆ g`, whose
//!   stored answers bound `g`'s answers from above (formula (5)). Its
//!   occurrence-counting filter ([`FeatureTrie::covered_by`]) reads the
//!   same postings plus each resident's distinct-feature counts by
//!   length; verification makes every returned `G` a true subgraph
//!   (formula (2)).
//!
//! Both probes answer over the same residents and the same features, so
//! each posting is written once. The index is **incrementally
//! maintained**: postings are keyed by the cache's stable slot indexes,
//! and after every window flip `QueryIndex::apply_delta` removes the
//! evicted slots and inserts the admitted ones, O(window delta) postings
//! on the flipping query thread (Section 5.2). An admitted query that was
//! just answered brings the path features its own filter extracted
//! ([`WindowDelta::features`]), so the flip enumerates only the graphs
//! that arrive without them (restored, replicated or replayed entries).
//! The paper's wholesale shadow rebuild survives as
//! [`QueryIndex::build`]: the cold-start path and the oracle
//! [`Engine::self_check`](crate::Engine::self_check) diffs the live index
//! against. Graphs are shared with the cache via `Arc`.
//!
//! The engine's index ([`QueryIndex::over_slots`]) and every
//! [`QueryIndex::build`] know their slots, so a feature held by at least
//! an eighth of them keeps a dense row of counts, one byte per slot (see
//! [`FeatureTrie`]): `Isuper`'s count filter reads
//! such a feature in one pass over its row, and `Isub`'s intersection
//! narrows by rows. A row is taken on the insert that crosses the eighth
//! and given back when the feature leaves the last slot, so a flip costs
//! its postings and nothing more.
//!
//! Each resident keeps the "related key information" the paper stores
//! beside a cached query: its own `Isuper` matching plan. In an `Isuper`
//! test the resident is always the pattern, so the plan is built on the
//! resident's first test, ordered by the resident's own label histogram,
//! and reused by every later probe. It lives and dies with the slot, so a
//! reused slot never inherits an evicted query's plan. The `Isub` probe's
//! pattern is the new query, so it builds one plan per probe.

use crate::cache::{QueryCache, WindowDelta};
use igq_features::{enumerate_paths, FeatureTrie, LabelSeq, PathConfig, PathFeatures};
use igq_graph::{Graph, GraphId};
use igq_iso::plan::{matches_with_plan, MatchPlan};
use igq_iso::{with_thread_scratch, IsoStats, MatchConfig};
use std::mem::{size_of, size_of_val};
use std::sync::{Arc, OnceLock};

/// The `Isub` and `Isuper` names of [`QueryIndex`], kept only because
/// `benchmark/src/layers.rs` still builds one of each; ROADMAP item A(f)
/// deletes them. They are aliases, not a second implementation.
pub type IsubIndex = QueryIndex;
/// See [`IsubIndex`].
pub type IsuperIndex = QueryIndex;

/// One indexed cache slot.
struct Resident {
    graph: Arc<Graph>,
    /// The distinct path features inserted for this slot, so
    /// [`QueryIndex::remove`] finds its postings without re-enumeration.
    features: Box<[LabelSeq]>,
    /// Deepest exhaustively enumerated path length of this graph.
    complete_len: u8,
    /// Cumulative distinct-feature counts by length (`nf_by_len[l]` =
    /// #distinct features with `edge_len ≤ l`). `NF[gi]` of Algorithm 1
    /// is the last entry.
    nf_by_len: Box<[u32]>,
    /// The graph's `Isuper` matching plan (it is the pattern of every
    /// `Isuper` test), built on its first test.
    plan: OnceLock<MatchPlan>,
}

/// The query index over the cached queries, maintained incrementally.
pub struct QueryIndex {
    path_config: PathConfig,
    trie: FeatureTrie,
    residents: Vec<Option<Resident>>,
}

impl QueryIndex {
    /// An empty index with sparse posting lists only.
    pub fn new(path_config: PathConfig) -> QueryIndex {
        QueryIndex::over_slots(path_config, 0)
    }

    /// An empty index over the cache slots `0..slots`: a feature held by
    /// at least an eighth of them keeps a dense row of counts (see the
    /// module docs). Slots past `slots` stay exact in sparse postings.
    pub fn over_slots(path_config: PathConfig, slots: usize) -> QueryIndex {
        QueryIndex {
            path_config,
            trie: FeatureTrie::with_universe(slots),
            residents: Vec::new(),
        }
    }

    /// Cold-start build over `(slot, graph)` pairs, enumerating each
    /// graph's paths: the shadow rebuild `self_check` diffs against. The
    /// index is over the slots up to the highest one given.
    pub fn build(
        entries: impl IntoIterator<Item = (usize, Arc<Graph>)>,
        path_config: PathConfig,
    ) -> QueryIndex {
        let entries: Vec<(usize, Arc<Graph>)> = entries.into_iter().collect();
        let slots = entries.iter().map(|&(slot, _)| slot + 1).max().unwrap_or(0);
        let mut index = QueryIndex::over_slots(path_config, slots);
        for (slot, graph) in entries {
            let features = enumerate_paths(&graph, &path_config);
            index.insert(slot, graph, &features);
        }
        index
    }

    /// Indexes `graph` under the empty `slot` from its path `features`
    /// (Algorithm 1 for one member). Every feature must be at most
    /// `max_len` edges long. Returns the postings touched.
    pub fn insert(&mut self, slot: usize, graph: Arc<Graph>, features: &PathFeatures) -> u64 {
        if self.residents.len() <= slot {
            self.residents.resize_with(slot + 1, || None);
        }
        debug_assert!(self.residents[slot].is_none(), "insert into occupied slot");
        let id = GraphId::from_index(slot);
        let mut nf_by_len = vec![0u32; self.path_config.max_len + 1];
        for (seq, count) in &features.counts {
            self.trie.insert(seq, id, *count);
            nf_by_len[seq.edge_len()] += 1;
        }
        for l in 1..nf_by_len.len() {
            nf_by_len[l] += nf_by_len[l - 1];
        }
        let keys: Box<[LabelSeq]> = features.counts.keys().cloned().collect();
        let touched = keys.len() as u64;
        self.residents[slot] = Some(Resident {
            graph,
            features: keys,
            complete_len: features.complete_len as u8,
            nf_by_len: nf_by_len.into_boxed_slice(),
            plan: OnceLock::new(),
        });
        touched
    }

    /// Unindexes `slot`, returning the number of postings touched.
    pub fn remove(&mut self, slot: usize) -> u64 {
        let Some(resident) = self.residents.get_mut(slot).and_then(Option::take) else {
            return 0;
        };
        let id = GraphId::from_index(slot);
        let removed = resident
            .features
            .iter()
            .filter(|seq| self.trie.remove(seq, id));
        removed.count() as u64
    }

    /// Brings the index in line with `cache` after `delta` was applied to
    /// it: removes the evicted slots, then indexes every admitted resident
    /// from the path features it brought, or else from one enumeration of
    /// its graph. Returns the postings touched.
    pub(crate) fn apply_delta(&mut self, cache: &QueryCache, delta: &WindowDelta) -> u64 {
        let mut touched = 0;
        for &slot in &delta.evicted {
            touched += self.remove(slot);
        }
        for (i, &slot) in delta.admitted.iter().enumerate() {
            let graph = &cache.entry(slot).graph;
            let enumerated;
            let features = match delta.features.get(i).and_then(Option::as_ref) {
                Some(features) => {
                    // The map's order reaches `slot_features` and the
                    // checkpoint: it must be the enumerator's own.
                    debug_assert!(same_features(
                        features,
                        &enumerate_paths(graph, &self.path_config)
                    ));
                    features
                }
                None => {
                    enumerated = enumerate_paths(graph, &self.path_config);
                    &enumerated
                }
            };
            touched += self.insert(slot, Arc::clone(graph), features);
        }
        touched
    }

    fn resident(&self, slot: usize) -> &Resident {
        self.residents[slot].as_ref().expect("occupied slot")
    }

    /// The distinct feature sequences indexed for `slot` with their live
    /// occurrence counts, plus the slot's exhaustively enumerated depth:
    /// the per-slot index state the persistence layer checkpoints, so
    /// recovery can re-insert without re-enumerating the graph. `None`
    /// when the slot is not indexed.
    pub fn slot_features(&self, slot: usize) -> Option<(Vec<(LabelSeq, u32)>, usize)> {
        let resident = self.residents.get(slot).and_then(Option::as_ref)?;
        let id = GraphId::from_index(slot);
        let counts = resident
            .features
            .iter()
            .map(|seq| (seq.clone(), self.trie.count_in(seq, id)))
            .collect();
        Some((counts, resident.complete_len as usize))
    }

    /// `Isub`: cache slots whose graph is a (verified) supergraph of `q`,
    /// plus the iGQ-internal iso work performed. `qf` is the query's
    /// path-feature set, extracted once by the engine and shared across
    /// the base filter and both probes.
    ///
    /// The probe's pattern is the query and every target is a (small)
    /// cached query graph, so one [`MatchPlan`], ordered by the query's
    /// own label histogram, is shared across all filtered slots with the
    /// thread's scratch: the probe performs no per-candidate allocations.
    pub fn supergraphs_of(&self, q: &Graph, qf: &PathFeatures) -> (Vec<usize>, IsoStats) {
        let mut stats = IsoStats::new();
        let mut slots = Vec::new();
        let filtered = self.supergraph_candidates(q, qf);
        if filtered.is_empty() {
            return (slots, stats);
        }
        let plan = own_plan(q);
        stats.plan_builds += 1;
        with_thread_scratch(|scratch| {
            for slot in filtered {
                let (verdict, states) =
                    matches_with_plan(&plan, &self.resident(slot).graph, scratch);
                stats.record_verdict(verdict, states);
                if verdict.is_found() {
                    slots.push(slot);
                }
            }
        });
        (slots, stats)
    }

    /// `Isub`'s GGSX-style filter: a slot survives only if it contains
    /// every query path feature at least as often as the query does,
    /// restricted to lengths both sides enumerated exhaustively, so budget
    /// truncation weakens filtering instead of corrupting it.
    fn supergraph_candidates(&self, q: &Graph, qf: &PathFeatures) -> Vec<usize> {
        let max_len = self.path_config.max_len;
        let features = || {
            qf.counts
                .iter()
                .filter(|(seq, _)| seq.edge_len() <= max_len.min(qf.complete_len))
                .map(|(seq, &c)| (seq, c))
        };
        let size_ok = |slot: usize| {
            let g = &self.resident(slot).graph;
            g.vertex_count() >= q.vertex_count() && g.edge_count() >= q.edge_count()
        };

        if features().next().is_none() {
            return (0..self.residents.len())
                .filter(|&s| self.residents[s].is_some() && size_ok(s))
                .collect();
        }

        // Fully-indexed slots: one pass of the posting-list kernel.
        let fully_indexed = |id: GraphId| {
            self.residents[id.index()]
                .as_ref()
                .is_some_and(|r| r.complete_len as usize == max_len)
        };
        let mut candidates: Vec<usize> = self
            .trie
            .containing(features(), fully_indexed)
            .into_iter()
            .map(GraphId::index)
            .collect();

        // Budget-truncated slots: only features within each graph's
        // exhaustive depth may exclude it.
        for (slot, resident) in self.residents.iter().enumerate() {
            let Some(resident) = resident else { continue };
            let depth = resident.complete_len as usize;
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

    /// `Isuper`: cache slots whose graph is a (verified) subgraph of `q`,
    /// plus the iGQ-internal iso work performed. `qf` is shared as in
    /// [`QueryIndex::supergraphs_of`].
    ///
    /// The inverted probe: each cached graph is the pattern, searched
    /// inside the fixed query with the resident's own plan (built on its
    /// first test and counted in `plan_builds`), on the thread's scratch.
    pub fn subgraphs_of(&self, q: &Graph, qf: &PathFeatures) -> (Vec<usize>, IsoStats) {
        let mut stats = IsoStats::new();
        let mut slots = Vec::new();
        with_thread_scratch(|scratch| {
            for slot in self.subgraph_candidates(qf) {
                let resident = self.resident(slot);
                let cached = &resident.graph;
                if cached.vertex_count() > q.vertex_count() || cached.edge_count() > q.edge_count()
                {
                    continue;
                }
                let plan = resident.plan.get_or_init(|| {
                    stats.plan_builds += 1;
                    own_plan(cached)
                });
                let (verdict, states) = matches_with_plan(plan, q, scratch);
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
    fn subgraph_candidates(&self, qf: &PathFeatures) -> Vec<usize> {
        let ql = qf.complete_len;
        let features = qf.counts.iter().map(|(seq, &c)| (seq, c));
        self.trie
            .covered_by(features, self.residents.len(), |slot| {
                let nf = &self.residents[slot].as_ref()?.nf_by_len;
                Some(nf[ql.min(nf.len() - 1)])
            })
    }

    /// Approximate heap footprint (Fig. 18 accounting). The graphs are
    /// accounted to the query cache, which owns them.
    pub fn heap_size_bytes(&self) -> u64 {
        let mut bytes = self.trie.heap_size_bytes();
        bytes += (self.residents.capacity() * size_of::<Option<Resident>>()) as u64;
        for r in self.residents.iter().flatten() {
            bytes += size_of_val(&*r.features) as u64;
            bytes += r
                .features
                .iter()
                .map(LabelSeq::heap_size_bytes)
                .sum::<u64>();
            bytes += size_of_val(&*r.nf_by_len) as u64;
            bytes += r.plan.get().map_or(0, MatchPlan::heap_size_bytes);
        }
        bytes
    }

    /// A canonical summary of the index contents (occupied slots and the
    /// live postings of every feature), used by `self_check` to diff the
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
        let slots = (0..self.residents.len())
            .filter(|&s| self.residents[s].is_some())
            .collect();
        IndexSnapshot { slots, postings }
    }
}

/// Whether two feature sets are equal in content and in map order.
fn same_features(a: &PathFeatures, b: &PathFeatures) -> bool {
    a.complete_len == b.complete_len && a.counts.iter().eq(b.counts.iter())
}

/// The probe plan of `pattern` under the default configuration, ordered
/// by `pattern`'s own label histogram.
fn own_plan(pattern: &Graph) -> MatchPlan {
    let mut rarity = |l| pattern.vertices_with_label(l).len() as u64;
    MatchPlan::build(pattern, &MatchConfig::default(), &mut rarity)
}

/// Canonical index contents for equivalence checks (see
/// [`QueryIndex::snapshot`]).
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
    use crate::cache::WindowEntry;
    use igq_features::thread_enumeration_count;
    use igq_graph::graph_from;

    /// `(labels, edges)` shorthand for building test graphs.
    type GraphSpec<'a> = (&'a [u32], &'a [(u32, u32)]);

    /// Eight small graphs over two labels: paths, a star and a triangle,
    /// so that some features are held by most of them and some by one.
    fn graphs() -> Vec<Arc<Graph>> {
        let specs: [GraphSpec; 8] = [
            (&[0, 1], &[(0, 1)]),
            (&[0, 1, 0], &[(0, 1), (1, 2)]),
            (&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
            (&[1, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]),
            (&[0, 1, 1, 0], &[(0, 1), (1, 2), (2, 3)]),
            (&[1, 1], &[(0, 1)]),
            (&[0], &[]),
            (&[0, 1, 0, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]),
        ];
        (specs.iter())
            .map(|(labels, edges)| Arc::new(graph_from(labels, edges)))
            .collect()
    }

    /// Both probes of `index` equal those of `twin` for every graph as
    /// the query.
    fn same_probes(index: &QueryIndex, twin: &QueryIndex) {
        let config = PathConfig::default();
        for q in graphs() {
            let qf = enumerate_paths(&q, &config);
            let (a, b) = (index.supergraphs_of(&q, &qf), twin.supergraphs_of(&q, &qf));
            assert_eq!((a.0, a.1.tests), (b.0, b.1.tests), "Isub {q:?}");
            let (a, b) = (index.subgraphs_of(&q, &qf), twin.subgraphs_of(&q, &qf));
            assert_eq!((a.0, a.1.tests), (b.0, b.1.tests), "Isuper {q:?}");
        }
        assert!(index.snapshot().diff(&twin.snapshot()).is_ok());
    }

    #[test]
    fn query_index_rows_come_and_go_with_the_residents() {
        let config = PathConfig::default();
        // 16 slots: a feature of two residents is an eighth.
        let mut index = QueryIndex::over_slots(config, 16);
        let mut sparse = QueryIndex::new(config);
        let both = |index: &mut QueryIndex, sparse: &mut QueryIndex, slot, g: &Arc<Graph>| {
            let features = enumerate_paths(g, &config);
            index.insert(slot, Arc::clone(g), &features);
            sparse.insert(slot, Arc::clone(g), &features);
        };
        let gs = graphs();
        for (slot, g) in gs.iter().enumerate() {
            both(&mut index, &mut sparse, slot, g);
        }
        let rows = index.trie.dense_count();
        assert!(rows > 0 && rows == index.trie.arena_rows());
        assert_eq!(sparse.trie.dense_count(), 0);
        same_probes(&index, &sparse);
        // Emptied lists give their rows back; none is taken anew.
        for slot in 0..gs.len() {
            index.remove(slot);
            sparse.remove(slot);
            same_probes(&index, &sparse);
        }
        assert_eq!(
            (index.trie.dense_count(), index.trie.arena_rows()),
            (0, rows)
        );
        // Refilled in another order (slot 20 is past the universe): the
        // free rows are reused before the arena grows.
        for (slot, g) in gs.iter().rev().enumerate() {
            both(
                &mut index,
                &mut sparse,
                if slot == 3 { 20 } else { slot },
                g,
            );
            same_probes(&index, &sparse);
        }
        assert_eq!(index.trie.arena_rows(), rows);
        assert_eq!(index.trie.dense_count(), rows);
    }

    #[test]
    fn query_index_build_is_over_its_slots() {
        let config = PathConfig::default();
        let entries = || graphs().into_iter().enumerate().map(|(i, g)| (2 * i, g));
        let built = QueryIndex::build(entries(), config);
        assert!(built.trie.dense_count() > 0);
        let mut sparse = QueryIndex::new(config);
        for (slot, g) in entries() {
            let features = enumerate_paths(&g, &config);
            sparse.insert(slot, g, &features);
        }
        same_probes(&built, &sparse);
    }

    #[test]
    fn query_index_flip_inserts_the_features_the_window_brought() {
        let config = PathConfig::default();
        let gs = graphs();
        let entry = |g: &Arc<Graph>, carry: bool| WindowEntry {
            graph: Arc::clone(g),
            answers: Vec::new(),
            signature: None,
            code: None,
            features: carry.then(|| enumerate_paths(g, &config)),
        };
        let mut cache = QueryCache::new(8);
        let mut index = QueryIndex::over_slots(config, 8);
        // Every other entry carries its features.
        let incoming: Vec<WindowEntry> = (gs.iter().enumerate())
            .map(|(i, g)| entry(g, i % 2 == 0))
            .collect();
        assert!(
            incoming[0].clone().features.is_none(),
            "a copy carries none"
        );
        let delta = cache.apply_window(incoming);
        let carried = delta.features.iter().filter(|f| f.is_some()).count();
        assert_eq!((delta.features.len(), carried), (8, 4));
        let before = thread_enumeration_count();
        index.apply_delta(&cache, &delta);
        // Debug builds check each carried set against an enumeration.
        let checks = if cfg!(debug_assertions) { carried } else { 0 };
        assert_eq!(
            thread_enumeration_count() - before,
            (8 - carried + checks) as u64
        );
        let fresh = QueryIndex::build(cache.iter().map(|(s, e)| (s, Arc::clone(&e.graph))), config);
        same_probes(&index, &fresh);
        for slot in 0..8 {
            assert_eq!(
                index.slot_features(slot),
                fresh.slot_features(slot),
                "slot {slot}"
            );
        }
    }
}
