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
//! on the flipping query thread (Section 5.2). The paper's wholesale
//! shadow rebuild survives as [`QueryIndex::build`]: the cold-start path
//! and the oracle [`Engine::self_check`](crate::Engine::self_check) diffs
//! the live index against. Graphs are shared with the cache via `Arc`.
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
    /// An empty index.
    pub fn new(path_config: PathConfig) -> QueryIndex {
        QueryIndex {
            path_config,
            trie: FeatureTrie::new(),
            residents: Vec::new(),
        }
    }

    /// Cold-start build over `(slot, graph)` pairs, enumerating each
    /// graph's paths: the shadow rebuild `self_check` diffs against.
    pub fn build(
        entries: impl IntoIterator<Item = (usize, Arc<Graph>)>,
        path_config: PathConfig,
    ) -> QueryIndex {
        let mut index = QueryIndex::new(path_config);
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
    /// from one enumeration of its graph. Returns the postings touched.
    pub(crate) fn apply_delta(&mut self, cache: &QueryCache, delta: &WindowDelta) -> u64 {
        let mut touched = 0;
        for &slot in &delta.evicted {
            touched += self.remove(slot);
        }
        for &slot in &delta.admitted {
            let graph = &cache.entry(slot).graph;
            let features = enumerate_paths(graph, &self.path_config);
            touched += self.insert(slot, Arc::clone(graph), &features);
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
