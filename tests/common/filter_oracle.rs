//! The four hand-written posting-list loops the library shipped before
//! its posting-list kernels — `Ggsx::trie_filter`, the `Isub` filter, the
//! `Isuper` candidates and `ContainmentIndex::candidates` — kept
//! verbatim as the test oracle for the two kernels that replaced them
//! ([`FeatureTrie::containing`], [`FeatureTrie::covered_by`]). Every loop
//! materialises one `Vec` per query feature and merges it linearly, so it
//! is slow, but the candidate lists it returns are the contract: same
//! ids, ascending, hence the same iso tests, answers, admissions and WAL
//! bytes downstream.
//!
//! Each oracle owns a trie built by the same inserts/removes as the
//! library's index, so both sides see the same tombstones.

use super::oracle_is_subgraph;
use igq::features::{enumerate_paths, FeatureTrie, LabelSeq, PathConfig, PathFeatures};
use igq::graph::fxhash::FxHashMap;
use igq::graph::{Graph, GraphId, GraphStore};
use igq::methods::intersect_sorted;
use std::sync::Arc;

/// The GGSX dataset index with PR 20's filter.
pub struct OracleGgsx {
    pub store: Arc<GraphStore>,
    pub trie: FeatureTrie,
    pub complete_len: Vec<u8>,
    pub shallow: Vec<GraphId>,
    pub path_config: PathConfig,
}

impl OracleGgsx {
    /// `Ggsx::build`.
    pub fn build(store: &Arc<GraphStore>, path_config: PathConfig) -> OracleGgsx {
        let mut trie = FeatureTrie::new();
        let mut complete_len = Vec::with_capacity(store.len());
        let mut shallow = Vec::new();
        for (id, g) in store.iter() {
            let features = enumerate_paths(g, &path_config);
            for (seq, count) in &features.counts {
                trie.insert(seq, id, *count);
            }
            complete_len.push(features.complete_len as u8);
            if features.complete_len < path_config.max_len {
                shallow.push(id);
            }
        }
        OracleGgsx {
            store: Arc::clone(store),
            trie,
            complete_len,
            shallow,
            path_config,
        }
    }

    /// `Ggsx::filter(q).candidates`.
    pub fn filter(&self, q: &Graph) -> Vec<GraphId> {
        let qf = enumerate_paths(q, &self.path_config);
        let features: Vec<(LabelSeq, u32)> = qf
            .counts
            .iter()
            .filter(|(s, _)| s.edge_len() <= self.path_config.max_len)
            .map(|(s, &c)| (s.clone(), c))
            .collect();
        OracleGgsx::trie_filter(
            &self.store,
            &self.trie,
            &self.complete_len,
            &self.shallow,
            self.path_config.max_len,
            q,
            &features,
        )
    }

    /// `Ggsx::trie_filter`, verbatim.
    pub fn trie_filter(
        store: &GraphStore,
        trie: &FeatureTrie,
        complete_len: &[u8],
        shallow: &[GraphId],
        max_path_len: usize,
        q: &Graph,
        query_features: &[(LabelSeq, u32)],
    ) -> Vec<GraphId> {
        if query_features.is_empty() {
            return store
                .ids()
                .filter(|&id| {
                    let g = store.get(id);
                    g.vertex_count() >= q.vertex_count() && g.edge_count() >= q.edge_count()
                })
                .collect();
        }

        // Fully-indexed graphs: posting-list intersection, most selective
        // feature first.
        let mut order: Vec<usize> = (0..query_features.len()).collect();
        order.sort_by_key(|&i| trie.get(&query_features[i].0).len());

        let mut full: Option<Vec<GraphId>> = None;
        for &i in &order {
            let (seq, count) = &query_features[i];
            let qualifying: Vec<GraphId> = trie
                .get(seq)
                .iter()
                .filter(|p| {
                    p.count >= *count && complete_len[p.graph.index()] as usize == max_path_len
                })
                .map(|p| p.graph)
                .collect();
            full = Some(match full {
                None => qualifying,
                Some(acc) => intersect_sorted(&acc, &qualifying),
            });
            if full.as_ref().is_some_and(|f| f.is_empty()) {
                break;
            }
        }
        let mut candidates = full.unwrap_or_default();

        // Truncated graphs: only features within each graph's exhaustive
        // depth may exclude it.
        for &id in shallow {
            let depth = complete_len[id.index()] as usize;
            let ok = query_features
                .iter()
                .filter(|(seq, _)| seq.edge_len() <= depth)
                .all(|(seq, count)| trie.count_in(seq, id) >= *count);
            if ok {
                candidates.push(id);
            }
        }
        candidates.sort_unstable();

        // Final size screen.
        candidates.retain(|&id| {
            let g = store.get(id);
            g.vertex_count() >= q.vertex_count() && g.edge_count() >= q.edge_count()
        });
        candidates
    }
}

/// One slot of [`OracleQueryIndex`]: what `QueryIndex` keeps per resident,
/// less the canonical code.
pub struct OracleSlot {
    pub graph: Arc<Graph>,
    pub features: Vec<LabelSeq>,
    pub complete_len: u8,
    pub nf_by_len: Vec<u32>,
}

/// The query index with the two loop-based probes: the reference implementation
/// `QueryIndex` is checked against. Like `QueryIndex`, one trie of
/// `(feature, slot, count)` postings serves both probes.
pub struct OracleQueryIndex {
    pub path_config: PathConfig,
    pub trie: FeatureTrie,
    pub slots: Vec<Option<OracleSlot>>,
}

impl OracleQueryIndex {
    pub fn new(path_config: PathConfig) -> OracleQueryIndex {
        OracleQueryIndex {
            path_config,
            trie: FeatureTrie::new(),
            slots: Vec::new(),
        }
    }

    /// `QueryIndex::insert` after one path enumeration.
    pub fn insert(&mut self, slot: usize, graph: Arc<Graph>) {
        let features = enumerate_paths(&graph, &self.path_config);
        self.insert_features(slot, graph, &features);
    }

    /// `QueryIndex::insert`.
    pub fn insert_features(&mut self, slot: usize, graph: Arc<Graph>, features: &PathFeatures) {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        assert!(self.slots[slot].is_none(), "insert into occupied slot");
        let id = GraphId::from_index(slot);
        let mut by_len = vec![0u32; self.path_config.max_len + 1];
        for (seq, count) in &features.counts {
            self.trie.insert(seq, id, *count);
            by_len[seq.edge_len()] += 1;
        }
        for l in 1..by_len.len() {
            by_len[l] += by_len[l - 1];
        }
        self.slots[slot] = Some(OracleSlot {
            graph,
            features: features.counts.keys().cloned().collect(),
            complete_len: features.complete_len as u8,
            nf_by_len: by_len,
        });
    }

    /// `QueryIndex::remove`.
    pub fn remove(&mut self, slot: usize) {
        let Some(entry) = self.slots.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let id = GraphId::from_index(slot);
        for seq in entry.features.iter() {
            self.trie.remove(seq, id);
        }
    }

    /// `QueryIndex::supergraphs_of` (`Isub`): verified slots and
    /// `IsoStats::tests`.
    pub fn supergraphs_of(&self, q: &Graph, qf: &PathFeatures) -> (Vec<usize>, u64) {
        let filtered = self.isub_filter(q, qf);
        let tests = filtered.len() as u64;
        let slots = filtered
            .into_iter()
            .filter(|&s| oracle_is_subgraph(q, &self.slots[s].as_ref().expect("occupied").graph))
            .collect();
        (slots, tests)
    }

    /// `QueryIndex::subgraphs_of` (`Isuper`): verified slots and
    /// `IsoStats::tests`.
    pub fn subgraphs_of(&self, q: &Graph, qf: &PathFeatures) -> (Vec<usize>, u64) {
        let mut tests = 0;
        let mut slots = Vec::new();
        for slot in self.isuper_candidates(qf) {
            let cached = &self.slots[slot].as_ref().expect("occupied").graph;
            if cached.vertex_count() > q.vertex_count() || cached.edge_count() > q.edge_count() {
                continue;
            }
            tests += 1;
            if oracle_is_subgraph(cached, q) {
                slots.push(slot);
            }
        }
        (slots, tests)
    }

    /// The loop-based `Isub` filter, verbatim.
    pub fn isub_filter(&self, q: &Graph, qf: &PathFeatures) -> Vec<usize> {
        let max_len = self.path_config.max_len;
        let query_features: Vec<(&LabelSeq, u32)> = qf
            .counts
            .iter()
            .filter(|(seq, _)| seq.edge_len() <= max_len.min(qf.complete_len))
            .map(|(seq, &c)| (seq, c))
            .collect();

        let size_ok = |slot: usize| {
            let g = &self.slots[slot].as_ref().expect("occupied").graph;
            g.vertex_count() >= q.vertex_count() && g.edge_count() >= q.edge_count()
        };

        if query_features.is_empty() {
            return (0..self.slots.len())
                .filter(|&s| self.slots[s].is_some() && size_ok(s))
                .collect();
        }

        // Fully-indexed slots: posting-list intersection, most selective
        // feature first.
        let mut order: Vec<usize> = (0..query_features.len()).collect();
        order.sort_by_key(|&i| self.trie.get(query_features[i].0).len());
        let mut full: Option<Vec<usize>> = None;
        for &i in &order {
            let (seq, count) = query_features[i];
            let qualifying: Vec<usize> = self
                .trie
                .get(seq)
                .iter()
                .filter(|p| {
                    p.count >= count
                        && self.slots[p.graph.index()]
                            .as_ref()
                            .is_some_and(|e| e.complete_len as usize == max_len)
                })
                .map(|p| p.graph.index())
                .collect();
            full = Some(match full {
                None => qualifying,
                Some(acc) => intersect_sorted_usize(&acc, &qualifying),
            });
            if full.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        let mut candidates = full.unwrap_or_default();

        // Budget-truncated slots: only features within each graph's
        // exhaustive depth may exclude it.
        for (slot, entry) in self.slots.iter().enumerate() {
            let Some(entry) = entry else { continue };
            let depth = entry.complete_len as usize;
            if depth == max_len {
                continue; // handled by the intersection above
            }
            let id = GraphId::from_index(slot);
            let ok = query_features
                .iter()
                .filter(|(seq, _)| seq.edge_len() <= depth)
                .all(|(seq, count)| self.trie.count_in(seq, id) >= *count);
            if ok {
                candidates.push(slot);
            }
        }
        candidates.sort_unstable();
        candidates.retain(|&s| size_ok(s));
        candidates
    }

    /// The loop-based `Isuper` candidates (Algorithm 2), verbatim.
    pub fn isuper_candidates(&self, qf: &PathFeatures) -> Vec<usize> {
        let ql = qf.complete_len;
        let mut covered: FxHashMap<usize, u32> = FxHashMap::default();
        for (seq, &qcount) in &qf.counts {
            for posting in self.trie.get(seq).iter() {
                // Skip tombstones: a zero count is an absent posting, not a
                // feature the query trivially covers.
                if posting.count > 0 && posting.count <= qcount {
                    *covered.entry(posting.graph.index()).or_insert(0) += 1;
                }
            }
        }
        let mut out: Vec<usize> = Vec::new();
        for (slot, entry) in self.slots.iter().enumerate() {
            let Some(entry) = entry else { continue };
            let limit = ql.min(entry.nf_by_len.len() - 1);
            let required = entry.nf_by_len[limit];
            if required == 0 {
                // Featureless member (empty graph): vacuous candidate.
                out.push(slot);
            } else if covered.get(&slot).copied().unwrap_or(0) == required {
                out.push(slot);
            }
        }
        out
    }
}

/// Sorted intersection of two ascending slot lists (the loop-based `Isub`
/// filter's, verbatim).
fn intersect_sorted_usize(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// `ContainmentIndex::candidates`, verbatim — including its missing
/// `count > 0` guard: a tombstoned posting counts as covered. The library
/// index never removes, so the two agree on every trie it can hold; on a
/// trie with tombstones this loop is the *bug* `covered_by` closes, not
/// the contract.
pub fn containment_candidates(
    trie: &FeatureTrie,
    nf_by_len: &[Vec<u32>],
    query_features: &PathFeatures,
) -> Vec<usize> {
    let ql = query_features.complete_len;
    let mut covered: FxHashMap<usize, u32> = FxHashMap::default();
    for (seq, &qcount) in &query_features.counts {
        for posting in trie.get(seq).iter() {
            if posting.count <= qcount {
                *covered.entry(posting.graph.index()).or_insert(0) += 1;
            }
        }
    }
    let mut out: Vec<usize> = Vec::new();
    for (member, nf) in nf_by_len.iter().enumerate() {
        let limit = ql.min(nf.len() - 1);
        let required = nf[limit];
        if required == 0 {
            // Featureless member (empty graph): vacuous candidate.
            out.push(member);
        } else if covered.get(&member).copied().unwrap_or(0) == required {
            out.push(member);
        }
    }
    out
}
