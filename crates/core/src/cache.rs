//! The query cache: cached query graphs, their answers, and metadata.
//!
//! `Igraphs` in the paper's terminology (Section 5.2): the actual query
//! graphs live here together with their stored answer sets and the
//! replacement-policy metadata.
//!
//! Slots are **stable**: an entry keeps its slot index for its whole
//! residency, evicted slots go onto a free list, and admissions reuse freed
//! slots before growing the slot table. This is what lets `Isub`/`Isuper`
//! maintain themselves incrementally — their posting lists are keyed by
//! slot, and [`QueryCache::apply_window`] reports exactly which slots were
//! evicted and admitted (the [`WindowDelta`]) instead of forcing a rebuild.
//! Graphs are held behind `Arc` so the query indexes share them with the
//! cache instead of cloning.

use crate::metadata::GraphMeta;
use crate::policy::ReplacementPolicy;
use igq_features::PathFeatures;
use igq_graph::canon::{canonical_code, CanonicalCode, GraphSignature};
use igq_graph::fxhash::FxHashMap;
use igq_graph::{Graph, GraphId};
use igq_iso::LogValue;
use std::sync::{Arc, OnceLock};

/// One cached query.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The query graph itself, shared with the query indexes.
    pub graph: Arc<Graph>,
    /// WL signature for cheap exact-repeat prefiltering.
    pub signature: GraphSignature,
    /// Canonical code — the exact-repeat fast path key — unless
    /// [`canonical_code`] declined the graph (over its vertex cap, or its
    /// orbit-pruned search out of leaves; rare at query sizes).
    pub code: Option<CanonicalCode>,
    /// The stored answer set (sorted dataset graph ids).
    pub answers: Vec<GraphId>,
    /// Replacement-policy counters.
    pub meta: GraphMeta,
    /// What the engine derives from the answers, built on first use.
    pub(crate) memo: ResidentMemo,
}

/// Values derived from one resident's answers, each built on first use.
/// Never persisted: they die with the slot, and a clone starts empty
/// (clones feed checkpoints, WAL records and restores), so a restored
/// or replicated resident builds them afresh.
#[derive(Debug, Default)]
pub(crate) struct ResidentMemo {
    /// `(n, credit)`: the cost of the whole answer list, summed in id
    /// order, for a query of `n` vertices. It is the credit of every hit
    /// whose candidate set holds all the answers (an exact repeat, at the
    /// resident's own `n`, and, with a filter free of false negatives,
    /// every known hit), and depends on nothing but the resident and `n`.
    known_credit: Vec<(usize, LogValue)>,
    /// The answers as a dense bitset, one bit per dataset graph.
    answer_bits: OnceLock<Box<[u64]>>,
}

impl Clone for ResidentMemo {
    fn clone(&self) -> ResidentMemo {
        ResidentMemo::default()
    }
}

impl CacheEntry {
    /// Finalizes a pending window entry for residency: sorts and dedups
    /// the answers and fills in whatever signature/code the engine did not
    /// precompute.
    fn new(entry: WindowEntry) -> CacheEntry {
        let WindowEntry {
            graph,
            mut answers,
            signature,
            code,
            ..
        } = entry;
        answers.sort_unstable();
        answers.dedup();
        // Reuse whatever the engine already computed during query
        // processing; canonicalization in particular is the expensive part
        // of admission, and the exact-repeat fast path computed it anyway.
        let signature = signature.unwrap_or_else(|| GraphSignature::of(&graph));
        let code = match code {
            Some(code) => code,
            None => canonical_code(&graph),
        };
        CacheEntry {
            graph,
            signature,
            code,
            answers,
            meta: GraphMeta::new(),
            memo: ResidentMemo::default(),
        }
    }

    /// The credit of a hit by a query of `n` vertices whose candidate set
    /// holds every answer: `cost_of(answers)`, the answers' cost at size
    /// `n`, computed on the first call for each `n`. An exact repeat is
    /// isomorphic to the resident, so it reads the resident's own size.
    pub(crate) fn known_credit(
        &mut self,
        n: usize,
        cost_of: impl FnOnce(&[GraphId]) -> LogValue,
    ) -> LogValue {
        let memo = &mut self.memo.known_credit;
        if let Some(&(_, credit)) = memo.iter().find(|&&(size, _)| size == n) {
            return credit;
        }
        let credit = cost_of(&self.answers);
        memo.push((n, credit));
        credit
    }

    /// The answers as a bitset over a dataset of `graphs` graphs (bit `i`
    /// of word `i / 64` is graph `i`), built on the first call. Ids past
    /// the dataset are left out: no candidate can equal them.
    pub(crate) fn answer_bits(&self, graphs: usize) -> &[u64] {
        self.memo.answer_bits.get_or_init(|| {
            let mut words = vec![0u64; graphs.div_ceil(64)];
            for id in self.answers.iter().map(|id| id.index()) {
                if id < graphs {
                    words[id / 64] |= 1 << (id % 64);
                }
            }
            words.into_boxed_slice()
        })
    }

    /// The memoized known credits `(n, credit)`, in memo order, and
    /// whether the answer bitset is built yet.
    #[cfg(test)]
    pub(crate) fn memos_built(&self) -> (&[(usize, LogValue)], bool) {
        (
            &self.memo.known_credit,
            self.memo.answer_bits.get().is_some(),
        )
    }
}

/// One query pending admission (`Itemp` member). `signature`/`code` carry
/// values the engine already computed on the query path so admission does
/// not recompute them; `None` means "not computed yet" (the outer `Option`
/// of `code` — the inner one is [`canonical_code`] declining the graph).
/// `features` likewise carries the query's path features to the flip,
/// which indexes the graph from them.
#[derive(Debug)]
pub struct WindowEntry {
    /// The query graph.
    pub graph: Arc<Graph>,
    /// Its answer set (sorted on admission).
    pub answers: Vec<GraphId>,
    /// Precomputed WL signature, if available.
    pub signature: Option<GraphSignature>,
    /// Precomputed canonicalization outcome, if one was attempted.
    pub code: Option<Option<CanonicalCode>>,
    /// The path features the query's filter extracted, if it ran one.
    /// Never persisted and never cloned: an entry restored from a
    /// checkpoint or a snapshot arrives without them.
    pub features: Option<PathFeatures>,
}

impl Clone for WindowEntry {
    /// A copy without the features: copies feed checkpoints and
    /// snapshots, which never hold them.
    fn clone(&self) -> WindowEntry {
        WindowEntry {
            graph: Arc::clone(&self.graph),
            answers: self.answers.clone(),
            signature: self.signature,
            code: self.code.clone(),
            features: None,
        }
    }
}

/// The slot-level outcome of one window maintenance: which slots lost
/// their entry and which gained one. A slot may appear in both lists
/// (evicted, then immediately reused for an admission).
#[derive(Debug, Clone, Default)]
pub struct WindowDelta {
    /// Slots whose previous occupant was evicted, in eviction order.
    pub evicted: Vec<usize>,
    /// Slots that received a new entry, in admission order.
    pub admitted: Vec<usize>,
    /// `features[i]`: the path features `admitted[i]`'s window entry
    /// brought, if any (may be shorter than `admitted`; a replayed flip
    /// has none).
    pub features: Vec<Option<PathFeatures>>,
}

impl WindowDelta {
    /// True when the maintenance changed nothing.
    pub fn is_empty(&self) -> bool {
        self.evicted.is_empty() && self.admitted.is_empty()
    }
}

/// Bounded store of cached queries with utility-based replacement.
#[derive(Debug, Clone, Default)]
pub struct QueryCache {
    /// Slot table; `None` = free slot (also listed in `free`).
    slots: Vec<Option<CacheEntry>>,
    /// Freed slot indexes available for reuse.
    free: Vec<usize>,
    /// Occupied-slot count (`slots.len() - free.len()`).
    len: usize,
    capacity: usize,
    policy: ReplacementPolicy,
    maintenance_round: u64,
    /// Canonical code → slot, for O(1) exact-repeat lookups. Maintained
    /// incrementally: admissions insert, evictions remove.
    code_index: FxHashMap<CanonicalCode, usize>,
}

impl QueryCache {
    /// An empty cache bounded at `capacity` graphs, using the paper's
    /// utility replacement policy.
    pub fn new(capacity: usize) -> QueryCache {
        Self::with_policy(capacity, ReplacementPolicy::Utility)
    }

    /// An empty cache with an explicit replacement policy (ablations).
    pub fn with_policy(capacity: usize, policy: ReplacementPolicy) -> QueryCache {
        QueryCache {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            capacity,
            policy,
            maintenance_round: 0,
            code_index: FxHashMap::default(),
        }
    }

    /// The active replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of cached queries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity `C`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Size of the slot table (occupied + free slots). Slot indexes are
    /// always `< slot_count()`.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Entry at `slot`.
    ///
    /// # Panics
    /// Panics if the slot is free (slots are only published via
    /// [`WindowDelta::admitted`] and [`QueryCache::iter`]).
    pub fn entry(&self, slot: usize) -> &CacheEntry {
        self.slots[slot].as_ref().expect("entry at free slot")
    }

    /// Mutable entry at `slot`.
    pub fn entry_mut(&mut self, slot: usize) -> &mut CacheEntry {
        self.slots[slot].as_mut().expect("entry at free slot")
    }

    /// Entry at `slot`, or `None` when the slot is free.
    pub fn get(&self, slot: usize) -> Option<&CacheEntry> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Iterates `(slot, entry)` over occupied slots, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CacheEntry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i, e)))
    }

    /// Advances every entry's query clock (`M(g) += 1`).
    pub fn tick_all(&mut self) {
        for e in self.slots.iter_mut().flatten() {
            e.meta.tick();
        }
    }

    /// Slots whose signature matches `sig` (exact-repeat candidates; the
    /// caller confirms with an isomorphism test).
    pub fn slots_with_signature(&self, sig: &GraphSignature) -> Vec<usize> {
        self.iter()
            .filter(|(_, e)| e.signature == *sig)
            .map(|(i, _)| i)
            .collect()
    }

    /// The slot caching a graph with this exact canonical code, if any —
    /// no confirmation test needed (equal codes ⇔ isomorphic).
    pub fn slot_with_code(&self, code: &CanonicalCode) -> Option<usize> {
        self.code_index.get(code).copied()
    }

    /// Window maintenance (Section 5.2): admit the `incoming` window
    /// entries, evicting the lowest-utility residents when over capacity.
    ///
    /// Returns the [`WindowDelta`] — exactly which slots were evicted and
    /// which admitted — so callers can update the query indexes
    /// incrementally instead of rebuilding them.
    pub fn apply_window(&mut self, incoming: Vec<WindowEntry>) -> WindowDelta {
        let mut delta = WindowDelta::default();
        if incoming.is_empty() || self.capacity == 0 {
            return delta;
        }
        self.maintenance_round += 1;
        let incoming_len = incoming.len().min(self.capacity);
        let overflow = (self.len + incoming_len).saturating_sub(self.capacity);
        if overflow > 0 {
            // The policy ranks a dense meta list; map dense indexes back to
            // their (possibly sparse) slots.
            let occupied: Vec<usize> = self.iter().map(|(i, _)| i).collect();
            let metas: Vec<GraphMeta> = occupied.iter().map(|&s| self.entry(s).meta).collect();
            let victims = self
                .policy
                .victims(&metas, overflow, self.maintenance_round);
            for dense in victims {
                let slot = occupied[dense];
                self.evict(slot);
                delta.evicted.push(slot);
            }
        }
        for mut entry in incoming.into_iter().take(incoming_len) {
            delta.features.push(entry.features.take());
            let slot = self.admit(CacheEntry::new(entry));
            delta.admitted.push(slot);
        }
        debug_assert!(self.len <= self.capacity);
        delta
    }

    /// The free-slot stack, bottom first (persistence support: admissions
    /// pop from the top, so the order is part of the cache's replayable
    /// state).
    pub(crate) fn free_slots(&self) -> &[usize] {
        &self.free
    }

    /// The maintenance-round counter (seeds the pseudo-random replacement
    /// policy, so it is part of the cache's replayable state).
    pub(crate) fn round(&self) -> u64 {
        self.maintenance_round
    }

    /// Reconstructs a cache from persisted state: the full slot geometry
    /// (occupied entries, free-slot stack, table size) plus the
    /// maintenance round. Validates that `free` and the occupied slots
    /// partition `0..slot_count` exactly — corrupted geometry is reported,
    /// not absorbed.
    pub(crate) fn restore(
        capacity: usize,
        policy: ReplacementPolicy,
        maintenance_round: u64,
        slot_count: usize,
        free: Vec<usize>,
        entries: Vec<(usize, CacheEntry)>,
    ) -> Result<QueryCache, String> {
        if entries.len() > capacity {
            return Err(format!(
                "restored cache holds {} entries, over capacity {capacity}",
                entries.len()
            ));
        }
        if entries.len() + free.len() != slot_count {
            return Err(format!(
                "slot accounting broken: {} occupied + {} free != {slot_count} slots",
                entries.len(),
                free.len()
            ));
        }
        let mut cache = QueryCache::with_policy(capacity, policy);
        cache.maintenance_round = maintenance_round;
        cache.slots = Vec::new();
        cache.slots.resize_with(slot_count, || None);
        for (slot, entry) in entries {
            let dst = cache
                .slots
                .get_mut(slot)
                .ok_or_else(|| format!("entry slot {slot} out of range ({slot_count} slots)"))?;
            if dst.is_some() {
                return Err(format!("slot {slot} restored twice"));
            }
            if let Some(code) = entry.code.clone() {
                cache.code_index.insert(code, slot);
            }
            *dst = Some(entry);
            cache.len += 1;
        }
        for &slot in &free {
            if slot >= slot_count {
                return Err(format!(
                    "free slot {slot} out of range ({slot_count} slots)"
                ));
            }
            if cache.slots[slot].is_some() {
                return Err(format!("slot {slot} listed free but occupied"));
            }
        }
        let mut seen: Vec<usize> = free.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != free.len() {
            return Err("free list contains duplicates".into());
        }
        cache.free = free;
        Ok(cache)
    }

    /// Re-applies one *recorded* window flip during WAL replay: evicts
    /// exactly the recorded slots (the replacement policy is not re-run)
    /// and admits the recorded entries, verifying that the free-list
    /// mechanics place each admission in its recorded slot — any
    /// disagreement means the log does not match the cache state and is
    /// reported as corruption.
    pub(crate) fn replay_window(
        &mut self,
        evicted: &[usize],
        admitted: Vec<(usize, CacheEntry)>,
    ) -> Result<(), String> {
        self.maintenance_round += 1;
        for &slot in evicted {
            if self.get(slot).is_none() {
                return Err(format!("replayed eviction of free slot {slot}"));
            }
            self.evict(slot);
        }
        for (slot, entry) in admitted {
            let got = self.admit(entry);
            if got != slot {
                return Err(format!(
                    "replayed admission landed in slot {got}, log says {slot}"
                ));
            }
        }
        Ok(())
    }

    /// Returns the evictee's canonical code when its fast-path mapping was
    /// dropped with it (a still-resident isomorphic duplicate keeps the
    /// mapping — and its cached plans — alive).
    fn evict(&mut self, slot: usize) {
        let entry = self.slots[slot].take().expect("evicting a free slot");
        self.free.push(slot);
        self.len -= 1;
        if let Some(code) = entry.code {
            // Two residents can share a canonical code (concurrent first
            // callers can both admit); only drop the mapping if it points
            // here, or the surviving duplicate would lose its fast-path
            // entry.
            if self.code_index.get(&code) == Some(&slot) {
                self.code_index.remove(&code);
            }
        }
    }

    fn admit(&mut self, entry: CacheEntry) -> usize {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        if let Some(code) = entry.code.clone() {
            self.code_index.insert(code, slot);
        }
        debug_assert!(
            self.slots[slot].is_none(),
            "admitting into an occupied slot"
        );
        self.slots[slot] = Some(entry);
        self.len += 1;
        slot
    }

    /// Approximate heap footprint (the iGQ index-size share of Fig. 18 that
    /// comes from stored query graphs and answers).
    ///
    /// Accounts the slot table and code index by *capacity* and each entry
    /// by its real constituents (graph heap, answer-vector capacity, the
    /// canonical code's words, the answer bitset once built) instead of
    /// the flat per-entry constant this method originally used.
    pub fn heap_size_bytes(&self) -> u64 {
        let mut bytes = (self.slots.capacity() * std::mem::size_of::<Option<CacheEntry>>()) as u64;
        bytes += (self.free.capacity() * std::mem::size_of::<usize>()) as u64;
        for (_, e) in self.iter() {
            bytes += e.graph.heap_size_bytes();
            bytes += (e.answers.capacity() * std::mem::size_of::<GraphId>()) as u64;
            if let Some(code) = &e.code {
                bytes += std::mem::size_of_val(code.words()) as u64;
            }
            if let Some(bits) = e.memo.answer_bits.get() {
                bytes += std::mem::size_of_val(&**bits) as u64;
            }
            bytes +=
                (e.memo.known_credit.capacity() * std::mem::size_of::<(usize, LogValue)>()) as u64;
        }
        // Code index: SwissTable buckets of (key, slot) pairs plus one
        // control byte each, at the 7/8 load factor.
        let entry =
            (std::mem::size_of::<CanonicalCode>() + std::mem::size_of::<usize>() + 1) as u64;
        bytes += (self.code_index.capacity() as u64) * 8 / 7 * entry;
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;
    use igq_iso::LogValue;

    fn g(seed: u32) -> Arc<Graph> {
        Arc::new(graph_from(&[seed, seed + 1], &[(0, 1)]))
    }

    fn ids(raw: &[u32]) -> Vec<GraphId> {
        raw.iter().map(|&r| GraphId::new(r)).collect()
    }

    /// A window entry with nothing precomputed.
    fn bare(graph: Arc<Graph>, answers: Vec<GraphId>) -> WindowEntry {
        WindowEntry {
            graph,
            answers,
            signature: None,
            code: None,
            features: None,
        }
    }

    #[test]
    fn fills_until_capacity_without_eviction() {
        let mut c = QueryCache::new(3);
        let d = c.apply_window(vec![bare(g(0), ids(&[1])), bare(g(1), ids(&[2]))]);
        assert_eq!(d.admitted, vec![0, 1]);
        assert!(d.evicted.is_empty());
        assert_eq!(c.len(), 2);
        let d = c.apply_window(vec![bare(g(2), ids(&[3]))]);
        assert_eq!(d.admitted, vec![2]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn evicts_lowest_utility_on_overflow_and_reuses_slot() {
        let mut c = QueryCache::new(2);
        c.apply_window(vec![bare(g(0), ids(&[1])), bare(g(1), ids(&[2]))]);
        // Give slot 1 (graph g(1)) high utility.
        c.entry_mut(1).meta.tick();
        c.entry_mut(1)
            .meta
            .record_hit(5, LogValue::from_linear(1e9));
        let d = c.apply_window(vec![bare(g(2), ids(&[3]))]);
        // g(0) (zero utility) is evicted from slot 0, which is then reused.
        assert_eq!(d.evicted, vec![0]);
        assert_eq!(d.admitted, vec![0]);
        assert_eq!(c.len(), 2);
        let sigs: Vec<_> = c.iter().map(|(_, e)| e.signature).collect();
        assert!(sigs.contains(&GraphSignature::of(&g(1))));
        assert!(sigs.contains(&GraphSignature::of(&g(2))));
        assert!(!sigs.contains(&GraphSignature::of(&g(0))));
        // Surviving slot 1 kept its entry untouched.
        assert_eq!(c.entry(1).signature, GraphSignature::of(&g(1)));
    }

    #[test]
    fn answers_are_sorted_and_deduped() {
        let mut c = QueryCache::new(1);
        c.apply_window(vec![bare(g(0), ids(&[3, 1, 3, 2]))]);
        assert_eq!(c.entry(0).answers, ids(&[1, 2, 3]));
    }

    #[test]
    fn empty_window_is_a_noop() {
        let mut c = QueryCache::new(2);
        assert!(c.apply_window(vec![]).is_empty());
    }

    #[test]
    fn oversized_window_is_truncated_to_capacity() {
        let mut c = QueryCache::new(2);
        let d = c.apply_window(vec![
            bare(g(0), ids(&[1])),
            bare(g(1), ids(&[2])),
            bare(g(2), ids(&[3])),
        ]);
        assert_eq!(c.len(), 2);
        assert_eq!(d.admitted.len(), 2);
    }

    #[test]
    fn signature_lookup() {
        let mut c = QueryCache::new(4);
        c.apply_window(vec![bare(g(0), ids(&[1])), bare(g(5), ids(&[2]))]);
        let slots = c.slots_with_signature(&GraphSignature::of(&g(5)));
        assert_eq!(slots.len(), 1);
        assert_eq!(c.entry(slots[0]).answers, ids(&[2]));
    }

    #[test]
    fn code_index_follows_evictions() {
        let mut c = QueryCache::new(1);
        c.apply_window(vec![bare(g(0), ids(&[1]))]);
        let code0 = canonical_code(&g(0)).expect("small graph canonicalizes");
        assert_eq!(c.slot_with_code(&code0), Some(0));
        c.apply_window(vec![bare(g(5), ids(&[2]))]);
        assert_eq!(c.slot_with_code(&code0), None, "evicted code unindexed");
        let code5 = canonical_code(&g(5)).expect("small graph canonicalizes");
        assert_eq!(c.slot_with_code(&code5), Some(0), "reused slot indexed");
    }

    #[test]
    fn duplicate_codes_survive_partial_eviction() {
        // Imports are not deduplicated, so two residents can share one
        // canonical code. Evicting one must not strip the survivor's
        // fast-path mapping.
        let mut c = QueryCache::new(3);
        c.apply_window(vec![
            bare(g(0), ids(&[1])), // slot 0
            bare(g(0), ids(&[2])), // slot 1: isomorphic duplicate
            bare(g(7), ids(&[3])), // slot 2
        ]);
        let code = canonical_code(&g(0)).expect("small graph canonicalizes");
        // The duplicate's admission left the mapping at slot 1.
        assert_eq!(c.slot_with_code(&code), Some(1));
        // Protect slots 1 and 2; churn out slot 0 (the non-mapped twin).
        for keep in [1, 2] {
            c.entry_mut(keep).meta.tick();
            c.entry_mut(keep)
                .meta
                .record_hit(9, LogValue::from_linear(1e9));
        }
        let d = c.apply_window(vec![bare(g(8), ids(&[4]))]);
        assert_eq!(d.evicted, vec![0]);
        assert_eq!(
            c.slot_with_code(&code),
            Some(1),
            "survivor keeps its exact-repeat mapping"
        );
    }

    #[test]
    fn tick_all_advances_clocks() {
        let mut c = QueryCache::new(2);
        c.apply_window(vec![bare(g(0), ids(&[1]))]);
        c.tick_all();
        c.tick_all();
        assert_eq!(c.entry(0).meta.queries_seen, 2);
    }

    #[test]
    fn heap_size_positive_and_capacity_aware() {
        let mut c = QueryCache::new(2);
        c.apply_window(vec![bare(g(0), ids(&[1]))]);
        let one = c.heap_size_bytes();
        assert!(one > 0);
        c.apply_window(vec![bare(g(1), ids(&[1, 2, 3, 4]))]);
        assert!(c.heap_size_bytes() > one);
    }

    /// Clones a cache through the persistence surface: restore from its
    /// exported geometry, as `Engine::open` does from a checkpoint.
    fn restore_copy(c: &QueryCache) -> QueryCache {
        QueryCache::restore(
            c.capacity(),
            c.policy(),
            c.round(),
            c.slot_count(),
            c.free_slots().to_vec(),
            c.iter().map(|(s, e)| (s, e.clone())).collect(),
        )
        .expect("valid geometry restores")
    }

    #[test]
    fn restore_then_replay_tracks_the_live_cache() {
        let mut live = QueryCache::new(2);
        live.apply_window(vec![bare(g(0), ids(&[1])), bare(g(1), ids(&[2]))]);
        // Protect slot 1 so the next window evicts slot 0 deterministically.
        live.entry_mut(1).meta.tick();
        live.entry_mut(1)
            .meta
            .record_hit(5, LogValue::from_linear(1e9));
        let mut restored = restore_copy(&live);
        assert_eq!(restored.len(), live.len());
        assert_eq!(restored.round(), live.round());

        // The live cache flips a window; the restored one replays the
        // recorded delta — both must land in identical states.
        let d = live.apply_window(vec![bare(g(7), ids(&[3]))]);
        let admitted: Vec<(usize, CacheEntry)> = d
            .admitted
            .iter()
            .map(|&s| (s, live.entry(s).clone()))
            .collect();
        restored
            .replay_window(&d.evicted, admitted)
            .expect("replay follows the log");
        assert_eq!(restored.round(), live.round());
        assert_eq!(restored.free_slots(), live.free_slots());
        let sig = |c: &QueryCache| -> Vec<(usize, GraphSignature)> {
            c.iter().map(|(s, e)| (s, e.signature)).collect()
        };
        assert_eq!(sig(&restored), sig(&live));
        let code7 = canonical_code(&g(7)).expect("small graph canonicalizes");
        assert_eq!(restored.slot_with_code(&code7), live.slot_with_code(&code7));
    }

    #[test]
    fn restore_rejects_broken_geometry() {
        let mut c = QueryCache::new(2);
        c.apply_window(vec![bare(g(0), ids(&[1]))]);
        let entries: Vec<(usize, CacheEntry)> = c.iter().map(|(s, e)| (s, e.clone())).collect();
        // Free list overlaps an occupied slot.
        assert!(QueryCache::restore(
            2,
            ReplacementPolicy::Utility,
            1,
            1,
            vec![0],
            entries.clone()
        )
        .is_err());
        // Slot accounting does not cover the table.
        assert!(
            QueryCache::restore(2, ReplacementPolicy::Utility, 1, 5, vec![], entries.clone())
                .is_err()
        );
        // Over capacity.
        assert!(QueryCache::restore(0, ReplacementPolicy::Utility, 1, 1, vec![], entries).is_err());
    }

    #[test]
    fn replay_rejects_divergent_slots() {
        let mut c = QueryCache::new(2);
        c.apply_window(vec![bare(g(0), ids(&[1]))]);
        let entry = c.entry(0).clone();
        // Log claims the admission went to slot 7; mechanics put it at 1.
        assert!(c.replay_window(&[], vec![(7, entry)]).is_err());
        // Evicting a free slot is equally corrupt.
        assert!(c.replay_window(&[5], vec![]).is_err());
    }

    #[test]
    fn stable_slots_under_churn() {
        let mut c = QueryCache::new(3);
        c.apply_window(vec![
            bare(g(0), ids(&[1])),
            bare(g(1), ids(&[2])),
            bare(g(2), ids(&[3])),
        ]);
        // Pin slot 2 with utility; churn the rest repeatedly.
        c.entry_mut(2).meta.tick();
        c.entry_mut(2)
            .meta
            .record_hit(9, LogValue::from_linear(1e12));
        let pinned = c.entry(2).signature;
        for round in 3..10u32 {
            c.entry_mut(2).meta.tick();
            c.entry_mut(2)
                .meta
                .record_hit(9, LogValue::from_linear(1e12));
            let d = c.apply_window(vec![bare(g(round), ids(&[round]))]);
            assert_eq!(d.evicted.len(), 1);
            assert_eq!(d.admitted.len(), 1);
            assert!(!d.evicted.contains(&2), "high-utility slot survives");
            assert_eq!(c.entry(2).signature, pinned, "slot 2 never moves");
            assert!(c.slot_count() <= 3, "free slots are reused, not grown");
        }
    }
}
