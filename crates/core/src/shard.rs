//! Sharded engine state: deterministic canonical-code routing, the global
//! slot allocator, and the unified window flip that keeps an `N`-shard
//! engine slot-for-slot identical to the unsharded one.
//!
//! # Design
//!
//! With [`IgqConfig::shards`](crate::IgqConfig::shards) `> 1` the engine
//! splits its mutable trio (cache + `Isub`/`Isuper`) into `N` shards, each
//! behind its own lock. Three pieces keep the split *observationally
//! invisible*:
//!
//! * **Routing** ([`ShardRouter`]) is a pure function of the entry's
//!   canonical code (falling back to its WL signature when
//!   `canonical_code` declined the graph), hashed with the in-tree
//!   deterministic Fx scheme — the same query lands on the same shard in
//!   every process, which is what lets recovery re-partition a checkpoint
//!   without persisting ownership.
//! * **Slot allocation** ([`SlotAlloc`]) stays **global**: one slot
//!   namespace, one free stack, one maintenance round. The sharded flip
//!   ([`apply_window_sharded`]) replicates
//!   [`QueryCache::apply_window`]'s mechanics over it — same round
//!   increment, same dense-meta victim ranking over the globally
//!   ascending occupied slots, same LIFO free-stack reuse — so every slot
//!   decision (victims, placements, growth) is *identical* to the
//!   unsharded cache's at every step. Each shard's [`QueryCache`] becomes
//!   a sparse container over the global namespace (its local free list
//!   stays empty).
//! * **Replay** ([`replay_group`]) reconstructs the global allocator from
//!   a WAL flip group without the log recording cross-shard eviction
//!   order. That order never survives a flip: `overflow ≤ incoming_len`
//!   means every victim pushed onto the free stack is popped back by the
//!   same flip's admissions, so the post-flip stack is derivable from the
//!   pre-flip stack plus the admitted-slot set — and anything else in the
//!   log is reported as corruption, never absorbed.
//!
//! What stays engine-global besides the allocator: the admission window,
//! the cost model, the flip sequence number, and the lock-striped plan
//! cache. See `ARCHITECTURE.md` ("Sharded state") for the lock order.

use crate::cache::{CacheEntry, QueryCache, WindowDelta, WindowEntry};
use crate::metadata::GraphMeta;
use crate::persist::WalRecord;
use crate::policy::ReplacementPolicy;
use igq_graph::canon::{CanonicalCode, GraphSignature};
use igq_graph::fxhash::FxHasher;
use std::hash::{Hash, Hasher};

/// Deterministic entry → shard routing by canonical-code hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardRouter {
    shards: usize,
}

fn fx_of<T: Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

impl ShardRouter {
    /// A router over `shards` partitions (`shards >= 1`, validated by
    /// [`IgqConfig`](crate::IgqConfig)).
    pub(crate) fn new(shards: usize) -> ShardRouter {
        debug_assert!(shards >= 1);
        ShardRouter { shards }
    }

    /// Number of shards routed over.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard owning entries with this canonical code.
    pub(crate) fn route_code(&self, code: &CanonicalCode) -> usize {
        if self.shards == 1 {
            0
        } else {
            (fx_of(code) % self.shards as u64) as usize
        }
    }

    /// Fallback routing for entries `canonical_code` declined (or that
    /// were persisted code-less by a build whose unpruned search ran out
    /// of leaves): the WL signature is still deterministic per graph
    /// (though not canonical — two isomorphic code-less graphs may split,
    /// which only costs the exact-repeat fast path they never had anyway;
    /// the scatter/gather probes still find the repeat).
    pub(crate) fn route_signature(&self, sig: &GraphSignature) -> usize {
        if self.shards == 1 {
            0
        } else {
            (fx_of(sig) % self.shards as u64) as usize
        }
    }

    /// The shard owning a finalized cache entry.
    pub(crate) fn route(&self, entry: &CacheEntry) -> usize {
        match &entry.code {
            Some(code) => self.route_code(code),
            None => self.route_signature(&entry.signature),
        }
    }
}

/// The global slot allocator: the single slot namespace shared by every
/// shard's sparse cache. Mirrors exactly the fields
/// [`QueryCache`] manages privately in unsharded operation (slot-table
/// size, LIFO free stack, occupied count, maintenance round) — which is
/// the whole point: the sharded flip makes the same slot decisions the
/// unsharded cache would.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotAlloc {
    /// Size of the global slot table; slot ids are `< slot_count`.
    pub slot_count: usize,
    /// Freed slots available for reuse, bottom first (admissions pop the
    /// top — the order is part of the replayable state).
    pub free: Vec<usize>,
    /// Occupied slots across all shards (`slot_count - free.len()`).
    pub len: usize,
    /// Global maintenance round (seeds the pseudo-random policy).
    pub round: u64,
}

/// The unified window flip for `N > 1` shards: replicates
/// [`QueryCache::apply_window`] step for step over the global allocator,
/// scattering evictions/admissions to each slot's owning shard. Returns
/// one [`WindowDelta`] per shard (empty for untouched shards); the
/// concatenation of the deltas is exactly the delta the unsharded cache
/// would have produced, with identical slot ids.
///
/// `slot_owner` (slot → shard) is kept in lockstep for O(1) entry lookup
/// by global slot; entries for freed slots go stale and are overwritten on
/// reuse.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_window_sharded(
    alloc: &mut SlotAlloc,
    slot_owner: &mut Vec<usize>,
    router: &ShardRouter,
    capacity: usize,
    policy: ReplacementPolicy,
    caches: &mut [&mut QueryCache],
    incoming: Vec<WindowEntry>,
) -> Vec<WindowDelta> {
    let mut deltas: Vec<WindowDelta> = caches.iter().map(|_| WindowDelta::default()).collect();
    if incoming.is_empty() || capacity == 0 {
        return deltas;
    }
    alloc.round += 1;
    let incoming_len = incoming.len().min(capacity);
    let overflow = (alloc.len + incoming_len).saturating_sub(capacity);
    if overflow > 0 {
        // Same dense-meta ranking as the unsharded cache: occupied slots
        // in globally ascending order (shard caches are disjoint, so a
        // sort of the concatenation is the ascending merge), mapped back
        // from the policy's dense victim indexes.
        let mut occupied: Vec<(usize, usize)> = Vec::with_capacity(alloc.len);
        for (shard, cache) in caches.iter().enumerate() {
            occupied.extend(cache.iter().map(|(slot, _)| (slot, shard)));
        }
        occupied.sort_unstable();
        let metas: Vec<GraphMeta> = occupied
            .iter()
            .map(|&(slot, shard)| caches[shard].entry(slot).meta)
            .collect();
        let victims = policy.victims(&metas, overflow, alloc.round);
        for dense in victims {
            let (slot, shard) = occupied[dense];
            if let Some(code) = caches[shard].take_at(slot) {
                deltas[shard].evicted_codes.push(code);
            }
            alloc.free.push(slot);
            alloc.len -= 1;
            deltas[shard].evicted.push(slot);
        }
    }
    for entry in incoming.into_iter().take(incoming_len) {
        let entry = CacheEntry::new(entry);
        let shard = router.route(&entry);
        let slot = match alloc.free.pop() {
            Some(slot) => slot,
            None => {
                alloc.slot_count += 1;
                alloc.slot_count - 1
            }
        };
        if slot_owner.len() <= slot {
            slot_owner.resize(slot + 1, 0);
        }
        slot_owner[slot] = shard;
        caches[shard].place_at(slot, entry);
        alloc.len += 1;
        deltas[shard].admitted.push(slot);
    }
    debug_assert!(alloc.len <= capacity);
    deltas
}

/// Reconstructs the sharded state from a checkpoint: partitions `entries`
/// by deterministic routing (the same function live placement used, so
/// every entry lands back on the shard that owned it) and validates the
/// global slot geometry exactly as [`QueryCache::restore`] does for the
/// unsharded cache — occupied slots and the free stack must partition
/// `0..slot_count`. Returns the per-shard caches, the global allocator,
/// and the slot-ownership table.
#[allow(clippy::type_complexity)]
pub(crate) fn restore_sharded(
    capacity: usize,
    policy: ReplacementPolicy,
    round: u64,
    slot_count: usize,
    free: Vec<usize>,
    entries: Vec<(usize, CacheEntry)>,
    router: &ShardRouter,
) -> Result<(Vec<QueryCache>, SlotAlloc, Vec<usize>), String> {
    let shards = router.shard_count();
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
    let mut caches: Vec<QueryCache> = (0..shards)
        .map(|_| QueryCache::with_policy(capacity, policy))
        .collect();
    let mut slot_owner = vec![0usize; slot_count];
    let mut occupied = vec![false; slot_count];
    let len = entries.len();
    for (slot, entry) in entries {
        if slot >= slot_count {
            return Err(format!(
                "entry slot {slot} out of range ({slot_count} slots)"
            ));
        }
        if occupied[slot] {
            return Err(format!("slot {slot} restored twice"));
        }
        occupied[slot] = true;
        let shard = router.route(&entry);
        slot_owner[slot] = shard;
        caches[shard].place_at(slot, entry);
    }
    for &slot in &free {
        if slot >= slot_count {
            return Err(format!(
                "free slot {slot} out of range ({slot_count} slots)"
            ));
        }
        if occupied[slot] {
            return Err(format!("slot {slot} listed free but occupied"));
        }
    }
    let mut seen = free.clone();
    seen.sort_unstable();
    seen.dedup();
    if seen.len() != free.len() {
        return Err("free list contains duplicates".into());
    }
    let alloc = SlotAlloc {
        slot_count,
        free,
        len,
        round,
    };
    Ok((caches, alloc, slot_owner))
}

/// Re-applies one recorded flip group (all the equal-`seq` records of one
/// window flip, one per shard) during WAL replay, reconstructing the
/// global allocator without the log having recorded cross-shard eviction
/// order.
///
/// The reconstruction leans on an invariant of the flip mechanics: the
/// overflow never exceeds the admission count, so every victim pushed
/// onto the free stack within a flip is popped back by that same flip.
/// The post-flip stack is therefore the pre-flip stack with the *extra*
/// pops (admissions beyond the victims and beyond table growth) truncated
/// off its top — and the admitted-slot set must equal `victims ∪ top
/// extra of the stack ∪ a contiguous growth range`, or the log disagrees
/// with the mechanics and is reported as corruption.
pub(crate) fn replay_group(
    alloc: &mut SlotAlloc,
    slot_owner: &mut Vec<usize>,
    caches: &mut [&mut QueryCache],
    group: &[WalRecord],
) -> Result<(), String> {
    let shards = caches.len();
    if group.len() != shards {
        return Err(format!(
            "flip {} carries {} shard records, engine has {shards} shards",
            group.first().map_or(0, |r| r.seq),
            group.len()
        ));
    }
    alloc.round += 1;
    let mut victims: Vec<usize> = Vec::new();
    for record in group {
        if record.shard >= shards {
            return Err(format!(
                "flip {} tags shard {} of {shards}",
                record.seq, record.shard
            ));
        }
        for &slot in &record.evicted {
            if caches[record.shard].get(slot).is_none() {
                return Err(format!(
                    "replayed eviction of slot {slot}, not occupied on shard {}",
                    record.shard
                ));
            }
            caches[record.shard].take_at(slot);
            alloc.len -= 1;
            victims.push(slot);
        }
    }
    // Partition the admitted slots into reused (< old table size) and
    // growth; growth must be exactly the next contiguous slot ids.
    let mut admitted_total = 0usize;
    let mut reused: Vec<usize> = Vec::new();
    let mut grown: Vec<usize> = Vec::new();
    for record in group {
        for p in &record.admitted {
            admitted_total += 1;
            if p.slot < alloc.slot_count {
                reused.push(p.slot);
            } else {
                grown.push(p.slot);
            }
        }
    }
    grown.sort_unstable();
    for (k, &slot) in grown.iter().enumerate() {
        if slot != alloc.slot_count + k {
            return Err(format!(
                "admission grew slot {slot}, mechanics grow contiguously from {}",
                alloc.slot_count + k
            ));
        }
    }
    let extra = admitted_total
        .checked_sub(victims.len() + grown.len())
        .ok_or_else(|| {
            format!(
                "flip admits {admitted_total} slots but evicts {} and grows {}",
                victims.len(),
                grown.len()
            )
        })?;
    if extra > alloc.free.len() {
        return Err(format!(
            "flip reuses {extra} free slots, stack holds {}",
            alloc.free.len()
        ));
    }
    // The reused set must be exactly the victims plus the top `extra` of
    // the pre-flip free stack (LIFO pops cannot reach deeper).
    let mut expected: Vec<usize> = victims.clone();
    expected.extend_from_slice(&alloc.free[alloc.free.len() - extra..]);
    expected.sort_unstable();
    reused.sort_unstable();
    if reused != expected {
        return Err(format!(
            "admitted slots {reused:?} do not match free-stack mechanics (expected {expected:?})"
        ));
    }
    let new_count = alloc.slot_count + grown.len();
    alloc.free.truncate(alloc.free.len() - extra);
    alloc.slot_count = new_count;
    alloc.len += admitted_total;
    if slot_owner.len() < new_count {
        slot_owner.resize(new_count, 0);
    }
    for record in group {
        for p in &record.admitted {
            slot_owner[p.slot] = record.shard;
            caches[record.shard].place_at(p.slot, p.entry.clone());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{PersistedEntry, WalRecord};
    use igq_graph::{graph_from, Graph, GraphId};
    use std::sync::Arc;

    fn g(seed: u32) -> Arc<Graph> {
        Arc::new(graph_from(&[seed, seed + 1], &[(0, 1)]))
    }

    fn entry(seed: u32) -> WindowEntry {
        WindowEntry::bare(g(seed), vec![GraphId::new(seed)])
    }

    fn flip(
        alloc: &mut SlotAlloc,
        owner: &mut Vec<usize>,
        router: &ShardRouter,
        capacity: usize,
        caches: &mut [QueryCache],
        window: Vec<WindowEntry>,
    ) -> Vec<WindowDelta> {
        let mut refs: Vec<&mut QueryCache> = caches.iter_mut().collect();
        apply_window_sharded(
            alloc,
            owner,
            router,
            capacity,
            ReplacementPolicy::Utility,
            &mut refs,
            window,
        )
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let router = ShardRouter::new(4);
        for seed in 0..32u32 {
            let e = CacheEntry::new(entry(seed));
            let shard = router.route(&e);
            assert!(shard < 4);
            assert_eq!(shard, router.route(&e), "same entry, same shard");
            if let Some(code) = &e.code {
                assert_eq!(shard, router.route_code(code));
            }
        }
        let single = ShardRouter::new(1);
        assert_eq!(single.route(&CacheEntry::new(entry(7))), 0);
    }

    /// The headline invariant: an `N`-shard flip sequence makes the exact
    /// same slot decisions as the unsharded cache — victims, placements,
    /// free-stack order, growth — across churny windows.
    #[test]
    fn sharded_flips_match_unsharded_slot_for_slot() {
        for shards in [2usize, 4, 8] {
            let capacity = 4;
            let router = ShardRouter::new(shards);
            let mut mono = QueryCache::new(capacity);
            let mut caches: Vec<QueryCache> =
                (0..shards).map(|_| QueryCache::new(capacity)).collect();
            let mut alloc = SlotAlloc::default();
            let mut owner = Vec::new();
            for round in 0..6u32 {
                let window: Vec<WindowEntry> = (0..3).map(|i| entry(round * 3 + i)).collect();
                let mono_delta = mono.apply_window(window.clone());
                let deltas = flip(
                    &mut alloc,
                    &mut owner,
                    &router,
                    capacity,
                    &mut caches,
                    window,
                );
                let mut evicted: Vec<usize> = deltas
                    .iter()
                    .flat_map(|d| d.evicted.iter().copied())
                    .collect();
                let mut admitted: Vec<usize> = deltas
                    .iter()
                    .flat_map(|d| d.admitted.iter().copied())
                    .collect();
                evicted.sort_unstable();
                admitted.sort_unstable();
                let mut mono_evicted = mono_delta.evicted.clone();
                let mut mono_admitted = mono_delta.admitted.clone();
                mono_evicted.sort_unstable();
                mono_admitted.sort_unstable();
                assert_eq!(evicted, mono_evicted, "shards={shards} round={round}");
                assert_eq!(admitted, mono_admitted, "shards={shards} round={round}");
                assert_eq!(alloc.free, mono.free_slots(), "free stacks diverged");
                assert_eq!(alloc.round, mono.round());
                assert_eq!(alloc.slot_count, mono.slot_count());
                assert_eq!(alloc.len, caches.iter().map(QueryCache::len).sum::<usize>());
                // Same entries at the same global slots.
                for (slot, e) in mono.iter() {
                    let shard = owner[slot];
                    let sharded = caches[shard].entry(slot);
                    assert_eq!(sharded.signature, e.signature, "slot {slot}");
                    assert!(
                        (0..shards).all(|s| s == shard || caches[s].get(slot).is_none()),
                        "slot {slot} owned by exactly one shard"
                    );
                }
            }
        }
    }

    #[test]
    fn restore_partitions_by_routing_and_validates_geometry() {
        let router = ShardRouter::new(4);
        let capacity = 4;
        let mut caches: Vec<QueryCache> = (0..4).map(|_| QueryCache::new(capacity)).collect();
        let mut alloc = SlotAlloc::default();
        let mut owner = Vec::new();
        for round in 0..4u32 {
            let window: Vec<WindowEntry> = (0..2).map(|i| entry(round * 2 + i)).collect();
            flip(
                &mut alloc,
                &mut owner,
                &router,
                capacity,
                &mut caches,
                window,
            );
        }
        let entries: Vec<(usize, CacheEntry)> = caches
            .iter()
            .flat_map(|c| c.iter().map(|(s, e)| (s, e.clone())))
            .collect();
        let (restored, ralloc, rowner) = restore_sharded(
            capacity,
            ReplacementPolicy::Utility,
            alloc.round,
            alloc.slot_count,
            alloc.free.clone(),
            entries.clone(),
            &router,
        )
        .expect("valid geometry restores");
        assert_eq!(ralloc.len, alloc.len);
        assert_eq!(ralloc.free, alloc.free);
        for (slot, e) in caches.iter().flat_map(|c| c.iter()) {
            assert_eq!(rowner[slot], owner[slot], "ownership reroutes identically");
            assert_eq!(restored[rowner[slot]].entry(slot).signature, e.signature);
        }
        // Broken geometry is reported, not absorbed.
        assert!(restore_sharded(
            capacity,
            ReplacementPolicy::Utility,
            1,
            alloc.slot_count + 3,
            alloc.free.clone(),
            entries.clone(),
            &router,
        )
        .is_err());
        let mut overlapping = alloc.free.clone();
        overlapping.push(entries[0].0);
        assert!(restore_sharded(
            capacity,
            ReplacementPolicy::Utility,
            1,
            alloc.slot_count + 1,
            overlapping,
            entries,
            &router,
        )
        .is_err());
    }

    fn group_from(deltas: &[WindowDelta], caches: &[QueryCache], seq: u64) -> Vec<WalRecord> {
        deltas
            .iter()
            .enumerate()
            .map(|(shard, d)| WalRecord {
                seq,
                shard,
                group: deltas.len(),
                evicted: d.evicted.clone(),
                admitted: d
                    .admitted
                    .iter()
                    .map(|&slot| PersistedEntry {
                        slot,
                        entry: caches[shard].entry(slot).clone(),
                        features: None,
                    })
                    .collect(),
                metas: caches[shard].iter().map(|(s, e)| (s, e.meta)).collect(),
            })
            .collect()
    }

    /// Replaying recorded flip groups tracks the live sharded state — the
    /// free stack is reconstructed without the log carrying cross-shard
    /// eviction order.
    #[test]
    fn replay_groups_track_live_flips() {
        let shards = 4;
        let capacity = 3;
        let router = ShardRouter::new(shards);
        let mut live: Vec<QueryCache> = (0..shards).map(|_| QueryCache::new(capacity)).collect();
        let mut live_alloc = SlotAlloc::default();
        let mut live_owner = Vec::new();
        let mut replayed: Vec<QueryCache> =
            (0..shards).map(|_| QueryCache::new(capacity)).collect();
        let mut rep_alloc = SlotAlloc::default();
        let mut rep_owner = Vec::new();
        for round in 0..5u32 {
            let window: Vec<WindowEntry> = (0..2).map(|i| entry(round * 2 + i)).collect();
            let deltas = flip(
                &mut live_alloc,
                &mut live_owner,
                &router,
                capacity,
                &mut live,
                window,
            );
            let group = group_from(&deltas, &live, u64::from(round) + 1);
            let mut refs: Vec<&mut QueryCache> = replayed.iter_mut().collect();
            replay_group(&mut rep_alloc, &mut rep_owner, &mut refs, &group)
                .expect("replay follows the log");
            assert_eq!(rep_alloc.free, live_alloc.free, "round {round}");
            assert_eq!(rep_alloc.slot_count, live_alloc.slot_count);
            assert_eq!(rep_alloc.len, live_alloc.len);
            assert_eq!(rep_alloc.round, live_alloc.round);
            for shard in 0..shards {
                assert_eq!(replayed[shard].len(), live[shard].len(), "shard {shard}");
            }
        }
    }

    #[test]
    fn replay_rejects_divergent_groups() {
        let shards = 2;
        let capacity = 2;
        let router = ShardRouter::new(shards);
        let mut caches: Vec<QueryCache> = (0..shards).map(|_| QueryCache::new(capacity)).collect();
        let mut alloc = SlotAlloc::default();
        let mut owner = Vec::new();
        let deltas = flip(
            &mut alloc,
            &mut owner,
            &router,
            capacity,
            &mut caches,
            vec![entry(0), entry(1)],
        );
        let group = group_from(&deltas, &caches, 1);

        let fresh = || -> (Vec<QueryCache>, SlotAlloc, Vec<usize>) {
            (
                (0..shards).map(|_| QueryCache::new(capacity)).collect(),
                SlotAlloc::default(),
                Vec::new(),
            )
        };
        // Wrong group width.
        let (mut c, mut a, mut o) = fresh();
        let mut refs: Vec<&mut QueryCache> = c.iter_mut().collect();
        assert!(replay_group(&mut a, &mut o, &mut refs, &group[..1]).is_err());
        // Eviction of a slot the shard does not hold.
        let (mut c, mut a, mut o) = fresh();
        let mut bad = group.clone();
        bad[0].evicted.push(9);
        let mut refs: Vec<&mut QueryCache> = c.iter_mut().collect();
        assert!(replay_group(&mut a, &mut o, &mut refs, &bad).is_err());
        // Non-contiguous growth disagrees with the mechanics.
        let (mut c, mut a, mut o) = fresh();
        let mut bad = group.clone();
        for r in bad.iter_mut() {
            for p in r.admitted.iter_mut() {
                p.slot += 5;
            }
        }
        let mut refs: Vec<&mut QueryCache> = c.iter_mut().collect();
        assert!(replay_group(&mut a, &mut o, &mut refs, &bad).is_err());
    }
}
