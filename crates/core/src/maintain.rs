//! Window maintenance of the query indexes (paper Section 5.2): after
//! every window flip the engine applies the cache's slot delta to its
//! [`IsubIndex`]/[`IsuperIndex`] pair — remove evicted slots, insert
//! admitted ones — synchronously on the flipping query thread, in
//! O(window delta) postings.

use crate::cache::{CacheEntry, QueryCache, WindowDelta};
use crate::isub::IsubIndex;
use crate::isuper::IsuperIndex;
use igq_features::{enumerate_paths, LabelSeq, PathConfig, PathFeatures};
use std::sync::Arc;

/// What one maintenance did to the indexes, for [`crate::EngineStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintenanceOutcome {
    /// Postings inserted or removed.
    pub postings_touched: u64,
}

/// Brings `isub`/`isuper` in line with `cache` after `delta` was applied
/// to it, synchronously on the calling thread, in place, straight out of
/// the live cache.
pub(crate) fn apply_delta(
    path_config: PathConfig,
    cache: &QueryCache,
    delta: &WindowDelta,
    isub: &mut IsubIndex,
    isuper: &mut IsuperIndex,
) -> MaintenanceOutcome {
    let mut outcome = MaintenanceOutcome::default();
    for &slot in &delta.evicted {
        outcome.postings_touched += isub.remove(slot);
        outcome.postings_touched += isuper.remove(slot);
    }
    for &slot in &delta.admitted {
        outcome.postings_touched +=
            index_resident(path_config, isub, isuper, slot, cache.entry(slot), None);
    }
    outcome
}

/// Indexes one resident `entry` under `slot` in both `isub` and `isuper`
/// from one feature set: `features` when a checkpoint persisted them,
/// otherwise one enumeration of the graph. The feature-key list is shared
/// between the two slot entries, and the entry's canonical code rides
/// into `Isuper` as the plan-cache key for its probe pairs. Returns the
/// postings touched.
pub(crate) fn index_resident(
    path_config: PathConfig,
    isub: &mut IsubIndex,
    isuper: &mut IsuperIndex,
    slot: usize,
    entry: &CacheEntry,
    features: Option<PathFeatures>,
) -> u64 {
    let graph = &entry.graph;
    let features = features.unwrap_or_else(|| enumerate_paths(graph, &path_config));
    let keys: Arc<[LabelSeq]> = features.counts.keys().cloned().collect();
    isub.insert_features(slot, Arc::clone(graph), &features, Arc::clone(&keys))
        + isuper.insert_features(slot, Arc::clone(graph), &features, keys, entry.code.clone())
}
