//! Window maintenance of the query indexes (paper Section 5.2): after
//! every window flip the engine applies the cache's slot delta to its
//! [`IsubIndex`]/[`IsuperIndex`] pair — remove evicted slots, insert
//! admitted ones — synchronously on the flipping query thread, in
//! O(window delta) postings.

use crate::cache::{QueryCache, WindowDelta};
use crate::isub::IsubIndex;
use crate::isuper::IsuperIndex;
use igq_features::{enumerate_paths, LabelSeq, PathConfig};
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
        // One enumeration feeds both indexes; the feature-key
        // list is shared between their slot entries.
        let entry = cache.entry(slot);
        let graph = Arc::clone(&entry.graph);
        let code = entry.code.clone();
        let features = enumerate_paths(&graph, &path_config);
        let keys: Arc<[LabelSeq]> = features.counts.keys().cloned().collect();
        outcome.postings_touched +=
            isub.insert_features(slot, Arc::clone(&graph), &features, Arc::clone(&keys));
        outcome.postings_touched += isuper.insert_features(slot, graph, &features, keys, code);
    }
    outcome
}
