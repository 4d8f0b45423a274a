//! Shared window-maintenance machinery for [`crate::engine::IgqEngine`]
//! and [`crate::super_engine::IgqSuperEngine`].
//!
//! Both engines own the same trio — a [`QueryCache`] plus the
//! [`IsubIndex`]/[`IsuperIndex`] pair — and apply the same slot delta after
//! every window: remove evicted slots, insert admitted ones.
//!
//! A delta can be applied in two shapes:
//!
//! * `apply_delta` — synchronous, on the query thread, reading admitted
//!   graphs straight out of the live cache ([`MaintenanceMode::Incremental`]);
//! * [`MaintenanceJob`] + [`apply_job`] — the delta plus `Arc` clones of
//!   the admitted graphs, self-contained so it can cross a channel to the
//!   background maintenance thread ([`MaintenanceMode::Background`], see
//!   [`crate::background`]).
//!
//! Both are the same incremental O(window delta) application.
//!
//! [`MaintenanceMode::Incremental`]: crate::config::MaintenanceMode::Incremental
//! [`MaintenanceMode::Background`]: crate::config::MaintenanceMode::Background

use crate::cache::{QueryCache, WindowDelta};
use crate::isub::IsubIndex;
use crate::isuper::IsuperIndex;
use igq_features::{enumerate_paths, LabelSeq, PathConfig};
use igq_graph::canon::CanonicalCode;
use igq_graph::Graph;
use std::sync::Arc;

/// What one maintenance did to the indexes, for [`crate::EngineStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintenanceOutcome {
    /// Postings inserted or removed.
    pub postings_touched: u64,
}

/// One window's index work, detached from the cache: the evicted slots
/// plus `(slot, graph, code)` triples for the admissions. Self-contained
/// (graphs are `Arc`-shared, not referenced), so the job can be queued to
/// the background maintainer after the cache has already moved on.
#[derive(Debug, Clone)]
pub struct MaintenanceJob {
    /// Slots whose previous occupant was evicted, in eviction order.
    pub evicted: Vec<usize>,
    /// Admitted `(slot, graph, canonical code)` triples, in admission
    /// order. The code (when the cache computed one) is stored on the
    /// `Isuper` slot entry so index probes can key the plan cache.
    pub admitted: Vec<(usize, Arc<Graph>, Option<CanonicalCode>)>,
}

impl MaintenanceJob {
    /// Captures `delta` as a self-contained job by cloning the admitted
    /// slots' graph `Arc`s out of `cache`. Must be called before the cache
    /// changes again (slots are only meaningful against the cache state
    /// that produced the delta).
    pub fn capture(cache: &QueryCache, delta: &WindowDelta) -> MaintenanceJob {
        MaintenanceJob {
            evicted: delta.evicted.clone(),
            admitted: delta
                .admitted
                .iter()
                .map(|&slot| {
                    let entry = cache.entry(slot);
                    (slot, Arc::clone(&entry.graph), entry.code.clone())
                })
                .collect(),
        }
    }

    /// True when the job changes nothing.
    pub fn is_empty(&self) -> bool {
        self.evicted.is_empty() && self.admitted.is_empty()
    }
}

/// Applies one self-contained job to the index pair (remove evicted
/// slots, insert admitted ones). This is the inner loop of the background
/// maintenance thread.
pub fn apply_job(
    path_config: PathConfig,
    job: &MaintenanceJob,
    isub: &mut IsubIndex,
    isuper: &mut IsuperIndex,
) -> MaintenanceOutcome {
    let mut outcome = MaintenanceOutcome::default();
    for &slot in &job.evicted {
        outcome.postings_touched += isub.remove(slot);
        outcome.postings_touched += isuper.remove(slot);
    }
    for (slot, graph, code) in &job.admitted {
        // One enumeration feeds both indexes; the feature-key list is
        // shared between their slot entries.
        let features = enumerate_paths(graph, &path_config);
        let keys: Arc<[LabelSeq]> = features.counts.keys().cloned().collect();
        outcome.postings_touched +=
            isub.insert_features(*slot, Arc::clone(graph), &features, Arc::clone(&keys));
        outcome.postings_touched +=
            isuper.insert_features(*slot, Arc::clone(graph), &features, keys, code.clone());
    }
    outcome
}

/// Brings `isub`/`isuper` in line with `cache` after `delta` was applied
/// to it, synchronously on the calling thread, in place, straight out of
/// the live cache — no [`MaintenanceJob`] is materialized on this
/// (query-thread) path; the job form is only built when a delta actually
/// crosses to the maintenance thread.
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
