//! Engine-lifetime aggregate statistics.
//!
//! The engines accumulate their counters in `AtomicEngineStats` (crate
//! private) — plain atomics, so the `&self` query path and
//! [`crate::Engine::stats`] need no lock and no `&mut` — and hand callers
//! owned [`EngineStats`] snapshots.

use crate::outcome::{QueryOutcome, Resolution};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Totals across every query an engine has processed.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Queries processed.
    pub queries: u64,
    /// DB-side subgraph isomorphism tests (the paper's headline metric).
    pub db_iso_tests: u64,
    /// iGQ-internal iso tests (query-vs-cached-query overhead).
    pub igq_iso_tests: u64,
    /// Budget-aborted verifications (see [`QueryOutcome::aborted_tests`]).
    pub aborted_tests: u64,
    /// Candidates produced by the base method, summed.
    pub candidates_before: u64,
    /// Candidates surviving iGQ pruning, summed.
    pub candidates_after: u64,
    /// Candidates removed via the subgraph path.
    pub pruned_by_isub: u64,
    /// Candidates removed via the supergraph path.
    pub pruned_by_isuper: u64,
    /// Optimal case 1 resolutions (exact repeats).
    pub exact_hits: u64,
    /// Optimal case 2 resolutions (empty-answer shortcuts).
    pub empty_shortcuts: u64,
    /// Window maintenances performed (index delta applications).
    pub maintenances: u64,
    /// Index postings inserted or removed during incremental delta
    /// application.
    pub maintenance_postings_touched: u64,
    /// Wall-clock the flipping query thread spent applying index updates
    /// (also part of that query's `igq_time`). Cache eviction/admission is
    /// accounted under `igq_time`, not here.
    pub maintenance_time: Duration,
    /// WAL records appended to the attached
    /// [`CacheStore`](crate::persist::CacheStore) — one per persisted
    /// window flip. Zero for engines without a store.
    pub wal_appends: u64,
    /// Bytes of encoded WAL flip groups appended to the store.
    pub wal_bytes_appended: u64,
    /// Bytes of encoded checkpoints written (explicit and auto),
    /// cumulative.
    pub checkpoint_bytes_written: u64,
    /// Wall-clock spent encoding and writing checkpoints (explicit and
    /// auto), including post-checkpoint WAL compaction. Runs off the
    /// state lock, so it overlaps query processing.
    pub checkpoint_time: Duration,
    /// The engine's flip ordinal: flips committed on a primary, flips
    /// applied from the replication stream on a follower. A gauge, not a
    /// counter.
    pub last_applied_seq: u64,
    /// On a follower: how many flips the primary is known to be ahead
    /// (highest seq heard from the replication stream minus
    /// [`last_applied_seq`](Self::last_applied_seq)) — the staleness a
    /// lag-gated serving edge sheds on. Zero on a primary. A gauge.
    pub replication_lag_windows: u64,
    /// Flip groups published to the replication hub (primary side; zero
    /// until the first follower subscribes).
    pub replica_groups_published: u64,
    /// Delta groups applied from the replication stream (follower side).
    pub replica_groups_applied: u64,
    /// Encoded bytes of the applied delta groups (follower side).
    pub replica_bytes_applied: u64,
    /// WAL records replayed by [`Engine::open`](crate::Engine::open) to
    /// recover this engine — the delta tail between the last checkpoint
    /// and the crash/shutdown point. Zero for cold starts.
    pub recovery_replayed_windows: u64,
    /// Resuming followers served from the primary's on-disk WAL because
    /// their gap had fallen out of the in-memory resume ring — each one
    /// is a full snapshot bootstrap avoided.
    pub replica_wal_catchups: u64,
    /// The engine's failover epoch: bumped by every
    /// [`promote`](crate::api::QueryEngine::promote), carried in the
    /// replication group header so a deposed primary's stream is fenced.
    /// A gauge.
    pub epoch: u64,
    /// `true` while the engine serves in degraded mode: the attached
    /// store is failing writes, so WAL flip groups are quarantined in
    /// memory (and retried with backoff) instead of persisted. Serving
    /// and answer exactness are unaffected; durability of the
    /// quarantined flips is deferred until the store heals.
    pub degraded: bool,
    /// Why the engine degraded (the store's last write error), empty
    /// when healthy.
    pub degraded_reason: String,
    /// Encoded flip groups currently quarantined in memory awaiting a
    /// store retry. A gauge; zero when healthy.
    pub wal_quarantined_groups: u64,
    /// Quarantine flush attempts that re-failed (the store was still
    /// unhealthy at retry time).
    pub wal_retry_failures: u64,
    /// Query path-feature extractions performed by the engine. On the
    /// filter+probe path this is exactly one per query: the same
    /// `PathFeatures` is shared by the base method's filter and both
    /// query-index probes.
    pub feature_extractions: u64,
    /// Wall-clock spent computing the query's canonical code at the top of
    /// the pipeline (the exact-repeat lookup key) — paid by every query,
    /// hit or miss, before anything else runs, and part of no other stage
    /// timer.
    pub canonicalization_time: Duration,
    /// Queries `canonical_code` declined (over its vertex cap, or its
    /// pruned search out of leaf budget): they skip the exact fast path
    /// and the plan cache, and each one paid for a full budget of leaves.
    pub canonical_code_budget_misses: u64,
    /// Matching plans built in the verification stage. In the subgraph
    /// direction: one per verified query with a non-empty candidate batch
    /// (the plan is shared by the whole batch), plus one per large
    /// (≥128-vertex) candidate, which gets its own target-ordered plan.
    /// In the supergraph direction: one per candidate (the pattern
    /// varies). Zero for fully-pruned queries.
    pub plan_builds: u64,
    /// Scratch-buffer allocations/growths in the verification stage.
    /// Flat (zero per candidate) once the per-thread workspaces have
    /// warmed to the workload's largest query and target.
    pub scratch_allocs: u64,
    /// Candidates rejected by the pre-verify screen (label-count /
    /// degree-sequence dominance) without starting an iso search. These
    /// still count as `db_iso_tests` — the screen makes tests cheaper, it
    /// does not change the paper's headline test counts.
    pub preverify_rejections: u64,
    /// Canonical-code plan-cache lookups answered by a fresh cached plan
    /// (the query skipped its plan build). Covers the verify stage and
    /// both query-index probes.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that had to build — cold codes, staleness
    /// rebuilds after label-frequency drift, and config mismatches.
    pub plan_cache_misses: u64,
    /// Plans dropped from the plan cache: capacity replacement plus
    /// window-eviction of their queries from the query cache.
    pub plan_cache_evictions: u64,
    /// Typed requests answered through [`crate::Engine::execute`] /
    /// [`crate::Engine::execute_batch`] — the serving-edge request count.
    /// Plain [`crate::Engine::query`] calls are *not* requests; they show
    /// up only in `queries`.
    pub requests_served: u64,
    /// Requests shed by admission control before reaching the query
    /// pipeline (the serving edge observed maintenance lag above its
    /// configured threshold and returned a typed `overloaded` reply
    /// instead of queueing the work). Recorded via
    /// [`crate::Engine::note_overload_rejection`]; such requests appear
    /// neither in `queries` nor in `requests_served`.
    pub requests_rejected_overload: u64,
    /// Multi-request batches executed by
    /// [`crate::Engine::execute_batch`] — each counts one batch whose ≥ 2
    /// requests were coalesced (by a serving front end's micro-batching
    /// window, or by an explicit client batch) into a single scatter/gather
    /// fan-out. Single-request batches are not coalescement and are not
    /// counted.
    pub batches_coalesced: u64,
    /// Wall-clock in the base method's filter stage.
    pub filter_time: Duration,
    /// Wall-clock in iGQ probes and bookkeeping.
    pub igq_time: Duration,
    /// Wall-clock in verification.
    pub verify_time: Duration,
    /// End-to-end wall-clock.
    pub wall_time: Duration,
}

impl EngineStats {
    /// Folds one query outcome into the totals.
    pub fn absorb(&mut self, o: &QueryOutcome) {
        self.queries += 1;
        self.db_iso_tests += o.db_iso_tests;
        self.igq_iso_tests += o.igq_iso_tests;
        self.aborted_tests += o.aborted_tests;
        self.candidates_before += o.candidates_before as u64;
        self.candidates_after += o.candidates_after as u64;
        self.pruned_by_isub += o.pruned_by_isub as u64;
        self.pruned_by_isuper += o.pruned_by_isuper as u64;
        match o.resolution {
            Resolution::ExactHit => self.exact_hits += 1,
            Resolution::EmptyAnswerShortcut => self.empty_shortcuts += 1,
            Resolution::Verified => {}
        }
        self.filter_time += o.filter_time;
        self.igq_time += o.igq_time;
        self.verify_time += o.verify_time;
        self.wall_time += o.total_time();
    }
}

/// Lock-free accumulator behind [`EngineStats`]: every counter is an
/// `AtomicU64` (durations as nanoseconds) so concurrent `query(&self)`
/// callers fold their outcomes in without serializing on the engine's
/// state lock, and [`snapshot`](AtomicEngineStats::snapshot) reads need no
/// `&mut`. Counters are independent relaxed atomics: a snapshot taken
/// while queries are in flight is per-field accurate but not a single
/// instant's cut.
#[derive(Debug, Default)]
pub(crate) struct AtomicEngineStats {
    queries: AtomicU64,
    db_iso_tests: AtomicU64,
    igq_iso_tests: AtomicU64,
    aborted_tests: AtomicU64,
    candidates_before: AtomicU64,
    candidates_after: AtomicU64,
    pruned_by_isub: AtomicU64,
    pruned_by_isuper: AtomicU64,
    exact_hits: AtomicU64,
    empty_shortcuts: AtomicU64,
    maintenances: AtomicU64,
    maintenance_postings_touched: AtomicU64,
    maintenance_nanos: AtomicU64,
    wal_appends: AtomicU64,
    wal_bytes_appended: AtomicU64,
    checkpoint_bytes_written: AtomicU64,
    checkpoint_nanos: AtomicU64,
    last_applied_seq: AtomicU64,
    replica_last_heard: AtomicU64,
    replica_groups_published: AtomicU64,
    replica_groups_applied: AtomicU64,
    replica_bytes_applied: AtomicU64,
    recovery_replayed_windows: AtomicU64,
    replica_wal_catchups: AtomicU64,
    wal_retry_failures: AtomicU64,
    feature_extractions: AtomicU64,
    canonicalization_nanos: AtomicU64,
    canonical_code_budget_misses: AtomicU64,
    plan_builds: AtomicU64,
    scratch_allocs: AtomicU64,
    preverify_rejections: AtomicU64,
    requests_served: AtomicU64,
    requests_rejected_overload: AtomicU64,
    batches_coalesced: AtomicU64,
    filter_nanos: AtomicU64,
    igq_nanos: AtomicU64,
    verify_nanos: AtomicU64,
    wall_nanos: AtomicU64,
}

impl AtomicEngineStats {
    /// Folds one query outcome into the totals (the atomic counterpart of
    /// [`EngineStats::absorb`]).
    pub(crate) fn absorb(&self, o: &QueryOutcome) {
        const R: Ordering = Ordering::Relaxed;
        self.queries.fetch_add(1, R);
        self.db_iso_tests.fetch_add(o.db_iso_tests, R);
        self.igq_iso_tests.fetch_add(o.igq_iso_tests, R);
        self.aborted_tests.fetch_add(o.aborted_tests, R);
        self.candidates_before
            .fetch_add(o.candidates_before as u64, R);
        self.candidates_after
            .fetch_add(o.candidates_after as u64, R);
        self.pruned_by_isub.fetch_add(o.pruned_by_isub as u64, R);
        self.pruned_by_isuper
            .fetch_add(o.pruned_by_isuper as u64, R);
        match o.resolution {
            Resolution::ExactHit => {
                self.exact_hits.fetch_add(1, R);
            }
            Resolution::EmptyAnswerShortcut => {
                self.empty_shortcuts.fetch_add(1, R);
            }
            Resolution::Verified => {}
        }
        self.filter_nanos
            .fetch_add(o.filter_time.as_nanos() as u64, R);
        self.igq_nanos.fetch_add(o.igq_time.as_nanos() as u64, R);
        self.verify_nanos
            .fetch_add(o.verify_time.as_nanos() as u64, R);
        self.wall_nanos
            .fetch_add(o.total_time().as_nanos() as u64, R);
    }

    /// Counts one feature extraction.
    pub(crate) fn count_feature_extraction(&self) {
        self.feature_extractions.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one query's canonicalization: its wall-clock, and whether
    /// `canonical_code` declined the graph.
    pub(crate) fn record_canonicalization(&self, elapsed: Duration, declined: bool) {
        self.canonicalization_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if declined {
            self.canonical_code_budget_misses
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one window maintenance (submitted or applied).
    pub(crate) fn count_maintenance(&self) {
        self.maintenances.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one synchronous maintenance's index work.
    pub(crate) fn record_maintenance_work(&self, postings_touched: u64, elapsed: Duration) {
        const R: Ordering = Ordering::Relaxed;
        self.maintenance_postings_touched
            .fetch_add(postings_touched, R);
        self.maintenance_nanos
            .fetch_add(elapsed.as_nanos() as u64, R);
    }

    /// Counts one WAL flip-group append of `bytes` encoded bytes.
    pub(crate) fn count_wal_append(&self, bytes: u64) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes_appended.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records the engine's flip ordinal after a committed (or applied)
    /// flip — a monotone gauge behind
    /// [`EngineStats::last_applied_seq`].
    pub(crate) fn set_last_applied_seq(&self, seq: u64) {
        self.last_applied_seq.fetch_max(seq, Ordering::Relaxed);
    }

    /// Records the highest primary flip a follower has heard of (via its
    /// delta stream or an explicit heartbeat); the snapshot derives
    /// [`EngineStats::replication_lag_windows`] from it.
    pub(crate) fn note_replica_heard(&self, seq: u64) {
        self.replica_last_heard.fetch_max(seq, Ordering::Relaxed);
    }

    /// Restarts both replication gauges at an installed snapshot's seq —
    /// stored, not maxed: a re-bootstrap may move a follower backwards.
    pub(crate) fn set_replica_position(&self, seq: u64) {
        self.last_applied_seq.store(seq, Ordering::Relaxed);
        self.replica_last_heard.store(seq, Ordering::Relaxed);
    }

    /// Current replication staleness (heard − applied, saturating) from
    /// two atomic loads — no full snapshot, cheap enough for per-request
    /// bounded-staleness checks.
    pub(crate) fn replication_lag_windows(&self) -> u64 {
        self.replica_last_heard
            .load(Ordering::Relaxed)
            .saturating_sub(self.last_applied_seq.load(Ordering::Relaxed))
    }

    /// Counts one flip group published to the replication hub.
    pub(crate) fn count_replica_group_published(&self) {
        self.replica_groups_published
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one delta group of `bytes` encoded bytes applied from the
    /// replication stream.
    pub(crate) fn record_replica_group_applied(&self, bytes: u64) {
        self.replica_groups_applied.fetch_add(1, Ordering::Relaxed);
        self.replica_bytes_applied
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Folds one verification batch's amortization counters. Plan-cache
    /// hit/miss/eviction totals are *not* folded here: the cache's own
    /// atomic counters are authoritative (they also see the index-probe
    /// lookups) and are overlaid at snapshot time by
    /// [`crate::Engine::stats`].
    pub(crate) fn record_verify_batch(&self, b: &igq_methods::VerifyBatchStats) {
        const R: Ordering = Ordering::Relaxed;
        self.plan_builds.fetch_add(b.plan_builds, R);
        self.scratch_allocs.fetch_add(b.scratch_allocs, R);
        self.preverify_rejections
            .fetch_add(b.preverify_rejections, R);
    }

    /// Counts one typed request served (`execute` / `execute_batch`).
    pub(crate) fn count_request_served(&self) {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request shed by lag-gated admission control.
    pub(crate) fn count_overload_rejection(&self) {
        self.requests_rejected_overload
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one multi-request batch coalesced into a single fan-out.
    pub(crate) fn count_batch_coalesced(&self) {
        self.batches_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one checkpoint's wall-clock and encoded size.
    pub(crate) fn record_checkpoint(&self, elapsed: Duration, bytes: u64) {
        self.checkpoint_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.checkpoint_bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records how many WAL windows recovery replayed (set once at open).
    pub(crate) fn set_recovery_replayed_windows(&self, windows: u64) {
        self.recovery_replayed_windows
            .store(windows, Ordering::Relaxed);
    }

    /// Counts one resuming follower served from the on-disk WAL instead
    /// of a snapshot re-bootstrap.
    pub(crate) fn count_replica_wal_catchup(&self) {
        self.replica_wal_catchups.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one quarantine flush attempt that re-failed (the store was
    /// still unhealthy).
    pub(crate) fn count_wal_retry_failure(&self) {
        self.wal_retry_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// An owned [`EngineStats`] snapshot of the current totals.
    pub(crate) fn snapshot(&self) -> EngineStats {
        const R: Ordering = Ordering::Relaxed;
        EngineStats {
            queries: self.queries.load(R),
            db_iso_tests: self.db_iso_tests.load(R),
            igq_iso_tests: self.igq_iso_tests.load(R),
            aborted_tests: self.aborted_tests.load(R),
            candidates_before: self.candidates_before.load(R),
            candidates_after: self.candidates_after.load(R),
            pruned_by_isub: self.pruned_by_isub.load(R),
            pruned_by_isuper: self.pruned_by_isuper.load(R),
            exact_hits: self.exact_hits.load(R),
            empty_shortcuts: self.empty_shortcuts.load(R),
            maintenances: self.maintenances.load(R),
            maintenance_postings_touched: self.maintenance_postings_touched.load(R),
            maintenance_time: Duration::from_nanos(self.maintenance_nanos.load(R)),
            wal_appends: self.wal_appends.load(R),
            wal_bytes_appended: self.wal_bytes_appended.load(R),
            checkpoint_bytes_written: self.checkpoint_bytes_written.load(R),
            checkpoint_time: Duration::from_nanos(self.checkpoint_nanos.load(R)),
            last_applied_seq: self.last_applied_seq.load(R),
            replication_lag_windows: self
                .replica_last_heard
                .load(R)
                .saturating_sub(self.last_applied_seq.load(R)),
            replica_groups_published: self.replica_groups_published.load(R),
            replica_groups_applied: self.replica_groups_applied.load(R),
            replica_bytes_applied: self.replica_bytes_applied.load(R),
            recovery_replayed_windows: self.recovery_replayed_windows.load(R),
            replica_wal_catchups: self.replica_wal_catchups.load(R),
            // Failover/degradation gauges live outside the atomic ledger
            // (engine epoch atomic, persist-layer quarantine) and are
            // overlaid by `Engine::stats`.
            epoch: 0,
            degraded: false,
            degraded_reason: String::new(),
            wal_quarantined_groups: 0,
            wal_retry_failures: self.wal_retry_failures.load(R),
            feature_extractions: self.feature_extractions.load(R),
            canonicalization_time: Duration::from_nanos(self.canonicalization_nanos.load(R)),
            canonical_code_budget_misses: self.canonical_code_budget_misses.load(R),
            plan_builds: self.plan_builds.load(R),
            scratch_allocs: self.scratch_allocs.load(R),
            preverify_rejections: self.preverify_rejections.load(R),
            requests_served: self.requests_served.load(R),
            requests_rejected_overload: self.requests_rejected_overload.load(R),
            batches_coalesced: self.batches_coalesced.load(R),
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            plan_cache_evictions: 0,
            filter_time: Duration::from_nanos(self.filter_nanos.load(R)),
            igq_time: Duration::from_nanos(self.igq_nanos.load(R)),
            verify_time: Duration::from_nanos(self.verify_nanos.load(R)),
            wall_time: Duration::from_nanos(self.wall_nanos.load(R)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut s = EngineStats::default();
        let o = QueryOutcome {
            db_iso_tests: 5,
            candidates_before: 10,
            candidates_after: 5,
            resolution: Resolution::ExactHit,
            ..Default::default()
        };
        s.absorb(&o);
        s.absorb(&o);
        assert_eq!(s.queries, 2);
        assert_eq!(s.db_iso_tests, 10);
        assert_eq!(s.exact_hits, 2);
        assert_eq!(s.candidates_after, 10);
    }

    #[test]
    fn atomic_stats_match_sequential_absorb() {
        let atomic = AtomicEngineStats::default();
        let mut plain = EngineStats::default();
        let o = QueryOutcome {
            db_iso_tests: 3,
            igq_iso_tests: 2,
            candidates_before: 9,
            candidates_after: 4,
            pruned_by_isub: 3,
            pruned_by_isuper: 2,
            resolution: Resolution::EmptyAnswerShortcut,
            filter_time: Duration::from_micros(5),
            igq_time: Duration::from_micros(7),
            verify_time: Duration::from_micros(11),
            ..Default::default()
        };
        for _ in 0..3 {
            atomic.absorb(&o);
            plain.absorb(&o);
        }
        atomic.count_feature_extraction();
        atomic.record_canonicalization(Duration::from_micros(7), false);
        atomic.record_canonicalization(Duration::from_micros(30), true);
        atomic.count_maintenance();
        atomic.record_maintenance_work(17, Duration::from_micros(13));
        atomic.count_wal_append(120);
        atomic.count_wal_append(80);
        atomic.record_checkpoint(Duration::from_micros(21), 900);
        atomic.set_recovery_replayed_windows(4);
        atomic.record_verify_batch(&igq_methods::VerifyBatchStats {
            plan_builds: 2,
            scratch_allocs: 1,
            preverify_rejections: 5,
            ..Default::default()
        });
        atomic.record_verify_batch(&igq_methods::VerifyBatchStats {
            plan_builds: 1,
            scratch_allocs: 0,
            preverify_rejections: 2,
            ..Default::default()
        });
        let snap = atomic.snapshot();
        assert_eq!(snap.queries, plain.queries);
        assert_eq!(snap.db_iso_tests, plain.db_iso_tests);
        assert_eq!(snap.empty_shortcuts, plain.empty_shortcuts);
        assert_eq!(snap.candidates_before, plain.candidates_before);
        assert_eq!(snap.wall_time, plain.wall_time);
        assert_eq!(snap.feature_extractions, 1);
        assert_eq!(snap.canonicalization_time, Duration::from_micros(37));
        assert_eq!(snap.canonical_code_budget_misses, 1);
        assert_eq!(snap.maintenances, 1);
        assert_eq!(snap.maintenance_postings_touched, 17);
        assert_eq!(snap.maintenance_time, Duration::from_micros(13));
        assert_eq!(snap.wal_appends, 2);
        assert_eq!(snap.wal_bytes_appended, 200);
        assert_eq!(snap.checkpoint_bytes_written, 900);
        assert_eq!(snap.checkpoint_time, Duration::from_micros(21));
        assert_eq!(snap.recovery_replayed_windows, 4);
        assert_eq!(snap.plan_builds, 3);
        assert_eq!(snap.scratch_allocs, 1);
        assert_eq!(snap.preverify_rejections, 7);
    }

    #[test]
    fn serving_counters_flow_through_snapshot() {
        let atomic = AtomicEngineStats::default();
        atomic.count_request_served();
        atomic.count_request_served();
        atomic.count_request_served();
        atomic.count_overload_rejection();
        atomic.count_batch_coalesced();
        let snap = atomic.snapshot();
        assert_eq!(snap.requests_served, 3);
        assert_eq!(snap.requests_rejected_overload, 1);
        assert_eq!(snap.batches_coalesced, 1);
        // Rejected requests never enter the query pipeline.
        assert_eq!(snap.queries, 0);
    }

    #[test]
    fn replication_gauges_and_counters_flow_through_snapshot() {
        let atomic = AtomicEngineStats::default();
        // A follower that has applied 5 flips and heard of 8.
        atomic.set_last_applied_seq(5);
        atomic.note_replica_heard(8);
        atomic.record_replica_group_applied(64);
        atomic.record_replica_group_applied(36);
        atomic.count_replica_group_published();
        let snap = atomic.snapshot();
        assert_eq!(snap.last_applied_seq, 5);
        assert_eq!(snap.replication_lag_windows, 3);
        assert_eq!(snap.replica_groups_applied, 2);
        assert_eq!(snap.replica_bytes_applied, 100);
        assert_eq!(snap.replica_groups_published, 1);
        // Gauges are monotone: a stale heartbeat or duplicate seq never
        // regresses them.
        atomic.note_replica_heard(2);
        atomic.set_last_applied_seq(4);
        let snap = atomic.snapshot();
        assert_eq!(snap.last_applied_seq, 5);
        assert_eq!(snap.replication_lag_windows, 3);
        // A caught-up follower reports zero lag, not underflow.
        atomic.set_last_applied_seq(9);
        assert_eq!(atomic.snapshot().replication_lag_windows, 0);
    }

    #[test]
    fn atomic_stats_absorb_concurrently() {
        let atomic = AtomicEngineStats::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let o = QueryOutcome {
                        db_iso_tests: 1,
                        ..Default::default()
                    };
                    for _ in 0..250 {
                        atomic.absorb(&o);
                    }
                });
            }
        });
        let snap = atomic.snapshot();
        assert_eq!(snap.queries, 1000);
        assert_eq!(snap.db_iso_tests, 1000);
    }
}
