//! Engine-lifetime aggregate statistics.
//!
//! [`EngineStats`] is also the engine's own ledger: one behind a leaf
//! `Mutex`, never held across I/O or while taking another lock. A query's
//! stages keep their tallies in the query's context, and its epilogue
//! folds them with the outcome in one locked section, so every snapshot
//! ([`crate::Engine::stats`], an owned clone) counts the same finished
//! queries in every per-query counter. Flips, WAL appends, checkpoints,
//! replication and the serving edge write their own fields as they happen.

use crate::outcome::{QueryOutcome, Resolution};
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
    /// application: one per distinct path feature of every admitted and
    /// every evicted graph, since `Isub` and `Isuper` share one trie.
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
    /// Failed store writes on the WAL path: the append that degraded the
    /// log, then every replay or checkpoint retry that failed again.
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
    /// Verification batches fanned out over more than one worker. On the
    /// plain path, a batch of at least
    /// [`igq_methods::FANOUT_MIN_CANDIDATES`] survivors whose query had an
    /// idle core beside it (zero on a one-core machine); `Grapes(k)`
    /// fans out any batch of two or more on its `k` workers. Never a
    /// query run inside another fan-out (a
    /// [`crate::Engine::query_batch`] worker).
    pub verify_fanouts: u64,
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

    /// Folds one finished query: its outcome and the tallies its stages
    /// kept on the way.
    pub(crate) fn fold_query(&mut self, o: &QueryOutcome, t: &QueryTally) {
        self.absorb(o);
        self.canonicalization_time += t.canonicalization_time;
        self.canonical_code_budget_misses += u64::from(t.canonical_code_declined);
        self.feature_extractions += u64::from(t.features_extracted);
        self.plan_builds += t.verify.plan_builds;
        self.verify_fanouts += t.verify.fanouts;
        self.scratch_allocs += t.verify.scratch_allocs;
        self.preverify_rejections += t.verify.preverify_rejections;
    }

    /// The highest flip a follower has heard of. It is kept as
    /// `last_applied_seq + replication_lag_windows`, so the lag can never
    /// go below zero.
    fn heard_seq(&self) -> u64 {
        self.last_applied_seq + self.replication_lag_windows
    }

    /// Records that the primary's stream has reached `seq`. A stale
    /// heartbeat lowers nothing.
    pub(crate) fn note_heard(&mut self, seq: u64) {
        self.replication_lag_windows = self.heard_seq().max(seq) - self.last_applied_seq;
    }

    /// Records a committed or applied flip. The ordinal only rises here.
    pub(crate) fn note_applied(&mut self, seq: u64) {
        let heard = self.heard_seq();
        self.last_applied_seq = self.last_applied_seq.max(seq);
        self.replication_lag_windows = heard.saturating_sub(self.last_applied_seq);
    }

    /// Restarts the replication position at an installed snapshot's seq:
    /// set, not raised, because a re-bootstrap may move a follower back.
    pub(crate) fn set_position(&mut self, seq: u64) {
        self.last_applied_seq = seq;
        self.replication_lag_windows = 0;
    }
}

/// What one query's stages tally before its epilogue folds it, together
/// with the outcome, through [`EngineStats::fold_query`].
#[derive(Default)]
pub(crate) struct QueryTally {
    pub(crate) canonicalization_time: Duration,
    pub(crate) canonical_code_declined: bool,
    pub(crate) features_extracted: bool,
    pub(crate) verify: igq_methods::VerifyBatchStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::QueryRequest;
    use crate::engine::tests::{open_engine, replication_pair, replication_queries, store};
    use igq_graph::graph_from;
    use std::sync::Arc;

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
    fn serving_counters_flow_through_snapshot() {
        let mem = Arc::new(crate::MemStore::new());
        let e = open_engine(&store(), &mem);
        let request = |labels: &[u32]| QueryRequest::new(graph_from(labels, &[(0, 1)]));
        for labels in [[0, 1], [2, 2], [0, 1]] {
            let _ = e.execute(&request(&labels));
        }
        e.note_overload_rejection();
        let _ = e.execute_batch(&[request(&[1, 2]), request(&[0, 2])]);
        e.checkpoint().expect("checkpoint");
        let snap = e.stats();
        assert_eq!(snap.requests_served, 5);
        assert_eq!(snap.requests_rejected_overload, 1);
        assert_eq!(snap.batches_coalesced, 1);
        // Rejected requests never enter the query pipeline.
        assert_eq!(snap.queries, 5);
        assert!(snap.maintenances >= 1 && snap.maintenance_postings_touched > 0);
        assert!(snap.wal_appends >= 1 && snap.wal_bytes_appended > 0);
        assert!(snap.checkpoint_bytes_written > 0);
    }

    #[test]
    fn replication_gauges_and_counters_flow_through_snapshot() {
        let (primary, follower, feed) = replication_pair();
        for q in replication_queries().iter().take(3) {
            let _ = primary.query(q);
        }
        let groups: Vec<_> = std::iter::from_fn(|| feed.try_recv()).collect();
        assert_eq!(groups.len(), 3);
        // A follower that has applied 2 flips and heard of 3.
        follower.note_replica_heard(groups[2].seq);
        for d in &groups[..2] {
            follower.apply_replica_delta(&d.bytes).expect("apply");
        }
        let snap = follower.stats();
        assert_eq!(snap.last_applied_seq, 2);
        assert_eq!(snap.replication_lag_windows, 1);
        assert_eq!(snap.replica_groups_applied, 2);
        let bytes: usize = groups[..2].iter().map(|d| d.bytes.len()).sum();
        assert_eq!(snap.replica_bytes_applied, bytes as u64);
        assert_eq!(primary.stats().replica_groups_published, 3);
        // The seq only rises: a stale heartbeat or a duplicate group
        // regresses nothing.
        follower.note_replica_heard(1);
        follower
            .apply_replica_delta(&groups[0].bytes)
            .expect("duplicate");
        let snap = follower.stats();
        assert_eq!(
            (snap.last_applied_seq, snap.replication_lag_windows),
            (2, 1)
        );
        follower
            .apply_replica_delta(&groups[2].bytes)
            .expect("apply");
        assert_eq!(follower.replication_lag(), Some(0));
        // A primary has heard of nothing: its lag stops at 0.
        let snap = primary.stats();
        assert_eq!(
            (snap.last_applied_seq, snap.replication_lag_windows),
            (3, 0)
        );
    }
}
