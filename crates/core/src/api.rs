//! The shared-service query API: the [`QueryEngine`] trait both engine
//! directions implement, and typed [`QueryRequest`]/[`QueryResponse`]
//! wrappers.
//!
//! # Serving model
//!
//! An iGQ engine is a shared, concurrently queryable service:
//! [`QueryEngine::query`] takes `&self` and every implementor is
//! `Send + Sync`, so N threads can drive one engine through clones of an
//! `Arc` (or scoped borrows). For whole batches,
//! [`QueryEngine::query_batch`] does the fan-out internally across
//! [`IgqConfig::batch_threads`](crate::IgqConfig::batch_threads) workers.
//!
//! ```
//! use igq_core::{IgqConfig, IgqEngine, QueryEngine};
//! use igq_graph::{graph_from, GraphStore};
//! use igq_methods::{Ggsx, GgsxConfig};
//! use std::sync::Arc;
//!
//! let store: Arc<GraphStore> = Arc::new(
//!     vec![graph_from(&[0, 1], &[(0, 1)])].into_iter().collect(),
//! );
//! let method = Ggsx::build(&store, GgsxConfig::default());
//! let config = IgqConfig::builder()
//!     .cache_capacity(100)
//!     .window(10)
//!     .build()
//!     .expect("valid config");
//! let engine = Arc::new(IgqEngine::new(method, config).expect("valid engine"));
//!
//! // Fan the same engine out across threads; answers stay exact.
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         let e = Arc::clone(&engine);
//!         s.spawn(move || {
//!             let out = e.query(&graph_from(&[0, 1], &[(0, 1)]));
//!             assert_eq!(out.answers.len(), 1);
//!         });
//!     }
//! });
//! assert_eq!(engine.stats().queries, 4);
//! ```

use crate::config::IgqConfig;
use crate::engine::Engine;
use crate::outcome::QueryOutcome;
use crate::stats::EngineStats;
use igq_graph::{Graph, GraphId};
use std::time::Duration;

/// Per-query options carried by a [`QueryRequest`] — the growth point for
/// request-scoped behavior that plain [`QueryEngine::query`] has no room
/// for.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Do not consider this query for window admission: it is answered
    /// exactly but leaves no trace in the cache. For one-off exploratory
    /// queries that should not displace residents serving the steady
    /// workload.
    pub skip_admission: bool,
    /// Soft latency target. Exceeding it is *reported*
    /// ([`QueryResponse::deadline_exceeded`]), never enforced by
    /// truncating work: iGQ's contract is exact answers, and a cached
    /// partial answer would poison future queries. Callers that want to
    /// shed load can combine the report with `skip_admission` or their own
    /// admission control.
    pub deadline: Option<Duration>,
}

/// A typed query: the pattern graph plus per-query [`QueryOptions`].
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The query graph.
    pub graph: Graph,
    /// Request-scoped options.
    pub options: QueryOptions,
}

impl QueryRequest {
    /// A request for `graph` with default options — equivalent to
    /// [`QueryEngine::query`].
    pub fn new(graph: Graph) -> QueryRequest {
        QueryRequest {
            graph,
            options: QueryOptions::default(),
        }
    }

    /// Excludes this query from window admission (see
    /// [`QueryOptions::skip_admission`]).
    pub fn skip_admission(mut self) -> QueryRequest {
        self.options.skip_admission = true;
        self
    }

    /// Sets the soft deadline (see [`QueryOptions::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> QueryRequest {
        self.options.deadline = Some(deadline);
        self
    }
}

/// The outcome of a [`QueryRequest`]: the full [`QueryOutcome`] plus
/// request-level verdicts.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The exact answers and per-stage accounting.
    pub outcome: QueryOutcome,
    /// End-to-end wall-clock of the request as the engine observed it,
    /// measured around the whole pipeline *including* lock waits — the
    /// per-request latency a serving edge should report without
    /// re-measuring around the call. Always ≥ the outcome's stage times.
    pub elapsed: Duration,
    /// True when the request carried a [`QueryOptions::deadline`] and
    /// [`elapsed`](Self::elapsed) exceeded it. The answers are exact
    /// either way (iGQ never truncates work; see
    /// [`QueryOptions::deadline`]).
    pub deadline_exceeded: bool,
}

impl QueryResponse {
    /// The answer set (sorted dataset graph ids).
    pub fn answers(&self) -> &[GraphId] {
        &self.outcome.answers
    }
}

/// The unified engine interface implemented by both query directions
/// ([`crate::IgqEngine`] and [`crate::IgqSuperEngine`] — both aliases of
/// [`crate::Engine`]).
///
/// Every implementor is a shared-handle concurrent service: all methods
/// take `&self`, and the `Send + Sync` supertrait bound means a reference
/// (or `Arc` clone) can cross threads freely. Generic clients —
/// harnesses, servers, benches — can drive either direction through this
/// trait without caring which algebra runs underneath.
pub trait QueryEngine: Send + Sync {
    /// Processes one query, returning the exact answer set plus
    /// accounting.
    fn query(&self, q: &Graph) -> QueryOutcome;

    /// Processes a typed request with per-query options.
    fn execute(&self, request: &QueryRequest) -> QueryResponse;

    /// Fans a batch of queries across worker threads sharing this engine;
    /// output index-aligned with the input.
    fn query_batch(&self, queries: &[Graph]) -> Vec<QueryOutcome>;

    /// Fans a batch of typed requests (per-request options preserved)
    /// across worker threads; output index-aligned with the input. A
    /// multi-request batch counts once toward
    /// [`EngineStats::batches_coalesced`] — the serving front end's
    /// micro-batcher funnels coalesced windows through this.
    fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<QueryResponse>;

    /// Records one request shed by admission control (a replica too stale
    /// for the request's `max_lag`) into
    /// [`EngineStats::requests_rejected_overload`]. The serving edge makes
    /// the shed decision (the engine itself never refuses work) but the
    /// count belongs with the engine's other totals.
    fn note_overload_rejection(&self);

    /// Aggregate statistics so far: an owned copy of the engine's ledger,
    /// in which every per-query counter covers the same finished queries.
    fn stats(&self) -> EngineStats;

    /// The engine configuration.
    fn config(&self) -> &IgqConfig;

    /// Number of currently cached queries.
    fn cached_queries(&self) -> usize;

    /// Forces window maintenance regardless of window fill.
    fn flush_window(&self);

    /// Writes a checkpoint to the attached
    /// [`CacheStore`](crate::persist::CacheStore) and compacts the WAL
    /// (no-op `Ok` for engines constructed without a store). See
    /// [`Engine::checkpoint`].
    fn checkpoint(&self) -> Result<(), crate::persist::PersistError>;

    /// Verifies internal invariants and index/cache agreement.
    fn self_check(&self) -> Result<(), String>;

    /// `true` if this engine is a read-only follower replica.
    fn is_follower(&self) -> bool;

    /// Follower staleness in window flips (highest flip heard from the
    /// primary minus last flip applied locally); `None` on a primary.
    /// A serving edge gates bounded-staleness reads on this.
    fn replication_lag(&self) -> Option<u64>;

    /// Subscribes a replica to this engine's committed window flips (see
    /// [`Engine::subscribe_replication`]).
    fn subscribe_replication(&self, from_seq: Option<u64>) -> crate::replicate::Subscription;

    /// Applies one replicated delta group to a follower (see
    /// [`Engine::apply_replica_delta`]).
    fn apply_replica_delta(&self, bytes: &[u8]) -> Result<u64, crate::replicate::ReplicaError>;

    /// Records that the primary's stream has reached `seq` without
    /// applying it (heartbeats keep the staleness gauge honest while no
    /// flips happen).
    fn note_replica_heard(&self, seq: u64);

    /// Promotes a read-only follower into a writable primary, bumping
    /// the failover epoch so any delta group the deposed primary still
    /// emits is fenced (see [`Engine::promote`]). Returns the new
    /// epoch.
    fn promote(&self) -> Result<u64, crate::replicate::ReplicaError>;

    /// Re-bootstraps a follower in place from a primary's snapshot (see
    /// [`Engine::install_snapshot`]). Returns the installed seq.
    fn install_snapshot(&self, snapshot: &[u8]) -> Result<u64, crate::replicate::ReplicaError>;
}

impl<D: crate::direction::QueryDirection> QueryEngine for crate::engine::Engine<D> {
    fn query(&self, q: &Graph) -> QueryOutcome {
        Engine::query(self, q)
    }

    fn execute(&self, request: &QueryRequest) -> QueryResponse {
        Engine::execute(self, request)
    }

    fn query_batch(&self, queries: &[Graph]) -> Vec<QueryOutcome> {
        Engine::query_batch(self, queries)
    }

    fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<QueryResponse> {
        Engine::execute_batch(self, requests)
    }

    fn note_overload_rejection(&self) {
        Engine::note_overload_rejection(self)
    }

    fn stats(&self) -> EngineStats {
        Engine::stats(self)
    }

    fn config(&self) -> &IgqConfig {
        Engine::config(self)
    }

    fn cached_queries(&self) -> usize {
        Engine::cached_queries(self)
    }

    fn flush_window(&self) {
        Engine::flush_window(self)
    }

    fn checkpoint(&self) -> Result<(), crate::persist::PersistError> {
        Engine::checkpoint(self)
    }

    fn self_check(&self) -> Result<(), String> {
        Engine::self_check(self)
    }

    fn is_follower(&self) -> bool {
        Engine::is_follower(self)
    }

    fn replication_lag(&self) -> Option<u64> {
        Engine::replication_lag(self)
    }

    fn subscribe_replication(&self, from_seq: Option<u64>) -> crate::replicate::Subscription {
        Engine::subscribe_replication(self, from_seq)
    }

    fn apply_replica_delta(&self, bytes: &[u8]) -> Result<u64, crate::replicate::ReplicaError> {
        Engine::apply_replica_delta(self, bytes)
    }

    fn note_replica_heard(&self, seq: u64) {
        Engine::note_replica_heard(self, seq)
    }

    fn promote(&self) -> Result<u64, crate::replicate::ReplicaError> {
        Engine::promote(self)
    }

    fn install_snapshot(&self, snapshot: &[u8]) -> Result<u64, crate::replicate::ReplicaError> {
        Engine::install_snapshot(self, snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders_set_options() {
        let g = igq_graph::graph_from(&[0], &[]);
        let r = QueryRequest::new(g.clone());
        assert!(!r.options.skip_admission);
        assert!(r.options.deadline.is_none());
        let r = QueryRequest::new(g)
            .skip_admission()
            .deadline(Duration::from_millis(5));
        assert!(r.options.skip_admission);
        assert_eq!(r.options.deadline, Some(Duration::from_millis(5)));
    }
}
