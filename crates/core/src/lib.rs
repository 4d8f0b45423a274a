//! # igq-core
//!
//! The paper's primary contribution: **iGQ**, a query-graph indexing and
//! result-caching layer that accelerates subgraph *and* supergraph query
//! processing on top of any filter-then-verify method — packaged as a
//! shared, concurrently queryable service.
//!
//! The system (paper Fig. 6) comprises:
//!
//! * [`QueryIndex`] — one path-feature trie and one slot table over the
//!   cached queries, probed two ways: `Isub` finds cached queries that are
//!   **supergraphs** of a new query, whose stored answers are known
//!   answers (Section 4.2.1); `Isuper` finds cached queries that are
//!   **subgraphs** of it via the occurrence counting of Algorithms 1 & 2,
//!   whose stored answers bound the candidates (Section 4.2.2);
//! * [`QueryCache`] — the stored query graphs, answer sets, and
//!   replacement metadata (`Igraphs` + `Stat(iGQ Graph)`, Section 5);
//! * the utility-based replacement policy `U(g) = C(g)/M(g)` with costs in
//!   log space (Section 5.1, [`metadata`]);
//! * windowed maintenance (Section 5.2) with **incremental delta updates**
//!   of the query index on the flipping query thread ([`query_index`]);
//! * [`Engine`] — **one** pipeline implementing formulas (3)–(5) and the
//!   optimal cases of Section 4.3, generic over the query
//!   [`QueryDirection`]; [`IgqEngine`] and [`IgqSuperEngine`] are its two
//!   instantiations (the Section 4.4 inversion is a [`SupergraphQueries`]
//!   type parameter, not a second engine);
//! * the shared-service API ([`api`]): `query(&self)` on a `Send + Sync`
//!   engine, the [`QueryEngine`] trait for direction-agnostic clients,
//!   typed [`QueryRequest`]/[`QueryResponse`] wrappers, and batch
//!   fan-out ([`QueryEngine::query_batch`]); an `Arc` shares one engine
//!   across many threads;
//! * durability ([`persist`]): [`Engine::open`] over a [`CacheStore`]
//!   ([`DirStore`]/[`MemStore`]) recovers a warm engine from a versioned,
//!   checksummed checkpoint plus a window-delta write-ahead log, with
//!   config-driven auto-checkpointing ([`PersistenceConfig`]) and typed
//!   [`PersistError`]s;
//! * replication ([`replicate`]): a primary publishes every committed
//!   window flip as a binary delta group
//!   ([`Engine::subscribe_replication`]); a follower
//!   ([`Engine::open_follower`]) bootstraps from its snapshot, replays
//!   the stream ([`Engine::apply_replica_delta`]), re-bootstraps in place
//!   behind the epoch fence ([`Engine::install_snapshot`]), and serves
//!   read-only queries with a measurable staleness bound
//!   ([`EngineStats::replication_lag_windows`]).
//!
//! Configuration goes through the validating [`IgqConfig::builder`];
//! invalid combinations surface as typed [`ConfigError`]s at build or
//! engine-construction time.
//!
//! Correctness follows the paper's Theorems 1–2; the workspace integration
//! tests re-establish them empirically against a naive oracle on
//! randomized workloads — including N threads hammering one shared engine.
//!
//! # Example
//!
//! Wrap a filter-then-verify method (here GGSX) in the iGQ engine and
//! serve it from multiple threads through an `Arc`:
//!
//! ```
//! use igq_core::{IgqConfig, IgqEngine, QueryEngine};
//! use igq_graph::{graph_from, GraphStore};
//! use igq_methods::{Ggsx, GgsxConfig};
//! use std::sync::Arc;
//!
//! let store: Arc<GraphStore> = Arc::new(
//!     vec![
//!         graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
//!         graph_from(&[0, 1], &[(0, 1)]),
//!     ]
//!     .into_iter()
//!     .collect(),
//! );
//! let method = Ggsx::build(&store, GgsxConfig::default());
//! let config = IgqConfig::builder()
//!     .cache_capacity(100)
//!     .window(10)
//!     .build()
//!     .expect("valid config");
//! let engine = Arc::new(IgqEngine::new(method, config).expect("valid engine"));
//!
//! let q = graph_from(&[0, 1], &[(0, 1)]);
//! let first = engine.query(&q);
//! // Clone the Arc into as many threads as you like...
//! let worker = Arc::clone(&engine);
//! let repeat = std::thread::spawn(move || worker.query(&q))
//!     .join()
//!     .expect("worker"); // resolved from the shared cache
//! assert_eq!(first.answers, repeat.answers);
//! assert_eq!(engine.stats().queries, 2);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod config;
pub mod direction;
pub mod engine;
pub mod metadata;
pub mod outcome;
pub mod persist;
pub mod policy;
pub mod query_index;
pub mod replicate;
pub mod stats;
pub mod super_engine;

pub use api::{QueryEngine, QueryOptions, QueryRequest, QueryResponse};
pub use cache::{CacheEntry, QueryCache, WindowDelta};
pub use config::{ConfigError, IgqConfig, IgqConfigBuilder, PersistenceConfig};
pub use direction::{QueryDirection, SubgraphQueries, SupergraphQueries};
pub use engine::{Engine, IgqEngine, WAL_QUEUE_LIMIT};
pub use metadata::GraphMeta;
pub use outcome::{QueryOutcome, Resolution};
pub use persist::{CacheStore, DirStore, MemStore, PersistError};
pub use policy::ReplacementPolicy;
pub use query_index::{IndexSnapshot, IsubIndex, IsuperIndex, QueryIndex};
pub use replicate::{DeltaGroup, RecvTimeoutError, ReplicaError, ReplicaFeed, Subscription};
pub use stats::EngineStats;
pub use super_engine::IgqSuperEngine;

// The unit tests of `QueryIndex`'s two probes, under the module names
// `isub` and `isuper` so that their test ids stay stable.
#[cfg(test)]
#[path = "query_index_tests/supergraphs_of.rs"]
mod isub;
#[cfg(test)]
#[path = "query_index_tests/subgraphs_of.rs"]
mod isuper;
