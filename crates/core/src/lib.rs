//! # igq-core
//!
//! The paper's primary contribution: **iGQ**, a query-graph indexing and
//! result-caching layer that accelerates subgraph *and* supergraph query
//! processing on top of any filter-then-verify method — packaged as a
//! shared, concurrently queryable service.
//!
//! The system (paper Fig. 6) comprises:
//!
//! * [`IsubIndex`] — finds cached queries that are **supergraphs** of a new
//!   query; their stored answers are known answers (Section 4.2.1);
//! * [`IsuperIndex`] — finds cached queries that are **subgraphs** of a new
//!   query via the occurrence-counting trie of Algorithms 1 & 2; their
//!   stored answers bound the candidates (Section 4.2.2);
//! * [`QueryCache`] — the stored query graphs, answer sets, and
//!   replacement metadata (`Igraphs` + `Stat(iGQ Graph)`, Section 5);
//! * the utility-based replacement policy `U(g) = C(g)/M(g)` with costs in
//!   log space (Section 5.1, [`metadata`]);
//! * windowed maintenance (Section 5.2) with **incremental delta updates**
//!   of both query indexes on the flipping query thread ([`maintain`]);
//! * [`Engine`] — **one** pipeline implementing formulas (3)–(5) and the
//!   optimal cases of Section 4.3, generic over the query
//!   [`QueryDirection`]; [`IgqEngine`] and [`IgqSuperEngine`] are its two
//!   instantiations (the Section 4.4 inversion is a [`SupergraphQueries`]
//!   type parameter, not a second engine);
//! * the shared-service API ([`api`]): `query(&self)` on a `Send + Sync`
//!   engine, the [`QueryEngine`] trait for direction-agnostic clients,
//!   typed [`QueryRequest`]/[`QueryResponse`] wrappers, batch fan-out
//!   ([`QueryEngine::query_batch`]), and the cloneable [`EngineHandle`]
//!   for serving queries from many threads at once;
//! * durability ([`persist`]): [`Engine::open`] over a [`CacheStore`]
//!   ([`DirStore`]/[`MemStore`]) recovers a warm engine from a versioned,
//!   checksummed checkpoint plus a window-delta write-ahead log, with
//!   config-driven auto-checkpointing ([`PersistenceConfig`]) and typed
//!   [`PersistError`]s;
//! * replication ([`replicate`]): a primary publishes every committed
//!   window flip as a binary delta group
//!   ([`Engine::subscribe_replication`]); a follower
//!   ([`Engine::open_follower`]) bootstraps from its snapshot, replays
//!   the stream ([`Engine::apply_replica_delta`]), and serves read-only
//!   queries with a measurable staleness bound
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
//! serve it from multiple threads through a shared handle:
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
//! let handle = IgqEngine::new(method, config)
//!     .expect("valid engine")
//!     .into_handle();
//!
//! let q = graph_from(&[0, 1], &[(0, 1)]);
//! let first = handle.query(&q);
//! // Clone the handle into as many threads as you like...
//! let worker = handle.clone();
//! let repeat = std::thread::spawn(move || worker.query(&q))
//!     .join()
//!     .expect("worker"); // resolved from the shared cache
//! assert_eq!(first.answers, repeat.answers);
//! assert_eq!(handle.stats().queries, 2);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod config;
pub mod direction;
pub mod engine;
pub mod fault;
pub mod isub;
pub mod isuper;
pub mod maintain;
pub mod metadata;
pub mod outcome;
pub mod persist;
pub mod policy;
pub mod replicate;
pub mod stats;
pub mod super_engine;

pub use api::{
    EngineHandle, IgqHandle, IgqSuperHandle, QueryEngine, QueryOptions, QueryRequest, QueryResponse,
};
pub use cache::{CacheEntry, QueryCache, WindowDelta};
pub use config::{ConfigError, IgqConfig, IgqConfigBuilder, PersistenceConfig};
pub use direction::{QueryDirection, SubgraphQueries, SupergraphQueries};
pub use engine::{Engine, IgqEngine, ImportReport};
pub use fault::{FaultOp, FaultStats, FaultyStore};
pub use isub::{IndexSnapshot, IsubIndex};
pub use isuper::IsuperIndex;
pub use metadata::GraphMeta;
pub use outcome::{QueryOutcome, Resolution};
pub use persist::{CacheStore, DirStore, MemStore, PersistError};
pub use policy::ReplacementPolicy;
pub use replicate::{DeltaGroup, RecvTimeoutError, ReplicaError, ReplicaFeed, Subscription};
pub use stats::EngineStats;
pub use super_engine::IgqSuperEngine;
