//! A TCP serving front end for the iGQ engine.
//!
//! The engine ([`igq_core`]) is a shared, concurrently queryable service
//! behind a trait object; this crate puts a network edge in front of it:
//!
//! * [`protocol`] — the versioned, line-framed JSON wire protocol
//!   (`hello`/`query`/`batch`/`stats`/`shutdown` frames) that round-trips
//!   the in-process [`igq_core::QueryRequest`]/[`igq_core::QueryResponse`]
//!   types, with typed errors for garbage, oversized, and torn frames.
//! * [`server`] — a hand-rolled `std::net` listener: thread-per-connection
//!   under a bounded accept pool, per-connection deadline enforcement
//!   (wire deadline → [`igq_core::QueryOptions::deadline`] *and* socket
//!   read/write timeouts, so a slow client cannot pin a worker), and
//!   staleness-gated admission control: a read carrying `max_lag` is shed
//!   with a typed `overloaded` frame by a replica lagging past it.
//! * [`batcher`] — server-side micro-batching: requests arriving within a
//!   small configurable window are coalesced into one
//!   [`igq_core::QueryEngine::execute_batch`] fan-out, trading a bounded
//!   latency add for per-query verification throughput.
//! * [`client`] — a typed blocking client used by the CLI's `client`
//!   command, the equivalence tests, and the serving bench.
//! * [`replicate`] — follower serving: [`Follower`] bootstraps a
//!   read-only replica engine from a primary's `snapshot` frame, applies
//!   its pushed `delta` stream, and survives torn streams by resuming
//!   with backoff or re-bootstrapping that same engine in place from a
//!   fresh snapshot (one from an older failover epoch is refused).
//!   A [`FailoverPolicy`] turns a follower into a failure detector:
//!   heartbeat-timeout hang detection, round-robin upstream rotation, and
//!   (opt-in) automatic promotion to a writable primary under a fenced
//!   epoch.
//!
//! Everything is `std` + workspace shims; there is no async runtime and no
//! external networking dependency.
//!
//! # Quick start
//!
//! ```no_run
//! use igq_server::{Client, Server, ServerConfig};
//! use igq_core::{IgqConfig, IgqEngine, QueryEngine};
//! use igq_graph::{graph_from, GraphStore};
//! use igq_methods::{Ggsx, GgsxConfig};
//! use std::sync::Arc;
//!
//! let store: Arc<GraphStore> = Arc::new(
//!     vec![graph_from(&[0, 1], &[(0, 1)])].into_iter().collect(),
//! );
//! let method = Ggsx::build(&store, GgsxConfig::default());
//! let engine = IgqEngine::new(method, IgqConfig::default()).unwrap();
//! let engine: Arc<dyn QueryEngine> = Arc::new(engine);
//!
//! let server = Server::spawn(engine, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr(), "example").unwrap();
//! let verdict = client.query(&graph_from(&[0, 1], &[(0, 1)])).unwrap();
//! println!("{} answers", verdict.result().unwrap().answers.len());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod protocol;
pub mod replicate;
pub mod server;

pub use batcher::Batcher;
pub use client::{
    BatchVerdict, Client, ClientError, QueryVerdict, ReplicaEvent, ReplicaSubscriber,
    SubscribeStart,
};
pub use protocol::{
    Reply, Request, ServingStats, WireError, WireResult, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use replicate::{BuildFollower, FailoverPolicy, Follower, FollowerError};
pub use server::{Server, ServerConfig};
