//! The TCP server: a hand-rolled `std::net` listener, thread-per-connection
//! under a bounded pool, deadline-enforced sockets, staleness-gated
//! admission control on replicas, and optional micro-batching.
//!
//! # Connection lifecycle
//!
//! The accept loop runs on its own thread against a *nonblocking* listener
//! (polled with a short sleep) so a stop flag — set by [`Server::shutdown`]
//! or by a client's `shutdown` frame — is observed promptly without any
//! self-connect tricks. Each accepted connection is served by a dedicated
//! handler thread; the pool is bounded by
//! [`ServerConfig::max_connections`] — connections over the bound get one
//! typed `error{code:"busy"}` frame and are closed without ever touching
//! the engine.
//!
//! # Deadline enforcement
//!
//! Two independent mechanisms, per the two ways a request can go slow:
//!
//! 1. **Engine side** — a `query`/`batch` frame's `deadline_ms` is
//!    propagated into [`QueryOptions::deadline`], so the response reports
//!    `deadline_exceeded` end-to-end (answers stay exact; iGQ never
//!    truncates work).
//! 2. **Socket side** — every connection socket carries read and write
//!    timeouts ([`ServerConfig::io_timeout`]), and the reply write for a
//!    deadline-carrying request is tightened to that deadline. A client
//!    that stalls mid-frame or stops draining replies gets its connection
//!    closed instead of pinning a worker thread forever.
//!
//! # Admission control
//!
//! A `query`/`batch` frame carrying `max_lag` is a bounded-staleness read:
//! when the served engine is a follower replica whose
//! [`QueryEngine::replication_lag`] exceeds that bound, the request is
//! shed with a typed `overloaded` frame (carrying the observed lag, the
//! bound, and a retry hint), counted via
//! [`QueryEngine::note_overload_rejection`], and **not** executed; the
//! connection stays open so the client can back off and retry. A primary
//! never sheds: its index maintenance is synchronous, so there is no lag
//! to gate on.
//!
//! # Replication streaming
//!
//! A `subscribe` frame converts its connection into a one-way replication
//! push stream (see [`crate::replicate`] for the follower side): the
//! server answers with `subscribe_ok` (the engine's ring still covered
//! the requested resume point) or a `snapshot` bootstrap, then pushes
//! each committed window flip as a `delta` frame the moment the engine
//! publishes it, with `heartbeat` frames on idle gaps so the follower's
//! staleness gauge keeps moving and a dead peer is detected.

use crate::batcher::Batcher;
use crate::protocol::{
    read_frame, write_frame, Reply, Request, ServingStats, WireError, WireResult, PROTOCOL_VERSION,
};
use igq_core::{QueryEngine, QueryOptions, QueryRequest, RecvTimeoutError, Subscription};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Serving knobs. The defaults bind an ephemeral loopback port with
/// batching off — the configuration the equivalence tests want; real
/// deployments set the knobs they need.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` by default: loopback, ephemeral port).
    pub addr: String,
    /// Maximum concurrently served connections; further connects receive
    /// a typed `busy` error frame and are closed.
    pub max_connections: usize,
    /// Micro-batching window: how long the first request of a batch waits
    /// for company before the engine call goes out. Zero disables
    /// coalescing (each request is executed directly).
    pub batch_window: Duration,
    /// Cap on how many coalesced requests one engine call may carry.
    pub batch_max: usize,
    /// Backoff hint carried in `overloaded` replies.
    pub retry_after: Duration,
    /// Socket read/write timeout: the longest a handler thread will wait
    /// on a slow client before closing the connection. At least 1 ms.
    pub io_timeout: Duration,
    /// Bound on one frame's encoded size (oversized frames get a typed
    /// `too_large` error).
    pub max_frame_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_connections: 64,
            batch_window: Duration::ZERO,
            batch_max: 64,
            retry_after: Duration::from_millis(20),
            io_timeout: Duration::from_secs(30),
            max_frame_bytes: crate::protocol::DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

struct Shared {
    engine: Arc<dyn QueryEngine>,
    config: ServerConfig,
    batcher: Option<Batcher>,
    stop: AtomicBool,
    active: AtomicUsize,
    next_conn: AtomicU64,
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop, closes every live connection, and joins all threads —
/// in-flight requests are answered first (the micro-batcher drains on
/// drop), so a clean shutdown never strands an accepted request.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts serving `engine`. Returns once the
    /// listener is live; the returned handle's
    /// [`local_addr`](Server::local_addr) is the resolved address
    /// (useful with an ephemeral `:0` bind).
    ///
    /// Fails with [`std::io::ErrorKind::InvalidInput`] when
    /// `config.io_timeout` is below 1 ms: sockets cannot honour a zero
    /// timeout, and deadline tightening needs a 1 ms floor under it.
    pub fn spawn(engine: Arc<dyn QueryEngine>, config: ServerConfig) -> std::io::Result<Server> {
        if config.io_timeout < Duration::from_millis(1) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "io_timeout must be at least 1 ms, got {:?}",
                    config.io_timeout
                ),
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let batcher = if config.batch_window.is_zero() {
            None
        } else {
            Some(Batcher::new(
                Arc::clone(&engine),
                config.batch_window,
                config.batch_max,
            ))
        };
        let shared = Arc::new(Shared {
            engine,
            config,
            batcher,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("igq-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Server {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The resolved listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// True once a stop was requested (by [`shutdown`](Server::shutdown)
    /// or a client's `shutdown` frame).
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Stops accepting, closes live connections, and joins every serving
    /// thread. Idempotent.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the server stops — i.e. until a client sends a
    /// `shutdown` frame (or the process is killed). `igq serve`
    /// parks on this.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                handlers.retain(|h| !h.is_finished());
                if shared.active.load(Ordering::Acquire) >= shared.config.max_connections {
                    refuse_busy(stream, shared);
                    continue;
                }
                shared.active.fetch_add(1, Ordering::AcqRel);
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                register(shared, conn_id, &stream);
                let shared = Arc::clone(shared);
                match std::thread::Builder::new()
                    .name(format!("igq-conn-{conn_id}"))
                    .spawn(move || {
                        // A panic on one connection (a protocol bug, a
                        // poisoned downstream lock) must not take out the
                        // process or the other connections: contain it to
                        // a clean disconnect of this socket.
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            serve_connection(stream, &shared)
                        }));
                        if caught.is_err() {
                            eprintln!("igq-server: connection {conn_id} handler panicked; closed");
                        }
                        unregister(&shared, conn_id);
                        shared.active.fetch_sub(1, Ordering::AcqRel);
                    }) {
                    Ok(h) => handlers.push(h),
                    Err(_) => { /* thread spawn failed; connection dropped */ }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    // Stop requested: close the *read* side first so handlers blocked in
    // a read observe EOF, then let them finish writing whatever reply is
    // already in flight — a stop mid-batch must not tear a half-written
    // frame out from under a client. The write side closes when each
    // handler drops its socket after the join.
    for (_, conn) in shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain()
    {
        let _ = conn.shutdown(Shutdown::Read);
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn register(shared: &Shared, conn_id: u64, stream: &TcpStream) {
    if let Ok(clone) = stream.try_clone() {
        shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(conn_id, clone);
    }
}

fn unregister(shared: &Shared, conn_id: u64) {
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&conn_id);
}

fn refuse_busy(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let _ = write_frame(
        &mut stream,
        &Reply::Error {
            code: "busy".to_owned(),
            message: format!(
                "connection limit {} reached; retry later",
                shared.config.max_connections
            ),
        },
    );
    let _ = stream.shutdown(Shutdown::Both);
}

/// Serves one connection to completion: hello handshake, then a
/// frame-at-a-time request loop. Any wire error is answered with a typed
/// `error` frame (where the socket still allows it) and closes the
/// connection; the engine is never left in an inconsistent state because
/// every engine interaction is a complete, self-contained call.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    // Frames are small and latency-bound: never let Nagle hold a reply
    // hostage to a delayed ACK (a ~40ms tax per frame on loopback).
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let max = shared.config.max_frame_bytes;

    // The first frame must be a version-matched hello.
    match read_frame(&mut reader, max, Request::from_value) {
        Ok(Some(Request::Hello { version, client: _ })) => {
            if version != PROTOCOL_VERSION {
                let e = WireError::UnsupportedVersion {
                    offered: version,
                    speaks: PROTOCOL_VERSION,
                };
                let _ = write_frame(&mut writer, &Reply::error(&e));
                return;
            }
            let _ = write_frame(
                &mut writer,
                &Reply::HelloOk {
                    version: PROTOCOL_VERSION,
                    server: format!("igq-server/{PROTOCOL_VERSION}"),
                },
            );
        }
        Ok(Some(_)) => {
            let e = WireError::Protocol("first frame must be hello".into());
            let _ = write_frame(&mut writer, &Reply::error(&e));
            return;
        }
        Ok(None) => return,
        Err(e) => {
            let _ = write_frame(&mut writer, &Reply::error(&e));
            return;
        }
    }

    loop {
        match read_frame(&mut reader, max, Request::from_value) {
            Ok(Some(request)) => {
                if !handle_request(request, &mut writer, shared) {
                    return;
                }
            }
            Ok(None) => return,              // clean disconnect
            Err(WireError::Io(_)) => return, // timeout/torn socket: nothing to say
            Err(e) => {
                // Garbage degrades to a typed reply, never a panic; the
                // stream position is unreliable after a bad frame, so
                // close rather than resynchronize.
                let _ = write_frame(&mut writer, &Reply::error(&e));
                return;
            }
        }
    }
}

/// Handles one decoded frame. Returns `false` when the connection should
/// close (shutdown acknowledged or the reply write failed).
fn handle_request(request: Request, writer: &mut TcpStream, shared: &Shared) -> bool {
    match request {
        Request::Hello { .. } => {
            let e = WireError::Protocol("duplicate hello".into());
            let _ = write_frame(writer, &Reply::error(&e));
            false
        }
        Request::Query {
            id,
            graph,
            deadline_ms,
            skip_admission,
            max_lag,
        } => {
            if let Some(reply) = shed_if_stale(id, 1, max_lag, shared) {
                return write_frame(writer, &reply).is_ok();
            }
            let deadline = deadline_ms.map(Duration::from_millis);
            tighten_write_timeout(writer, deadline, shared);
            let request = QueryRequest {
                graph,
                options: QueryOptions {
                    skip_admission,
                    deadline,
                },
            };
            let (response, batched_with) = match &shared.batcher {
                Some(b) => match b.execute(request) {
                    Some(out) => out,
                    None => return false, // batcher gone: shutting down
                },
                None => (shared.engine.execute(&request), 1),
            };
            let reply = Reply::Result {
                id,
                result: WireResult::from_response(&response, batched_with),
            };
            let ok = write_frame(writer, &reply).is_ok();
            restore_write_timeout(writer, shared);
            ok
        }
        Request::Batch {
            id,
            graphs,
            deadline_ms,
            max_lag,
        } => {
            let count = graphs.len() as u64;
            if let Some(reply) = shed_if_stale(id, count, max_lag, shared) {
                return write_frame(writer, &reply).is_ok();
            }
            let deadline = deadline_ms.map(Duration::from_millis);
            tighten_write_timeout(writer, deadline, shared);
            let n = graphs.len() as u64;
            let requests: Vec<QueryRequest> = graphs
                .into_iter()
                .map(|graph| QueryRequest {
                    graph,
                    options: QueryOptions {
                        skip_admission: false,
                        deadline,
                    },
                })
                .collect();
            let responses = shared.engine.execute_batch(&requests);
            let results = responses
                .iter()
                .map(|r| WireResult::from_response(r, n))
                .collect();
            let ok = write_frame(writer, &Reply::BatchResult { id, results }).is_ok();
            restore_write_timeout(writer, shared);
            ok
        }
        Request::Stats => {
            let stats = shared.engine.stats();
            let reply = Reply::StatsResult(ServingStats {
                queries: stats.queries,
                requests_served: stats.requests_served,
                requests_rejected_overload: stats.requests_rejected_overload,
                batches_coalesced: stats.batches_coalesced,
                exact_hits: stats.exact_hits,
                empty_shortcuts: stats.empty_shortcuts,
                db_iso_tests: stats.db_iso_tests,
                cached_queries: shared.engine.cached_queries() as u64,
                follower: shared.engine.is_follower(),
                replication_lag: stats.replication_lag_windows,
                last_applied_seq: stats.last_applied_seq,
                replica_groups_published: stats.replica_groups_published,
                replica_groups_applied: stats.replica_groups_applied,
                wal_bytes_appended: stats.wal_bytes_appended,
                checkpoint_bytes_written: stats.checkpoint_bytes_written,
                epoch: stats.epoch,
                degraded: stats.degraded,
                degraded_reason: stats.degraded_reason.clone(),
                wal_quarantined_groups: stats.wal_quarantined_groups,
                // Counters without a field of their own travel the way a
                // newer server's would: `igq client --stats` prints them
                // by name. (Sorted, as decoding returns them.)
                extra: vec![
                    (
                        "canonical_code_budget_misses".to_owned(),
                        stats.canonical_code_budget_misses,
                    ),
                    (
                        "canonicalization_us".to_owned(),
                        stats.canonicalization_time.as_micros() as u64,
                    ),
                ],
            });
            write_frame(writer, &reply).is_ok()
        }
        Request::Subscribe { from_seq } => {
            serve_subscription(from_seq, writer, shared);
            false // the connection was dedicated to the stream
        }
        Request::Shutdown => {
            let _ = write_frame(writer, &Reply::Bye);
            shared.stop.store(true, Ordering::Release);
            false
        }
    }
}

/// The follower-staleness gate: a read carrying `max_lag` is shed with a
/// typed `overloaded` reply when the served engine is a replica whose
/// replication lag exceeds that bound. Each shed frame counts `rejected`
/// rejections (one per query it carried) into the engine's ledger.
/// Primaries never shed — their [`QueryEngine::replication_lag`] is
/// `None`.
fn shed_if_stale(id: u64, rejected: u64, max_lag: Option<u64>, shared: &Shared) -> Option<Reply> {
    let max = max_lag?;
    let lag = shared.engine.replication_lag()?;
    if lag <= max {
        return None;
    }
    for _ in 0..rejected.max(1) {
        shared.engine.note_overload_rejection();
    }
    Some(Reply::Overloaded {
        id,
        lag_windows: lag,
        threshold: max,
        retry_after_ms: shared.config.retry_after.as_millis() as u64,
    })
}

/// Heartbeat cadence on an idle replication stream: often enough that a
/// follower's staleness gauge and dead-peer detection stay fresh, rare
/// enough to be free.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(500);

/// Converts the connection into a replication push stream: answers the
/// `subscribe` with `subscribe_ok` (live resume) or a `snapshot`
/// bootstrap, then pushes `delta` frames as the engine commits flips and
/// `heartbeat`s on idle gaps. Returns when the peer stops taking writes,
/// the engine drops the feed, or the server stops.
fn serve_subscription(from_seq: Option<u64>, writer: &mut TcpStream, shared: &Shared) {
    let (mut last_seq, feed) = match shared.engine.subscribe_replication(from_seq) {
        Subscription::Live { feed } => {
            let resume_from = from_seq.unwrap_or(0);
            if write_frame(writer, &Reply::SubscribeOk { resume_from }).is_err() {
                return;
            }
            (resume_from, feed)
        }
        Subscription::Snapshot {
            seq,
            checkpoint,
            feed,
        } => {
            if write_frame(
                writer,
                &Reply::Snapshot {
                    seq,
                    data: checkpoint,
                },
            )
            .is_err()
            {
                return;
            }
            (seq, feed)
        }
    };
    while !shared.stopping() {
        match feed.recv_timeout(HEARTBEAT_EVERY) {
            Ok(group) => {
                last_seq = group.seq;
                let frame = Reply::Delta {
                    seq: group.seq,
                    data: group.bytes.to_vec(),
                };
                if write_frame(writer, &frame).is_err() {
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if write_frame(writer, &Reply::Heartbeat { seq: last_seq }).is_err() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Socket-side deadline enforcement: bound the reply write by the
/// request's deadline (never looser than the configured io_timeout), so a
/// client that requested a deadline but stops draining its socket cannot
/// hold the worker past it.
fn tighten_write_timeout(writer: &TcpStream, deadline: Option<Duration>, shared: &Shared) {
    if let Some(d) = deadline {
        let bound = d.clamp(Duration::from_millis(1), shared.config.io_timeout);
        let _ = writer.set_write_timeout(Some(bound));
    }
}

fn restore_write_timeout(writer: &TcpStream, shared: &Shared) {
    let _ = writer.set_write_timeout(Some(shared.config.io_timeout));
}
