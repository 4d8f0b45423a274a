//! The follower side of replication serving: bootstrap a read replica
//! over the wire, keep it applying the primary's delta stream, and serve
//! it behind the same [`Server`](crate::Server) front end a primary uses.
//!
//! # Topology
//!
//! ```text
//!   primary igq serve ───deltas──▶ Follower feed thread
//!                                      │ apply_replica_delta
//!                                      ▼
//!                                 SharedEngine  ◀── igq serve (read-only)
//!                                      ▲               │
//!                                      └── swap on ────┘
//!                                          re-bootstrap
//! ```
//!
//! [`Follower::connect`] dials the primary, subscribes, installs the
//! bootstrap snapshot via a caller-supplied engine builder (the builder
//! owns the dataset and base method — the wire only carries iGQ state),
//! and spawns a feed thread that applies every pushed delta group. The
//! served engine lives behind a [`SharedEngine`] — a [`QueryEngine`]
//! whose inner engine is atomically swappable — because a torn stream
//! that has fallen out of the primary's resume ring forces a fresh
//! snapshot bootstrap *while the server keeps serving*: readers finish on
//! the old engine, new requests land on the new one.
//!
//! # Reconnect semantics
//!
//! A torn stream reconnects with exponential backoff and resumes from
//! the follower's `last_applied_seq`; the primary answers live when its
//! ring still covers the gap (or can replay it from its WAL) and with a
//! snapshot otherwise. A delta the engine rejects (seq gap, corrupt
//! payload) forces an explicit fresh bootstrap — the follower never
//! serves state it cannot prove contiguous with the primary's flip
//! stream.
//!
//! # Failover
//!
//! With a [`FailoverPolicy`], the feed detects a *silent* primary hang
//! (no delta and no heartbeat inside `heartbeat_timeout` — the case
//! where no RST ever arrives) as well as ordinary disconnects, and walks
//! the configured upstream list round-robin. When every upstream stays
//! unreachable for `rounds_before_promote` full passes and
//! `promote_on_timeout` is set, the follower **promotes itself**: the
//! engine flips writable under a new failover epoch
//! ([`igq_core::Engine::promote`]), the feed thread ends, and any
//! straggler delta the deposed primary later emits is fenced by that
//! epoch on every replica that adopted it. A follower that receives an
//! [`EpochFenced`](ReplicaError::EpochFenced) delta rotates away from
//! the deposed upstream instead of re-bootstrapping from it.

use crate::client::{Client, ClientError, ReplicaEvent, ReplicaSubscriber, SubscribeStart};
use igq_core::{
    EngineStats, IgqConfig, QueryEngine, QueryOutcome, QueryRequest, QueryResponse, ReplicaError,
    Subscription,
};
use igq_graph::Graph;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Builds a follower engine from an encoded primary checkpoint. The
/// closure owns everything the wire does not carry — the dataset, the
/// base filter-then-verify method, and the engine config — and is
/// invoked once at bootstrap plus once per forced re-bootstrap.
pub type BuildFollower = Arc<dyn Fn(&[u8]) -> Result<Arc<dyn QueryEngine>, String> + Send + Sync>;

/// A [`QueryEngine`] whose inner engine can be atomically replaced —
/// the indirection that lets a follower re-bootstrap from a fresh
/// snapshot without restarting its serving front end. Cheap on the read
/// path: one `RwLock` read and an `Arc` clone per call.
pub struct SharedEngine {
    inner: RwLock<Arc<dyn QueryEngine>>,
    /// Config is identical across re-bootstraps (the snapshot embeds a
    /// config fingerprint the engine validates), so a by-value copy
    /// satisfies the trait's `&IgqConfig` accessor without borrowing
    /// through the lock.
    config: IgqConfig,
}

impl SharedEngine {
    /// Wraps an engine for swappable serving.
    pub fn new(engine: Arc<dyn QueryEngine>) -> SharedEngine {
        let config = *engine.config();
        SharedEngine {
            inner: RwLock::new(engine),
            config,
        }
    }

    /// The currently installed engine. Poison-tolerant: a panic on some
    /// other serving thread must not cascade into every reader of the
    /// shared engine (the `Arc` swap itself is atomic either way).
    pub fn current(&self) -> Arc<dyn QueryEngine> {
        Arc::clone(&self.inner.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Atomically installs a replacement engine (re-bootstrap). In-flight
    /// calls finish on the engine they started with.
    pub fn swap(&self, engine: Arc<dyn QueryEngine>) {
        *self.inner.write().unwrap_or_else(|e| e.into_inner()) = engine;
    }
}

impl QueryEngine for SharedEngine {
    fn query(&self, q: &Graph) -> QueryOutcome {
        self.current().query(q)
    }

    fn execute(&self, request: &QueryRequest) -> QueryResponse {
        self.current().execute(request)
    }

    fn query_batch(&self, queries: &[Graph]) -> Vec<QueryOutcome> {
        self.current().query_batch(queries)
    }

    fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<QueryResponse> {
        self.current().execute_batch(requests)
    }

    fn note_overload_rejection(&self) {
        self.current().note_overload_rejection()
    }

    fn stats(&self) -> EngineStats {
        self.current().stats()
    }

    fn config(&self) -> &IgqConfig {
        &self.config
    }

    fn cached_queries(&self) -> usize {
        self.current().cached_queries()
    }

    fn flush_window(&self) {
        self.current().flush_window()
    }

    fn checkpoint(&self) -> Result<(), igq_core::PersistError> {
        self.current().checkpoint()
    }

    fn self_check(&self) -> Result<(), String> {
        self.current().self_check()
    }

    fn is_follower(&self) -> bool {
        self.current().is_follower()
    }

    fn replication_lag(&self) -> Option<u64> {
        self.current().replication_lag()
    }

    fn subscribe_replication(&self, from_seq: Option<u64>) -> Option<Subscription> {
        // Chaining: a downstream replica can subscribe to this follower.
        self.current().subscribe_replication(from_seq)
    }

    fn apply_replica_delta(&self, bytes: &[u8]) -> Result<u64, ReplicaError> {
        self.current().apply_replica_delta(bytes)
    }

    fn note_replica_heard(&self, seq: u64) {
        self.current().note_replica_heard(seq)
    }

    fn promote(&self) -> Result<u64, ReplicaError> {
        self.current().promote()
    }
}

/// A follower bootstrap/feed failure.
#[derive(Debug)]
pub enum FollowerError {
    /// Dialing or subscribing to the primary failed.
    Connect(ClientError),
    /// The primary's bootstrap was not a snapshot, or the engine builder
    /// rejected it.
    Bootstrap(String),
}

impl std::fmt::Display for FollowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FollowerError::Connect(e) => write!(f, "connecting to primary: {e}"),
            FollowerError::Bootstrap(m) => write!(f, "bootstrapping follower: {m}"),
        }
    }
}

impl std::error::Error for FollowerError {}

impl From<ClientError> for FollowerError {
    fn from(e: ClientError) -> FollowerError {
        FollowerError::Connect(e)
    }
}

/// Reconnect backoff bounds for a torn replication stream.
const BACKOFF_FLOOR: Duration = Duration::from_millis(50);
const BACKOFF_CEIL: Duration = Duration::from_secs(2);

/// When and how a follower acts on a lost primary. The detector treats a
/// heartbeat silence of `heartbeat_timeout` exactly like a disconnect —
/// the primary heartbeats every ~500 ms, so silence several multiples
/// long means the process is hung or the network is partitioned, even
/// though the TCP connection never reset.
#[derive(Debug, Clone)]
pub struct FailoverPolicy {
    /// Longest silence (no delta, no heartbeat) tolerated on the stream
    /// before it is declared hung. Must be non-zero.
    pub heartbeat_timeout: Duration,
    /// Promote this follower to a writable primary once every upstream
    /// has stayed unreachable for `rounds_before_promote` full passes.
    pub promote_on_timeout: bool,
    /// Full round-robin passes over the upstream list before promotion
    /// triggers (minimum 1); higher values trade failover time for
    /// resilience against transient network blips.
    pub rounds_before_promote: u32,
}

impl Default for FailoverPolicy {
    fn default() -> FailoverPolicy {
        FailoverPolicy {
            heartbeat_timeout: Duration::from_secs(2),
            promote_on_timeout: false,
            rounds_before_promote: 2,
        }
    }
}

/// A running follower: the swappable served engine plus the feed thread
/// applying the primary's delta stream.
pub struct Follower {
    engine: Arc<SharedEngine>,
    stop: Arc<AtomicBool>,
    promoted: Arc<AtomicBool>,
    feed: Option<JoinHandle<()>>,
}

/// Everything the feed thread needs; bundled so the reconnect/promotion
/// logic can rotate upstreams without threading eight parameters around.
struct FeedCtx {
    shared: Arc<SharedEngine>,
    /// Upstream candidates in preference order; `current` indexes the one
    /// being followed and rotates on failure/fencing.
    addrs: Vec<String>,
    current: usize,
    name: String,
    build: BuildFollower,
    io_timeout: Duration,
    policy: FailoverPolicy,
    stop: Arc<AtomicBool>,
    promoted: Arc<AtomicBool>,
}

impl Follower {
    /// Dials `addr`, subscribes from scratch, installs the bootstrap
    /// snapshot through `build`, and spawns the feed thread. Fails fast
    /// when the primary is unreachable or the snapshot will not build —
    /// a follower that cannot bootstrap should not come up at all.
    /// Equivalent to [`connect_with_policy`](Follower::connect_with_policy)
    /// with one upstream and the default (non-promoting) policy.
    pub fn connect(
        addr: &str,
        name: &str,
        build: BuildFollower,
        io_timeout: Duration,
    ) -> Result<Follower, FollowerError> {
        Follower::connect_with_policy(
            &[addr.to_owned()],
            name,
            build,
            io_timeout,
            FailoverPolicy::default(),
        )
    }

    /// [`connect`](Follower::connect) with an explicit upstream list and
    /// [`FailoverPolicy`]: bootstraps from the first reachable upstream,
    /// rotates through the list on stream failure or epoch fencing, and —
    /// when the policy says so — promotes itself once the whole list
    /// stays dark. A zero `policy.heartbeat_timeout` fails with
    /// [`FollowerError::Bootstrap`] before any upstream is dialled.
    pub fn connect_with_policy(
        addrs: &[String],
        name: &str,
        build: BuildFollower,
        io_timeout: Duration,
        policy: FailoverPolicy,
    ) -> Result<Follower, FollowerError> {
        if policy.heartbeat_timeout.is_zero() {
            // A socket cannot time out after zero: hang detection would
            // silently fall back to `io_timeout`.
            return Err(FollowerError::Bootstrap(
                "heartbeat_timeout must be non-zero".into(),
            ));
        }
        let mut last_err = FollowerError::Bootstrap("no upstream addresses given".into());
        for (i, addr) in addrs.iter().enumerate() {
            match Follower::bootstrap(addr, name, &build, io_timeout) {
                Ok((engine, subscriber)) => {
                    let _ = subscriber.set_read_timeout(Some(policy.heartbeat_timeout));
                    let engine = Arc::new(SharedEngine::new(engine));
                    let stop = Arc::new(AtomicBool::new(false));
                    let promoted = Arc::new(AtomicBool::new(false));
                    let ctx = FeedCtx {
                        shared: Arc::clone(&engine),
                        addrs: addrs.to_vec(),
                        current: i,
                        name: name.to_owned(),
                        build: Arc::clone(&build),
                        io_timeout,
                        policy,
                        stop: Arc::clone(&stop),
                        promoted: Arc::clone(&promoted),
                    };
                    let feed = std::thread::Builder::new()
                        .name("igq-replica-feed".into())
                        .spawn(move || feed_loop(ctx, subscriber))
                        .map_err(|e| {
                            FollowerError::Bootstrap(format!("spawning feed thread: {e}"))
                        })?;
                    return Ok(Follower {
                        engine,
                        stop,
                        promoted,
                        feed: Some(feed),
                    });
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// One fresh-subscription bootstrap attempt against one upstream.
    fn bootstrap(
        addr: &str,
        name: &str,
        build: &BuildFollower,
        io_timeout: Duration,
    ) -> Result<(Arc<dyn QueryEngine>, ReplicaSubscriber), FollowerError> {
        let client = Client::connect_with_timeout(addr, name, io_timeout)?;
        let (start, subscriber) = client.subscribe(None)?;
        let SubscribeStart::Snapshot { seq: _, checkpoint } = start else {
            return Err(FollowerError::Bootstrap(
                "fresh subscription did not begin with a snapshot".into(),
            ));
        };
        let engine = build(&checkpoint).map_err(FollowerError::Bootstrap)?;
        Ok((engine, subscriber))
    }

    /// The served (swappable, read-only — until promotion) engine — hand
    /// this to [`Server::spawn`](crate::Server::spawn).
    pub fn engine(&self) -> Arc<SharedEngine> {
        Arc::clone(&self.engine)
    }

    /// `true` once the failover policy promoted this follower to a
    /// writable primary (the feed thread has ended; the served engine now
    /// admits queries and publishes deltas under a new epoch).
    pub fn promoted(&self) -> bool {
        self.promoted.load(Ordering::Acquire)
    }

    /// Stops the feed thread and joins it. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.feed.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The feed loop: applies pushed deltas, folds heartbeats into the
/// staleness gauge, and survives torn streams by resuming (or
/// re-bootstrapping) with backoff, rotating upstreams and promoting per
/// the [`FailoverPolicy`]. Runs until `stop` or promotion.
fn feed_loop(mut ctx: FeedCtx, mut sub: ReplicaSubscriber) {
    loop {
        if ctx.stop.load(Ordering::Acquire) {
            return;
        }
        match sub.next_event() {
            Ok(ReplicaEvent::Delta { seq, bytes }) => {
                let engine = ctx.shared.current();
                engine.note_replica_heard(seq);
                match engine.apply_replica_delta(&bytes) {
                    Ok(_) => {}
                    Err(e @ ReplicaError::EpochFenced { .. }) => {
                        // The upstream is a deposed primary. Never
                        // re-bootstrap from it — its post-deposition flips
                        // were never sequenced by the new primary — rotate
                        // to the next upstream and resume from local state.
                        eprintln!(
                            "igq-replica: delta {seq} fenced ({e}); rotating away from \
                             deposed upstream {}",
                            ctx.addrs[ctx.current]
                        );
                        ctx.current = (ctx.current + 1) % ctx.addrs.len();
                        let from = Some(ctx.shared.current().stats().last_applied_seq);
                        match reconnect(&mut ctx, from) {
                            Some(next) => sub = next,
                            None => return, // stopped or promoted
                        }
                    }
                    Err(e) => {
                        // A gap or corrupt group means local state can no
                        // longer be proven contiguous with the stream:
                        // force a fresh snapshot bootstrap.
                        eprintln!("igq-replica: delta {seq} rejected ({e}); re-bootstrapping");
                        match reconnect(&mut ctx, None) {
                            Some(next) => sub = next,
                            None => return, // stopped or promoted
                        }
                    }
                }
            }
            Ok(ReplicaEvent::Heartbeat { seq }) => {
                ctx.shared.current().note_replica_heard(seq);
            }
            Ok(ReplicaEvent::Closed) | Err(_) => {
                // Torn, closed, or *silently hung* stream (a read timeout
                // after `heartbeat_timeout` of no frames): resume after
                // the last applied flip. The primary answers live when it
                // can prove the gap covered (ring or WAL), with a fresh
                // snapshot otherwise.
                let from = Some(ctx.shared.current().stats().last_applied_seq);
                match reconnect(&mut ctx, from) {
                    Some(next) => sub = next,
                    None => return, // stopped or promoted
                }
            }
        }
    }
}

/// Redials with exponential backoff until subscribed (installing a fresh
/// snapshot into the shared engine when the upstream sends one), rotating
/// through the upstream list. Returns `None` when `stop` was set — or
/// when the whole list stayed unreachable long enough that the policy
/// promoted this follower instead.
fn reconnect(ctx: &mut FeedCtx, from_seq: Option<u64>) -> Option<ReplicaSubscriber> {
    let mut backoff = BACKOFF_FLOOR;
    let mut failures = 0u32;
    loop {
        if ctx.stop.load(Ordering::Acquire) {
            return None;
        }
        let addr = ctx.addrs[ctx.current].clone();
        match try_subscribe(ctx, &addr, from_seq) {
            Ok(sub) => {
                let _ = sub.set_read_timeout(Some(ctx.policy.heartbeat_timeout));
                return Some(sub);
            }
            Err(e) => {
                eprintln!("igq-replica: reconnect to {addr} failed ({e}); retrying");
                ctx.current = (ctx.current + 1) % ctx.addrs.len();
                failures += 1;
                let rounds = failures / ctx.addrs.len() as u32;
                if ctx.policy.promote_on_timeout
                    && rounds >= ctx.policy.rounds_before_promote.max(1)
                {
                    match ctx.shared.current().promote() {
                        Ok(epoch) => {
                            eprintln!(
                                "igq-replica: no upstream reachable after {rounds} round(s); \
                                 promoted to primary at epoch {epoch}"
                            );
                            ctx.promoted.store(true, Ordering::Release);
                            return None;
                        }
                        Err(err) => {
                            // Already writable (e.g. a racing promote):
                            // nothing left to follow.
                            eprintln!("igq-replica: promotion skipped ({err}); feed ending");
                            ctx.promoted.store(true, Ordering::Release);
                            return None;
                        }
                    }
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CEIL);
            }
        }
    }
}

fn try_subscribe(
    ctx: &FeedCtx,
    addr: &str,
    from_seq: Option<u64>,
) -> Result<ReplicaSubscriber, FollowerError> {
    let client = Client::connect_with_timeout(addr, &ctx.name, ctx.io_timeout)?;
    match client.subscribe(from_seq)? {
        (SubscribeStart::Live { .. }, sub) => Ok(sub),
        (SubscribeStart::Snapshot { seq: _, checkpoint }, sub) => {
            let engine = (ctx.build)(&checkpoint).map_err(FollowerError::Bootstrap)?;
            ctx.shared.swap(engine);
            Ok(sub)
        }
    }
}
