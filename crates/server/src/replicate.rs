//! The follower side of replication serving: bootstrap a read replica
//! over the wire, keep it applying the primary's delta stream, and serve
//! it behind the same [`Server`](crate::Server) front end a primary uses.
//!
//! # Topology
//!
//! ```text
//!   primary igq serve ───deltas──▶ Follower feed thread
//!                     ──snapshot─▶     │ apply_replica_delta
//!                                      │ install_snapshot
//!                                      ▼
//!                                   engine  ◀── igq serve (read-only)
//! ```
//!
//! [`Follower::connect`] dials the primary, subscribes, builds the
//! follower engine from the bootstrap snapshot via a caller-supplied
//! builder (the builder owns the dataset and base method — the wire only
//! carries iGQ state), and spawns a feed thread that applies every pushed
//! delta group. That one engine serves for the follower's whole life: a
//! torn stream that has fallen out of the primary's resume ring forces a
//! fresh snapshot, which the feed installs in place
//! ([`QueryEngine::install_snapshot`]) *while the server keeps serving*,
//! lifetime counters intact. A snapshot from an older failover epoch is
//! refused like a fenced delta.
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
//! [`EpochFenced`](ReplicaError::EpochFenced) delta or snapshot rotates
//! away from the deposed upstream instead of re-bootstrapping from it.

use crate::client::{Client, ClientError, ReplicaEvent, ReplicaSubscriber, SubscribeStart};
use igq_core::{QueryEngine, ReplicaError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Builds a follower engine from an encoded primary checkpoint. The
/// closure owns everything the wire does not carry — the dataset, the
/// base filter-then-verify method, and the engine config — and is
/// invoked once, at the first bootstrap.
pub type BuildFollower = Arc<dyn Fn(&[u8]) -> Result<Arc<dyn QueryEngine>, String> + Send + Sync>;

/// A follower bootstrap/feed failure.
#[derive(Debug)]
pub enum FollowerError {
    /// Dialing or subscribing to the primary failed.
    Connect(ClientError),
    /// The primary's bootstrap was not a snapshot, or the engine builder
    /// (first bootstrap) or the engine (re-bootstrap) refused it.
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

/// A running follower: the served engine plus the feed thread applying
/// the primary's delta stream.
pub struct Follower {
    engine: Arc<dyn QueryEngine>,
    stop: Arc<AtomicBool>,
    feed: Option<JoinHandle<()>>,
}

/// Everything the feed thread needs; bundled so the reconnect/promotion
/// logic can rotate upstreams without threading seven parameters around.
struct FeedCtx {
    engine: Arc<dyn QueryEngine>,
    /// Upstream candidates in preference order; `current` indexes the one
    /// being followed and rotates on failure/fencing.
    addrs: Vec<String>,
    current: usize,
    name: String,
    io_timeout: Duration,
    policy: FailoverPolicy,
    stop: Arc<AtomicBool>,
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
                    let stop = Arc::new(AtomicBool::new(false));
                    let ctx = FeedCtx {
                        engine: Arc::clone(&engine),
                        addrs: addrs.to_vec(),
                        current: i,
                        name: name.to_owned(),
                        io_timeout,
                        policy,
                        stop: Arc::clone(&stop),
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

    /// The served (read-only — until promotion) engine — hand this to
    /// [`Server::spawn`](crate::Server::spawn).
    pub fn engine(&self) -> Arc<dyn QueryEngine> {
        Arc::clone(&self.engine)
    }

    /// `true` once the served engine is no longer a follower: the
    /// failover policy promoted it (and the feed thread has ended), so it
    /// admits queries and publishes deltas under a new epoch.
    pub fn promoted(&self) -> bool {
        !self.engine.is_follower()
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
    while !ctx.stop.load(Ordering::Acquire) {
        // An event that ends the stream names where to resubscribe from.
        let from = match sub.next_event() {
            Ok(ReplicaEvent::Delta { seq, bytes }) => {
                ctx.engine.note_replica_heard(seq);
                match ctx.engine.apply_replica_delta(&bytes) {
                    Ok(_) => continue,
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
                        Some(ctx.engine.stats().last_applied_seq)
                    }
                    Err(e) => {
                        // A gap or corrupt group means local state can no
                        // longer be proven contiguous with the stream:
                        // force a fresh snapshot bootstrap.
                        eprintln!("igq-replica: delta {seq} rejected ({e}); re-bootstrapping");
                        None
                    }
                }
            }
            Ok(ReplicaEvent::Heartbeat { seq }) => {
                ctx.engine.note_replica_heard(seq);
                continue;
            }
            // Torn, closed, or *silently hung* stream (a read timeout
            // after `heartbeat_timeout` of no frames): resume after the
            // last applied flip. The primary answers live when it can
            // prove the gap covered (ring or WAL), with a fresh snapshot
            // otherwise.
            Ok(ReplicaEvent::Closed) | Err(_) => Some(ctx.engine.stats().last_applied_seq),
        };
        match reconnect(&mut ctx, from) {
            Some(next) => sub = next,
            None => return, // stopped or promoted
        }
    }
}

/// Redials with exponential backoff until subscribed (installing a fresh
/// snapshot in place when the upstream sends one; a refused snapshot is a
/// failed attempt), rotating through the upstream list. Returns `None`
/// when `stop` was set — or when the whole list stayed unreachable long
/// enough that the policy promoted this follower instead.
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
                    match ctx.engine.promote() {
                        Ok(epoch) => eprintln!(
                            "igq-replica: no upstream reachable after {rounds} round(s); \
                             promoted to primary at epoch {epoch}"
                        ),
                        // Already writable (e.g. a racing promote):
                        // nothing left to follow.
                        Err(err) => {
                            eprintln!("igq-replica: promotion skipped ({err}); feed ending")
                        }
                    }
                    return None;
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
            ctx.engine
                .install_snapshot(&checkpoint)
                .map_err(|e| FollowerError::Bootstrap(format!("snapshot refused: {e}")))?;
            Ok(sub)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};
    use igq_core::{IgqConfig, IgqEngine, Subscription};
    use igq_graph::{graph_from, GraphStore};
    use igq_methods::{Ggsx, GgsxConfig};

    /// A re-subscribe that lands on a deposed primary is answered with a
    /// snapshot from an older epoch: refused, so the feed rotates on, and
    /// the follower's epoch, seq and answers stay as they were.
    #[test]
    fn resubscribe_to_a_deposed_primary_refuses_its_snapshot() {
        let queries = [
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2], &[(0, 1)]),
        ];
        let store: Arc<GraphStore> = Arc::new(queries.iter().cloned().collect());
        let config = IgqConfig {
            cache_capacity: 8,
            window: 1,
            ..Default::default()
        };
        let snapshot = |e: &dyn QueryEngine| match e.subscribe_replication(None) {
            Subscription::Snapshot { checkpoint, .. } => checkpoint,
            Subscription::Live { .. } => unreachable!("a fresh subscriber gets a snapshot"),
        };
        let follower_of = |snapshot: &[u8]| -> Arc<dyn QueryEngine> {
            let method = Ggsx::build(&store, GgsxConfig::default());
            Arc::new(IgqEngine::open_follower(method, config, snapshot).expect("valid follower"))
        };
        // A replica promoted past the primary flips twice at epoch 1; the
        // follower under test replicates it.
        let deposed = IgqEngine::new(Ggsx::build(&store, GgsxConfig::default()), config)
            .expect("valid engine");
        let promoted = follower_of(&snapshot(&deposed));
        assert_eq!(promoted.promote(), Ok(1));
        let _ = snapshot(&*promoted);
        for q in &queries {
            let _ = promoted.query(q);
        }
        let follower = follower_of(&snapshot(&*promoted));
        let answers: Vec<_> = queries.iter().map(|q| follower.query(q).answers).collect();
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        };
        let server = Server::spawn(Arc::new(deposed), config).expect("bind deposed primary");
        let ctx = FeedCtx {
            engine: Arc::clone(&follower),
            addrs: vec![server.local_addr().to_string()],
            current: 0,
            name: "fenced".to_owned(),
            io_timeout: Duration::from_secs(5),
            policy: FailoverPolicy::default(),
            stop: Arc::default(),
        };

        // The deposed primary cannot resume after flip 2: it sends a snapshot.
        let err = try_subscribe(&ctx, &ctx.addrs[0], Some(2))
            .err()
            .expect("an older-epoch snapshot is refused");
        assert!(err.to_string().contains("fenced"), "{err}");
        let stats = follower.stats();
        assert_eq!((stats.epoch, stats.last_applied_seq), (1, 2));
        assert_eq!(follower.cached_queries(), 2);
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(&follower.query(q).answers, a);
        }
        server.shutdown();
    }
}
