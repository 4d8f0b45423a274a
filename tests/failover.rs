//! Failover integration tests: follower promotion under epoch fencing,
//! WAL-backed catch-up for followers older than the resume ring, and
//! end-to-end automatic promotion when a primary hangs *silently* (no
//! RST — only heartbeat silence) behind a chaos proxy.

mod common;

use common::chaos::ChaosProxy;
use common::oracle_answers;
use igq::core::{CacheStore, MemStore, PersistenceConfig, ReplicaError, ReplicaFeed, Subscription};
use igq::prelude::*;
use igq::server::{BuildFollower, FailoverPolicy, Follower, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixed_store() -> Arc<GraphStore> {
    Arc::new(
        vec![
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[0], &[]),
        ]
        .into_iter()
        .collect(),
    )
}

fn probe_queries() -> Vec<Graph> {
    vec![
        graph_from(&[0, 1], &[(0, 1)]),
        graph_from(&[2, 2], &[(0, 1)]),
        graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
    ]
}

fn small_config() -> IgqConfig {
    IgqConfig {
        cache_capacity: 32,
        window: 1,
        ..Default::default()
    }
}

/// Primary + follower + feed, in-process (no persistence, no wire).
fn pair(
    store: &Arc<GraphStore>,
    config: IgqConfig,
) -> (IgqEngine<Ggsx>, IgqEngine<Ggsx>, ReplicaFeed) {
    let primary =
        IgqEngine::new(Ggsx::build(store, GgsxConfig::default()), config).expect("valid primary");
    let (checkpoint, feed) = match primary.subscribe_replication(None) {
        Subscription::Snapshot {
            checkpoint, feed, ..
        } => (checkpoint, feed),
        Subscription::Live { .. } => panic!("fresh subscriber must get a snapshot"),
    };
    let follower = IgqEngine::open_follower(
        Ggsx::build(store, GgsxConfig::default()),
        config,
        &checkpoint,
    )
    .expect("valid follower");
    (primary, follower, feed)
}

/// `promote()` flips a follower writable under a new epoch; deltas from
/// the deposed primary's old epoch are fenced on the promoted engine and
/// on every replica that adopted the new epoch.
#[test]
fn promotion_bumps_the_epoch_and_fences_the_deposed_primary() {
    let store = fixed_store();
    let (primary, follower, feed) = pair(&store, small_config());

    // One replicated flip, then a second the follower never applies
    // before promotion — the "straggler" a deposed primary might emit.
    let queries = probe_queries();
    let _ = primary.query(&queries[0]);
    let _ = primary.query(&queries[1]);
    let d1 = feed.try_recv().expect("first group");
    let straggler = feed.try_recv().expect("second group");
    assert_eq!(follower.apply_replica_delta(&d1.bytes), Ok(d1.seq));

    // Promote: writable, epoch bumped, promote is not re-entrant.
    assert!(follower.is_follower());
    assert_eq!(follower.stats().epoch, 0);
    let epoch = follower.promote().expect("promote follower");
    assert_eq!(epoch, 1);
    assert!(!follower.is_follower(), "promoted engine is writable");
    assert_eq!(follower.stats().epoch, 1);
    assert_eq!(follower.promote(), Err(ReplicaError::NotFollower));
    assert_eq!(primary.promote(), Err(ReplicaError::NotFollower));

    // The deposed primary's straggler delta carries epoch 0 and must be
    // fenced — never applied, typed, side-effect free.
    let cached = follower.cached_queries();
    match follower.apply_replica_delta(&straggler.bytes) {
        Err(ReplicaError::NotFollower) | Err(ReplicaError::EpochFenced { .. }) => {}
        other => panic!("straggler must be rejected, got {other:?}"),
    }
    assert_eq!(follower.cached_queries(), cached);

    // The promoted engine serves writes now: new queries admit and stay
    // oracle-exact.
    for q in &queries {
        assert_eq!(
            follower.query(q).answers,
            oracle_answers(&store, q),
            "{q:?}"
        );
    }
    follower.self_check().expect("promoted invariants");

    // Replicas of the *promoted* engine inherit epoch 1 and fence the
    // old primary's epoch-0 groups with a typed error.
    let (checkpoint, new_feed) = match follower.subscribe_replication(None) {
        Subscription::Snapshot {
            checkpoint, feed, ..
        } => (checkpoint, feed),
        Subscription::Live { .. } => panic!("fresh subscriber must get a snapshot"),
    };
    let replica = IgqEngine::open_follower(
        Ggsx::build(&store, GgsxConfig::default()),
        small_config(),
        &checkpoint,
    )
    .expect("replica of promoted engine");
    assert_eq!(replica.stats().epoch, 1, "epoch rides the checkpoint");

    let _ = follower.query(&graph_from(&[1, 2], &[(0, 1)]));
    let from_new_primary = new_feed.try_recv().expect("epoch-1 group");
    assert_eq!(
        replica.apply_replica_delta(&from_new_primary.bytes),
        Ok(from_new_primary.seq)
    );
    match replica.apply_replica_delta(&straggler.bytes) {
        Err(ReplicaError::EpochFenced { stream, local }) => {
            assert_eq!(stream, 0);
            assert_eq!(local, 1);
        }
        other => panic!("old-epoch group must fence, got {other:?}"),
    }
    replica.self_check().expect("replica invariants");
}

/// A follower that resumes from *before* the primary's in-memory resume
/// ring is caught up by replaying the primary's WAL — provably
/// equivalent to a fresh snapshot bootstrap, without shipping one.
#[test]
fn out_of_ring_resume_replays_the_primary_wal_instead_of_a_snapshot() {
    let store = fixed_store();
    let config = IgqConfig {
        persistence: PersistenceConfig::manual(),
        ..small_config()
    };
    let mem: Arc<dyn CacheStore> = Arc::new(MemStore::new());
    let primary = IgqEngine::open(Ggsx::build(&store, GgsxConfig::default()), config, mem)
        .expect("durable primary");

    // Bootstrap a follower and apply the first few flips.
    let (checkpoint, feed) = match primary.subscribe_replication(None) {
        Subscription::Snapshot {
            checkpoint, feed, ..
        } => (checkpoint, feed),
        Subscription::Live { .. } => panic!("fresh subscriber must get a snapshot"),
    };
    let follower = IgqEngine::open_follower(
        Ggsx::build(&store, GgsxConfig::default()),
        config,
        &checkpoint,
    )
    .expect("valid follower");
    for q in probe_queries() {
        let _ = primary.query(&q);
    }
    while let Some(d) = feed.try_recv() {
        follower.apply_replica_delta(&d.bytes).expect("apply");
    }
    let resume_at = follower.stats().last_applied_seq;
    assert!(resume_at > 0);
    drop(feed); // the follower goes dark

    // Push the primary far past the 256-group ring while the follower is
    // away: an in-ring live resume is now impossible.
    for i in 0..300u32 {
        let _ = primary.query(&graph_from(&[100 + i], &[]));
    }

    // The resume is LIVE anyway: the gap replays from the primary's WAL.
    let catchups_before = primary.stats().replica_wal_catchups;
    let resumed = match primary.subscribe_replication(Some(resume_at)) {
        Subscription::Live { feed } => feed,
        Subscription::Snapshot { .. } => {
            panic!("durable primary must catch up from its WAL, not a snapshot")
        }
    };
    assert_eq!(primary.stats().replica_wal_catchups, catchups_before + 1);
    let mut replayed = 0u64;
    while let Some(d) = resumed.try_recv() {
        follower.apply_replica_delta(&d.bytes).expect("catch-up");
        replayed += 1;
    }
    assert!(replayed >= 300, "the whole gap replays ({replayed})");
    assert_eq!(
        follower.stats().last_applied_seq,
        primary.stats().last_applied_seq
    );

    // Equivalence proof: a *fresh snapshot bootstrap* of the same primary
    // is observationally identical to the WAL-caught-up follower.
    let snapshot_twin = match primary.subscribe_replication(None) {
        Subscription::Snapshot { checkpoint, .. } => IgqEngine::open_follower(
            Ggsx::build(&store, GgsxConfig::default()),
            config,
            &checkpoint,
        )
        .expect("snapshot twin"),
        Subscription::Live { .. } => panic!("fresh subscriber must get a snapshot"),
    };
    assert_eq!(follower.cached_queries(), snapshot_twin.cached_queries());
    assert_eq!(
        follower.stats().last_applied_seq,
        snapshot_twin.stats().last_applied_seq
    );
    for q in probe_queries() {
        let a = follower.query(&q);
        let b = snapshot_twin.query(&q);
        assert_eq!(a.answers, b.answers, "{q:?}");
        assert_eq!(a.answers, oracle_answers(&store, &q), "{q:?}");
    }
    follower
        .self_check()
        .expect("caught-up follower invariants");
    snapshot_twin.self_check().expect("twin invariants");
}

/// End-to-end silent-hang failover: a primary wedges behind a chaos
/// proxy (connections stay open, zero frames flow — no RST ever), the
/// follower's heartbeat detector notices, and the configured policy
/// promotes it to a writable primary under a new epoch.
#[test]
fn silent_primary_hang_triggers_automatic_promotion() {
    let store = fixed_store();
    let config = small_config();
    let primary = Arc::new(
        IgqEngine::new(Ggsx::build(&store, GgsxConfig::default()), config).expect("valid primary"),
    );
    for q in probe_queries() {
        let _ = primary.query(&q);
    }
    let server = Server::spawn(
        primary,
        ServerConfig {
            io_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind primary");
    let proxy = ChaosProxy::spawn(&server.local_addr().to_string()).expect("spawn proxy");

    let build: BuildFollower = {
        let store = Arc::clone(&store);
        Arc::new(move |snapshot: &[u8]| {
            let engine = IgqEngine::open_follower(
                Ggsx::build(&store, GgsxConfig::default()),
                config,
                snapshot,
            )
            .map_err(|e| format!("snapshot rejected: {e}"))?;
            Ok(Arc::new(engine) as Arc<dyn QueryEngine>)
        })
    };
    // Heartbeats arrive every ~500ms; 900ms of silence means hung.
    let policy = FailoverPolicy {
        heartbeat_timeout: Duration::from_millis(900),
        promote_on_timeout: true,
        rounds_before_promote: 1,
    };
    let follower = Follower::connect_with_policy(
        &[proxy.addr()],
        "failover-test",
        build,
        Duration::from_millis(500),
        policy,
    )
    .expect("bootstrap through healthy proxy");
    let served = follower.engine();
    assert!(served.is_follower());
    assert!(!follower.promoted());

    // Wedge the primary's outbound path: connections stay up, frames stop.
    proxy.freeze(true);

    let deadline = Instant::now() + Duration::from_secs(15);
    while !follower.promoted() {
        assert!(
            Instant::now() < deadline,
            "heartbeat detector never promoted the follower"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        !served.is_follower(),
        "promoted engine must be writable (epoch fenced against the old primary)"
    );
    assert!(served.stats().epoch >= 1, "promotion bumped the epoch");

    // The promoted engine keeps serving exact answers — including writes.
    for q in probe_queries() {
        assert_eq!(
            served.query(&q).answers,
            oracle_answers(&store, &q),
            "{q:?}"
        );
    }

    proxy.freeze(false);
    follower.shutdown();
    server.shutdown();
}

// The proxy's own contract: transparent while thawed, a silent hang
// while frozen.

/// A trivial upstream echoing every byte back.
fn echo_upstream() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
    let addr = listener.local_addr().expect("echo addr").to_string();
    std::thread::spawn(move || {
        while let Ok((mut s, _)) = listener.accept() {
            std::thread::spawn(move || {
                let mut buf = [0u8; 1024];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 || s.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn healthy_proxy_is_transparent() {
    let proxy = ChaosProxy::spawn(&echo_upstream()).expect("spawn proxy");
    let mut s = TcpStream::connect(proxy.addr()).expect("dial");
    s.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    s.write_all(b"hello chaos").expect("write");
    let mut got = [0u8; 11];
    s.read_exact(&mut got).expect("echo");
    assert_eq!(&got, b"hello chaos");
}

#[test]
fn freeze_hangs_silently_and_thaw_recovers() {
    let proxy = ChaosProxy::spawn(&echo_upstream()).expect("spawn proxy");
    proxy.freeze(true);
    let mut s = TcpStream::connect(proxy.addr()).expect("dial");
    s.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    s.write_all(b"ping").expect("write");
    let mut buf = [0u8; 4];
    // Frozen: the read times out, the connection does NOT reset.
    let err = s.read_exact(&mut buf).expect_err("must hang");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "unexpected error kind: {err:?}"
    );
    proxy.freeze(false);
    s.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    s.read_exact(&mut buf).expect("thawed reply");
    assert_eq!(&buf, b"ping");
}
