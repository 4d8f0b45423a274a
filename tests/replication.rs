//! Replication subsystem integration tests: follower engines converge
//! with their primary in both query directions, the delta stream is
//! torn-/gap-safe, and the TCP serving edge streams snapshots + deltas to
//! a live read replica with bounded-staleness admission control.

mod common;

use common::{arb_graph, arb_store, oracle_answers, oracle_super_answers};
use igq::core::{ReplicaError, ReplicaFeed, Resolution, Subscription};
use igq::iso::MatchConfig;
use igq::methods::TrieSupergraphMethod;
use igq::prelude::*;
use igq::server::{
    BatchVerdict, BuildFollower, Client, Follower, QueryVerdict, ReplicaEvent, Server, ServerConfig,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn replica_config() -> IgqConfig {
    IgqConfig::builder()
        .cache_capacity(32)
        .window(1)
        .build()
        .expect("valid config")
}

/// Primary + follower pair over the same store/config (subgraph
/// direction), the follower bootstrapped from the primary's snapshot.
fn sub_pair(
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

/// Same pair in the supergraph direction.
fn super_pair(
    store: &Arc<GraphStore>,
    config: IgqConfig,
) -> (IgqSuperEngine, IgqSuperEngine, ReplicaFeed) {
    let method =
        || TrieSupergraphMethod::build(store, PathConfig::default(), MatchConfig::default());
    let primary = IgqSuperEngine::new(method(), config).expect("valid primary");
    let (checkpoint, feed) = match primary.subscribe_replication(None) {
        Subscription::Snapshot {
            checkpoint, feed, ..
        } => (checkpoint, feed),
        Subscription::Live { .. } => panic!("fresh subscriber must get a snapshot"),
    };
    let follower =
        IgqSuperEngine::open_follower(method(), config, &checkpoint).expect("valid follower");
    (primary, follower, feed)
}

fn drain(feed: &ReplicaFeed, follower: &dyn QueryEngine) -> u64 {
    let mut applied = 0;
    while let Some(d) = feed.try_recv() {
        follower.apply_replica_delta(&d.bytes).expect("apply delta");
        applied += 1;
    }
    applied
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// After draining the delta stream, a follower answers every query
    /// exactly like its primary (and like the naive oracle).
    #[test]
    fn follower_matches_primary_subgraph_all_modes(
        store in arb_store(6, 5, 3),
        queries in proptest::collection::vec(arb_graph(4, 3), 1..8),
    ) {
        let (primary, follower, feed) = sub_pair(&store, replica_config());
        let truths: Vec<Vec<GraphId>> =
            queries.iter().map(|q| primary.query(q).answers).collect();
        primary.flush_window();
        drain(&feed, &follower);
        prop_assert_eq!(follower.cached_queries(), primary.cached_queries());
        follower.self_check().expect("follower invariants");
        prop_assert_eq!(follower.replication_lag(), Some(0));
        for (q, truth) in queries.iter().zip(&truths) {
            let out = follower.query(q);
            prop_assert_eq!(&out.answers, truth);
            prop_assert_eq!(&out.answers, &oracle_answers(&store, q));
            prop_assert_eq!(
                out.resolution,
                Resolution::ExactHit,
                "replicated resident must exact-hit"
            );
        }
    }

    /// The same convergence property for the supergraph engine: the
    /// replication machinery is direction-agnostic.
    #[test]
    fn follower_matches_primary_supergraph_all_modes(
        store in arb_store(5, 4, 3),
        queries in proptest::collection::vec(arb_graph(4, 3), 1..6),
    ) {
        let (primary, follower, feed) = super_pair(&store, replica_config());
        let truths: Vec<Vec<GraphId>> =
            queries.iter().map(|q| primary.query(q).answers).collect();
        primary.flush_window();
        drain(&feed, &follower);
        prop_assert_eq!(follower.cached_queries(), primary.cached_queries());
        follower.self_check().expect("follower invariants");
        prop_assert_eq!(follower.replication_lag(), Some(0));
        for (q, truth) in queries.iter().zip(&truths) {
            let out = follower.query(q);
            prop_assert_eq!(&out.answers, truth);
            prop_assert_eq!(&out.answers, &oracle_super_answers(&store, q));
        }
    }
}

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

/// A truncated delta group never partially applies: the follower reports
/// `Corrupt`, keeps its state, and still accepts the intact group.
#[test]
fn torn_delta_is_rejected_without_side_effects() {
    let store = fixed_store();
    let (primary, follower, feed) = sub_pair(&store, replica_config());
    for q in probe_queries().iter().take(2) {
        let _ = primary.query(q);
    }
    let d1 = feed.try_recv().expect("first group");
    let d2 = feed.try_recv().expect("second group");
    assert_eq!(follower.apply_replica_delta(&d1.bytes), Ok(d1.seq));

    let cached_before = follower.cached_queries();
    let seq_before = follower.stats().last_applied_seq;
    for cut in [0, 1, d2.bytes.len() / 2, d2.bytes.len() - 1] {
        assert!(
            matches!(
                follower.apply_replica_delta(&d2.bytes[..cut]),
                Err(ReplicaError::Corrupt(_))
            ),
            "truncation at {cut} must be Corrupt"
        );
        assert_eq!(follower.cached_queries(), cached_before, "cut={cut}");
        assert_eq!(follower.stats().last_applied_seq, seq_before, "cut={cut}");
    }
    // The intact group still lands after every failed attempt.
    assert_eq!(follower.apply_replica_delta(&d2.bytes), Ok(d2.seq));
    follower.self_check().expect("follower invariants");
}

/// Out-of-order delivery is a typed `SeqGap`; redelivery of an applied
/// group is an idempotent skip.
#[test]
fn seq_gap_is_typed_and_duplicates_skip() {
    let store = fixed_store();
    let (primary, follower, feed) = sub_pair(&store, replica_config());
    for q in probe_queries() {
        let _ = primary.query(&q);
    }
    let d1 = feed.try_recv().expect("first group");
    let d2 = feed.try_recv().expect("second group");
    let d3 = feed.try_recv().expect("third group");
    assert_eq!(follower.apply_replica_delta(&d1.bytes), Ok(d1.seq));
    assert_eq!(
        follower.apply_replica_delta(&d3.bytes),
        Err(ReplicaError::SeqGap {
            expected: d1.seq + 1,
            found: d3.seq,
        })
    );
    // Resume overlap: the already-applied group is skipped, not an error.
    assert_eq!(follower.apply_replica_delta(&d1.bytes), Ok(d1.seq));
    assert_eq!(follower.apply_replica_delta(&d2.bytes), Ok(d2.seq));
    assert_eq!(follower.apply_replica_delta(&d3.bytes), Ok(d3.seq));
}

/// Resuming inside the primary's ring is `Live` (the stream picks up at
/// `from_seq + 1`); resuming from before the ring's history falls back
/// to a fresh `Snapshot`.
#[test]
fn resume_is_live_inside_ring_and_snapshot_beyond() {
    let store = fixed_store();
    let (primary, follower, feed) = sub_pair(&store, replica_config());
    for q in probe_queries() {
        let _ = primary.query(&q);
    }
    drain(&feed, &follower);
    let at = follower.stats().last_applied_seq;
    assert!(at > 0, "flips replicated");

    let resumed = match primary.subscribe_replication(Some(at)) {
        Subscription::Live { feed } => feed,
        Subscription::Snapshot { .. } => panic!("in-ring resume must be live"),
    };
    let _ = primary.query(&graph_from(&[1, 2], &[(0, 1)]));
    let next = resumed.try_recv().expect("group after resume point");
    assert_eq!(next.seq, at + 1);

    // Push the ring past its capacity; a subscriber from seq 0 can no
    // longer be caught up by replay and must get a snapshot.
    for i in 0..300u32 {
        let _ = primary.query(&graph_from(&[100 + i], &[]));
    }
    match primary.subscribe_replication(Some(0)) {
        Subscription::Snapshot { seq, .. } => assert!(seq > 0),
        Subscription::Live { .. } => panic!("out-of-ring resume must re-snapshot"),
    }
}

/// A follower's cache changes only by replaying the primary: local
/// queries are answered exactly but never admitted, and the
/// follower-only `install_snapshot` is refused on the primary.
#[test]
fn follower_rejects_local_writes() {
    let store = fixed_store();
    let (primary, follower, _feed) = sub_pair(&store, replica_config());
    assert!(follower.is_follower());
    let cached = follower.cached_queries();
    for q in probe_queries() {
        assert_eq!(follower.query(&q).answers, oracle_answers(&store, &q));
    }
    follower.flush_window();
    assert_eq!(follower.cached_queries(), cached);
    assert_eq!(
        primary.install_snapshot(b"snapshot"),
        Err(ReplicaError::NotFollower)
    );
    assert!(!primary.is_follower());
}

/// Polls `done` until it holds, failing after a generous deadline.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Builds a GGSX follower engine over `store` from a snapshot.
fn build_follower(store: &Arc<GraphStore>, config: IgqConfig) -> BuildFollower {
    let store = Arc::clone(store);
    Arc::new(move |snapshot: &[u8]| {
        let method = Ggsx::build(&store, GgsxConfig::default());
        let engine = IgqEngine::open_follower(method, config, snapshot)
            .map_err(|e| format!("snapshot rejected: {e}"))?;
        Ok(Arc::new(engine) as Arc<dyn QueryEngine>)
    })
}

fn loopback() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    }
}

/// Raw wire subscription: a fresh subscriber gets a `snapshot` frame, an
/// idle stream heartbeats, and a committed flip arrives as a `delta`.
#[test]
fn wire_subscription_streams_snapshot_heartbeats_and_deltas() {
    let store = fixed_store();
    let engine = Arc::new(
        IgqEngine::new(Ggsx::build(&store, GgsxConfig::default()), replica_config())
            .expect("valid engine"),
    );
    let served: Arc<dyn QueryEngine> = Arc::clone(&engine) as Arc<dyn QueryEngine>;
    let server = Server::spawn(served, loopback()).expect("bind");

    let client = Client::connect(server.local_addr(), "wire-sub").expect("connect");
    let (start, mut sub) = client.subscribe(None).expect("subscribe");
    match start {
        igq::server::SubscribeStart::Snapshot { seq, checkpoint } => {
            assert_eq!(seq, 0);
            assert!(!checkpoint.is_empty(), "snapshot carries engine state");
        }
        igq::server::SubscribeStart::Live { .. } => panic!("fresh subscriber must get a snapshot"),
    }
    // Idle stream: the server heartbeats rather than going silent.
    match sub.next_event().expect("heartbeat") {
        ReplicaEvent::Heartbeat { seq } => assert_eq!(seq, 0),
        other => panic!("expected heartbeat, got {other:?}"),
    }
    // A committed flip is pushed as a delta with the next sequence.
    let _ = engine.query(&probe_queries()[0]);
    loop {
        match sub.next_event().expect("delta") {
            ReplicaEvent::Delta { seq, bytes } => {
                assert_eq!(seq, 1);
                assert!(!bytes.is_empty());
                break;
            }
            ReplicaEvent::Heartbeat { .. } => continue, // racing heartbeat is fine
            ReplicaEvent::Closed => panic!("stream closed early"),
        }
    }
    server.shutdown();
}

/// End-to-end TCP topology: a primary server, a `Follower` bootstrapped
/// over the wire, and a second server exposing the replica. Queries
/// answered by the replica match the primary, and the replica's stats
/// frame reports its replication position.
#[test]
fn follower_serves_identical_answers_over_tcp() {
    let store = fixed_store();
    let config = replica_config();
    let primary_engine: Arc<dyn QueryEngine> = Arc::new(
        IgqEngine::new(Ggsx::build(&store, GgsxConfig::default()), config).expect("valid engine"),
    );
    let primary = Server::spawn(Arc::clone(&primary_engine), loopback()).expect("bind primary");

    let build = build_follower(&store, config);
    let follower = Follower::connect(
        &primary.local_addr().to_string(),
        "test-replica",
        build,
        Duration::from_secs(5),
    )
    .expect("bootstrap replica");
    let replica = Server::spawn(follower.engine(), loopback()).expect("bind replica");

    // Drive the primary over the wire; its cache fills and flips stream out.
    let mut pc = Client::connect(primary.local_addr(), "primary-driver").expect("connect primary");
    let queries = probe_queries();
    let truths: Vec<Vec<GraphId>> = queries
        .iter()
        .map(|q| match pc.query(q).expect("primary query") {
            QueryVerdict::Answered(r) => r.answers,
            QueryVerdict::Overloaded { .. } => panic!("primary must not shed"),
        })
        .collect();

    // Wait for the replica to catch up (pushed asynchronously).
    wait_for("replica catches up", || {
        follower.engine().cached_queries() >= primary_engine.cached_queries()
    });

    let mut rc = Client::connect(replica.local_addr(), "replica-reader").expect("connect replica");
    for (q, truth) in queries.iter().zip(&truths) {
        match rc
            .query_opts(q, None, false, Some(1_000))
            .expect("replica query")
        {
            QueryVerdict::Answered(r) => assert_eq!(&r.answers, truth),
            QueryVerdict::Overloaded { .. } => panic!("replica within bound must answer"),
        }
    }
    let stats = rc.stats().expect("replica stats");
    assert!(stats.follower, "replica server reports follower=true");
    assert!(stats.last_applied_seq > 0, "flips applied over the wire");
    assert!(stats.replica_groups_applied > 0);

    drop(pc);
    drop(rc);
    replica.shutdown();
    follower.shutdown();
    primary.shutdown();
}

/// A primary restarts on the same address with no history. The
/// follower's stream tears, the restarted primary cannot resume it and
/// sends a snapshot, and the follower installs it in place: the same
/// engine, its seq lower than before, its lifetime counters intact, its
/// answers exact.
#[test]
fn follower_rebootstraps_in_place_from_a_restarted_primary() {
    let store = fixed_store();
    let config = replica_config();
    let primary_engine = || {
        Arc::new(
            IgqEngine::new(Ggsx::build(&store, GgsxConfig::default()), config)
                .expect("valid engine"),
        )
    };
    let first = primary_engine();
    let server = Server::spawn(Arc::clone(&first) as Arc<dyn QueryEngine>, loopback())
        .expect("bind primary");
    let addr = server.local_addr().to_string();
    let build = build_follower(&store, config);
    let follower = Follower::connect(&addr, "restart-test", build, Duration::from_secs(5))
        .expect("bootstrap replica");
    let served = follower.engine();

    let queries = probe_queries();
    for q in &queries {
        let _ = first.query(q);
    }
    let seq = first.stats().last_applied_seq;
    wait_for("replica catches up", || {
        served.stats().last_applied_seq == seq
    });
    for q in &queries {
        let response = served.execute(&QueryRequest::new(q.clone()));
        assert_eq!(response.answers(), oracle_answers(&store, q));
    }
    let before = served.stats();
    assert_eq!(served.cached_queries(), queries.len());

    // Restart: a fresh, empty primary on the same address. Its snapshot
    // empties the replica's cache, which nothing else can do.
    server.shutdown();
    drop(first);
    let second = primary_engine();
    let config = ServerConfig {
        addr: addr.clone(),
        ..loopback()
    };
    let server =
        Server::spawn(Arc::clone(&second) as Arc<dyn QueryEngine>, config).expect("rebind");
    wait_for("replica re-bootstraps", || served.cached_queries() == 0);
    for q in queries.iter().take(2) {
        let _ = second.query(q);
    }
    let seq = second.stats().last_applied_seq;
    wait_for("replica follows the restarted primary", || {
        served.stats().last_applied_seq == seq && served.replication_lag() == Some(0)
    });

    let after = served.stats();
    assert!(after.last_applied_seq < before.last_applied_seq);
    assert_eq!(served.cached_queries(), second.cached_queries());
    assert!(served.is_follower());
    assert!(after.queries >= before.queries);
    assert!(after.requests_served >= before.requests_served);
    assert!(after.replica_groups_applied > before.replica_groups_applied);
    for q in &queries {
        assert_eq!(served.query(q).answers, oracle_answers(&store, q));
    }
    served.self_check().expect("re-bootstrapped invariants");
    follower.shutdown();
    server.shutdown();
}

/// Bounded-staleness admission control: a replica lagging past the
/// request's `max_lag` sheds with a typed `overloaded` reply carrying
/// the observed lag; a bound at or above the lag (or no bound) serves.
#[test]
fn stale_replica_sheds_bounded_staleness_reads() {
    let store = fixed_store();
    let (_primary, follower, _feed) = sub_pair(&store, replica_config());
    // Heard of flip 5, applied none: a follower pinned at lag 5.
    follower.note_replica_heard(5);
    let engine: Arc<dyn QueryEngine> = Arc::new(follower);
    let config = ServerConfig {
        retry_after: Duration::from_millis(7),
        ..loopback()
    };
    let server = Server::spawn(engine, config).expect("bind");
    let mut client = Client::connect(server.local_addr(), "staleness-test").expect("connect");
    let q = probe_queries()[0].clone();

    let served_before = client.stats().expect("stats").requests_served;
    match client.query_opts(&q, None, false, Some(2)).expect("query") {
        QueryVerdict::Overloaded {
            lag_windows,
            threshold,
            retry_after_ms,
        } => {
            assert_eq!(lag_windows, 5);
            assert_eq!(threshold, 2);
            assert_eq!(retry_after_ms, 7);
        }
        QueryVerdict::Answered(_) => panic!("lag 5 > bound 2 must shed"),
    }
    assert_eq!(
        client.stats().expect("stats").requests_served,
        served_before,
        "shed = not executed"
    );
    // Lag equal to the bound is within it (and the connection survived
    // the shed).
    assert!(matches!(
        client.query_opts(&q, None, false, Some(5)).expect("query"),
        QueryVerdict::Answered(_)
    ));
    // No bound: staleness is the reader's choice, never forced.
    assert!(matches!(
        client.query(&q).expect("query"),
        QueryVerdict::Answered(_)
    ));
    // The whole-batch bound sheds the same way.
    match client
        .query_batch_opts(std::slice::from_ref(&q), None, Some(1))
        .expect("batch")
    {
        BatchVerdict::Overloaded { lag_windows, .. } => assert_eq!(lag_windows, 5),
        BatchVerdict::Answered(_) => panic!("lagging batch must shed"),
    }
    // Sheds are recorded with the engine's other admission totals.
    let stats = client.stats().expect("stats");
    assert!(stats.follower);
    assert_eq!(
        stats.requests_rejected_overload, 2,
        "1 query + 1-query batch rejected"
    );
    server.shutdown();
}
