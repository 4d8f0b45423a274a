//! End-to-end serving tests: TCP ≡ in-process equivalence, typed rejection
//! of garbage and torn connections, micro-batch coalescing, the bounded
//! connection pool, and graceful shutdown. (Staleness shedding on
//! replicas is covered in `tests/replication.rs`.)

use igq_core::{IgqConfig, IgqEngine, QueryEngine};
use igq_graph::{Graph, GraphStore};
use igq_methods::{Ggsx, GgsxConfig};
use igq_server::{
    BuildFollower, Client, ClientError, FailoverPolicy, Follower, FollowerError, QueryVerdict,
    Server, ServerConfig,
};
use igq_workload::{DatasetKind, QueryWorkloadSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn dataset() -> (Arc<GraphStore>, Vec<Graph>) {
    // AIDS-like molecules: small graphs, cheap iso tests — these are
    // protocol/serving tests, not engine benchmarks.
    let store: Arc<GraphStore> = Arc::new(DatasetKind::Aids.generate(40, 11));
    let queries = QueryWorkloadSpec::named(true, false, 1.0, 24, 7).generate(&store);
    (store, queries)
}

fn build_engine(store: &Arc<GraphStore>) -> Arc<dyn QueryEngine> {
    let method = Ggsx::build(store, GgsxConfig::default());
    let config = IgqConfig::builder()
        .cache_capacity(100)
        .window(5)
        .build()
        .expect("valid config");
    Arc::new(IgqEngine::new(method, config).expect("valid engine"))
}

fn loopback() -> ServerConfig {
    ServerConfig {
        io_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// The tentpole guarantee: answers served over TCP are the answers the
/// in-process engine gives — resolution and iso-test count included — and
/// the served engine passes `self_check` afterwards.
#[test]
fn tcp_equals_in_process_across_maintenance_modes() {
    let (store, queries) = dataset();
    let local = build_engine(&store);
    let served = build_engine(&store);
    let server = Server::spawn(Arc::clone(&served), loopback()).expect("bind");
    let mut client = Client::connect(server.local_addr(), "equiv-test").expect("connect");

    for q in &queries {
        let expected = local.query(q);
        let got = client.query(q).expect("query");
        let result = got.result().expect("a primary never sheds");
        assert_eq!(
            result.answers, expected.answers,
            "answers must match in-process"
        );
        assert_eq!(result.resolution, expected.resolution);
        assert_eq!(result.db_iso_tests, expected.db_iso_tests);
    }

    // The batch path must agree too.
    let expected: Vec<_> = queries.iter().map(|q| local.query(q)).collect();
    let batched = client
        .query_batch(&queries, None)
        .expect("batch")
        .results()
        .expect("admitted")
        .to_vec();
    assert_eq!(batched.len(), expected.len());
    for (got, want) in batched.iter().zip(&expected) {
        assert_eq!(got.answers, want.answers, "batch answers");
    }

    server.shutdown();
    served.self_check().expect("served engine consistent");
}

/// Wire deadlines propagate: a zero-millisecond deadline is always
/// exceeded (answers stay exact), and elapsed time is reported.
#[test]
fn deadlines_propagate_and_report() {
    let (store, queries) = dataset();
    let engine = build_engine(&store);
    let server = Server::spawn(Arc::clone(&engine), loopback()).expect("bind");
    let mut client = Client::connect(server.local_addr(), "deadline-test").expect("connect");

    let q = &queries[0];
    let expected = engine.query(q);
    let verdict = client.query_with(q, Some(0), false).expect("query");
    let result = verdict.result().expect("admitted");
    assert!(result.deadline_exceeded, "0ms deadline is always exceeded");
    assert_eq!(result.answers, expected.answers, "answers stay exact");

    let relaxed = client
        .query_with(&queries[1], Some(60_000), false)
        .expect("query");
    assert!(!relaxed.result().expect("admitted").deadline_exceeded);
    server.shutdown();
}

/// Garbage bytes get a typed `error` frame back — never a panic, never a
/// half-dead server: a fresh connection still serves queries afterwards.
#[test]
fn garbage_frames_get_typed_errors_and_server_survives() {
    let (store, queries) = dataset();
    let engine = build_engine(&store);
    let server = Server::spawn(Arc::clone(&engine), loopback()).expect("bind");

    let expect_error_code = |payload: &[u8], want: &str| {
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(payload).expect("write");
        let mut line = String::new();
        BufReader::new(&s).read_line(&mut line).expect("reply");
        assert!(
            line.contains(&format!("\"code\":\"{want}\"")),
            "payload {payload:?} must earn code {want:?}, got {line:?}"
        );
    };

    expect_error_code(b"utter garbage\n", "malformed");
    expect_error_code(b"{\"type\":\"warp\"}\n", "unknown_type");
    expect_error_code(b"{\"type\":\"stats\"}\n", "protocol"); // before hello
    expect_error_code(
        b"{\"type\":\"hello\",\"v\":99,\"client\":\"x\"}\n",
        "unsupported_version",
    );

    // The server still answers real clients.
    let mut client = Client::connect(server.local_addr(), "after-garbage").expect("connect");
    let verdict = client.query(&queries[0]).expect("query");
    assert!(verdict.result().is_some());
    server.shutdown();
    engine
        .self_check()
        .expect("engine consistent after garbage");
}

/// A connection torn mid-request leaves the engine consistent and the
/// server serving.
#[test]
fn torn_connection_leaves_engine_consistent() {
    let (store, queries) = dataset();
    let engine = build_engine(&store);
    let server = Server::spawn(Arc::clone(&engine), loopback()).expect("bind");

    // Warm the engine through a real client first.
    let mut client = Client::connect(server.local_addr(), "pre-tear").expect("connect");
    for q in &queries[..10] {
        client.query(q).expect("query");
    }

    // Handshake, then die mid-frame: half a query with no terminator.
    {
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"{\"type\":\"hello\",\"v\":3,\"client\":\"tearer\"}\n")
            .expect("hello");
        let mut line = String::new();
        BufReader::new(s.try_clone().unwrap())
            .read_line(&mut line)
            .expect("hello_ok");
        assert!(line.contains("hello_ok"), "got {line:?}");
        s.write_all(b"{\"type\":\"query\",\"id\":1,\"graph\":{\"lab")
            .expect("partial frame");
        // Drop: RST/FIN mid-frame.
    }

    // The engine keeps serving and stays internally consistent.
    for q in &queries[10..20] {
        let verdict = client.query(q).expect("query after tear");
        assert!(verdict.result().is_some());
    }
    client.shutdown().expect("graceful shutdown");
    server.wait();
    engine
        .self_check()
        .expect("engine consistent after torn connection");
}

/// Two concurrent clients inside one batching window share a single
/// engine fan-out.
#[test]
fn micro_batching_coalesces_concurrent_clients() {
    let (store, queries) = dataset();
    let engine = build_engine(&store);
    let config = ServerConfig {
        batch_window: Duration::from_millis(300),
        ..loopback()
    };
    let server = Server::spawn(Arc::clone(&engine), config).expect("bind");
    let addr = server.local_addr();

    let barrier = std::sync::Barrier::new(2);
    let sizes: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let q = queries[i].clone();
                let barrier = &barrier;
                s.spawn(move || {
                    let mut c = Client::connect(addr, "coalesce-test").expect("connect");
                    barrier.wait();
                    let verdict = c.query(&q).expect("query");
                    verdict.result().expect("admitted").batched_with
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(sizes, vec![2, 2], "both requests share one fan-out");
    assert_eq!(engine.stats().batches_coalesced, 1);
    server.shutdown();
}

/// Connections over the bounded pool get a typed `busy` error without
/// touching the engine.
#[test]
fn connection_pool_is_bounded() {
    let (store, queries) = dataset();
    let engine = build_engine(&store);
    let config = ServerConfig {
        max_connections: 1,
        ..loopback()
    };
    let server = Server::spawn(Arc::clone(&engine), config).expect("bind");

    let mut first = Client::connect(server.local_addr(), "holder").expect("connect");
    assert!(first.query(&queries[0]).expect("query").result().is_some());

    match Client::connect(server.local_addr(), "refused") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "busy"),
        Err(other) => panic!("expected busy rejection, got {other:?}"),
        Ok(_) => panic!("expected busy rejection, got a connection"),
    }

    // Freeing the slot admits new connections (poll briefly: the server
    // notices the close asynchronously).
    drop(first);
    let mut admitted = None;
    for _ in 0..50 {
        match Client::connect(server.local_addr(), "second") {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut second = admitted.expect("slot frees after disconnect");
    assert!(second.query(&queries[1]).expect("query").result().is_some());
    server.shutdown();
}

/// Shutdown ordering mid-batch: a server stopped while requests sit in
/// the coalescing window must answer — or cleanly disconnect — every
/// queued job. No hang, no half-written frame, no panic.
#[test]
fn shutdown_mid_batch_answers_or_disconnects_every_job() {
    let (store, queries) = dataset();
    let engine = build_engine(&store);
    let config = ServerConfig {
        // A wide window guarantees the shutdown lands while jobs are
        // still queued in the batcher.
        batch_window: Duration::from_millis(400),
        batch_max: 64,
        ..loopback()
    };
    let server = Server::spawn(Arc::clone(&engine), config).expect("bind");
    let addr = server.local_addr();

    let clients = 4;
    let barrier = std::sync::Barrier::new(clients + 1);
    let outcomes: Vec<Result<QueryVerdict, ClientError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let q = queries[i % queries.len()].clone();
                let barrier = &barrier;
                s.spawn(move || {
                    let mut c = Client::connect(addr, "mid-batch-shutdown").expect("connect");
                    barrier.wait();
                    c.query(&q)
                })
            })
            .collect();
        barrier.wait();
        // All four queries are now in flight inside the 400ms window.
        std::thread::sleep(Duration::from_millis(100));
        server.shutdown();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });

    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            // A reply that made it out must be a complete, admitted result.
            Ok(verdict) => assert!(
                verdict.result().is_some(),
                "client {i}: reply delivered but not a result: {verdict:?}"
            ),
            // A clean disconnect (EOF / reset / typed error) is the only
            // other acceptable fate — the join above already rules out
            // hangs and panics.
            Err(e) => assert!(
                !matches!(e, ClientError::Server { code, .. } if code == "busy"),
                "client {i}: unexpected busy shed during shutdown: {e:?}"
            ),
        }
    }
    engine
        .self_check()
        .expect("engine consistent after mid-batch shutdown");
}

/// The stats frame reflects serving activity, and a client `shutdown`
/// frame stops the whole server (CI drives this same sequence).
#[test]
fn stats_frame_and_client_driven_shutdown() {
    let (store, queries) = dataset();
    let engine = build_engine(&store);
    let server = Server::spawn(Arc::clone(&engine), loopback()).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr, "stats-test").expect("connect");
    for q in &queries[..8] {
        client.query(q).expect("query");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests_served, 8);
    assert_eq!(stats.queries, 8);
    assert!(stats.cached_queries > 0, "warm cache visible over the wire");
    assert_eq!(stats.requests_rejected_overload, 0);
    // The canonicalization counters ride in `extra` (what
    // `igq client --stats` prints by name): every query paid some time,
    // and none of these molecules was declined.
    let extra = |name: &str| stats.extra.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
    assert!(extra("canonicalization_us").is_some());
    assert_eq!(extra("canonical_code_budget_misses"), Some(0));

    // Client-driven shutdown: wait() returns once the bye is acknowledged.
    let waiter = std::thread::spawn(move || server.wait());
    client.shutdown().expect("bye");
    waiter.join().expect("server wound down cleanly");
    engine
        .self_check()
        .expect("engine consistent after shutdown");
}

/// A socket cannot honour a zero timeout, and deadline tightening clamps
/// to a 1 ms floor: `spawn` refuses anything below it instead of serving
/// with no bound or panicking a handler.
#[test]
fn spawn_rejects_sub_millisecond_io_timeout() {
    let (store, _) = dataset();
    for io_timeout in [Duration::ZERO, Duration::from_micros(500)] {
        let config = ServerConfig {
            io_timeout,
            ..loopback()
        };
        let err = Server::spawn(build_engine(&store), config)
            .err()
            .expect("sub-millisecond io_timeout must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
}

/// A zero heartbeat timeout would silently fall back to `io_timeout` for
/// hang detection; the follower refuses it even with a live primary.
#[test]
fn follower_rejects_zero_heartbeat_timeout() {
    let (store, _) = dataset();
    let server = Server::spawn(build_engine(&store), loopback()).expect("bind");
    let build: BuildFollower = Arc::new(move |snapshot: &[u8]| {
        let method = Ggsx::build(&store, GgsxConfig::default());
        let config = IgqConfig::builder().cache_capacity(100).window(5).build();
        let engine = IgqEngine::open_follower(method, config.map_err(|e| e.to_string())?, snapshot)
            .map_err(|e| e.to_string())?;
        Ok(Arc::new(engine) as Arc<dyn QueryEngine>)
    });
    let policy = FailoverPolicy {
        heartbeat_timeout: Duration::ZERO,
        ..FailoverPolicy::default()
    };
    let result = Follower::connect_with_policy(
        &[server.local_addr().to_string()],
        "zero-heartbeat",
        build,
        Duration::from_secs(5),
        policy,
    );
    assert!(
        matches!(result, Err(FollowerError::Bootstrap(_))),
        "zero heartbeat_timeout must be refused"
    );
    server.shutdown();
}
