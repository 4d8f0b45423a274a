//! Concurrency tests for the shared engine API.
//!
//! The engines are `Send + Sync` services queried through `&self`; these
//! tests drive one shared engine from many threads at once and hold it to
//! the same oracle the sequential suites use:
//!
//! * **N-thread equivalence** — ≥ 4 threads share one `Arc`'d engine and
//!   split a Zipf workload; *every* answer (the union across threads) must
//!   equal the naive oracle's. Concurrency may change the accounting (who flips a window, who gets a cache hit)
//!   but never an answer.
//! * **Consistent stats** — a snapshot taken while queries run counts
//!   the same finished queries in every per-query counter.
//! * **Batch equivalence** — [`QueryEngine::query_batch`] returns
//!   index-aligned outcomes identical in answers to a sequential loop,
//!   and its workers verify serially.
//! * **`Send + Sync` static assertions** for both engine directions — a
//!   compile-time regression guard on the concurrency contract.

mod common;

use common::oracle_answers;
use igq::features::PathConfig;
use igq::iso::MatchConfig;
use igq::methods::TrieSupergraphMethod;
use igq::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Compile-time guard: both engine directions cross threads.
#[test]
fn engines_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IgqEngine<Ggsx>>();
    assert_send_sync::<IgqEngine<NaiveMethod>>();
    assert_send_sync::<IgqSuperEngine>();
}

fn setup(seed: u64) -> (Arc<GraphStore>, Vec<Graph>) {
    let store = Arc::new(DatasetKind::Aids.generate(180, seed));
    let queries = QueryGenerator::new(
        &store,
        Distribution::Zipf(1.6),
        Distribution::Zipf(1.4),
        seed ^ 0x51,
    )
    .take(96);
    (store, queries)
}

fn shared_engine(store: &Arc<GraphStore>, capacity: usize, window: usize) -> Arc<IgqEngine<Ggsx>> {
    let method = Ggsx::build(store, GgsxConfig::default());
    let config = IgqConfig::builder()
        .cache_capacity(capacity)
        .window(window)
        .build()
        .expect("valid config");
    Arc::new(IgqEngine::new(method, config).expect("valid engine"))
}

/// The core satellite requirement: N threads (≥ 4) hammer one shared
/// engine; the union of their answers is identical to the sequential
/// oracle, per query.
#[test]
fn four_threads_shared_handle_match_oracle_in_all_modes() {
    let (store, queries) = setup(41);
    // Tiny cache + window maximize churn (evictions, window flips) while
    // the threads interleave.
    let engine = shared_engine(&store, 12, 3);
    let n_threads = 4;
    let tests: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n_threads)
            .map(|t| {
                let h = Arc::clone(&engine);
                let store = &store;
                let queries = &queries;
                scope.spawn(move || {
                    // Interleaved partition: thread t takes queries
                    // t, t+N, t+2N, ... so hot repeats collide across
                    // threads rather than staying thread-local.
                    let mut tests = 0;
                    for q in queries.iter().skip(t).step_by(n_threads) {
                        let out = h.query(q);
                        assert_eq!(
                            out.answers,
                            oracle_answers(store, q),
                            "concurrent answer diverged for {q:?}"
                        );
                        tests += out.db_iso_tests;
                    }
                    tests
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker")).sum()
    });
    let stats = engine.stats();
    assert_eq!(stats.queries, queries.len() as u64);
    assert_eq!(stats.db_iso_tests, tests, "ledger vs the outcomes returned");
    engine
        .self_check()
        .unwrap_or_else(|e| panic!("invariants violated after concurrent run: {e}"));
}

/// Four threads query one engine while a fifth snapshots `stats()` in a
/// loop: every snapshot is a cut over finished queries, so no per-query
/// counter runs ahead of `queries` and pruning never exceeds the
/// candidates it started from.
#[test]
fn stats_snapshots_are_consistent_cuts_under_concurrent_queries() {
    let (store, queries) = setup(23);
    let engine = shared_engine(&store, 12, 3);
    let running = AtomicUsize::new(4);
    let snapshots = std::thread::scope(|scope| {
        for t in 0..4 {
            let (engine, queries, running) = (&engine, &queries, &running);
            scope.spawn(move || {
                for q in queries
                    .iter()
                    .cycle()
                    .skip(t)
                    .step_by(4)
                    .take(2 * queries.len() / 4)
                {
                    let _ = engine.query(q);
                }
                running.fetch_sub(1, Ordering::Release);
            });
        }
        let mut snapshots = 0u64;
        while running.load(Ordering::Acquire) > 0 {
            let s = engine.stats();
            assert!(s.feature_extractions <= s.queries, "{s:?}");
            assert!(s.canonical_code_budget_misses <= s.queries, "{s:?}");
            assert!(s.exact_hits + s.empty_shortcuts <= s.queries, "{s:?}");
            assert!(s.candidates_after <= s.candidates_before, "{s:?}");
            snapshots += 1;
        }
        snapshots
    });
    assert!(snapshots > 0);
    assert_eq!(engine.stats().queries, 2 * queries.len() as u64);
}

/// Concurrent supergraph queries through the unified pipeline.
#[test]
fn supergraph_shared_handle_matches_sequential_oracle() {
    let (store, _) = setup(77);
    let queries: Vec<Graph> = store.iter().take(48).map(|(_, g)| g.clone()).collect();
    let truth: Vec<Vec<GraphId>> = {
        let method =
            TrieSupergraphMethod::build(&store, PathConfig::default(), MatchConfig::default());
        queries.iter().map(|q| method.query_super(q).0).collect()
    };
    let method = TrieSupergraphMethod::build(&store, PathConfig::default(), MatchConfig::default());
    let config = IgqConfig::builder()
        .cache_capacity(10)
        .window(2)
        .build()
        .expect("valid config");
    let engine = Arc::new(IgqSuperEngine::new(method, config).expect("valid engine"));
    std::thread::scope(|scope| {
        for t in 0..4 {
            let h = Arc::clone(&engine);
            let queries = &queries;
            let truth = &truth;
            scope.spawn(move || {
                for (i, q) in queries.iter().enumerate().skip(t).step_by(4) {
                    assert_eq!(
                        h.query(q).answers,
                        truth[i],
                        "supergraph answer diverged for query {i}"
                    );
                }
            });
        }
    });
    engine
        .self_check()
        .expect("supergraph invariants after concurrent run");
}

/// `query_batch` fan-out: index-aligned, answer-identical to a sequential
/// engine fed the same stream.
#[test]
fn query_batch_equals_sequential_loop() {
    let (store, queries) = setup(91);
    let mk = |threads: usize| {
        let method = Ggsx::build(&store, GgsxConfig::default());
        let config = IgqConfig::builder()
            .cache_capacity(16)
            .window(4)
            .batch_threads(threads)
            .build()
            .expect("valid config");
        IgqEngine::new(method, config).expect("valid engine")
    };
    let sequential = mk(1);
    let concurrent = mk(4);
    let seq_outs = sequential.query_batch(&queries);
    let con_outs = concurrent.query_batch(&queries);
    assert_eq!(seq_outs.len(), queries.len());
    assert_eq!(con_outs.len(), queries.len());
    for (i, (a, b)) in seq_outs.iter().zip(con_outs.iter()).enumerate() {
        assert_eq!(a.answers, b.answers, "batch answers diverge at index {i}");
        assert_eq!(
            a.answers,
            oracle_answers(&store, &queries[i]),
            "batch answers diverge from oracle at index {i}"
        );
    }
    assert_eq!(concurrent.stats().queries, queries.len() as u64);
}

/// Queries of a `query_batch` verify serially. A lone query with an idle
/// core beside it fans its large candidate batches out; with
/// `batch_threads` = cores every core already runs a query, and the
/// batch's workers never fan out again. Answers are the sequential ones
/// either way.
#[test]
fn query_batch_workers_never_fan_out_verification() {
    let store = Arc::new(DatasetKind::Aids.generate(400, 5));
    // Every distinct one-edge query: the common label pairs occur in most
    // graphs, so their batches are far above the fan-out threshold.
    let mut pairs: Vec<(u32, u32)> = store
        .iter()
        .flat_map(|(_, g)| {
            g.edges()
                .iter()
                .map(|&(u, v)| {
                    let (a, b) = (g.label(u).raw(), g.label(v).raw());
                    (a.min(b), a.max(b))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let queries: Vec<Graph> = pairs
        .iter()
        .map(|&(a, b)| graph_from(&[a, b], &[(0, 1)]))
        .collect();
    let cores = igq::methods::available_cores();
    let mk = |threads: usize| {
        let method = Ggsx::build(&store, GgsxConfig::default());
        let config = IgqConfig::builder()
            .cache_capacity(queries.len())
            .window(queries.len())
            .batch_threads(threads)
            .build()
            .expect("valid config");
        IgqEngine::new(method, config).expect("valid engine")
    };
    let sequential = mk(1);
    let seq_outs: Vec<QueryOutcome> = queries.iter().map(|q| sequential.query(q)).collect();
    let largest = seq_outs.iter().map(|o| o.candidates_after).max();
    assert!(largest >= Some(igq::methods::FANOUT_MIN_CANDIDATES));
    assert_eq!(sequential.stats().verify_fanouts > 0, cores > 1);

    let batched = mk(cores);
    let outs = batched.query_batch(&queries);
    for (i, (a, b)) in seq_outs.iter().zip(outs.iter()).enumerate() {
        assert_eq!(a.answers, b.answers, "batch answers diverge at index {i}");
        assert_eq!(a.answers, oracle_answers(&store, &queries[i]));
    }
    assert_eq!(batched.stats().verify_fanouts, 0, "nested queries fan out");
}

/// Typed requests from multiple threads: skip-admission queries stay out
/// of the shared cache even under concurrency.
#[test]
fn concurrent_skip_admission_requests_leave_no_trace() {
    let (store, queries) = setup(13);
    let engine = shared_engine(&store, 16, 2);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let h = Arc::clone(&engine);
            let queries = &queries;
            let store = &store;
            scope.spawn(move || {
                for q in queries.iter().skip(t).step_by(4).take(8) {
                    let resp = h.execute(&QueryRequest::new(q.clone()).skip_admission());
                    assert_eq!(resp.outcome.answers, oracle_answers(store, q));
                }
            });
        }
    });
    engine.flush_window();
    assert_eq!(
        engine.cached_queries(),
        0,
        "skip-admission queries must never be cached"
    );
}
