//! Failure injection: verification budgets and concurrent sharded stress.
//!
//! Every engine accepts a [`MatchConfig`] state budget so pathological iso
//! tests can be bounded. Exhausting the budget yields `Aborted` — an
//! *undecided* verdict, never a fabricated no. These tests pin down the
//! engine-level contract:
//!
//! 1. aborted verifications are counted on the outcome;
//! 2. a query with any aborted verification is never admitted to the query
//!    cache (a cached incomplete answer set would poison formulas (3)–(5));
//! 3. consequently, every *non-aborted* query in a budget-limited stream
//!    still returns exactly the oracle's answers — bounded verification
//!    degrades coverage, never correctness.
//!
//! The second half stresses the sharded engine: closed-loop clients
//! hammering a 4-shard engine stay oracle-exact and leave the cross-shard
//! invariants clean.

mod common;

use common::oracle_answers;
use igq::iso::MatchConfig;
use igq::prelude::*;
use std::sync::Arc;

/// A store with one "hard" graph: a blow-up that forces deep VF2 search
/// for same-labeled clique-ish patterns, plus easy graphs.
fn mixed_store() -> Arc<GraphStore> {
    // Circulant graph C12(1..4): moderately hard for 5-clique-ish patterns.
    let mut hard_edges = Vec::new();
    for i in 0..12u32 {
        for d in 1..=4u32 {
            let j = (i + d) % 12;
            hard_edges.push(if i < j { (i, j) } else { (j, i) });
        }
    }
    Arc::new(
        vec![
            graph_from(&[0; 12], &hard_edges),
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
        ]
        .into_iter()
        .collect(),
    )
}

/// A pattern whose verification against the circulant graph needs far more
/// than a handful of search states.
fn hard_query() -> Graph {
    // 6-clique of zeros: not present, but the search must prove it.
    let mut edges = Vec::new();
    for i in 0..6u32 {
        for j in (i + 1)..6u32 {
            edges.push((i, j));
        }
    }
    graph_from(&[0; 6], &edges)
}

#[test]
fn aborted_verifications_are_counted_and_not_cached() {
    let store = mixed_store();
    let method = Ggsx::build(
        &store,
        GgsxConfig {
            match_config: MatchConfig::with_budget(5),
            ..Default::default()
        },
    );
    let engine = IgqEngine::new(
        method,
        IgqConfig {
            cache_capacity: 8,
            window: 1,
            ..Default::default()
        },
    )
    .expect("valid engine");

    let out = engine.query(&hard_query());
    assert!(out.aborted_tests > 0, "tiny budget must abort: {out:?}");
    assert_eq!(
        engine.cached_queries(),
        0,
        "aborted query must not be cached"
    );
    assert_eq!(engine.stats().aborted_tests, out.aborted_tests);

    // An easy query on the same engine is unaffected and does get cached.
    let easy = graph_from(&[0, 1], &[(0, 1)]);
    let easy_out = engine.query(&easy);
    assert_eq!(easy_out.aborted_tests, 0);
    assert_eq!(easy_out.answers, oracle_answers(&store, &easy));
    assert_eq!(engine.cached_queries(), 1);
}

#[test]
fn unlimited_budget_never_aborts() {
    let store = mixed_store();
    let method = Ggsx::build(&store, GgsxConfig::default());
    let engine = IgqEngine::new(
        method,
        IgqConfig {
            cache_capacity: 8,
            window: 2,
            ..Default::default()
        },
    )
    .expect("valid engine");
    let out = engine.query(&hard_query());
    assert_eq!(out.aborted_tests, 0);
    assert_eq!(out.answers, oracle_answers(&store, &hard_query()));
}

#[test]
fn non_aborted_queries_stay_exact_in_budget_limited_streams() {
    // A realistic stream over an AIDS-like store with a modest budget: some
    // queries may abort, but every query that did NOT abort must be exact —
    // i.e., bounded verification cannot poison later answers via the cache.
    let store = Arc::new(DatasetKind::Aids.generate(60, 31));
    let queries =
        QueryGenerator::new(&store, Distribution::Zipf(1.4), Distribution::Zipf(1.4), 5).take(60);

    let method = Ggsx::build(
        &store,
        GgsxConfig {
            match_config: MatchConfig::with_budget(12),
            ..Default::default()
        },
    );
    let engine = IgqEngine::new(
        method,
        IgqConfig {
            cache_capacity: 16,
            window: 4,
            ..Default::default()
        },
    )
    .expect("valid engine");

    let mut aborted = 0u64;
    for q in &queries {
        let out = engine.query(q);
        if out.aborted_tests > 0 {
            aborted += 1;
            continue; // answers may legitimately be incomplete
        }
        assert_eq!(out.answers, oracle_answers(&store, q), "non-aborted {q:?}");
    }
    // The budget must actually have fired for this test to mean anything;
    // 12 states is below what size-20 queries need even on AIDS shapes.
    assert!(aborted > 0, "budget of 12 states should abort something");
    engine.self_check().expect("invariants hold under aborts");
}

#[test]
fn super_engine_aborts_are_not_cached_either() {
    use igq::methods::TrieSupergraphMethod;
    let store = mixed_store();
    let method =
        TrieSupergraphMethod::build(&store, PathConfig::default(), MatchConfig::with_budget(3));
    let engine = IgqSuperEngine::new(
        method,
        IgqConfig {
            cache_capacity: 8,
            window: 1,
            ..Default::default()
        },
    )
    .expect("valid engine");
    // A big query that contains the circulant graph: verifying the hard
    // member inside it blows the 3-state budget.
    let mut edges = Vec::new();
    for i in 0..14u32 {
        for d in 1..=4u32 {
            let j = (i + d) % 14;
            edges.push(if i < j { (i, j) } else { (j, i) });
        }
    }
    let big = graph_from(&[0; 14], &edges);
    let out = engine.query(&big);
    assert!(
        out.aborted_tests > 0,
        "super verification should abort: {out:?}"
    );
    assert_eq!(engine.cached_queries(), 0);
}

fn sharded_engine(store: &Arc<GraphStore>) -> IgqEngine<Ggsx> {
    let method = Ggsx::build(store, GgsxConfig::default());
    IgqEngine::new(
        method,
        IgqConfig::builder()
            .cache_capacity(32)
            .window(4)
            .shards(4)
            .build()
            .expect("valid sharded config"),
    )
    .expect("valid engine")
}

#[test]
fn eight_closed_loop_clients_on_four_shards_stay_exact() {
    // Eight threads query concurrently while window flips land underneath
    // them. Every single answer must match the
    // sequential oracle — the per-shard locks may reorder work but can
    // never expose a torn index — and after the threads drain, the full
    // cross-shard consistency sweep (allocator geometry, slot ownership,
    // per-shard index ≡ shadow rebuild) must come back clean.
    let store = Arc::new(DatasetKind::Aids.generate(80, 77));
    let engine = sharded_engine(&store);

    std::thread::scope(|s| {
        for t in 0..8u64 {
            let engine = &engine;
            let store = &store;
            s.spawn(move || {
                let queries = QueryGenerator::new(
                    store,
                    Distribution::Zipf(1.3),
                    Distribution::Zipf(1.3),
                    1000 + t,
                )
                .take(40);
                for q in &queries {
                    let out = engine.query(q);
                    assert_eq!(out.answers, oracle_answers(store, q), "thread {t}: {q:?}");
                }
            });
        }
    });

    engine.self_check().expect("post-stress invariants");
    let stats = engine.stats();
    assert!(stats.maintenances > 0, "flips must have happened");
    assert!(stats.exact_hits > 0, "zipf repeats must have hit the cache");
}
