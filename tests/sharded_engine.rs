//! Sharded-engine equivalence suite: an engine configured with
//! `IgqConfig::shards(n)` for any `n` must be observationally identical
//! to the unsharded (`shards = 1`) engine — same per-query answers and
//! resolutions, same cache hit/extend outcomes, same pruning counters,
//! same resident set — in both query directions. Sharding splits the lock layout, never the semantics: the
//! global slot allocator replays the exact admission/eviction decisions
//! of the single cache, and the scatter/gather probe path merges disjoint
//! per-shard slot sets back into the global candidate view.

mod common;

use common::{arb_graph, arb_store};
use igq::core::IgqSuperEngine;
use igq::features::PathConfig;
use igq::iso::MatchConfig;
use igq::methods::TrieSupergraphMethod;
use igq::prelude::*;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::Arc;

/// Shard counts proven equivalent to the unsharded engine.
const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

fn config(capacity: usize, window: usize, shards: usize) -> IgqConfig {
    IgqConfig::builder()
        .cache_capacity(capacity)
        .window(window)
        .shards(shards)
        .build()
        .expect("valid sharded config")
}

fn sub_engine(
    store: &Arc<GraphStore>,
    capacity: usize,
    window: usize,
    shards: usize,
) -> IgqEngine<Ggsx> {
    let method = Ggsx::build(store, GgsxConfig::default());
    IgqEngine::new(method, config(capacity, window, shards)).expect("engine")
}

fn super_engine(
    store: &Arc<GraphStore>,
    capacity: usize,
    window: usize,
    shards: usize,
) -> IgqSuperEngine {
    let method = TrieSupergraphMethod::build(store, PathConfig::default(), MatchConfig::default());
    IgqSuperEngine::new(method, config(capacity, window, shards)).expect("engine")
}

/// Everything a caller can observe about one query: the verdict (answers
/// and resolution) and the cache-interaction outcomes (index hits,
/// pruning, verification work). Byte-equal across shard counts or the
/// sharding is not transparent.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    answers: Vec<GraphId>,
    resolution: igq::core::Resolution,
    isub_hits: usize,
    isuper_hits: usize,
    candidates_before: usize,
    candidates_after: usize,
    pruned_by_isub: usize,
    pruned_by_isuper: usize,
    db_iso_tests: u64,
    aborted_tests: u64,
}

fn observe(o: &QueryOutcome) -> Observed {
    Observed {
        answers: o.answers.clone(),
        resolution: o.resolution,
        isub_hits: o.isub_hits,
        isuper_hits: o.isuper_hits,
        candidates_before: o.candidates_before,
        candidates_after: o.candidates_after,
        pruned_by_isub: o.pruned_by_isub,
        pruned_by_isuper: o.pruned_by_isuper,
        db_iso_tests: o.db_iso_tests,
        aborted_tests: o.aborted_tests,
    }
}

/// Drives the reference (1-shard) engine and a sharded twin through the
/// same stream, asserting identical observables per query, identical
/// resident sets after, and clean invariants (post-drain `self_check`) on
/// both.
fn assert_shard_equivalence<E: QueryEngine>(
    reference: &E,
    sharded: &E,
    stream: &[Graph],
    shards: usize,
) -> Result<(), TestCaseError> {
    for q in stream {
        let a = observe(&reference.query(q));
        let b = observe(&sharded.query(q));
        prop_assert_eq!(a, b, "shards={} diverged from shards=1 on {:?}", shards, q);
    }
    prop_assert_eq!(
        reference.cached_queries(),
        sharded.cached_queries(),
        "resident sets diverged at shards={}",
        shards
    );
    // `self_check` verifies cache invariants, per-shard index ≡ shadow
    // rebuild, and (sharded) allocator/ownership geometry.
    reference.self_check().expect("reference invariants");
    sharded.self_check().expect("sharded invariants");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Subgraph direction: shards ∈ {2, 4, 8} ≡ shards = 1, arbitrary
    /// stores and query streams.
    #[test]
    fn sharded_subgraph_engine_matches_unsharded(
        store in arb_store(6, 6, 3),
        queries in proptest::collection::vec(arb_graph(5, 3), 6..16),
        capacity in 2usize..8,
        window in 1usize..3,
    ) {
        let window = window.min(capacity);
        for shards in SHARD_COUNTS {
            let reference = sub_engine(&store, capacity, window, 1);
            let sharded = sub_engine(&store, capacity, window, shards);
            assert_shard_equivalence(&reference, &sharded, &queries, shards)?;
        }
    }

    /// Supergraph direction: the Section 4.4 inversion rides the same
    /// sharded state, so it gets the same guarantee.
    #[test]
    fn sharded_supergraph_engine_matches_unsharded(
        store in arb_store(5, 5, 3),
        queries in proptest::collection::vec(arb_graph(7, 3), 6..14),
        capacity in 2usize..6,
        window in 1usize..3,
    ) {
        let window = window.min(capacity);
        for shards in SHARD_COUNTS {
            let reference = super_engine(&store, capacity, window, 1);
            let sharded = super_engine(&store, capacity, window, shards);
            assert_shard_equivalence(&reference, &sharded, &queries, shards)?;
        }
    }
}

/// Deterministic (non-prop) smoke over a realistic zipf stream: repeats
/// must resolve as exact hits identically at every shard count, and the
/// stats counters the paper reports (iso tests, prunes, hits) must agree
/// in aggregate too.
#[test]
fn zipf_stream_observables_agree_across_shard_counts() {
    let store: Arc<GraphStore> = Arc::new(DatasetKind::Aids.generate(70, 7));
    let queries = QueryGenerator::new(
        &store,
        Distribution::Zipf(1.4),
        Distribution::Zipf(1.4),
        0xABCD,
    )
    .take(120);
    let reference = sub_engine(&store, 24, 6, 1);
    let outcomes: Vec<Observed> = queries
        .iter()
        .map(|q| observe(&reference.query(q)))
        .collect();
    for shards in SHARD_COUNTS {
        let sharded = sub_engine(&store, 24, 6, shards);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                observe(&sharded.query(q)),
                outcomes[i],
                "query {i} diverged at shards={shards}"
            );
        }
        let a = reference.stats();
        let b = sharded.stats();
        assert_eq!(a.exact_hits, b.exact_hits, "shards={shards}");
        assert_eq!(a.db_iso_tests, b.db_iso_tests, "shards={shards}");
        assert_eq!(a.candidates_after, b.candidates_after, "shards={shards}");
        assert_eq!(a.maintenances, b.maintenances, "shards={shards}");
        sharded.self_check().expect("sharded invariants");
    }
    reference.self_check().expect("reference invariants");
}

/// Capacity overflow inside a single window forces the global allocator
/// down its overflow path (window larger than the remaining free slots);
/// the sharded allocator must make the same overflow choices.
#[test]
fn overflowing_windows_keep_shard_equivalence() {
    let store: Arc<GraphStore> = Arc::new(DatasetKind::Aids.generate(50, 21));
    let queries = QueryGenerator::new(
        &store,
        Distribution::Zipf(1.2),
        Distribution::Uniform,
        0xBEEF,
    )
    .take(80);
    // window == capacity: every flip replaces the whole cache.
    let reference = sub_engine(&store, 4, 4, 1);
    let sharded = sub_engine(&store, 4, 4, 4);
    for q in &queries {
        assert_eq!(
            observe(&reference.query(q)),
            observe(&sharded.query(q)),
            "{q:?}"
        );
    }
    assert_eq!(reference.cached_queries(), sharded.cached_queries());
    reference.self_check().expect("reference invariants");
    sharded.self_check().expect("sharded invariants");
}
