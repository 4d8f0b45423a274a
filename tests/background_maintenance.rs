//! Observational equivalence and shutdown safety of
//! [`MaintenanceMode::Background`].
//!
//! The background maintainer lets index snapshots trail the cache by a
//! bounded number of windows, so these tests pin down exactly what that
//! staleness may and may not change:
//!
//! * **answers may never change** — both maintenance modes must
//!   return the oracle's exact answer set on every query of a churn-heavy
//!   interleaved stream (staleness only weakens pruning);
//! * **in lockstep (synced after every query) nothing may change** — with
//!   the maintainer caught up before each query, Background must match
//!   Incremental hit-for-hit and resolution-for-resolution;
//! * **shutdown loses nothing** — an engine dropped with deltas still in
//!   flight must drain and join, and a synced engine's published snapshot
//!   must diff clean against a from-scratch rebuild (`self_check`).

mod common;

use common::{arb_graph, arb_store, oracle_answers};
use igq::core::MaintenanceMode;
use igq::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn engine_with(
    store: &Arc<GraphStore>,
    mode: MaintenanceMode,
    capacity: usize,
    window: usize,
    max_lag: usize,
) -> IgqEngine<Ggsx> {
    let method = Ggsx::build(store, GgsxConfig::default());
    IgqEngine::new(
        method,
        IgqConfig {
            cache_capacity: capacity,
            window,
            maintenance: mode,
            max_lag_windows: max_lag,
            ..Default::default()
        },
    )
    .expect("valid engine")
}

fn churny_workload(store: &Arc<GraphStore>, n: usize, seed: u64) -> Vec<Graph> {
    // Zipf-skewed sizes with repeats: plenty of exact hits, sub/supergraph
    // relationships, and window flips.
    let mut qs = QueryGenerator::new(
        store,
        Distribution::Zipf(1.3),
        Distribution::Zipf(1.3),
        seed,
    )
    .take(n);
    // Re-issue every third query later in the stream to exercise repeats
    // racing the maintainer.
    let repeats: Vec<Graph> = qs.iter().step_by(3).cloned().collect();
    qs.extend(repeats);
    qs
}

/// The acceptance-criteria stress test: queries interleave with window
/// flips at heavy churn (capacity 6, window 1 — every flip evicts), and
/// both modes stay answer-identical to each other and the oracle even
/// while Background's snapshots run up to 3 windows stale.
#[test]
fn both_modes_answer_identically_under_interleaved_churn() {
    let store = Arc::new(DatasetKind::Aids.generate(90, 17));
    let queries = churny_workload(&store, 80, 29);
    let inc = engine_with(&store, MaintenanceMode::Incremental, 6, 1, 1);
    let bg = engine_with(&store, MaintenanceMode::Background, 6, 1, 3);
    for q in &queries {
        let a = inc.query(q);
        let c = bg.query(q);
        let truth = oracle_answers(&store, q);
        assert_eq!(a.answers, truth, "incremental vs oracle for {q:?}");
        assert_eq!(c.answers, truth, "background vs oracle for {q:?}");
    }
    let st = bg.stats();
    assert!(st.maintenances > 20, "churn produced many windows");
    assert!(
        st.maintenance_lag_windows <= 3,
        "staleness bound violated: peak lag {}",
        st.maintenance_lag_windows
    );
    bg.self_check()
        .expect("published snapshot equals a fresh rebuild after sync");
}

/// With the maintainer synced before every query, Background is fully
/// observationally equivalent to Incremental: same resolutions, same index
/// hits, same pruning, same cache occupancy — not just the same answers.
#[test]
fn background_in_lockstep_is_observationally_identical_to_incremental() {
    let store = Arc::new(DatasetKind::Aids.generate(70, 41));
    let queries = churny_workload(&store, 60, 43);
    let inc = engine_with(&store, MaintenanceMode::Incremental, 5, 2, 1);
    let bg = engine_with(&store, MaintenanceMode::Background, 5, 2, 1);
    for q in &queries {
        bg.sync_maintenance();
        let a = inc.query(q);
        let b = bg.query(q);
        assert_eq!(a.answers, b.answers, "answers diverge for {q:?}");
        assert_eq!(a.resolution, b.resolution, "resolution diverges for {q:?}");
        assert_eq!(a.isub_hits, b.isub_hits, "isub hits diverge for {q:?}");
        assert_eq!(
            a.isuper_hits, b.isuper_hits,
            "isuper hits diverge for {q:?}"
        );
        assert_eq!(
            a.pruned_by_isub, b.pruned_by_isub,
            "isub pruning diverges for {q:?}"
        );
        assert_eq!(
            a.pruned_by_isuper, b.pruned_by_isuper,
            "isuper pruning diverges for {q:?}"
        );
    }
    assert_eq!(inc.cached_queries(), bg.cached_queries());
    let (si, sb) = (inc.stats(), bg.stats());
    assert_eq!(si.exact_hits, sb.exact_hits);
    assert_eq!(si.empty_shortcuts, sb.empty_shortcuts);
    assert_eq!(si.maintenances, sb.maintenances);
    assert!(
        sb.maintenance_time.as_nanos() > 0,
        "off-thread time reported"
    );
}

/// Dropping an engine with deltas still queued must drain them (the drop
/// joins the maintenance thread after it has consumed the channel), and a
/// drop immediately after heavy traffic must not panic, deadlock, or leak
/// the thread.
#[test]
fn drop_with_in_flight_deltas_is_clean() {
    let store = Arc::new(DatasetKind::Aids.generate(50, 7));
    let queries = churny_workload(&store, 40, 9);
    for max_lag in [1usize, 4] {
        let bg = engine_with(&store, MaintenanceMode::Background, 4, 1, max_lag);
        for q in &queries {
            let _ = bg.query(q);
        }
        // No sync: deltas may be in flight right now.
        drop(bg);
    }
}

/// `flush_window` + `self_check` round-trip: everything the engine ever
/// enqueued is indexed once the maintainer catches up, i.e. shutdown-style
/// draining also holds mid-lifetime.
#[test]
fn flush_then_check_sees_every_delta() {
    let store = Arc::new(DatasetKind::Aids.generate(60, 3));
    let queries = churny_workload(&store, 30, 5);
    let bg = engine_with(&store, MaintenanceMode::Background, 8, 4, 2);
    for q in &queries {
        let _ = bg.query(q);
    }
    bg.flush_window();
    bg.self_check().expect("synced snapshot == fresh rebuild");
    let st = bg.stats();
    assert!(st.snapshot_publishes >= 1);
    assert!(
        st.snapshot_publishes <= st.maintenances,
        "coalescing publishes at most once per submitted window"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 1 under background maintenance: exact answers for any
    /// dataset, any query stream, any tiny cache/window/lag configuration.
    #[test]
    fn background_engine_is_exact(
        store in arb_store(6, 6, 3),
        queries in proptest::collection::vec(arb_graph(5, 3), 1..14),
        capacity in 1usize..5,
        window in 1usize..4,
        max_lag in 1usize..4,
    ) {
        let method = Ggsx::build(&store, GgsxConfig::default());
        let engine = IgqEngine::new(
            method,
            IgqConfig {
                cache_capacity: capacity,
                // W <= C is validated at construction now, not clamped.
                window: window.min(capacity),
                maintenance: MaintenanceMode::Background,
                max_lag_windows: max_lag,
                ..Default::default()
            },
        ).expect("valid engine");
        for q in &queries {
            let out = engine.query(q);
            prop_assert_eq!(out.answers, oracle_answers(&store, q), "query {:?}", q);
        }
        engine.self_check().expect("snapshot equals rebuild after sync");
    }
}
