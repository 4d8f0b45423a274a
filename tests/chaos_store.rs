//! Storage-fault chaos: the engine under an injected-fault
//! [`igq::core::CacheStore`] keeps serving *exact* answers, degrades
//! durability typed and observably (never by aborting), quarantines the
//! affected WAL flips, and recovers fully — replayed log, repaired torn
//! tail, recoverable checkpoint — once the store heals.
//!
//! The failure model under test (ARCHITECTURE "Failure model"):
//! store write failures defer durability, never correctness; a healed
//! store drains the quarantine in flip order; a torn append prefix is
//! repaired before any quarantined group lands; and a recovered engine
//! is observationally equal to the pre-fault one.

mod common;

use common::fault::{FaultOp, FaultStats, FaultyStore};
use common::oracle_answers;
use igq::core::{CacheStore, EngineStats, MemStore, PersistenceConfig, WAL_QUEUE_LIMIT};
use igq::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn manual_config() -> IgqConfig {
    IgqConfig {
        cache_capacity: 32,
        window: 1, // every query flips → every query exercises the WAL
        persistence: PersistenceConfig::manual(),
        ..Default::default()
    }
}

fn open_engine(store: &Arc<GraphStore>, cache: Arc<dyn CacheStore>) -> IgqEngine<Ggsx> {
    IgqEngine::open(
        Ggsx::build(store, GgsxConfig::default()),
        manual_config(),
        cache,
    )
    .expect("open engine over faulty store")
}

fn workload(n_store: usize, n_queries: usize, seed: u64) -> (Arc<GraphStore>, Vec<Graph>) {
    let store = Arc::new(DatasetKind::Aids.generate(n_store, seed));
    let queries = QueryGenerator::new(
        &store,
        Distribution::Zipf(1.3),
        Distribution::Zipf(1.3),
        seed,
    )
    .take(n_queries);
    (store, queries)
}

/// Flips the engine a few more times until degraded mode clears (each
/// flip gives the quarantine one backoff-gated retry), asserting it does
/// so within `deadline`.
fn drive_until_healthy(engine: &IgqEngine<Ggsx>, deadline: Duration) -> EngineStats {
    let start = Instant::now();
    let mut probe = 1000u32;
    loop {
        let stats = engine.stats();
        if !stats.degraded {
            assert_eq!(stats.wal_quarantined_groups, 0, "cleared means drained");
            return stats;
        }
        assert!(
            start.elapsed() < deadline,
            "degraded mode failed to clear: {:?}",
            stats.degraded_reason
        );
        std::thread::sleep(Duration::from_millis(60));
        // A fresh singleton query forces a flip, which retries the
        // quarantine once its backoff window has passed.
        let _ = engine.query(&graph_from(&[probe], &[]));
        probe += 1;
    }
}

#[test]
fn injected_append_failures_degrade_without_losing_answers_or_flips() {
    let (store, queries) = workload(40, 24, 11);
    let mem: Arc<dyn CacheStore> = Arc::new(MemStore::new());
    let faulty = FaultyStore::new(mem);
    let engine = open_engine(&store, Arc::clone(&faulty) as Arc<dyn CacheStore>);

    // Healthy warm-up, with a slow-fsync tax to prove appends still land.
    faulty.slow_fsync(Some(Duration::from_millis(1)));
    for q in &queries[..6] {
        assert_eq!(engine.query(q).answers, oracle_answers(&store, q));
    }
    assert!(
        !engine.stats().degraded,
        "slow fsync is latency, not failure"
    );

    // Script a burst of append failures: serving must continue exactly,
    // durability degrades typed.
    faulty.slow_fsync(None);
    faulty.fail_next(FaultOp::Append, 3);
    for q in &queries[6..18] {
        assert_eq!(engine.query(q).answers, oracle_answers(&store, q), "{q:?}");
    }
    let during = engine.stats();
    assert!(during.degraded, "append failures must surface as degraded");
    assert!(
        during.degraded_reason.contains("WAL"),
        "typed reason, got {:?}",
        during.degraded_reason
    );
    assert!(
        during.wal_quarantined_groups > 0,
        "flips quarantined, not dropped"
    );
    assert!(during.wal_retry_failures > 0);
    assert!(faulty.injected().io_errors >= 1);
    assert!(faulty.injected().slow_fsyncs >= 6);

    // Heal: the quarantine drains in flip order and degraded mode clears.
    faulty.heal();
    drive_until_healthy(&engine, Duration::from_secs(10));

    // Nothing was lost: a checkpoint succeeds and a cold recovery over
    // the same store is a valid, oracle-exact engine.
    engine.checkpoint().expect("checkpoint after recovery");
    let cached = engine.cached_queries();
    let recovered = open_engine(&store, Arc::clone(&faulty) as Arc<dyn CacheStore>);
    assert_eq!(
        recovered.cached_queries(),
        cached,
        "recovery sees every flip"
    );
    recovered.self_check().expect("recovered invariants");
    for q in &queries[..6] {
        assert_eq!(recovered.query(q).answers, oracle_answers(&store, q));
    }
}

#[test]
fn torn_append_prefix_is_repaired_before_quarantine_replay() {
    let (store, queries) = workload(30, 16, 23);
    let mem: Arc<dyn CacheStore> = Arc::new(MemStore::new());
    let faulty = FaultyStore::new(mem);
    let engine = open_engine(&store, Arc::clone(&faulty) as Arc<dyn CacheStore>);

    for q in &queries[..5] {
        let _ = engine.query(q);
    }

    // One append fails AND tears: 60% of the record lands on the store —
    // exactly the partial tail a crash mid-write leaves behind.
    faulty.tear_writes(60);
    faulty.fail_next(FaultOp::Append, 1);
    for q in &queries[5..10] {
        assert_eq!(engine.query(q).answers, oracle_answers(&store, q), "{q:?}");
    }
    assert!(engine.stats().degraded);
    assert_eq!(faulty.injected().torn_writes, 1, "the tear really happened");

    // Heal. The retry path must repair the torn tail (compact to the last
    // intact record) *before* replaying the quarantine, or the log would
    // hold a mid-log hole recovery rejects.
    faulty.heal();
    drive_until_healthy(&engine, Duration::from_secs(10));

    // The log is directly recoverable — no checkpoint needed to paper
    // over it — and the recovered engine is exact.
    let recovered = open_engine(&store, Arc::clone(&faulty) as Arc<dyn CacheStore>);
    recovered.self_check().expect("recovered invariants");
    for q in &queries[..10] {
        assert_eq!(recovered.query(q).answers, oracle_answers(&store, q));
    }

    // Short reads on top: recovery under a truncated WAL read still opens
    // (the torn tail is dropped, never misread as corruption mid-log).
    faulty.shorten_reads(5);
    let short = open_engine(&store, Arc::clone(&faulty) as Arc<dyn CacheStore>);
    short.self_check().expect("short-read recovery invariants");
    assert!(faulty.injected().short_reads > 0);
    for q in &queries[..5] {
        assert_eq!(short.query(q).answers, oracle_answers(&store, q));
    }
}

#[test]
fn seeded_fault_storm_stays_oracle_exact_and_recovers_when_it_passes() {
    let (store, queries) = workload(50, 40, 37);
    let mem: Arc<dyn CacheStore> = Arc::new(MemStore::new());
    let faulty = FaultyStore::new(mem);
    let engine = open_engine(&store, Arc::clone(&faulty) as Arc<dyn CacheStore>);

    // A deterministic storm: ~25% of store operations fail, with torn
    // writes armed. Same seed → same schedule → reproducible CI.
    faulty.tear_writes(50);
    faulty.seed_faults(0xC4A05, 0.25);
    for q in &queries {
        assert_eq!(engine.query(q).answers, oracle_answers(&store, q), "{q:?}");
    }
    assert!(
        faulty.injected().io_errors > 0,
        "a 25% storm over 40 flips must fire"
    );

    // Storm passes; the engine self-heals and a checkpoint + cold open
    // round-trips the full state.
    faulty.heal();
    let healthy = drive_until_healthy(&engine, Duration::from_secs(15));
    assert!(healthy.wal_retry_failures > 0, "retries were exercised");
    engine.checkpoint().expect("checkpoint after storm");
    let cached = engine.cached_queries();

    let recovered = open_engine(&store, Arc::clone(&faulty) as Arc<dyn CacheStore>);
    assert_eq!(recovered.cached_queries(), cached);
    recovered.self_check().expect("post-storm invariants");
    for q in queries.iter().take(8) {
        assert_eq!(recovered.query(q).answers, oracle_answers(&store, q));
    }
}

/// While the log is degraded, an auto-checkpoint is one more retry under
/// the log's backoff clock: a store that fails every write sees a couple
/// of attempts per backoff floor, not a full checkpoint per flip, and a
/// failed checkpoint retry counts and says so.
#[test]
fn degraded_auto_checkpoints_wait_for_the_retry_backoff() {
    let store = Arc::new(DatasetKind::Aids.generate(40, 41));
    let faulty = FaultyStore::new(Arc::new(MemStore::new()));
    let config = IgqConfig {
        cache_capacity: 64,
        window: 1,
        persistence: PersistenceConfig::every(50),
        ..Default::default()
    };
    let engine = IgqEngine::open(
        Ggsx::build(&store, GgsxConfig::default()),
        config,
        Arc::clone(&faulty) as Arc<dyn CacheStore>,
    )
    .expect("open engine over faulty store");
    faulty.fail_next(FaultOp::Append, u64::MAX);
    faulty.fail_next(FaultOp::SaveCheckpoint, u64::MAX);

    // 54 distinct single-vertex queries: each one is admitted and flips.
    let start = Instant::now();
    for label in 0..54u32 {
        let q = graph_from(&[label], &[]);
        assert_eq!(engine.query(&q).answers, oracle_answers(&store, &q));
    }
    let elapsed = start.elapsed();
    let io_errors = faulty.injected().io_errors;
    let floors = elapsed.as_millis().div_ceil(50) as u64;
    assert!(
        io_errors <= 2 + 2 * floors,
        "{io_errors} store writes failed in {elapsed:?}: degraded checkpoints ignored the backoff"
    );
    let before = engine.stats();
    assert!(before.degraded);

    // Once the backoff passes, the retry that comes due is a checkpoint.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut probe = 1000u32;
    while engine.stats().wal_retry_failures == before.wal_retry_failures {
        assert!(Instant::now() < deadline, "no checkpoint retry came due");
        std::thread::sleep(Duration::from_millis(60));
        let _ = engine.query(&graph_from(&[probe], &[]));
        probe += 1;
    }
    let after = engine.stats();
    assert!(
        after.degraded_reason.contains("checkpoint"),
        "a failed checkpoint retry names itself, got {:?}",
        after.degraded_reason
    );
    assert!(faulty.injected().io_errors > io_errors);

    // The store heals: the next due checkpoint re-covers every flip.
    faulty.heal();
    drive_until_healthy(&engine, Duration::from_secs(15));
    assert!(faulty.injected().io_errors > 0);
}

/// A store down for more flips than the WAL queue holds: the queue stays
/// bounded, and with no checkpoint cadence configured the healed store
/// still clears degraded mode through a checkpoint that re-covers every
/// dropped flip.
#[test]
fn overflowing_wal_queue_is_dropped_and_healed_by_a_checkpoint() {
    let store = Arc::new(DatasetKind::Aids.generate(40, 43));
    let faulty = FaultyStore::new(Arc::new(MemStore::new()));
    let engine = open_engine(&store, Arc::clone(&faulty) as Arc<dyn CacheStore>);
    faulty.fail_next(FaultOp::Append, u64::MAX);
    faulty.fail_next(FaultOp::SaveCheckpoint, u64::MAX);

    // Distinct single-vertex queries: each one is admitted and flips.
    for label in 0..(WAL_QUEUE_LIMIT as u32 + 20) {
        let q = graph_from(&[label], &[]);
        assert_eq!(engine.query(&q).answers, oracle_answers(&store, &q));
        let queued = engine.stats().wal_quarantined_groups;
        assert!(queued <= WAL_QUEUE_LIMIT as u64, "{queued} flips queued");
    }
    let down = engine.stats();
    assert!(down.degraded);
    assert_eq!(down.checkpoint_bytes_written, 0);

    faulty.heal();
    let healed = drive_until_healthy(&engine, Duration::from_secs(15));
    assert!(
        healed.checkpoint_bytes_written > 0,
        "the dropped flips are re-covered by a checkpoint"
    );

    let codes = |engine: &IgqEngine<Ggsx>| {
        let mut codes: Vec<_> = engine
            .export_entries()
            .iter()
            .map(|(g, _)| igq::graph::canon::canonical_code(g).map(|c| c.words().to_vec()))
            .collect();
        codes.sort();
        codes
    };
    let reopened = open_engine(&store, Arc::clone(&faulty) as Arc<dyn CacheStore>);
    assert_eq!(codes(&reopened), codes(&engine));
    reopened.self_check().expect("reopened invariants");
}

// The harness's own contract: every knob does what the engine tests
// above rely on.

fn wrapped() -> (Arc<FaultyStore>, Arc<MemStore>) {
    let mem = Arc::new(MemStore::default());
    (FaultyStore::new(mem.clone()), mem)
}

#[test]
fn passthrough_when_healthy() {
    let (store, _mem) = wrapped();
    store.append_wal(b"abc").unwrap();
    store.append_wal(b"def").unwrap();
    assert_eq!(store.load_wal().unwrap(), b"abcdef");
    store.save_checkpoint(b"ckpt").unwrap();
    assert_eq!(store.load_checkpoint().unwrap().unwrap(), b"ckpt");
    store.replace_wal(b"x").unwrap();
    assert_eq!(store.load_wal().unwrap(), b"x");
    assert_eq!(store.injected(), FaultStats::default());
}

#[test]
fn scripted_failures_count_down() {
    let (store, _mem) = wrapped();
    store.fail_next(FaultOp::Append, 2);
    assert!(store.append_wal(b"a").is_err());
    assert!(store.append_wal(b"b").is_err());
    store.append_wal(b"c").unwrap();
    assert_eq!(store.load_wal().unwrap(), b"c");
    assert_eq!(store.injected().io_errors, 2);
}

#[test]
fn torn_write_leaves_a_prefix() {
    let (store, mem) = wrapped();
    store.append_wal(b"intact!!").unwrap();
    store.tear_writes(50);
    store.fail_next(FaultOp::Append, 1);
    assert!(store.append_wal(b"torntorn").is_err());
    // Half of the failed record really landed after the intact one.
    assert_eq!(mem.load_wal().unwrap(), b"intact!!torn");
    assert_eq!(store.injected().torn_writes, 1);
}

#[test]
fn short_reads_truncate_the_tail() {
    let (store, _mem) = wrapped();
    store.append_wal(b"0123456789").unwrap();
    store.shorten_reads(4);
    assert_eq!(store.load_wal().unwrap(), b"012345");
    store.heal();
    assert_eq!(store.load_wal().unwrap(), b"0123456789");
    assert_eq!(store.injected().short_reads, 1);
}

#[test]
fn seeded_faults_are_deterministic() {
    let run = |seed| {
        let (store, _mem) = wrapped();
        store.seed_faults(seed, 0.3);
        (0..64)
            .map(|_| store.append_wal(b"r").is_err())
            .collect::<Vec<_>>()
    };
    let a = run(42);
    assert_eq!(a, run(42), "same seed must replay the same schedule");
    assert!(a.iter().any(|&f| f) && !a.iter().all(|&f| f));
    assert_ne!(a, run(43), "different seeds should diverge");
}

#[test]
fn heal_restores_passthrough() {
    let (store, _mem) = wrapped();
    store.seed_faults(7, 1.0);
    assert!(store.append_wal(b"a").is_err());
    store.heal();
    store.append_wal(b"b").unwrap();
    assert_eq!(store.load_wal().unwrap(), b"b");
}
