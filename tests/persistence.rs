//! Durability integration tests: crash recovery (torn WAL tails, damaged
//! artifacts, foreign stores) and the restart-equivalence guarantee — an
//! engine recovered via `Engine::open` behaves identically to one that
//! never restarted, in both query directions.

mod common;

use common::fault::{FaultOp, FaultyStore};
use common::{arb_graph, arb_store, oracle_answers};
use igq::core::IgqSuperEngine;
use igq::features::PathConfig;
use igq::iso::MatchConfig;
use igq::methods::TrieSupergraphMethod;
use igq::prelude::*;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::Arc;

fn sub_config(capacity: usize, window: usize) -> IgqConfig {
    IgqConfig {
        cache_capacity: capacity,
        window,
        persistence: PersistenceConfig::manual(),
        ..Default::default()
    }
}

fn open_sub(
    store: &Arc<GraphStore>,
    mem: &Arc<MemStore>,
    capacity: usize,
    window: usize,
) -> IgqEngine<Ggsx> {
    let method = Ggsx::build(store, GgsxConfig::default());
    IgqEngine::open(
        method,
        sub_config(capacity, window),
        Arc::clone(mem) as Arc<dyn CacheStore>,
    )
    .expect("open subgraph engine")
}

const BWAL_MAGIC: &[u8; 8] = b"IGQBWAL1";

/// Counts intact WAL records: `R` frames (tag byte, u32 LE length, u64 LE
/// checksum) after the stream magic.
fn wal_record_count(wal: &[u8]) -> usize {
    let frames = wal.strip_prefix(BWAL_MAGIC.as_slice()).expect("WAL magic");
    let mut n = 0;
    let mut pos = 0usize;
    while frames.len() - pos >= 13 {
        let len = u32::from_le_bytes(frames[pos + 1..pos + 5].try_into().unwrap()) as usize;
        if frames.len() - pos - 13 < len {
            break; // torn final frame
        }
        if frames[pos] == b'R' {
            n += 1;
        }
        pos += 13 + len;
    }
    n
}

/// Flips one byte inside the payload of the **first** record (never the
/// last) — the mid-log damage shape recovery must reject rather than
/// truncate.
fn corrupt_first_record(wal: &[u8]) -> Vec<u8> {
    let frames = wal.strip_prefix(BWAL_MAGIC.as_slice()).expect("WAL magic");
    // Skip the header frame, then flip a byte in the middle of the
    // first `R` frame's payload.
    let hlen = u32::from_le_bytes(frames[1..5].try_into().unwrap()) as usize;
    let rstart = 13 + hlen;
    let rlen = u32::from_le_bytes(frames[rstart + 1..rstart + 5].try_into().unwrap()) as usize;
    let mut out = wal.to_vec();
    out[BWAL_MAGIC.len() + rstart + 13 + rlen / 2] ^= 0x01;
    out
}

fn open_super(
    store: &Arc<GraphStore>,
    mem: &Arc<MemStore>,
    capacity: usize,
    window: usize,
) -> IgqSuperEngine {
    let method = TrieSupergraphMethod::build(store, PathConfig::default(), MatchConfig::default());
    IgqSuperEngine::open(
        method,
        sub_config(capacity, window),
        Arc::clone(mem) as Arc<dyn CacheStore>,
    )
    .expect("open supergraph engine")
}

/// Opens a subgraph engine configured with `shards: 4`. The field is
/// ignored, so this is the one-lock engine writing the one-shard format.
fn open_sub_shards4(
    store: &Arc<GraphStore>,
    mem: &Arc<MemStore>,
    capacity: usize,
    window: usize,
) -> IgqEngine<Ggsx> {
    let method = Ggsx::build(store, GgsxConfig::default());
    IgqEngine::open(
        method,
        IgqConfig {
            shards: 4,
            ..sub_config(capacity, window)
        },
        Arc::clone(mem) as Arc<dyn CacheStore>,
    )
    .expect("open subgraph engine with shards: 4")
}

fn aids_workload(n_store: usize, n_queries: usize, seed: u64) -> (Arc<GraphStore>, Vec<Graph>) {
    let store: Arc<GraphStore> = Arc::new(DatasetKind::Aids.generate(n_store, seed));
    let queries = QueryGenerator::new(
        &store,
        Distribution::Zipf(1.4),
        Distribution::Uniform,
        seed.wrapping_add(1),
    )
    .take(n_queries);
    (store, queries)
}

#[test]
fn torn_wal_tail_is_truncated_and_recovery_stays_exact() {
    let (store, queries) = aids_workload(50, 24, 11);
    let mem = Arc::new(MemStore::new());
    {
        let e = open_sub(&store, &mem, 8, 2);
        for q in &queries {
            let _ = e.query(q);
        }
    }
    let wal = mem.raw_wal();
    let records_before = wal_record_count(&wal);
    assert!(records_before >= 3, "need a few flips to truncate");
    // Crash mid-append: the final record loses its tail bytes.
    mem.set_wal(wal[..wal.len() - 9].to_vec());

    let e = open_sub(&store, &mem, 8, 2);
    assert_eq!(
        e.stats().recovery_replayed_windows,
        (records_before - 1) as u64,
        "exactly the torn record is dropped"
    );
    e.self_check().expect("recovered engine invariants");
    for q in queries.iter().take(6) {
        assert_eq!(e.query(q).answers, oracle_answers(&store, q), "{q:?}");
    }
}

#[test]
fn mid_wal_corruption_is_rejected_not_truncated() {
    let (store, queries) = aids_workload(40, 20, 13);
    let mem = Arc::new(MemStore::new());
    {
        let e = open_sub(&store, &mem, 8, 2);
        for q in &queries {
            let _ = e.query(q);
        }
    }
    // Damage the first record (not the last): flip a payload byte.
    mem.set_wal(corrupt_first_record(&mem.raw_wal()));

    let method = Ggsx::build(&store, GgsxConfig::default());
    let err = IgqEngine::<Ggsx>::open(
        method,
        sub_config(8, 2),
        Arc::clone(&mem) as Arc<dyn CacheStore>,
    )
    .err()
    .expect("mid-log damage must fail loudly");
    assert!(
        matches!(err, PersistError::Corrupt(_)),
        "expected Corrupt, got {err}"
    );
}

#[test]
fn foreign_store_bytes_are_rejected_and_left_untouched() {
    // The binary format is the only format: JSON-era text, a truncated
    // magic, or arbitrary bytes in either artifact make `open` fail with
    // a typed `Corrupt` — no fallback parser, no silent cold start, and
    // the store is not rewritten.
    let (store, _) = aids_workload(20, 1, 59);
    let json_ckpt: &[u8] = b"IGQCKPT1 0000000000000000 2\n{}";
    let json_wal: &[u8] = b"H 0000000000000000 2 {}\nR 0000000000000000 2 {}\n";
    let cases: [(Option<&[u8]>, &[u8]); 6] = [
        (Some(json_ckpt), b""),
        (Some(b"IGQBC"), b""),
        (Some(b"\x00\xffnot a checkpoint"), b""),
        (None, json_wal),
        (None, b"IGQBW"),
        (None, b"\x00\xffnot a wal"),
    ];
    for (ckpt, wal) in cases {
        let mem = Arc::new(MemStore::new());
        mem.set_checkpoint(ckpt.map(<[u8]>::to_vec));
        mem.set_wal(wal.to_vec());
        let method = Ggsx::build(&store, GgsxConfig::default());
        let err = IgqEngine::<Ggsx>::open(
            method,
            sub_config(8, 2),
            Arc::clone(&mem) as Arc<dyn CacheStore>,
        )
        .err()
        .expect("foreign bytes must fail loudly");
        assert!(
            matches!(err, PersistError::Corrupt(_)),
            "expected Corrupt for {ckpt:?} / {wal:?}, got {err}"
        );
        assert_eq!(mem.load_checkpoint().unwrap().as_deref(), ckpt);
        assert_eq!(mem.raw_wal(), wal);
    }
}

#[test]
fn checkpoint_checksum_mismatch_is_rejected() {
    let (store, queries) = aids_workload(40, 12, 17);
    let mem = Arc::new(MemStore::new());
    {
        let e = open_sub(&store, &mem, 8, 2);
        for q in &queries {
            let _ = e.query(q);
        }
        e.checkpoint().expect("checkpoint");
    }
    let mut bytes = mem
        .load_checkpoint()
        .expect("readable")
        .expect("checkpoint exists");
    let last = bytes.len() - 2;
    bytes[last] ^= 0x01;
    mem.set_checkpoint(Some(bytes));

    let method = Ggsx::build(&store, GgsxConfig::default());
    let err = IgqEngine::<Ggsx>::open(
        method,
        sub_config(8, 2),
        Arc::clone(&mem) as Arc<dyn CacheStore>,
    )
    .err()
    .expect("bit rot must be detected");
    assert!(
        matches!(err, PersistError::Checksum { .. }),
        "expected Checksum, got {err}"
    );
}

#[test]
fn config_fingerprint_mismatch_is_rejected() {
    let (store, queries) = aids_workload(40, 12, 19);
    let mem = Arc::new(MemStore::new());
    {
        let e = open_sub(&store, &mem, 8, 2);
        for q in &queries {
            let _ = e.query(q);
        }
        e.checkpoint().expect("checkpoint");
    }
    // Same geometry, different path-feature family: the persisted index
    // feature sets would be silently wrong, so the open must refuse.
    let mut config = sub_config(8, 2);
    config.path_config = igq::features::PathConfig::with_max_len(3);
    let method = Ggsx::build(&store, GgsxConfig::default());
    let err = IgqEngine::<Ggsx>::open(method, config, Arc::clone(&mem) as Arc<dyn CacheStore>)
        .err()
        .expect("foreign config must be rejected");
    assert!(
        matches!(err, PersistError::ConfigMismatch { .. }),
        "expected ConfigMismatch, got {err}"
    );
}

#[test]
fn checkpoint_plus_wal_tail_recovers_later_flips() {
    let (store, queries) = aids_workload(60, 30, 23);
    let mem = Arc::new(MemStore::new());
    {
        let e = open_sub(&store, &mem, 10, 2);
        for q in queries.iter().take(14) {
            let _ = e.query(q);
        }
        e.checkpoint().expect("mid-run checkpoint");
        for q in queries.iter().skip(14) {
            let _ = e.query(q); // flips after the checkpoint land in the WAL
        }
    }
    let e = open_sub(&store, &mem, 10, 2);
    assert!(
        e.stats().recovery_replayed_windows >= 1,
        "post-checkpoint flips came back via WAL replay"
    );
    e.self_check().expect("recovered engine invariants");
    for q in queries.iter().take(8) {
        assert_eq!(e.query(q).answers, oracle_answers(&store, q), "{q:?}");
    }
}

#[test]
fn failed_wal_append_suspends_the_log_and_a_checkpoint_heals_it() {
    let (store, queries) = aids_workload(50, 30, 31);
    // Failed appends leave half the record behind, the torn shape a
    // partial `write_all` leaves on disk.
    let flaky = FaultyStore::new(Arc::new(MemStore::new()));
    flaky.tear_writes(50);
    {
        let method = Ggsx::build(&store, GgsxConfig::default());
        let e = IgqEngine::open(
            method,
            sub_config(8, 2),
            Arc::clone(&flaky) as Arc<dyn CacheStore>,
        )
        .expect("open");
        for q in queries.iter().take(10) {
            let _ = e.query(q); // healthy flips append normally
        }
        let healthy_appends = e.stats().wal_appends;
        assert!(healthy_appends >= 1);

        // Disk starts failing: flips keep serving exactly, records are
        // dropped loudly, and crucially NO further bytes land after the
        // partial record (no mid-log hole).
        flaky.fail_next(FaultOp::Append, u64::MAX);
        for q in queries.iter().skip(10).take(10) {
            let _ = e.query(q);
        }
        assert_eq!(
            e.stats().wal_appends,
            healthy_appends,
            "no flip counts as appended after the failure (the failed one \
             left partial bytes, the rest were suspended)"
        );

        // Disk recovers; an explicit checkpoint rewrites the WAL
        // wholesale and restores health.
        flaky.heal();
        e.checkpoint().expect("healing checkpoint");
        for q in queries.iter().skip(20) {
            let _ = e.query(q); // appends flow again
        }
        assert!(e.stats().wal_appends > healthy_appends);
    }
    // The store recovers cleanly despite the mid-life damage.
    let method = Ggsx::build(&store, GgsxConfig::default());
    let e = IgqEngine::open(
        method,
        sub_config(8, 2),
        Arc::clone(&flaky) as Arc<dyn CacheStore>,
    )
    .expect("reopen after healed damage");
    e.self_check().expect("recovered engine invariants");
    for q in queries.iter().take(6) {
        assert_eq!(e.query(q).answers, oracle_answers(&store, q), "{q:?}");
    }
}

#[test]
fn checkpoint_mid_window_then_flip_does_not_duplicate_entries_after_recovery() {
    // A checkpoint captures the pending window; a *later* flip consumes
    // it and lands in the WAL. Recovery must not keep both (the stale
    // window would re-admit its entries at the next flip, creating a
    // duplicate resident the never-restarted engine does not have).
    let store: Arc<GraphStore> = Arc::new(
        vec![
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),
        ]
        .into_iter()
        .collect(),
    );
    let q0 = graph_from(&[0, 1], &[(0, 1)]);
    let q1 = graph_from(&[2, 2], &[(0, 1)]);
    let mem = Arc::new(MemStore::new());
    let live_cached;
    {
        let e = open_sub(&store, &mem, 8, 2);
        let _ = e.query(&q0); // window = [q0]
        e.checkpoint().expect("mid-window checkpoint");
        let _ = e.query(&q1); // flip admits {q0, q1} -> WAL record
        live_cached = e.cached_queries();
        assert_eq!(live_cached, 2);
    } // crash (drop drains the WAL outbox)
    let e = open_sub(&store, &mem, 8, 2);
    assert_eq!(e.stats().recovery_replayed_windows, 1);
    assert_eq!(e.cached_queries(), live_cached);
    // The stale checkpoint window would re-admit q0 here.
    e.flush_window();
    assert_eq!(e.cached_queries(), live_cached, "no duplicate resident");
    e.self_check().expect("recovered engine invariants");
}

#[test]
fn subgraph_store_is_rejected_by_a_supergraph_engine() {
    // The two directions interpret cached answer sets oppositely; a
    // shared store would serve wrong answers, so the fingerprint must
    // separate them.
    let (store, queries) = aids_workload(40, 10, 41);
    let mem = Arc::new(MemStore::new());
    {
        let e = open_sub(&store, &mem, 8, 2);
        for q in &queries {
            let _ = e.query(q);
        }
        e.checkpoint().expect("checkpoint");
    }
    let method = TrieSupergraphMethod::build(&store, PathConfig::default(), MatchConfig::default());
    let err = IgqSuperEngine::open(
        method,
        sub_config(8, 2),
        Arc::clone(&mem) as Arc<dyn CacheStore>,
    )
    .err()
    .expect("cross-direction open must be rejected");
    assert!(
        matches!(err, PersistError::ConfigMismatch { .. }),
        "expected ConfigMismatch, got {err}"
    );
}

#[test]
fn dir_store_save_kill_load_roundtrip() {
    let dir = std::env::temp_dir().join(format!("igq_persist_it_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, queries) = aids_workload(60, 20, 29);
    let repeat = queries[0].clone();
    let first_answers;
    {
        let disk: Arc<dyn CacheStore> = Arc::new(DirStore::open(&dir).expect("dir store"));
        let e = IgqEngine::open(
            Ggsx::build(&store, GgsxConfig::default()),
            sub_config(16, 4),
            disk,
        )
        .expect("open");
        first_answers = e.query(&repeat).answers.clone();
        for q in &queries[1..] {
            let _ = e.query(q);
        }
        e.checkpoint().expect("checkpoint before kill");
    } // "kill"
    let disk: Arc<dyn CacheStore> = Arc::new(DirStore::open(&dir).expect("dir store"));
    let e = IgqEngine::open(
        Ggsx::build(&store, GgsxConfig::default()),
        sub_config(16, 4),
        disk,
    )
    .expect("reopen");
    let out = e.query(&repeat);
    assert_eq!(out.answers, first_answers);
    e.self_check().expect("recovered engine invariants");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The observable face of one query, for restart-equivalence comparison.
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
    }
}

/// Runs `prefix` on a live engine, checkpoints, opens a recovered twin
/// from a point-in-time store fork, then drives both through `suffix`,
/// asserting byte-identical observable behavior.
fn assert_restart_equivalence<E: QueryEngine>(
    live: &E,
    recovered: &E,
    suffix: &[Graph],
) -> Result<(), TestCaseError> {
    for q in suffix {
        let a = observe(&live.query(q));
        let b = observe(&recovered.query(q));
        prop_assert_eq!(a, b, "divergence on {:?}", q);
    }
    prop_assert_eq!(live.cached_queries(), recovered.cached_queries());
    live.self_check().expect("live engine invariants");
    recovered.self_check().expect("recovered engine invariants");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Engine::open` after N random window flips ≡ the never-restarted
    /// engine — subgraph direction.
    #[test]
    fn subgraph_restart_equivalence(
        store in arb_store(6, 6, 3),
        queries in proptest::collection::vec(arb_graph(5, 3), 4..14),
        capacity in 2usize..6,
        window in 1usize..3,
        split_pct in 20usize..80,
    ) {
        let window = window.min(capacity);
        let split = queries.len() * split_pct / 100;
        let (prefix, rest) = queries.split_at(split.clamp(1, queries.len() - 1));
        // A middle segment runs *after* the checkpoint, so recovery must
        // combine the checkpoint with WAL-tail replay (the crash shape).
        let (mid, suffix) = rest.split_at((rest.len() / 2).min(3));
        let mem = Arc::new(MemStore::new());
        let live = open_sub(&store, &mem, capacity, window);
        for q in prefix {
            let _ = live.query(q);
        }
        // The checkpoint captures everything, including the pending
        // window, so recovery works from an arbitrary mid-window point.
        live.checkpoint().expect("checkpoint");
        for q in mid {
            let _ = live.query(q); // post-checkpoint flips -> WAL tail
        }
        // Flush to a flip boundary: the fork point is then exactly the
        // recovered engine's state (the loss window is empty).
        live.flush_window();
        let fork = Arc::new(mem.fork());
        let recovered = open_sub(&store, &fork, capacity, window);
        assert_restart_equivalence(&live, &recovered, suffix)?;
    }

    /// Same guarantee in the supergraph direction.
    #[test]
    fn supergraph_restart_equivalence(
        store in arb_store(5, 5, 3),
        queries in proptest::collection::vec(arb_graph(7, 3), 4..12),
        capacity in 2usize..6,
        window in 1usize..3,
        split_pct in 20usize..80,
    ) {
        let window = window.min(capacity);
        let split = queries.len() * split_pct / 100;
        let (prefix, rest) = queries.split_at(split.clamp(1, queries.len() - 1));
        let (mid, suffix) = rest.split_at((rest.len() / 2).min(3));
        let mem = Arc::new(MemStore::new());
        let live = open_super(&store, &mem, capacity, window);
        for q in prefix {
            let _ = live.query(q);
        }
        live.checkpoint().expect("checkpoint");
        for q in mid {
            let _ = live.query(q); // post-checkpoint flips -> WAL tail
        }
        live.flush_window();
        let fork = Arc::new(mem.fork());
        let recovered = open_super(&store, &fork, capacity, window);
        assert_restart_equivalence(&live, &recovered, suffix)?;
    }
}

#[test]
fn sharded_wal_roundtrip_matches_never_restarted_engine() {
    // An engine configured with `shards: 4` writes exactly the store a
    // default engine writes for the same stream, and a checkpoint plus
    // its WAL tail recovers it: reopened without the field, it behaves
    // like the engine that never restarted.
    let (store, queries) = aids_workload(60, 36, 43);
    let (prefix, rest) = queries.split_at(18);
    let (mid, suffix) = rest.split_at(8);
    let mem = Arc::new(MemStore::new());
    let plain_mem = Arc::new(MemStore::new());
    let live = open_sub_shards4(&store, &mem, 10, 2);
    let plain = open_sub(&store, &plain_mem, 10, 2);
    for q in prefix {
        let _ = live.query(q);
        let _ = plain.query(q);
    }
    live.checkpoint().expect("mid-run checkpoint");
    plain.checkpoint().expect("mid-run checkpoint");
    for q in mid {
        let _ = live.query(q);
        let _ = plain.query(q);
    }
    live.flush_window();
    plain.flush_window();
    assert!(
        mem.load_checkpoint().unwrap() == plain_mem.load_checkpoint().unwrap(),
        "checkpoint bytes"
    );
    assert!(mem.raw_wal() == plain_mem.raw_wal(), "WAL bytes");

    let fork = Arc::new(mem.fork());
    let recovered = open_sub(&store, &fork, 10, 2);
    assert!(
        recovered.stats().recovery_replayed_windows >= 1,
        "post-checkpoint flips came back via WAL replay"
    );
    assert_restart_equivalence(&live, &recovered, suffix).unwrap_or_else(|e| panic!("{e:?}"));
}

#[test]
fn torn_tail_on_interleaved_multi_shard_wal_drops_the_whole_last_flip() {
    // Each flip is one WAL record, whatever `shards` says, so a crash
    // that tears the final record drops exactly the last flip.
    let (store, queries) = aids_workload(50, 28, 47);
    let mem = Arc::new(MemStore::new());
    let flips = {
        let e = open_sub_shards4(&store, &mem, 8, 2);
        for q in &queries {
            let _ = e.query(q);
        }
        e.stats().wal_appends
    };
    let wal = mem.raw_wal();
    let records_before = wal_record_count(&wal);
    assert_eq!(records_before as u64, flips, "one record per flip");
    assert!(records_before >= 3, "need a few flips to truncate");
    mem.set_wal(wal[..wal.len() - 9].to_vec());

    let e = open_sub_shards4(&store, &mem, 8, 2);
    assert_eq!(
        e.stats().recovery_replayed_windows,
        flips - 1,
        "exactly the torn flip is dropped"
    );
    e.self_check().expect("recovered engine invariants");
    for q in queries.iter().take(6) {
        assert_eq!(e.query(q).answers, oracle_answers(&store, q), "{q:?}");
    }

    // A torn tail on a WAL that really is interleaved across four shards
    // is not truncated into a shorter valid log: it stays a typed
    // `Corrupt` naming the writer's shard count, and is left untouched.
    let torn = {
        let wal = golden_fixture("shards4", "wal.igq");
        wal[..wal.len() - 9].to_vec()
    };
    let dir = scratch_dir("shards4_torn");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal.igq"), &torn).unwrap();
    match open_golden(&dir).err() {
        Some(PersistError::Corrupt(m)) => assert!(m.contains("4-shard engine"), "{m}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(
        std::fs::read(dir.join("wal.igq")).unwrap() == torn,
        "WAL untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fixture stores under `tests/fixtures/golden_store/`, written by
/// [`golden_stream`] when engine state could still be sharded: `default`
/// by a one-shard engine, `shards4` by a four-shard one. They pin the
/// store bytes across that change.
fn golden_fixture(name: &str, file: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden_store")
        .join(name)
        .join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A fresh scratch directory (removed first if a previous run left it).
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("igq_golden_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn golden_workload() -> (Arc<GraphStore>, Vec<Graph>) {
    let store: Arc<GraphStore> = Arc::new(DatasetKind::Aids.generate(40, 7));
    let queries =
        QueryGenerator::new(&store, Distribution::Zipf(1.4), Distribution::Uniform, 8).take(30);
    (store, queries)
}

fn open_golden(dir: &std::path::Path) -> Result<IgqEngine<Ggsx>, PersistError> {
    let (store, _) = golden_workload();
    let disk: Arc<dyn CacheStore> = Arc::new(DirStore::open(dir).expect("dir store"));
    IgqEngine::open(
        Ggsx::build(&store, GgsxConfig::default()),
        sub_config(8, 2),
        disk,
    )
}

/// The stream that wrote the `default` fixture: half the queries, an
/// explicit checkpoint, the other half (seven more flips land in the
/// WAL), then a clean drop.
fn golden_stream(dir: &std::path::Path) {
    let (_, queries) = golden_workload();
    let e = open_golden(dir).expect("cold open");
    for q in &queries[..15] {
        let _ = e.query(q);
    }
    e.checkpoint().expect("checkpoint");
    for q in &queries[15..] {
        let _ = e.query(q);
    }
}

#[test]
fn golden_store_opens_exactly_and_replays_byte_identically() {
    let (store, queries) = golden_workload();
    let (ckpt, wal) = (
        golden_fixture("default", "checkpoint.igq"),
        golden_fixture("default", "wal.igq"),
    );
    assert_eq!(wal_record_count(&wal), 7, "the fixture's WAL tail");

    // Opening the committed store recovers the pinned state. The fixture
    // is copied first: `open` compacts the WAL in place.
    let dir = scratch_dir("open");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("checkpoint.igq"), &ckpt).unwrap();
    std::fs::write(dir.join("wal.igq"), &wal).unwrap();
    let e = open_golden(&dir).expect("golden store opens");
    assert_eq!(e.cached_queries(), 8);
    assert_eq!(e.stats().recovery_replayed_windows, 7);
    e.self_check().expect("recovered engine invariants");
    for q in &queries {
        assert_eq!(e.query(q).answers, oracle_answers(&store, q), "{q:?}");
    }
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);

    // Replaying the stream writes the same bytes.
    let dir = scratch_dir("replay");
    golden_stream(&dir);
    assert!(
        std::fs::read(dir.join("checkpoint.igq")).unwrap() == ckpt,
        "checkpoint bytes"
    );
    assert!(
        std::fs::read(dir.join("wal.igq")).unwrap() == wal,
        "WAL bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopening_with_a_different_shard_count_is_a_typed_error() {
    // The `shards4` fixture was written by a four-shard engine: its
    // checkpoint header, WAL header and WAL records all say so. Each
    // artifact alone is refused with a typed `Corrupt` naming the count —
    // no panic, no silent cold start — and the store is left untouched.
    let (ckpt, wal) = (
        golden_fixture("shards4", "checkpoint.igq"),
        golden_fixture("shards4", "wal.igq"),
    );
    for (name, ckpt, wal) in [
        ("both", Some(&ckpt), &wal),
        ("checkpoint", Some(&ckpt), &Vec::new()),
        ("wal", None, &wal),
    ] {
        let dir = scratch_dir(&format!("shards4_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        if let Some(ckpt) = ckpt {
            std::fs::write(dir.join("checkpoint.igq"), ckpt).unwrap();
        }
        std::fs::write(dir.join("wal.igq"), wal).unwrap();
        match open_golden(&dir).err() {
            Some(PersistError::Corrupt(m)) => {
                assert!(m.contains("4-shard engine"), "{name}: {m}");
            }
            other => panic!("{name}: expected Corrupt, got {other:?}"),
        }
        if let Some(ckpt) = ckpt {
            assert!(std::fs::read(dir.join("checkpoint.igq")).unwrap() == *ckpt);
        }
        assert!(
            std::fs::read(dir.join("wal.igq")).unwrap() == *wal,
            "{name}: WAL untouched"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
