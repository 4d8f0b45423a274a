//! The unified iGQ query engine (paper Sections 4.2–4.4, 5, and Fig. 6):
//! one concurrently shareable pipeline, generic over the query
//! [`QueryDirection`].
//!
//! [`Engine<D>`] wraps a dataset method and runs the full iGQ pipeline per
//! query `g`:
//!
//! 1. the direction's filter produces the candidate set `CS(g)` (no false
//!    negatives);
//! 2. the query indexes are probed: one side yields cached queries whose
//!    stored answers are *known answers*, the other cached queries whose
//!    answers *bound* the candidates (which side is which is the
//!    direction's [`KNOWN_IS_ISUB`](QueryDirection::KNOWN_IS_ISUB));
//! 3. optimal cases (Section 4.3): an exact repeat returns the stored
//!    answer outright; a cached bounding query with an empty answer proves
//!    the answer empty;
//! 4. pruning: `CS_igq = (CS \ ∪ known) ∩ (∩ bounds)` (formulas (3) and
//!    (5), inverted per Section 4.4 for supergraph queries);
//! 5. verification of the survivors;
//! 6. the final answer adds back the known answers (formula (4));
//! 7. bookkeeping: metadata updates (Section 5.1) and window maintenance
//!    (Section 5.2), applied to both query indexes on the flipping thread.
//!
//! # Concurrency model
//!
//! `query` takes `&self`: the engine is a shared service, `Send + Sync`,
//! fanned out across threads through a cheap [`crate::EngineHandle`]
//! clone. All mutable state — the admission window, the cost model, the
//! flip ordinal, the [`QueryCache`] and the live `Isub`/`Isuper` pair over
//! it — sits behind **one** [`std::sync::RwLock`]; lifetime counters are
//! lock-free atomics ([`crate::EngineStats`]). The expensive stages
//! (canonicalization, feature extraction, the base filter, verification)
//! run outside the lock. The index probes, the answer algebra and the
//! metadata credit run under the write side, so every probed slot stays
//! valid until its stored answers have been used; window admission and
//! the flip take it again after verification. Read-only paths (the
//! exact-repeat pre-check, [`Engine::cached_queries`], checkpoint,
//! snapshot and export capture, `self_check`) take the read side. A lock
//! whose holder panicked is poisoned and panics every later caller. See
//! `ARCHITECTURE.md` for the lock layout.
//!
//! The concrete engines are type aliases over the two directions:
//! [`IgqEngine`] (subgraph queries over any [`SubgraphMethod`]) and
//! [`crate::IgqSuperEngine`] (supergraph queries); the seed's duplicated
//! per-direction pipelines are gone.
//!
//! # Durability
//!
//! An engine constructed with [`Engine::open`] over a
//! [`CacheStore`] is **durable**: every
//! window flip is captured as a WAL record (pushed under the state lock,
//! appended to storage off it), checkpoints are written on a configured
//! cadence ([`crate::config::PersistenceConfig`]) or explicitly
//! ([`Engine::checkpoint`]), and a restart recovers the cache, both
//! query indexes, and the replacement state warm — observationally
//! identical to never restarting. See the [`crate::persist`] module docs
//! for formats and the recovery protocol.
//!
//! Correctness (Theorems 1 and 2) is exercised end-to-end by the
//! integration suite: the engine's answers are compared against the naive
//! oracle on randomized workloads, sequentially and from concurrent
//! threads sharing one engine.
//!
//! [`SubgraphMethod`]: igq_methods::SubgraphMethod

use crate::api::{QueryOptions, QueryRequest, QueryResponse};
use crate::cache::{CacheEntry, QueryCache, WindowDelta, WindowEntry};
use crate::config::{ConfigError, IgqConfig};
use crate::direction::{QueryDirection, SubgraphQueries};
use crate::isub::IsubIndex;
use crate::isuper::IsuperIndex;
use crate::outcome::{QueryOutcome, Resolution};
use crate::persist::{self, CacheStore, PersistError};
use crate::replicate::{DeltaGroup, ReplicaError, ReplicationHub, Subscription};
use crate::stats::{AtomicEngineStats, EngineStats};
use igq_features::{enumerate_paths, LabelSeq, PathFeatures};
use igq_graph::canon::{canonical_code, CanonicalCode, GraphSignature};
use igq_graph::stats::DatasetStats;
use igq_graph::{Graph, GraphId};
use igq_iso::plan_cache::PlanCache;
use igq_iso::{CostModel, IsoStats, LogValue};
use igq_methods::{intersect_into, intersect_sorted, subtract_into, subtract_sorted, PlanSource};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::{Duration, Instant};

/// The iGQ engine for subgraph queries: [`Engine`] in the
/// [`SubgraphQueries`] direction, wrapping any
/// [`SubgraphMethod`](igq_methods::SubgraphMethod) `M`.
pub type IgqEngine<M> = Engine<SubgraphQueries<M>>;

/// The engine's mutable state, all behind the one state lock.
struct State {
    /// `Itemp`: processed-but-not-yet-indexed queries.
    window: Vec<WindowEntry>,
    window_signatures: Vec<GraphSignature>,
    cost_model: CostModel,
    /// Flip ordinal: how many non-empty window flips this engine's cache
    /// has absorbed (including recovered history). Each persisted WAL
    /// record carries the flip's `seq`; recovery resumes from the highest
    /// replayed value.
    seq: u64,
    cache: QueryCache,
    isub: IsubIndex,
    isuper: IsuperIndex,
}

impl State {
    /// A cold state: empty window, cache and indexes.
    fn empty(config: &IgqConfig, labels: usize) -> State {
        State {
            window: Vec::new(),
            window_signatures: Vec::new(),
            cost_model: CostModel::new(labels),
            seq: 0,
            cache: QueryCache::with_policy(config.cache_capacity, config.policy),
            isub: IsubIndex::new(config.path_config),
            isuper: IsuperIndex::new(config.path_config),
        }
    }
}

/// Persistence control for a store-attached engine ([`Engine::open`]).
struct PersistCtl {
    store: Arc<dyn CacheStore>,
    config_fp: u64,
    dataset_fp: u64,
    /// Auto-checkpoint cadence in WAL appends; `None` = manual only.
    checkpoint_every: Option<u64>,
    /// WAL records appended since the last checkpoint (reset on
    /// checkpoint to the compacted tail length).
    appends_since_checkpoint: AtomicU64,
    /// One checkpointer at a time; the auto path skips (try-lock) rather
    /// than queue up behind an in-flight checkpoint.
    checkpoint_lock: Mutex<()>,
    /// Typed degraded mode: set when a WAL append fails. The engine keeps
    /// serving exactly; the failed flip's record (and every later one) is
    /// **quarantined** in [`PersistCtl::quarantine`] rather than dropped,
    /// and retried with exponential backoff on subsequent drains. Cleared
    /// when the quarantine fully replays or a checkpoint — which rewrites
    /// the WAL wholesale and re-covers every flip — succeeds.
    degraded: AtomicBool,
    /// Human-readable cause of the current degraded mode (the first
    /// failure's error text); empty when healthy. Surfaced through
    /// [`EngineStats::degraded_reason`].
    degraded_reason: Mutex<String>,
    /// Encoded-but-unappended WAL records in flip order: `(seq, bytes)`
    /// pairs held after an append failure so durability is restored —
    /// not merely resumed — once the store recovers. All I/O on these
    /// happens under `wal_lock`, preserving append order.
    quarantine: Mutex<VecDeque<(u64, Vec<u8>)>>,
    /// Earliest instant the next quarantine retry may run (exponential
    /// backoff between failed retries, so a dead disk is not hammered on
    /// every flip).
    retry_not_before: Mutex<Option<Instant>>,
    /// Consecutive failed retry rounds; drives the backoff exponent.
    retry_strikes: AtomicU64,
    /// Set when a failed append may have left a partial record at the end
    /// of the on-disk log: appending more before repairing would turn a
    /// tolerable torn tail into a mid-log hole recovery must reject. The
    /// retry path first rewrites the log minus the torn bytes
    /// ([`persist::compact_wal`] at seq 0), then replays the
    /// quarantine.
    tail_suspect: AtomicBool,
}

/// Panic message for a lock whose holder panicked: the state behind it
/// may be half-updated, so every later caller fails loudly too.
const POISONED: &str = "engine lock poisoned";

/// Backoff floor/ceiling between quarantine retry rounds.
const WAL_RETRY_FLOOR: Duration = Duration::from_millis(50);
const WAL_RETRY_CEIL: Duration = Duration::from_secs(5);

/// What [`Engine::import_entries`] did with each input entry. Every entry
/// is accounted for: `admitted + skipped_capacity + skipped_invalid`
/// equals the input length — nothing is dropped silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImportReport {
    /// Entries admitted into the cache (in input order).
    pub admitted: usize,
    /// Valid entries skipped because the batch exceeded the cache
    /// capacity; the skipped entries are the **tail** of the valid input.
    pub skipped_capacity: usize,
    /// Entries rejected because an answer id lies outside this engine's
    /// dataset (they cannot be correct here).
    pub skipped_invalid: usize,
}

/// The unified, concurrently shareable iGQ engine; see the module docs.
/// Use the [`IgqEngine`] / [`crate::IgqSuperEngine`] aliases.
pub struct Engine<D: QueryDirection> {
    method: D::Method,
    config: IgqConfig,
    /// All mutable engine state, behind the one state lock.
    state: RwLock<State>,
    /// Captured-but-not-yet-appended WAL records (one per flip), in flip
    /// order: pushed under the state write lock (record order = flip
    /// order), appended to the store in [`Engine::drain_outbox`] after
    /// the lock is released, so storage I/O never sits on the state lock.
    /// Empty for engines with neither a [`CacheStore`] nor subscribers.
    wal_outbox: Mutex<VecDeque<persist::WalRecord>>,
    /// Serializes WAL appends (and compaction) so records land in exactly
    /// their outbox (= flip) order; never acquired while holding the
    /// state write lock.
    wal_lock: Mutex<()>,
    /// `Some` iff the engine was attached to a [`CacheStore`] via
    /// [`Engine::open`].
    persist: Option<PersistCtl>,
    /// Primary-side replication fan-out. Inert (and cost-free on the
    /// flip path) until the first [`Engine::subscribe_replication`]
    /// activates it; from then on every committed flip group is
    /// published through it, post-append, in flip order.
    hub: ReplicationHub,
    /// `true` for a follower ([`Engine::open_follower`]): the engine
    /// replays delta groups from a primary, serves read-only queries
    /// (no window admission), and rejects write-path operations with a
    /// typed [`ReplicaError`]. Atomic because [`Engine::promote`] flips
    /// it to `false` at failover.
    follower: AtomicBool,
    /// Failover epoch: bumped by every [`Engine::promote`], persisted in
    /// checkpoints and the WAL header, and stamped on every published
    /// delta group so a deposed primary's stream is fenced
    /// ([`ReplicaError::EpochFenced`]) instead of silently applied.
    epoch: AtomicU64,
    /// Canonical-code keyed matching-plan cache, shared by the verify
    /// stage and both index probes. Internally lock-striped,
    /// so it lives outside the state lock; entries are evicted alongside
    /// their queries via [`WindowDelta::evicted_codes`].
    plan_cache: PlanCache,
    stats: AtomicEngineStats,
    _direction: PhantomData<fn() -> D>,
}

impl<D: QueryDirection> Engine<D> {
    /// Wraps `method` with an (initially empty) iGQ cache.
    ///
    /// `config` is validated ([`IgqConfig::validate`]); an invalid
    /// combination — built by hand rather than through
    /// [`IgqConfig::builder`] — is rejected with the same [`ConfigError`]
    /// the builder would have raised.
    pub fn new(method: D::Method, config: IgqConfig) -> Result<Engine<D>, ConfigError> {
        config.validate()?;
        let labels = Self::resolve_labels(&method, &config);
        let state = State::empty(&config, labels);
        Ok(Self::assemble(method, config, state, None, false))
    }

    /// Label-universe size for the cost model: configured, or derived
    /// from the dataset.
    fn resolve_labels(method: &D::Method, config: &IgqConfig) -> usize {
        if config.label_universe > 0 {
            config.label_universe
        } else {
            DatasetStats::of(D::store(method)).vertex_labels.max(1)
        }
    }

    fn assemble(
        method: D::Method,
        config: IgqConfig,
        state: State,
        persist: Option<PersistCtl>,
        follower: bool,
    ) -> Engine<D> {
        // Plans are cheap relative to cached answer sets: hold a few per
        // resident (distinct configs, probe-side patterns) with headroom
        // for small caches so repeated streams never thrash.
        let plan_capacity = (4 * config.cache_capacity).max(512);
        Engine {
            method,
            config,
            state: RwLock::new(state),
            wal_outbox: Mutex::new(VecDeque::new()),
            wal_lock: Mutex::new(()),
            persist,
            hub: ReplicationHub::new(),
            follower: AtomicBool::new(follower),
            epoch: AtomicU64::new(0),
            plan_cache: PlanCache::new(plan_capacity),
            stats: AtomicEngineStats::default(),
            _direction: PhantomData,
        }
    }

    /// Takes the state lock's write side.
    fn lock_write(&self) -> RwLockWriteGuard<'_, State> {
        self.state.write().expect(POISONED)
    }

    /// Takes the state lock's read side. Flips hold the write side, so a
    /// read view is always flip-consistent.
    fn lock_read(&self) -> RwLockReadGuard<'_, State> {
        self.state.read().expect(POISONED)
    }

    /// Opens a **durable** engine over `store`: recovers the cache, both
    /// query indexes, the pending admission window, and the replacement
    /// state from the last checkpoint plus the WAL tail, then keeps the
    /// store up to date — one WAL record per window flip (appended off
    /// the state lock by the outbox drain) and a fresh
    /// checkpoint every [`PersistenceConfig::checkpoint_every_windows`]
    /// flips (plus any explicit [`checkpoint`](Engine::checkpoint) call).
    ///
    /// A store written under a different config fingerprint (cache
    /// geometry, path features, policy, label universe) or dataset is
    /// rejected with a typed [`PersistError`] — recovered answers are
    /// only exact against the state that produced them. A torn final WAL
    /// record (crash mid-append) is dropped with a warning; any other
    /// damage is an error, never a silent cold start. An empty store
    /// yields a cold engine that is persistent from its first flip.
    ///
    /// The recovered engine is observationally identical to one that
    /// never restarted, as of the last persisted flip (see the
    /// [`persist`] module docs for the exact guarantee);
    /// [`EngineStats::recovery_replayed_windows`] reports the replayed
    /// tail length.
    ///
    /// [`PersistenceConfig::checkpoint_every_windows`]:
    ///     crate::config::PersistenceConfig::checkpoint_every_windows
    pub fn open(
        method: D::Method,
        config: IgqConfig,
        store: Arc<dyn CacheStore>,
    ) -> Result<Engine<D>, PersistError> {
        config.validate()?;
        let labels = Self::resolve_labels(&method, &config);
        let config_fp = persist::config_fingerprint(&config, D::direction_name());
        let dataset_fp = persist::dataset_fingerprint(D::store(&method));
        let check_fps = |found_config: u64, found_dataset: u64| -> Result<(), PersistError> {
            if found_config != config_fp {
                return Err(PersistError::ConfigMismatch {
                    expected: config_fp,
                    found: found_config,
                });
            }
            if found_dataset != dataset_fp {
                return Err(PersistError::DatasetMismatch {
                    expected: dataset_fp,
                    found: found_dataset,
                });
            }
            Ok(())
        };

        let checkpoint = match store.load_checkpoint()? {
            Some(bytes) => {
                let data = persist::decode_checkpoint(&bytes)?;
                check_fps(data.config_fp, data.dataset_fp)?;
                // The persisted label universe is derived from the same
                // config + dataset the fingerprints cover; a disagreement
                // means the artifact is internally inconsistent (the
                // replacement metadata was accumulated under a different
                // cost model).
                if data.labels != labels {
                    return Err(PersistError::Corrupt(format!(
                        "checkpoint label universe {} does not match the engine's {labels}",
                        data.labels
                    )));
                }
                Some(data)
            }
            None => None,
        };
        let wal = persist::parse_wal(&store.load_wal()?)?;
        if let Some(h) = &wal.header {
            check_fps(h.config_fp, h.dataset_fp)?;
        }
        // The failover epoch survives restarts: a promoted-then-restarted
        // primary must keep fencing its predecessor's stream. Either
        // artifact may be the newer one (checkpoint cadence vs. WAL
        // header rewrite), so take the max.
        let epoch = checkpoint
            .as_ref()
            .map_or(0, |d| d.epoch)
            .max(wal.header.as_ref().map_or(0, |h| h.epoch));
        if wal.torn_tail {
            eprintln!(
                "igq: warning: WAL ends in a torn record (crash mid-append); \
                 truncating to the last intact flip"
            );
        }

        let mut st = Self::restore_from_checkpoint(&config, labels, checkpoint)?;

        // Replay the WAL tail record by record (one record per flip):
        // recorded evictions/admissions re-applied verbatim through the
        // cache's own free list (the policy is not re-run), indexes
        // updated incrementally, the final flip's metadata table restored
        // last.
        let mut replayed = 0u64;
        let mut kept: Vec<persist::WalRecord> = Vec::new();
        let mut previous: Option<u64> = None;
        for record in wal.records {
            if previous == Some(record.seq) {
                return Err(PersistError::Corrupt(format!(
                    "WAL records flip {} twice",
                    record.seq
                )));
            }
            previous = Some(record.seq);
            if record.seq <= st.seq {
                continue; // subsumed by the checkpoint
            }
            if record.seq != st.seq + 1 {
                return Err(PersistError::Corrupt(format!(
                    "WAL sequence gap: expected flip {}, found {}",
                    st.seq + 1,
                    record.seq
                )));
            }
            let admitted: Vec<(usize, CacheEntry)> = record
                .admitted
                .iter()
                .map(|p| (p.slot, p.entry.clone()))
                .collect();
            st.cache
                .replay_window(&record.evicted, admitted)
                .map_err(PersistError::Corrupt)?;
            for &slot in &record.evicted {
                st.isub.remove(slot);
                st.isuper.remove(slot);
            }
            for p in &record.admitted {
                // WAL records carry no feature sets (they are the short
                // tail); one enumeration feeds both indexes, exactly as a
                // live flip would.
                let features = enumerate_paths(&p.entry.graph, &config.path_config);
                let keys: Arc<[LabelSeq]> = features.counts.keys().cloned().collect();
                st.isub.insert_features(
                    p.slot,
                    Arc::clone(&p.entry.graph),
                    &features,
                    Arc::clone(&keys),
                );
                st.isuper.insert_features(
                    p.slot,
                    Arc::clone(&p.entry.graph),
                    &features,
                    keys,
                    p.entry.code.clone(),
                );
            }
            st.seq = record.seq;
            replayed += 1;
            kept.push(record);
        }
        if let Some(last) = kept.last() {
            for &(slot, meta) in &last.metas {
                match st.cache.get(slot) {
                    Some(_) => st.cache.entry_mut(slot).meta = meta,
                    None => {
                        return Err(PersistError::Corrupt(format!(
                            "WAL metadata for slot {slot}, which is not occupied after replay"
                        )))
                    }
                }
            }
        }

        // Compact the WAL to exactly the replayed tail (drops records the
        // checkpoint subsumes and any torn bytes) and re-establish the
        // header, so the file is clean from here on.
        let header = persist::WalHeader {
            config_fp,
            dataset_fp,
            epoch,
        };
        store.replace_wal(&persist::encode_wal(&header, &kept))?;

        // The checkpoint's pending window is only current while no flip
        // followed it: the first replayed WAL record's admission batch
        // *contained* those entries (a flip drains the whole window), so
        // keeping them would admit them a second time at the next flip —
        // a duplicate resident the never-restarted engine does not have.
        // After any replay the true state is "window empty as of the last
        // flip" (entries enqueued after it are the documented loss
        // window).
        if replayed > 0 {
            st.window.clear();
        }
        // Window signatures ride alongside the window entries; recompute
        // any an old artifact did not carry.
        st.window_signatures = st
            .window
            .iter_mut()
            .map(|w| {
                let sig = w.signature.unwrap_or_else(|| GraphSignature::of(&w.graph));
                w.signature = Some(sig);
                sig
            })
            .collect();

        let pctl = PersistCtl {
            store,
            config_fp,
            dataset_fp,
            checkpoint_every: config
                .persistence
                .checkpoint_every_windows
                .map(|w| w as u64),
            appends_since_checkpoint: AtomicU64::new(kept.len() as u64),
            checkpoint_lock: Mutex::new(()),
            degraded: AtomicBool::new(false),
            degraded_reason: Mutex::new(String::new()),
            quarantine: Mutex::new(VecDeque::new()),
            retry_not_before: Mutex::new(None),
            retry_strikes: AtomicU64::new(0),
            tail_suspect: AtomicBool::new(false),
        };
        let engine = Self::assemble(method, config, st, Some(pctl), false);
        engine.epoch.store(epoch, Ordering::Relaxed);
        engine.stats.set_recovery_replayed_windows(replayed);
        Ok(engine)
    }

    /// The shared restore half of [`Engine::open`] and
    /// [`Engine::open_follower`]: reconstitutes the cache and both query
    /// indexes from a decoded checkpoint — no re-enumeration, no
    /// re-canonicalization (the persisted feature sets feed
    /// `insert_features` directly). The checkpoint's pending window is
    /// restored as-is (its signatures are the caller's job). `None`
    /// yields a cold start.
    fn restore_from_checkpoint(
        config: &IgqConfig,
        labels: usize,
        checkpoint: Option<persist::CheckpointData>,
    ) -> Result<State, PersistError> {
        let mut st = State::empty(config, labels);
        let Some(data) = checkpoint else {
            return Ok(st);
        };
        let entries: Vec<(usize, CacheEntry)> = data
            .entries
            .iter()
            .map(|p| (p.slot, p.entry.clone()))
            .collect();
        st.cache = QueryCache::restore(
            config.cache_capacity,
            config.policy,
            data.round,
            data.slot_count,
            data.free,
            entries,
        )
        .map_err(PersistError::Corrupt)?;
        for p in &data.entries {
            match &p.features {
                Some(f) => {
                    let mut features = PathFeatures {
                        complete_len: f.complete_len,
                        ..PathFeatures::default()
                    };
                    for (seq_key, count) in &f.counts {
                        features.counts.insert(seq_key.clone(), *count);
                    }
                    let keys: Arc<[LabelSeq]> = features.counts.keys().cloned().collect();
                    st.isub.insert_features(
                        p.slot,
                        Arc::clone(&p.entry.graph),
                        &features,
                        Arc::clone(&keys),
                    );
                    st.isuper.insert_features(
                        p.slot,
                        Arc::clone(&p.entry.graph),
                        &features,
                        keys,
                        p.entry.code.clone(),
                    );
                }
                // Older/foreign checkpoints without feature sets:
                // fall back to enumeration.
                None => {
                    st.isub.insert(p.slot, Arc::clone(&p.entry.graph));
                    st.isuper.insert(p.slot, Arc::clone(&p.entry.graph));
                }
            }
        }
        st.seq = data.seq;
        st.window = data.window;
        Ok(st)
    }

    /// Opens a **follower** read replica from a primary's snapshot — the
    /// `checkpoint` payload of [`Subscription::Snapshot`] (any durable
    /// checkpoint of the same engine works too). The follower serves
    /// read-only queries over the replicated cache: its state advances
    /// only through [`Engine::apply_replica_delta`], local queries are
    /// never admitted to a window, and write-path operations are rejected
    /// with a typed [`ReplicaError`].
    ///
    /// `method` and `config` must match the primary's: the snapshot's
    /// config/dataset fingerprints and label universe are validated
    /// exactly as [`Engine::open`] validates a store. The
    /// follower keeps no store of its own — crash recovery is a
    /// re-bootstrap from the primary — and its pending window is always
    /// empty (admissions arrive pre-flipped inside delta groups; the
    /// snapshot's window tail materializes in a later group if the
    /// primary ever admits it).
    pub fn open_follower(
        method: D::Method,
        config: IgqConfig,
        snapshot: &[u8],
    ) -> Result<Engine<D>, PersistError> {
        config.validate()?;
        let labels = Self::resolve_labels(&method, &config);
        let config_fp = persist::config_fingerprint(&config, D::direction_name());
        let dataset_fp = persist::dataset_fingerprint(D::store(&method));
        let data = persist::decode_checkpoint(snapshot)?;
        if data.config_fp != config_fp {
            return Err(PersistError::ConfigMismatch {
                expected: config_fp,
                found: data.config_fp,
            });
        }
        if data.dataset_fp != dataset_fp {
            return Err(PersistError::DatasetMismatch {
                expected: dataset_fp,
                found: data.dataset_fp,
            });
        }
        if data.labels != labels {
            return Err(PersistError::Corrupt(format!(
                "snapshot label universe {} does not match the engine's {labels}",
                data.labels
            )));
        }
        // The follower starts at the primary's failover epoch: older
        // streams (a deposed primary) are fenced from the first group.
        let epoch = data.epoch;
        let mut st = Self::restore_from_checkpoint(&config, labels, Some(data))?;
        st.window.clear();
        let seq = st.seq;
        let engine = Self::assemble(method, config, st, None, true);
        engine.epoch.store(epoch, Ordering::Relaxed);
        engine.stats.set_last_applied_seq(seq);
        engine.stats.note_replica_heard(seq);
        Ok(engine)
    }

    /// Subscribes a replica to this engine's committed window flips,
    /// activating the replication hub on first use (from then on every
    /// flip group is published through it, post-WAL-append, in flip
    /// order — the hub stays active for the engine's lifetime).
    ///
    /// `from_seq` is the subscriber's last applied flip: when the hub can
    /// prove the stream from there onward is gap-free (`from_seq` is
    /// current, or every later group is still in the replay ring) the
    /// result is [`Subscription::Live`] — the feed resumes mid-stream
    /// with no snapshot transfer. Otherwise (fresh follower, or one that
    /// fell further behind than
    /// [`REPLICATION_RING_GROUPS`](crate::replicate::REPLICATION_RING_GROUPS))
    /// the result is [`Subscription::Snapshot`]: a checkpoint captured
    /// under the same lock the feed is registered under, so the feed
    /// carries exactly the flips after it (a duplicate at the boundary is
    /// possible and skipped by [`Engine::apply_replica_delta`]).
    ///
    /// Works on any engine — durable or purely in-memory (an in-memory
    /// primary starts sequencing flips at activation) — and on a
    /// follower, which republishes every group it applies (chaining).
    pub fn subscribe_replication(&self, from_seq: Option<u64>) -> Subscription {
        // Under the state read lock no flip can land (flips hold the
        // write side), so activation, the resume check, and snapshot/feed
        // registration all see one consistent seq — and every later flip
        // observes the active hub. The drain (safe under the read lock: it
        // takes only the outbox/WAL locks) clears any committed-but-
        // unpublished flips first, so nothing committed before
        // activation is re-published after it.
        let g = self.lock_read();
        self.drain_outbox();
        self.hub.activate(g.seq);
        if let Some(after) = from_seq {
            if let Some(feed) = self.hub.try_resume(after) {
                return Subscription::Live { feed };
            }
            // The subscriber is older than the in-memory resume ring. On
            // a durable primary the missing groups are usually still in
            // the WAL: replay them from disk and splice them in front of
            // the live ring, so the follower catches up over the stream
            // instead of re-transferring a full snapshot.
            if let Some(feed) = self.wal_backlog_feed(after) {
                self.stats.count_replica_wal_catchup();
                return Subscription::Live { feed };
            }
        }
        let config_fp = persist::config_fingerprint(&self.config, D::direction_name());
        let dataset_fp = persist::dataset_fingerprint(D::store(&self.method));
        let data = self.capture_state(&g, config_fp, dataset_fp);
        let seq = data.seq;
        let feed = self.hub.attach_after(seq);
        Subscription::Snapshot {
            seq,
            checkpoint: persist::encode_checkpoint(&data),
            feed,
        }
    }

    /// WAL-backed catch-up (the resume path beyond the in-memory ring):
    /// reads the attached store's WAL, re-encodes the flips after `after`
    /// as delta groups, and asks the hub to splice them in front of the
    /// live ring. `None` — meaning the caller must fall back to a
    /// snapshot — when the engine has no store, the log is degraded
    /// (quarantined flips are missing from disk), the checkpoint already
    /// subsumed a needed flip, or the hub cannot prove the splice
    /// gap-free.
    fn wal_backlog_feed(&self, after: u64) -> Option<crate::replicate::ReplicaFeed> {
        let p = self.persist.as_ref()?;
        if p.degraded.load(Ordering::Relaxed) {
            return None;
        }
        // Under the WAL lock no appender is concurrently writing, so the
        // log read here is a clean prefix of the stream; the caller holds
        // the state *read* lock (never the write side), matching the
        // `wal_lock` ordering rule.
        let _appending = self.wal_lock.lock().expect(POISONED);
        // A torn tail only drops the final (never-committed) record; the
        // intact prefix is still a valid backlog source.
        let wal = persist::parse_wal(&p.store.load_wal().ok()?).ok()?;
        let epoch = self.epoch.load(Ordering::Relaxed);
        let mut backlog = Vec::new();
        let mut next = after + 1;
        for record in wal.records {
            let seq = record.seq;
            if seq <= after {
                continue;
            }
            if seq != next {
                // The checkpoint subsumed a flip the subscriber still
                // needs; only a snapshot can cover it.
                return None;
            }
            next += 1;
            backlog.push(DeltaGroup {
                seq,
                bytes: persist::encode_group_binary(&record, epoch).into(),
            });
        }
        if backlog.is_empty() {
            return None;
        }
        self.hub.attach_with_backlog(after, backlog)
    }

    /// Applies one replicated flip group (the `bytes` of a
    /// [`DeltaGroup`]) to this follower. Groups apply whole-or-not-at-all
    /// in strict seq order: a group at or below the last applied flip is
    /// a duplicate redelivery (resume overlap) and is skipped with `Ok`;
    /// a gap means lost groups and returns [`ReplicaError::SeqGap`] — the
    /// caller should re-subscribe with `from_seq` or re-bootstrap. A
    /// decode or replay failure is [`ReplicaError::Corrupt`]; after a
    /// replay failure the follower must be re-bootstrapped.
    ///
    /// Returns the follower's last applied seq.
    pub fn apply_replica_delta(&self, bytes: &[u8]) -> Result<u64, ReplicaError> {
        if !self.follower.load(Ordering::Relaxed) {
            return Err(ReplicaError::NotFollower);
        }
        let (stream_epoch, record) = persist::decode_group_binary(bytes)?;
        // Seq fencing: a group stamped with an older failover epoch comes
        // from a deposed primary (this replica promoted, or follows a
        // promoted one) and must never apply — its flips were not
        // sequenced by the current primary. A *newer* epoch is the new
        // primary announcing itself: adopt it.
        let local = self.epoch.load(Ordering::Relaxed);
        if stream_epoch < local {
            return Err(ReplicaError::EpochFenced {
                stream: stream_epoch,
                local,
            });
        }
        if stream_epoch > local {
            self.epoch.store(stream_epoch, Ordering::Relaxed);
        }
        let seq = record.seq;
        self.stats.note_replica_heard(seq);
        {
            let mut guard = self.lock_write();
            let st = &mut *guard;
            // Re-check under the write lock: `promote` flips the flag
            // while holding it, so a group racing a promotion is rejected
            // rather than applied to a now-writable primary.
            if !self.follower.load(Ordering::Relaxed) {
                return Err(ReplicaError::NotFollower);
            }
            if seq <= st.seq {
                return Ok(st.seq);
            }
            if seq != st.seq + 1 {
                return Err(ReplicaError::SeqGap {
                    expected: st.seq + 1,
                    found: seq,
                });
            }
            // Snapshot the evicted entries' canonical codes *before*
            // replay frees their slots: plans die with their windows,
            // exactly as on the primary. (The primary's own delta omits
            // codes with a surviving isomorphic duplicate; evicting those
            // plans here too costs only a re-plan, never correctness.)
            let delta = WindowDelta {
                evicted: record.evicted.clone(),
                admitted: record.admitted.iter().map(|p| p.slot).collect(),
                evicted_codes: record
                    .evicted
                    .iter()
                    .filter_map(|&slot| st.cache.get(slot).and_then(|e| e.code.clone()))
                    .collect(),
            };
            // Replay through the same machinery recovery uses: recorded
            // evictions/admissions re-applied verbatim (the policy is not
            // re-run), so the follower makes bit-for-bit the primary's
            // slot decisions.
            let admitted: Vec<(usize, CacheEntry)> = record
                .admitted
                .iter()
                .map(|p| (p.slot, p.entry.clone()))
                .collect();
            st.cache
                .replay_window(&record.evicted, admitted)
                .map_err(ReplicaError::Corrupt)?;
            // The group carries the full replacement-metadata table as of
            // the flip; applying it keeps follower evictions (in later
            // groups) trivially consistent, since the primary replays its
            // own decisions into the stream anyway.
            for &(slot, meta) in &record.metas {
                match st.cache.get(slot) {
                    Some(_) => st.cache.entry_mut(slot).meta = meta,
                    None => {
                        return Err(ReplicaError::Corrupt(format!(
                            "delta metadata for slot {slot}, which is not occupied after replay"
                        )))
                    }
                }
            }
            for code in &delta.evicted_codes {
                self.plan_cache.evict_key(code);
            }
            // Index maintenance runs exactly like a live flip.
            self.apply_index_delta(st, &delta, true);
            st.seq = seq;
            self.stats.set_last_applied_seq(seq);
        }
        // Off the state locks: republish the same bytes for any chained
        // subscribers (a follower can itself feed further replicas).
        if self.hub.is_active() {
            self.hub.publish(DeltaGroup {
                seq,
                bytes: Arc::from(bytes),
            });
            self.stats.count_replica_group_published();
        }
        self.stats.record_replica_group_applied(bytes.len() as u64);
        Ok(seq)
    }

    /// `true` if this engine is a read-only follower replica
    /// ([`Engine::open_follower`]) that has not been
    /// [`promote`](Engine::promote)d.
    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::Relaxed)
    }

    /// Promotes this follower into a writable primary (automatic
    /// failover). Under the state write lock — so no delta group is
    /// mid-apply and no query mid-enqueue — the read-only flag drops and
    /// the failover epoch is bumped; from here the engine admits queries,
    /// flips windows, and publishes delta groups stamped with the new
    /// epoch, while any straggler group from the deposed primary is
    /// fenced by [`apply_replica_delta`](Engine::apply_replica_delta) on
    /// every replica that adopted the new epoch.
    ///
    /// Returns the new epoch. [`ReplicaError::NotFollower`] if the engine
    /// is already a primary (including a second `promote` call).
    pub fn promote(&self) -> Result<u64, ReplicaError> {
        let _g = self.lock_write();
        if !self.follower.load(Ordering::Relaxed) {
            return Err(ReplicaError::NotFollower);
        }
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        self.epoch.store(epoch, Ordering::Relaxed);
        self.follower.store(false, Ordering::Relaxed);
        Ok(epoch)
    }

    /// The current failover epoch: 0 until a promotion happens anywhere
    /// in the replication tree; bumped by [`promote`](Engine::promote),
    /// adopted from the stream by followers.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Follower staleness in window flips — the highest flip heard from
    /// the primary's stream minus the last flip applied locally. `None`
    /// on a primary. Cheap (two atomic loads): intended for per-request
    /// bounded-staleness admission checks.
    pub fn replication_lag(&self) -> Option<u64> {
        self.is_follower()
            .then(|| self.stats.replication_lag_windows())
    }

    /// Records that the primary's stream has reached `seq` without
    /// applying anything (e.g. a heartbeat, or a delta observed but still
    /// queued): the staleness gauge measures heard-vs-applied, so feeds
    /// should report both sides.
    pub fn note_replica_heard(&self, seq: u64) {
        self.stats.note_replica_heard(seq);
    }

    /// Moves the engine behind a cheap cloneable [`crate::EngineHandle`]
    /// for fan-out across threads.
    pub fn into_handle(self) -> crate::EngineHandle<Engine<D>> {
        crate::EngineHandle::new(self)
    }

    /// The wrapped method.
    pub fn method(&self) -> &D::Method {
        &self.method
    }

    /// Aggregate statistics so far (an owned snapshot, assembled from
    /// lock-free atomics — safe to call from any thread at any time).
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats.snapshot();
        // The plan cache's own counters are authoritative (they also see
        // index-probe lookups, which never flow through a
        // `VerifyBatchStats`); overlay them at snapshot time.
        let plans = self.plan_cache.stats();
        stats.plan_cache_hits = plans.hits;
        stats.plan_cache_misses = plans.misses;
        stats.plan_cache_evictions = plans.evictions;
        stats.epoch = self.epoch.load(Ordering::Relaxed);
        if let Some(p) = &self.persist {
            stats.wal_quarantined_groups = p.quarantine.lock().expect(POISONED).len() as u64;
            if p.degraded.load(Ordering::Relaxed) {
                stats.degraded = true;
                stats.degraded_reason = p.degraded_reason.lock().expect(POISONED).clone();
            }
        }
        stats
    }

    /// Does nothing: index maintenance is synchronous, so the indexes are
    /// always in lockstep with the cache. Kept only because the frozen
    /// `benchmark/` still calls it; delete with the next `benchmark` PR.
    pub fn sync_maintenance(&self) {}

    /// Engine configuration.
    pub fn config(&self) -> &IgqConfig {
        &self.config
    }

    /// Number of currently cached queries.
    pub fn cached_queries(&self) -> usize {
        self.lock_read().cache.len()
    }

    /// Approximate footprint of iGQ's own structures (query graphs, answer
    /// sets, and both query indexes) — the iGQ bar of Figure 18.
    pub fn igq_index_size_bytes(&self) -> u64 {
        let st = self.lock_read();
        self.plan_cache.heap_size_bytes()
            + st.cache.heap_size_bytes()
            + st.isub.heap_size_bytes()
            + st.isuper.heap_size_bytes()
    }

    /// Estimated cost (log space) of iso-testing `q` against each graph in
    /// `ids`, with the pattern/target roles ordered by the direction.
    fn cost_of(&self, model: &mut CostModel, q: &Graph, ids: &[GraphId]) -> LogValue {
        let n = q.vertex_count();
        let mut total = LogValue::ZERO;
        for &id in ids {
            let ni = D::store(&self.method).get(id).vertex_count();
            total = total.add(D::cost_ln(model, n, ni));
        }
        total
    }

    /// Processes one query, returning the exact answer set plus accounting
    /// (Theorems 1 and 2: no false positives, no false negatives).
    ///
    /// Takes `&self`: any number of threads may call this concurrently on
    /// one shared engine. Each call's answers are exact against the
    /// dataset regardless of interleaving; what concurrency can change is
    /// only the *accounting* (which caller's query flips a window, which
    /// cache entry serves a hit).
    pub fn query(&self, q: &Graph) -> QueryOutcome {
        self.run(q, &QueryOptions::default())
    }

    /// Processes a typed [`QueryRequest`] (per-query options: admission
    /// control, deadline observability). The response carries the
    /// engine-observed end-to-end latency ([`QueryResponse::elapsed`]) and
    /// counts toward [`EngineStats::requests_served`].
    pub fn execute(&self, request: &QueryRequest) -> QueryResponse {
        let start = Instant::now();
        let outcome = self.run(&request.graph, &request.options);
        let elapsed = start.elapsed();
        self.stats.count_request_served();
        let deadline_exceeded = request.options.deadline.is_some_and(|d| elapsed > d);
        QueryResponse {
            outcome,
            elapsed,
            deadline_exceeded,
        }
    }

    /// Fans `items` across worker threads sharing this engine
    /// ([`IgqConfig::batch_threads`]; `0` = available parallelism),
    /// returning per-item results index-aligned with the input — the
    /// engine shared by [`query_batch`](Engine::query_batch) and
    /// [`execute_batch`](Engine::execute_batch).
    fn fan_out<T: Sync, R: Send>(&self, items: &[T], run: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let threads = match self.config.batch_threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
        .min(items.len().max(1));
        if threads <= 1 {
            return items.iter().map(run).collect();
        }
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let run = &run;
        let chunks = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            local.push((i, run(item)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker"))
                .collect::<Vec<_>>()
        });
        for (i, out) in chunks.into_iter().flatten() {
            results[i] = Some(out);
        }
        results
            .into_iter()
            .map(|o| o.expect("every index claimed exactly once"))
            .collect()
    }

    /// Fans `queries` across worker threads sharing this engine
    /// ([`IgqConfig::batch_threads`]; `0` = available parallelism). The
    /// output is index-aligned with the input. Equivalent to calling
    /// [`query`](Engine::query) for each element — just concurrent.
    pub fn query_batch(&self, queries: &[Graph]) -> Vec<QueryOutcome> {
        self.fan_out(queries, |q| self.query(q))
    }

    /// Fans a batch of typed requests across worker threads, preserving
    /// each request's options and per-request accounting
    /// ([`execute`](Engine::execute) semantics, index-aligned output). A
    /// multi-request batch counts once toward
    /// [`EngineStats::batches_coalesced`]: this is the scatter/gather
    /// entry point a serving front end's micro-batcher amortizes its
    /// coalescing window through.
    pub fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<QueryResponse> {
        if requests.len() >= 2 {
            self.stats.count_batch_coalesced();
        }
        self.fan_out(requests, |r| self.execute(r))
    }

    /// Records one request shed by admission control into
    /// [`EngineStats::requests_rejected_overload`]. Called by the serving
    /// edge, which owns the shed decision; the engine only keeps the
    /// ledger.
    pub fn note_overload_rejection(&self) {
        self.stats.count_overload_rejection();
    }

    /// The shared pipeline behind [`query`](Engine::query) and
    /// [`execute`](Engine::execute).
    fn run(&self, q: &Graph, opts: &QueryOptions) -> QueryOutcome {
        let wall_start = Instant::now();
        let mut outcome = QueryOutcome::default();

        // Optimal case 1 fast path: a canonical-code hash lookup detects
        // exact repeats before any filtering or probing (see
        // [`IgqConfig::exact_fastpath`]). The probe path below still
        // catches repeats of the rare query `canonical_code` declines
        // (over its vertex cap, or its orbit-pruned search still out of
        // leaves). The canonicalization outcome is kept and threaded
        // through to window admission so maintenance never recomputes it.
        // The common miss pays only a read lock; a hit re-checks under the
        // write lock (the slot may have been evicted in between).
        let code: Option<Option<CanonicalCode>> = self.config.exact_fastpath.then(|| {
            let code = canonical_code(q);
            self.stats
                .record_canonicalization(wall_start.elapsed(), code.is_none());
            code
        });
        if let Some(Some(c)) = &code {
            let probable_hit = self.lock_read().cache.slot_with_code(c).is_some();
            if probable_hit {
                let mut guard = self.lock_write();
                let st = &mut *guard;
                if let Some(slot) = st.cache.slot_with_code(c) {
                    st.cache.tick_all();
                    let answers = st.cache.entry(slot).answers.clone();
                    // Credit: without running the filter the alleviated
                    // candidate set is unknown; the stored answers are a
                    // conservative lower bound on it.
                    let credit = self.cost_of(&mut st.cost_model, q, &answers);
                    st.cache
                        .entry_mut(slot)
                        .meta
                        .record_hit(answers.len() as u64, credit);
                    outcome.answers = answers;
                    outcome.resolution = Resolution::ExactHit;
                    outcome.igq_time = wall_start.elapsed();
                    outcome.wall_time = wall_start.elapsed();
                    self.stats.absorb(&outcome);
                    return outcome;
                }
            }
        }

        // Single-pass feature extraction: the query's paths are enumerated
        // once here and shared by the base filter and both index probes.
        let extract_start = Instant::now();
        let qf = enumerate_paths(q, &self.config.path_config);
        let extract_time = extract_start.elapsed();
        self.stats.count_feature_extraction();

        // Stage 1: the base filter — expensive, and always outside the
        // locks.
        let f_start = Instant::now();
        let filtered = D::filter(&self.method, q, &qf);
        let filter_time = f_start.elapsed();

        // The query's canonical code (when computed, and not declined)
        // keys the plan cache for the `Isub` probe and the verify stage.
        let qcode: Option<&CanonicalCode> = code.as_ref().and_then(|c| c.as_ref());

        // Stage 2: query-index probes, under the state lock so the
        // returned slots stay valid through the answer algebra below.
        let mut guard = self.lock_write();
        let st = &mut *guard;
        let p_start = Instant::now();
        let (sub_slots, sub_stats) =
            st.isub
                .supergraphs_of_with_plans(q, &qf, qcode.map(|c| (&self.plan_cache, c)));
        let (super_slots, super_stats) =
            st.isuper
                .subgraphs_of_with_plans(q, &qf, Some(&self.plan_cache));
        let probe_time = p_start.elapsed();
        outcome.filter_time = filter_time;
        let mut igq_stats = IsoStats::new();
        igq_stats.merge(&sub_stats);
        igq_stats.merge(&super_stats);
        outcome.igq_iso_tests = igq_stats.tests;
        outcome.isub_hits = sub_slots.len();
        outcome.isuper_hits = super_slots.len();
        outcome.candidates_before = filtered.candidates.len();

        let bookkeeping_start = Instant::now();
        // Every cached entry has now seen one more query.
        st.cache.tick_all();

        let cs = &filtered.candidates;

        // The direction decides which probe feeds the *known answers*
        // path and which the *bounding* path (Section 4.4 inversion).
        let (known_slots, bound_slots) = if D::KNOWN_IS_ISUB {
            (&sub_slots, &super_slots)
        } else {
            (&super_slots, &sub_slots)
        };

        // Optimal case 1: exact repeat — g isomorphic to a cached query.
        // g ⊆ G (or G ⊆ g) at equal vertex/edge counts is an isomorphism.
        let exact_slot = sub_slots
            .iter()
            .chain(super_slots.iter())
            .copied()
            .find(|&s| {
                let g = &st.cache.entry(s).graph;
                g.vertex_count() == q.vertex_count() && g.edge_count() == q.edge_count()
            });
        if let Some(slot) = exact_slot {
            outcome.answers = st.cache.entry(slot).answers.clone();
            outcome.resolution = Resolution::ExactHit;
            outcome.candidates_after = 0;
            outcome.pruned_by_isub = cs.len();
            let credit = self.cost_of(&mut st.cost_model, q, cs);
            credit_hits::<D>(
                self,
                st,
                q,
                cs,
                known_slots,
                bound_slots,
                Some((slot, credit)),
            );
            outcome.igq_time = extract_time + probe_time + bookkeeping_start.elapsed();
            outcome.wall_time = wall_start.elapsed();
            self.stats.absorb(&outcome);
            return outcome;
        }

        // Optimal case 2: a cached bounding query with an empty answer set
        // proves Answer(g) = ∅ (Section 4.3; roles inverted in the
        // supergraph direction, Section 4.4).
        if let Some(&slot) = bound_slots
            .iter()
            .find(|&&s| st.cache.entry(s).answers.is_empty())
        {
            outcome.answers = Vec::new();
            outcome.resolution = Resolution::EmptyAnswerShortcut;
            outcome.candidates_after = 0;
            if D::KNOWN_IS_ISUB {
                outcome.pruned_by_isuper = cs.len();
            } else {
                outcome.pruned_by_isub = cs.len();
            }
            let credit = self.cost_of(&mut st.cost_model, q, cs);
            credit_hits::<D>(
                self,
                st,
                q,
                cs,
                known_slots,
                bound_slots,
                Some((slot, credit)),
            );
            // An empty-answer query is prime cache material.
            if !opts.skip_admission {
                if let Some(entry) = self.pending_admission(q, &[], code.clone()) {
                    self.enqueue(st, entry);
                }
            }
            outcome.igq_time = extract_time + probe_time + bookkeeping_start.elapsed();
            let maint_start = Instant::now();
            let maintained = self.maybe_maintain(st);
            drop(guard);
            if maintained {
                self.drain_outbox();
                outcome.igq_time += maint_start.elapsed();
                self.maybe_auto_checkpoint();
            }
            outcome.wall_time = wall_start.elapsed();
            self.stats.absorb(&outcome);
            return outcome;
        }

        // Formula (3) (or its Section 4.4 inverse): known answers. The
        // answer-set algebra below runs on two reused buffers (`pruned`
        // and `spare`, swapped per step) with galloping intersection /
        // subtraction — a handful of cached-answer probes against a large
        // candidate set costs O(hits · log |CS|), not O(|CS|) per slot.
        let mut known_answers: Vec<GraphId> = Vec::new();
        for &s in known_slots {
            known_answers.extend_from_slice(&st.cache.entry(s).answers);
        }
        known_answers.sort_unstable();
        known_answers.dedup();
        let mut known_in_cs = Vec::new();
        intersect_into(cs, &known_answers, &mut known_in_cs);
        let mut pruned = Vec::new();
        let mut spare = Vec::new();
        subtract_into(cs, &known_answers, &mut pruned);
        let known_pruned = cs.len() - pruned.len();

        // Formula (5): candidates must appear in every bounding answer set.
        let before_bound = pruned.len();
        for &s in bound_slots {
            intersect_into(&pruned, &st.cache.entry(s).answers, &mut spare);
            std::mem::swap(&mut pruned, &mut spare);
            if pruned.is_empty() {
                break;
            }
        }
        let bound_pruned = before_bound - pruned.len();
        if D::KNOWN_IS_ISUB {
            outcome.pruned_by_isub = known_pruned;
            outcome.pruned_by_isuper = bound_pruned;
        } else {
            outcome.pruned_by_isuper = known_pruned;
            outcome.pruned_by_isub = bound_pruned;
        }
        outcome.candidates_after = pruned.len();

        // Metadata credit for every hit.
        credit_hits::<D>(self, st, q, cs, known_slots, bound_slots, None);
        outcome.igq_time = extract_time + probe_time + bookkeeping_start.elapsed();
        drop(guard); // verification runs outside the lock

        // Verification of the surviving candidates, with the engine's
        // plan cache keyed by the query's canonical code (a repeat query
        // reuses its matching plan instead of rebuilding it).
        let verify_start = Instant::now();
        let plan_source = PlanSource {
            cache: &self.plan_cache,
            key: qcode,
        };
        let (results, batch_stats) = D::verify(
            &self.method,
            q,
            &filtered.context,
            &pruned,
            Some(plan_source),
        );
        self.stats.record_verify_batch(&batch_stats);
        outcome.db_iso_tests = pruned.len() as u64;
        outcome.aborted_tests = results.iter().filter(|r| r.aborted).count() as u64;
        let mut answers: Vec<GraphId> = pruned
            .iter()
            .zip(results.iter())
            .filter(|(_, r)| r.contains)
            .map(|(&id, _)| id)
            .collect();
        outcome.verify_time = verify_start.elapsed();

        // Formula (4): add back the known answers.
        answers.extend_from_slice(&known_in_cs);
        answers.sort_unstable();
        answers.dedup();
        outcome.answers = answers;

        // Window admission and maintenance, under a fresh write lock. A
        // query whose verification hit the abort budget has a
        // possibly-incomplete answer set: caching it would let formulas
        // (3)–(5) turn one bounded verification into wrong answers for
        // *future* queries, so it is never admitted.
        // The admission record (graph clone, WL signature) is built before
        // the lock so concurrent callers do not serialize on it.
        let maint_start = Instant::now();
        let pending = (outcome.aborted_tests == 0 && !opts.skip_admission)
            .then(|| self.pending_admission(q, &outcome.answers, code))
            .flatten();
        let maintained = {
            let mut st = self.lock_write();
            if let Some(entry) = pending {
                self.enqueue(&mut st, entry);
            }
            self.maybe_maintain(&mut st)
        };
        if maintained {
            self.drain_outbox();
        }
        outcome.igq_time += maint_start.elapsed();
        if maintained {
            self.maybe_auto_checkpoint();
        }

        outcome.wall_time = wall_start.elapsed();
        self.stats.absorb(&outcome);
        outcome
    }

    /// Builds the window entry admitting `(q, answers)`: the graph clone
    /// and the WL signature need no lock, so the final-admission path
    /// calls this before taking the write lock. `code` is the query-path
    /// canonicalization outcome, reused at admission. `None` on a
    /// follower, whose cache changes only by replaying the primary's delta
    /// groups: local queries are answered (read-only) but never admitted,
    /// or the replica would diverge from the primary. (Engines only ever
    /// leave follower mode, so checking here, ahead of the lock, can at
    /// worst skip one admission racing a promotion.)
    fn pending_admission(
        &self,
        q: &Graph,
        answers: &[GraphId],
        code: Option<Option<CanonicalCode>>,
    ) -> Option<WindowEntry> {
        if self.follower.load(Ordering::Relaxed) {
            return None;
        }
        Some(WindowEntry {
            graph: Arc::new(q.clone()),
            answers: answers.to_vec(),
            signature: Some(GraphSignature::of(q)),
            code,
        })
    }

    /// Adds a [`pending_admission`](Self::pending_admission) to the window
    /// unless its graph is an exact duplicate of a pending window entry
    /// (cache duplicates were already handled by the exact-hit path; two
    /// concurrent first-time callers of the same query can still both
    /// admit — duplicate residents are tolerated by the cache, see
    /// `duplicate_codes_survive_partial_eviction`).
    fn enqueue(&self, st: &mut State, entry: WindowEntry) {
        let sig = entry
            .signature
            .expect("pending_admission computes the signature");
        let dup = st
            .window_signatures
            .iter()
            .zip(st.window.iter())
            .any(|(s, e)| *s == sig && igq_iso::are_isomorphic(&entry.graph, &e.graph));
        if dup {
            return;
        }
        st.window.push(entry);
        st.window_signatures.push(sig);
    }

    /// Runs window maintenance when `W` queries have accumulated: evict,
    /// admit, and bring both query indexes up to date.
    fn maybe_maintain(&self, st: &mut State) -> bool {
        if st.window.len() < self.config.window {
            return false;
        }
        self.run_maintenance(st);
        true
    }

    /// Evicts/admits the pending window and brings `Isub`/`Isuper` in line
    /// with the resulting slot delta — incrementally on this thread
    /// (remove evicted slots, insert admitted ones; O(window delta)).
    fn run_maintenance(&self, st: &mut State) {
        if st.window.is_empty() {
            return;
        }
        let incoming = std::mem::take(&mut st.window);
        st.window_signatures.clear();
        self.apply_incoming(st, incoming, true);
    }

    /// Applies one admission batch as a window flip
    /// ([`QueryCache::apply_window`]): evicted plans are dropped, the flip
    /// is captured as one WAL record, and the index delta is applied
    /// inline. Returns whether anything changed. `record_stats`
    /// distinguishes regular maintenance from [`Engine::import_entries`],
    /// which never counted as maintenance.
    fn apply_incoming(
        &self,
        st: &mut State,
        incoming: Vec<WindowEntry>,
        record_stats: bool,
    ) -> bool {
        let delta = st.cache.apply_window(incoming);
        if delta.is_empty() {
            return false;
        }
        // Cached plans die with their windows: drop every evicted query's
        // plans (codes with a surviving isomorphic duplicate are not
        // listed, so their plans correctly live on).
        for code in &delta.evicted_codes {
            self.plan_cache.evict_key(code);
        }
        if record_stats {
            self.stats.count_maintenance();
        }
        self.capture_wal(st, &delta);
        self.apply_index_delta(st, &delta, record_stats);
        true
    }

    /// Brings `Isub`/`Isuper` in line with the cache after `delta` was
    /// applied to it; the caller holds the state write lock.
    fn apply_index_delta(&self, st: &mut State, delta: &WindowDelta, record_stats: bool) {
        if delta.is_empty() {
            return;
        }
        let maint_start = Instant::now();
        let outcome = crate::maintain::apply_delta(
            self.config.path_config,
            &st.cache,
            delta,
            &mut st.isub,
            &mut st.isuper,
        );
        if record_stats {
            self.stats
                .record_maintenance_work(outcome.postings_touched, maint_start.elapsed());
        }
    }

    /// Captures one window flip as a WAL record tagged with the flip's
    /// `seq`. Runs under the state write lock — right after the cache
    /// changed, so the record reflects exactly this flip — but does **no
    /// I/O**: the record is self-contained (entry clones, `Arc` graphs)
    /// and waits in the WAL outbox for [`Engine::drain_outbox`]. Besides
    /// the delta it snapshots the full replacement-metadata table
    /// (metadata advances on every query, so recovery needs the table as
    /// of the last flip).
    fn capture_wal(&self, st: &mut State, delta: &WindowDelta) {
        if self.persist.is_none() && !self.hub.is_active() {
            return;
        }
        st.seq += 1;
        self.stats.set_last_applied_seq(st.seq);
        let record = persist::WalRecord {
            seq: st.seq,
            evicted: delta.evicted.clone(),
            admitted: delta
                .admitted
                .iter()
                .map(|&slot| persist::PersistedEntry {
                    slot,
                    entry: st.cache.entry(slot).clone(),
                    features: None,
                })
                .collect(),
            metas: st.cache.iter().map(|(slot, e)| (slot, e.meta)).collect(),
        };
        self.wal_outbox.lock().expect(POISONED).push_back(record);
    }

    /// Appends every captured WAL record to the store and publishes it to
    /// the replication hub, in capture (= flip) order. Runs *without* the
    /// state write lock, so storage I/O never stalls other threads'
    /// queries — only fellow flippers queue here, on the WAL lock. The
    /// outbox mutex itself is held only per pop, so a flipper pushing a
    /// new record under the write lock never waits behind an append. Safe
    /// to call while holding the state *read* lock. No-op for an engine
    /// with neither a store nor subscribers.
    fn drain_outbox(&self) {
        if self.persist.is_some() || self.hub.is_active() {
            // One appender at a time: pops happen only under the WAL
            // lock, in FIFO order, so append order is flip order — and so
            // is publication order on the replication hub.
            let _appending = self.wal_lock.lock().expect(POISONED);
            loop {
                let record = self.wal_outbox.lock().expect(POISONED).pop_front();
                let Some(record) = record else { break };
                if let Some(p) = &self.persist {
                    // One flip is one append (and one fsync on
                    // disk-backed stores): a crash can tear at most the
                    // final record, which recovery truncates.
                    let bytes = persist::encode_wal_record(&record);
                    let seq = record.seq;
                    if p.degraded.load(Ordering::Relaxed) {
                        // Degraded mode: appending past a possibly-torn
                        // tail would turn it into a mid-log hole recovery
                        // must reject, and records must land in flip
                        // order behind the ones already quarantined.
                        // Quarantine this record too, then attempt a
                        // backoff-gated retry of the whole queue.
                        p.quarantine.lock().expect(POISONED).push_back((seq, bytes));
                        self.try_drain_quarantine(p);
                    } else {
                        match p.store.append_wal(&bytes) {
                            Ok(()) => {
                                self.stats.count_wal_append(bytes.len() as u64);
                                p.appends_since_checkpoint.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => self.enter_degraded(p, seq, bytes, &e),
                        }
                    }
                }
                // Replication tracks the *live* engine, not the disk: the
                // flip is published even when the local WAL is degraded
                // (followers mirror memory; durability is the primary's
                // own problem). Publication after the append attempt keeps
                // "what followers saw" always ≤ "what the primary wrote"
                // on a healthy log.
                if self.hub.is_active() {
                    self.hub.publish(DeltaGroup {
                        seq: record.seq,
                        bytes: persist::encode_group_binary(
                            &record,
                            self.epoch.load(Ordering::Relaxed),
                        )
                        .into(),
                    });
                    self.stats.count_replica_group_published();
                }
            }
        }
    }

    /// Enters degraded mode after a failed WAL append: the flip's record is
    /// quarantined (not dropped), the reason recorded for
    /// [`EngineStats::degraded_reason`], and the on-disk tail marked
    /// suspect. Serving continues exactly; only durability of the
    /// quarantined flips is deferred until the store recovers or a
    /// checkpoint re-covers them. Caller holds `wal_lock`.
    fn enter_degraded(&self, p: &PersistCtl, seq: u64, bytes: Vec<u8>, cause: &PersistError) {
        eprintln!(
            "igq: warning: WAL append failed ({cause}); entering degraded mode — \
             quarantining flip {seq} and retrying with backoff"
        );
        *p.degraded_reason.lock().expect(POISONED) = format!("WAL append failed: {cause}");
        p.quarantine.lock().expect(POISONED).push_back((seq, bytes));
        p.tail_suspect.store(true, Ordering::Relaxed);
        p.retry_strikes.store(1, Ordering::Relaxed);
        *p.retry_not_before.lock().expect(POISONED) = Some(Instant::now() + WAL_RETRY_FLOOR);
        p.degraded.store(true, Ordering::Relaxed);
        self.stats.count_wal_retry_failure();
    }

    /// One backoff-gated retry round over the quarantine: repair the
    /// (possibly torn) on-disk tail first, then replay quarantined records
    /// in flip order. Clears degraded mode when the queue fully drains; a
    /// failure anywhere re-arms the backoff and leaves the rest queued.
    /// Caller holds `wal_lock`.
    fn try_drain_quarantine(&self, p: &PersistCtl) {
        if !p.degraded.load(Ordering::Relaxed) {
            return;
        }
        {
            let not_before = p.retry_not_before.lock().expect(POISONED);
            if let Some(t) = *not_before {
                if Instant::now() < t {
                    return;
                }
            }
        }
        let fail = |e: &PersistError| {
            let strikes = p.retry_strikes.fetch_add(1, Ordering::Relaxed);
            let backoff = WAL_RETRY_FLOOR
                .saturating_mul(1u32 << strikes.min(10) as u32)
                .min(WAL_RETRY_CEIL);
            *p.retry_not_before.lock().expect(POISONED) = Some(Instant::now() + backoff);
            *p.degraded_reason.lock().expect(POISONED) = format!("WAL retry failed: {e}");
            self.stats.count_wal_retry_failure();
        };
        // Tail repair: a failed append may have left a partial record at
        // the end of the log. Rewriting the log minus the torn bytes
        // (compaction at seq 0 keeps every intact record) restores a
        // clean append point before any quarantined record lands.
        if p.tail_suspect.load(Ordering::Relaxed) {
            let repaired = (|| -> Result<(), PersistError> {
                let header = persist::WalHeader {
                    config_fp: p.config_fp,
                    dataset_fp: p.dataset_fp,
                    epoch: self.epoch.load(Ordering::Relaxed),
                };
                let (compacted, _) = persist::compact_wal(&p.store.load_wal()?, 0, &header);
                p.store.replace_wal(&compacted)?;
                Ok(())
            })();
            match repaired {
                Ok(()) => p.tail_suspect.store(false, Ordering::Relaxed),
                Err(e) => {
                    fail(&e);
                    return;
                }
            }
        }
        loop {
            let front = p.quarantine.lock().expect(POISONED).front().cloned();
            let Some((_seq, bytes)) = front else { break };
            match p.store.append_wal(&bytes) {
                Ok(()) => {
                    self.stats.count_wal_append(bytes.len() as u64);
                    p.appends_since_checkpoint.fetch_add(1, Ordering::Relaxed);
                    p.quarantine.lock().expect(POISONED).pop_front();
                }
                Err(e) => {
                    // This retry itself may have torn the tail.
                    p.tail_suspect.store(true, Ordering::Relaxed);
                    fail(&e);
                    return;
                }
            }
        }
        self.clear_degraded(p);
        eprintln!("igq: info: degraded mode cleared — quarantined WAL flips replayed");
    }

    /// Leaves degraded mode: quarantine empty (drained or subsumed by a
    /// checkpoint), log healthy.
    fn clear_degraded(&self, p: &PersistCtl) {
        p.degraded.store(false, Ordering::Relaxed);
        *p.degraded_reason.lock().expect(POISONED) = String::new();
        *p.retry_not_before.lock().expect(POISONED) = None;
        p.retry_strikes.store(0, Ordering::Relaxed);
        p.tail_suspect.store(false, Ordering::Relaxed);
    }

    /// Forces maintenance regardless of window fill (used by harnesses at
    /// warm-up boundaries).
    pub fn flush_window(&self) {
        {
            let mut g = self.lock_write();
            self.run_maintenance(&mut g);
        }
        self.drain_outbox();
        self.maybe_auto_checkpoint();
    }

    /// Writes a checkpoint to the attached [`CacheStore`] and compacts
    /// the WAL to the post-checkpoint tail. The snapshot covers the full
    /// durable state — cache, indexes (as per-slot feature sets), pending
    /// window, replacement metadata, free-slot geometry — **without**
    /// flushing the window or otherwise perturbing engine behavior, so a
    /// checkpointed engine and an untouched one remain observationally
    /// identical.
    ///
    /// State capture runs under the state *read* lock (concurrent queries
    /// proceed; flips wait); encoding, storage I/O, and WAL compaction
    /// run with no engine lock held. A no-op `Ok(())` for engines
    /// constructed without a store ([`Engine::new`]).
    pub fn checkpoint(&self) -> Result<(), PersistError> {
        self.checkpoint_inner(true)
    }

    fn checkpoint_inner(&self, blocking: bool) -> Result<(), PersistError> {
        let Some(p) = &self.persist else {
            return Ok(());
        };
        let _one_at_a_time = if blocking {
            p.checkpoint_lock.lock().expect(POISONED)
        } else {
            match p.checkpoint_lock.try_lock() {
                Ok(guard) => guard,
                // An auto-checkpoint is already in flight; this flip's
                // state will be covered by the next cadence hit.
                Err(TryLockError::WouldBlock) => return Ok(()),
                Err(TryLockError::Poisoned(_)) => panic!("{POISONED}"),
            }
        };
        let start = Instant::now();
        let data = {
            // Under the read lock no flip can land, so the capture is
            // flip-consistent; the drain (safe here: it takes no state
            // lock) first appends every flip captured so far.
            let g = self.lock_read();
            self.drain_outbox();
            self.capture_state(&g, p.config_fp, p.dataset_fp)
        };
        let seq = data.seq;
        let bytes = persist::encode_checkpoint(&data);
        p.store.save_checkpoint(&bytes)?;
        // Compact the WAL down to records the checkpoint does not cover.
        // Under the WAL lock no appender is concurrently writing, so
        // the rewrite cannot drop a record newer than the checkpoint;
        // captured-but-undrained records are safe either way (their seq
        // decides replay). The compaction works on raw bytes (each line's
        // seq read from its payload prefix, no per-record decode) because
        // this section blocks WAL appends. It is also the recovery path
        // for an unhealthy log (failed append earlier): every flip up to
        // `seq` is covered by the checkpoint just written, and the
        // rewrite drops the torn tail the failed append left behind.
        let kept_len = {
            let _appending = self.wal_lock.lock().expect(POISONED);
            let header = persist::WalHeader {
                config_fp: p.config_fp,
                dataset_fp: p.dataset_fp,
                epoch: self.epoch.load(Ordering::Relaxed),
            };
            let (compacted, kept) = persist::compact_wal(&p.store.load_wal()?, seq, &header);
            p.store.replace_wal(&compacted)?;
            // The rewrite healed any torn tail, and every quarantined
            // flip at or below the checkpoint seq is covered by the
            // snapshot just written; later ones re-append onto the
            // freshly compacted log (still under the WAL lock, so order
            // holds). Degraded mode clears unless a re-append fails.
            {
                let mut q = p.quarantine.lock().expect(POISONED);
                while q.front().is_some_and(|(gseq, _)| *gseq <= seq) {
                    q.pop_front();
                }
            }
            p.tail_suspect.store(false, Ordering::Relaxed);
            let mut kept = kept;
            loop {
                let front = p.quarantine.lock().expect(POISONED).front().cloned();
                let Some((_gseq, bytes)) = front else {
                    if p.degraded.load(Ordering::Relaxed) {
                        self.clear_degraded(p);
                        eprintln!(
                            "igq: info: degraded mode cleared — checkpoint re-covered the \
                             quarantined WAL flips"
                        );
                    }
                    break;
                };
                match p.store.append_wal(&bytes) {
                    Ok(()) => {
                        self.stats.count_wal_append(bytes.len() as u64);
                        p.quarantine.lock().expect(POISONED).pop_front();
                        kept += 1;
                    }
                    Err(e) => {
                        // Store still faulty: the checkpoint itself
                        // succeeded, so durability is current up to `seq`;
                        // the rest stays quarantined for the next retry.
                        p.tail_suspect.store(true, Ordering::Relaxed);
                        *p.degraded_reason.lock().expect(POISONED) =
                            format!("WAL retry failed: {e}");
                        self.stats.count_wal_retry_failure();
                        break;
                    }
                }
            }
            kept
        };
        p.appends_since_checkpoint
            .store(kept_len, Ordering::Relaxed);
        self.stats
            .record_checkpoint(start.elapsed(), bytes.len() as u64);
        Ok(())
    }

    /// Auto-checkpoint when the configured cadence has elapsed. Called
    /// off the state lock after outbox drains; failures are reported to
    /// stderr (the engine keeps serving — an explicit
    /// [`checkpoint`](Engine::checkpoint) call surfaces the error).
    fn maybe_auto_checkpoint(&self) {
        let Some(p) = &self.persist else { return };
        let Some(every) = p.checkpoint_every else {
            return;
        };
        // A degraded WAL (quarantined flips) checkpoints immediately —
        // the wholesale rewrite is the fastest path back to durability.
        if !p.degraded.load(Ordering::Relaxed)
            && p.appends_since_checkpoint.load(Ordering::Relaxed) < every
        {
            return;
        }
        if let Err(e) = self.checkpoint_inner(false) {
            eprintln!("igq: warning: auto-checkpoint failed: {e}");
        }
    }

    /// Snapshots the full durable state (the checkpoint payload and the
    /// single serialization path behind [`Engine::checkpoint`] and
    /// [`Engine::export_entries`]). Caller holds the state lock; per-slot
    /// feature sets are read from the live `Isub` (a slot missing there
    /// falls back to re-enumeration). Entries come out in slot order.
    fn capture_state(
        &self,
        st: &State,
        config_fp: u64,
        dataset_fp: u64,
    ) -> persist::CheckpointData {
        let entries = st
            .cache
            .iter()
            .map(|(slot, e)| persist::PersistedEntry {
                slot,
                entry: e.clone(),
                features: Some(match st.isub.slot_features(slot) {
                    Some((counts, complete_len)) => persist::SlotFeatureSet {
                        counts,
                        complete_len,
                    },
                    None => {
                        let f = enumerate_paths(&e.graph, &self.config.path_config);
                        persist::SlotFeatureSet {
                            counts: f.counts.iter().map(|(k, &v)| (k.clone(), v)).collect(),
                            complete_len: f.complete_len,
                        }
                    }
                }),
            })
            .collect();
        persist::CheckpointData {
            seq: st.seq,
            config_fp,
            dataset_fp,
            epoch: self.epoch.load(Ordering::Relaxed),
            labels: st.cost_model.label_universe(),
            round: st.cache.round(),
            slot_count: st.cache.slot_count(),
            free: st.cache.free_slots().to_vec(),
            entries,
            window: st.window.clone(),
        }
    }

    /// Exports every cached `(query, answers)` pair — resident entries in
    /// slot order, then pending window entries in arrival order — through
    /// the same state capture the checkpoint uses. Does not mutate the
    /// engine (in particular, the window is *not* flushed).
    ///
    /// Note for full-cache round-trips: [`Engine::import_entries`]
    /// head-truncates at the target's capacity, so an export of `C`
    /// residents plus `w` window entries imported into a same-capacity
    /// engine reports the `w` window pairs as
    /// [`skipped_capacity`](ImportReport::skipped_capacity). Call
    /// [`flush_window`](Engine::flush_window) before exporting if the
    /// replacement policy should arbitrate between residents and the
    /// pending window instead.
    pub fn export_entries(&self) -> Vec<(Graph, Vec<GraphId>)> {
        let data = {
            let g = self.lock_read();
            self.capture_state(&g, 0, 0)
        };
        data.entries
            .into_iter()
            .map(|p| (p.entry.graph.as_ref().clone(), p.entry.answers))
            .chain(
                data.window
                    .into_iter()
                    .map(|w| (w.graph.as_ref().clone(), w.answers)),
            )
            .collect()
    }

    /// Seeds the cache with previously exported `(query, answers)` pairs
    /// and updates the query indexes. Intended for warm starts; the
    /// caller is responsible for the answers matching this engine's
    /// dataset (a mismatched import would violate the correctness
    /// guarantees, so entries whose answer ids exceed the dataset are
    /// rejected and reported in
    /// [`skipped_invalid`](ImportReport::skipped_invalid)).
    ///
    /// **Truncation order**: valid entries are admitted in input order;
    /// once `cache_capacity` of them have been taken, the *tail* of the
    /// batch is skipped and reported in
    /// [`skipped_capacity`](ImportReport::skipped_capacity) — nothing is
    /// dropped silently. (Admitting into a non-empty cache may also evict
    /// current residents per the replacement policy; that is regular
    /// cache behavior, not a skip.) On a store-attached engine the import
    /// is persisted like any window flip.
    ///
    /// On a follower ([`Engine::open_follower`]) the call is rejected
    /// with [`ReplicaError::ReadOnly`]: a replica's cache changes only by
    /// replaying the primary's delta groups.
    pub fn import_entries(
        &self,
        entries: Vec<(Graph, Vec<GraphId>)>,
    ) -> Result<ImportReport, ReplicaError> {
        if self.is_follower() {
            return Err(ReplicaError::ReadOnly("import_entries"));
        }
        let n = D::store(&self.method).len() as u32;
        let total = entries.len();
        let admissible: Vec<WindowEntry> = entries
            .into_iter()
            .filter(|(_, answers)| answers.iter().all(|id| id.raw() < n))
            .map(|(g, answers)| WindowEntry::bare(Arc::new(g), answers))
            .collect();
        let skipped_invalid = total - admissible.len();
        let admitted = admissible.len().min(self.config.cache_capacity);
        let skipped_capacity = admissible.len() - admitted;
        {
            let mut st = self.lock_write();
            // `record_stats: false` — imports are seeding, not paid
            // maintenance; they neither count a window flip nor record
            // maintenance work.
            self.apply_incoming(&mut st, admissible, false);
        }
        self.drain_outbox();
        self.maybe_auto_checkpoint();
        Ok(ImportReport {
            admitted,
            skipped_capacity,
            skipped_invalid,
        })
    }

    /// Debug/production sanity check: verifies the engine's internal
    /// invariants (cache within capacity, sorted answer sets), then diffs
    /// the incrementally maintained query indexes against a fresh shadow
    /// rebuild over the cache — any drift between delta maintenance and
    /// the ground-truth rebuild is reported. The invariant part is cheap;
    /// the index diff re-enumerates every cached graph, so call this at
    /// checkpoints rather than per query in large deployments.
    pub fn self_check(&self) -> Result<(), String> {
        // Flips hold the write lock from the cache change through the
        // index delta, so under the read lock cache and indexes are in
        // lockstep.
        let st = self.lock_read();
        if st.cache.len() > self.config.cache_capacity {
            return Err(format!(
                "cache over capacity: {} > {}",
                st.cache.len(),
                self.config.cache_capacity
            ));
        }
        for (slot, e) in st.cache.iter() {
            if !e.answers.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("slot {slot}: answers not sorted/unique"));
            }
            let n = D::store(&self.method).len() as u32;
            if e.answers.iter().any(|id| id.raw() >= n) {
                return Err(format!("slot {slot}: answer id out of dataset range"));
            }
        }
        if st.window.len() != st.window_signatures.len() {
            return Err("window/signature length mismatch".into());
        }
        // Index ≡ cache: both indexes must hold exactly the cached slots,
        // with postings identical to a from-scratch rebuild.
        let graphs = || {
            st.cache
                .iter()
                .map(|(slot, e)| (slot, Arc::clone(&e.graph)))
        };
        let fresh_isub = IsubIndex::build(graphs(), self.config.path_config);
        st.isub
            .snapshot()
            .diff(&fresh_isub.snapshot())
            .map_err(|e| format!("Isub drifted from shadow rebuild: {e}"))?;
        let fresh_isuper = IsuperIndex::build(graphs(), self.config.path_config);
        st.isuper
            .snapshot()
            .diff(&fresh_isuper.snapshot())
            .map_err(|e| format!("Isuper drifted from shadow rebuild: {e}"))?;
        Ok(())
    }
}

impl<D: QueryDirection> Drop for Engine<D> {
    /// Flushes any captured-but-unappended WAL records so a clean
    /// shutdown loses no persisted flip.
    /// Queries still in the window are covered only by an explicit
    /// [`checkpoint`](Engine::checkpoint) before drop.
    fn drop(&mut self) {
        self.drain_outbox();
    }
}

/// Records hit metadata: known-path hits are credited with the candidates
/// their answers *cover* (`CS ∩ Answer`), bounding hits with the
/// candidates their answers *exclude* (`CS \ Answer`). `bonus` optionally
/// awards one slot the full candidate-set prune credit (optimal-case
/// resolutions). A free function (not a method) so the disjoint borrows of
/// the state's fields (cost model, cache) stay obvious.
fn credit_hits<D: QueryDirection>(
    engine: &Engine<D>,
    st: &mut State,
    q: &Graph,
    cs: &[GraphId],
    known_slots: &[usize],
    bound_slots: &[usize],
    bonus: Option<(usize, LogValue)>,
) {
    for &s in known_slots {
        let prunes = intersect_sorted(cs, &st.cache.entry(s).answers);
        let cost = engine.cost_of(&mut st.cost_model, q, &prunes);
        st.cache
            .entry_mut(s)
            .meta
            .record_hit(prunes.len() as u64, cost);
    }
    for &s in bound_slots {
        let prunes = subtract_sorted(cs, &st.cache.entry(s).answers);
        let cost = engine.cost_of(&mut st.cost_model, q, &prunes);
        st.cache
            .entry_mut(s)
            .meta
            .record_hit(prunes.len() as u64, cost);
    }
    if let Some((slot, credit)) = bonus {
        st.cache
            .entry_mut(slot)
            .meta
            .record_hit(cs.len() as u64, credit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::{graph_from, GraphStore};
    use igq_methods::{Ggsx, GgsxConfig, NaiveMethod, SubgraphMethod};
    use std::sync::Arc;

    fn store() -> Arc<GraphStore> {
        Arc::new(
            vec![
                graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),            // g0
                graph_from(&[0, 1], &[(0, 1)]),                       // g1
                graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),    // g2
                graph_from(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3)]), // g3
            ]
            .into_iter()
            .collect(),
        )
    }

    fn engine() -> IgqEngine<Ggsx> {
        let s = store();
        let method = Ggsx::build(&s, GgsxConfig::default());
        IgqEngine::new(
            method,
            IgqConfig::builder()
                .cache_capacity(8)
                .window(2)
                .build()
                .expect("valid config"),
        )
        .expect("valid engine")
    }

    fn ids(raw: &[u32]) -> Vec<GraphId> {
        raw.iter().map(|&r| GraphId::new(r)).collect()
    }

    #[test]
    fn answers_match_method_and_oracle() {
        let s = store();
        let naive = NaiveMethod::build(&s);
        let e = engine();
        for q in [
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2], &[(0, 1)]),
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[0, 1], &[(0, 1)]), // repeat
            graph_from(&[9], &[]),
        ] {
            let out = e.query(&q);
            let (truth, _) = naive.query(&q);
            assert_eq!(out.answers, truth, "query {q:?}");
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let s = store();
        let method = Ggsx::build(&s, GgsxConfig::default());
        let bad = IgqConfig {
            cache_capacity: 4,
            window: 9,
            ..Default::default()
        };
        assert_eq!(
            IgqEngine::new(method, bad).err(),
            Some(ConfigError::WindowExceedsCapacity {
                window: 9,
                cache_capacity: 4
            })
        );
    }

    #[test]
    fn exact_repeat_hits_after_maintenance() {
        let e = engine();
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let first = e.query(&q);
        assert_eq!(first.resolution, Resolution::Verified);
        // Window = 2: a second distinct query flushes the window.
        let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
        let repeat = e.query(&q);
        assert_eq!(repeat.resolution, Resolution::ExactHit);
        assert_eq!(repeat.db_iso_tests, 0);
        assert_eq!(repeat.answers, first.answers);
        assert_eq!(e.stats().exact_hits, 1);
    }

    #[test]
    fn exact_fastpath_skips_probe_iso_tests() {
        let s = store();
        let mk = |fastpath| {
            let method = Ggsx::build(&s, GgsxConfig::default());
            IgqEngine::new(
                method,
                IgqConfig {
                    cache_capacity: 8,
                    window: 1,
                    exact_fastpath: fastpath,
                    ..Default::default()
                },
            )
            .expect("valid engine")
        };
        let q = graph_from(&[0, 1], &[(0, 1)]);
        for fastpath in [true, false] {
            let e = mk(fastpath);
            let first = e.query(&q);
            let repeat = e.query(&q);
            assert_eq!(
                repeat.resolution,
                Resolution::ExactHit,
                "fastpath={fastpath}"
            );
            assert_eq!(repeat.answers, first.answers);
            assert_eq!(repeat.db_iso_tests, 0);
            if fastpath {
                // The fast path resolves repeats without probing the query
                // indexes at all.
                assert_eq!(repeat.igq_iso_tests, 0, "no probe tests on the fast path");
            } else {
                assert!(repeat.igq_iso_tests > 0, "probe path pays iso tests");
            }
        }
    }

    #[test]
    fn isomorphic_not_identical_repeat_also_hits() {
        let e = engine();
        let q1 = graph_from(&[0, 1], &[(0, 1)]);
        let q2 = graph_from(&[1, 0], &[(0, 1)]); // same graph, relabeled
        let first = e.query(&q1);
        let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
        let repeat = e.query(&q2);
        assert_eq!(repeat.resolution, Resolution::ExactHit);
        assert_eq!(repeat.answers, first.answers);
    }

    #[test]
    fn empty_answer_shortcut_fires() {
        let e = engine();
        // 9-9 edge: no dataset graph contains it → empty answer cached.
        let empty_q = graph_from(&[9, 9], &[(0, 1)]);
        let first = e.query(&empty_q);
        assert!(first.answers.is_empty());
        let _ = e.query(&graph_from(&[0, 1], &[(0, 1)]));
        // A supergraph of the cached empty-answer query.
        let bigger = graph_from(&[9, 9, 9], &[(0, 1), (1, 2)]);
        let out = e.query(&bigger);
        assert_eq!(out.resolution, Resolution::EmptyAnswerShortcut);
        assert!(out.answers.is_empty());
        assert_eq!(out.db_iso_tests, 0);
    }

    #[test]
    fn subgraph_case_prunes_and_restores_answers() {
        let e = engine();
        // Cache the big query first: 0-1-0 path answered by {g0}.
        let big = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let big_out = e.query(&big);
        assert_eq!(big_out.answers, ids(&[0]));
        let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
        // Now the smaller query 0-1: g ⊆ big, so Answer(big) = {g0} must be
        // skipped during verification yet appear in the final answer.
        let small = graph_from(&[0, 1], &[(0, 1)]);
        let out = e.query(&small);
        assert!(out.isub_hits >= 1);
        assert!(out.pruned_by_isub >= 1);
        assert_eq!(out.answers, ids(&[0, 1, 3]));
        assert!(out.db_iso_tests < out.candidates_before as u64);
    }

    #[test]
    fn supergraph_case_prunes_non_answers() {
        let e = engine();
        // Cache the small query: 0-1 edge → answers {g0, g1, g3}.
        let small = graph_from(&[0, 1], &[(0, 1)]);
        let small_out = e.query(&small);
        assert_eq!(small_out.answers, ids(&[0, 1, 3]));
        let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
        // Bigger query containing the cached one: candidates outside
        // Answer(small) are pruned by formula (5).
        let big = graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let out = e.query(&big);
        assert!(out.isuper_hits >= 1);
        assert_eq!(out.answers, ids(&[3]));
    }

    #[test]
    fn window_and_cache_mechanics() {
        let e = engine();
        assert_eq!(e.cached_queries(), 0);
        let _ = e.query(&graph_from(&[0, 1], &[(0, 1)]));
        assert_eq!(e.cached_queries(), 0); // still in window
        let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
        assert_eq!(e.cached_queries(), 2); // window flushed at W=2
        assert_eq!(e.stats().maintenances, 1);
    }

    #[test]
    fn duplicate_window_entries_are_not_double_cached() {
        let e = engine();
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let _ = e.query(&q);
        let _ = e.query(&q); // same query again, still in window
        e.flush_window();
        assert_eq!(e.cached_queries(), 1);
    }

    #[test]
    fn skip_admission_option_keeps_query_out_of_cache() {
        let e = engine();
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let resp = e.execute(&QueryRequest::new(q.clone()).skip_admission());
        assert_eq!(resp.outcome.resolution, Resolution::Verified);
        e.flush_window();
        assert_eq!(e.cached_queries(), 0, "skip-admission query never cached");
        // The same query through the plain path does get cached.
        let _ = e.query(&q);
        e.flush_window();
        assert_eq!(e.cached_queries(), 1);
    }

    #[test]
    fn deadline_is_reported_not_enforced() {
        let e = engine();
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let strict = e.execute(&QueryRequest::new(q.clone()).deadline(std::time::Duration::ZERO));
        assert!(strict.deadline_exceeded, "zero deadline always exceeded");
        let (truth, _) = NaiveMethod::build(&store()).query(&q);
        assert_eq!(
            strict.outcome.answers, truth,
            "answers stay exact regardless of deadline"
        );
        let lax = e.execute(&QueryRequest::new(q).deadline(std::time::Duration::from_secs(3600)));
        assert!(!lax.deadline_exceeded);
    }

    #[test]
    fn igq_index_size_grows_with_cache() {
        let e = engine();
        let empty = e.igq_index_size_bytes();
        let _ = e.query(&graph_from(&[0, 1], &[(0, 1)]));
        let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
        assert!(e.igq_index_size_bytes() > empty);
    }

    #[test]
    fn export_import_warm_start() {
        let warm = engine();
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let first = warm.query(&q);
        let exported = warm.export_entries();
        assert_eq!(exported.len(), 1, "window entries are exported too");

        let cold = engine();
        let report = cold.import_entries(exported).expect("primary import");
        assert_eq!(report.admitted, 1);
        assert_eq!(report.skipped_capacity, 0);
        assert_eq!(report.skipped_invalid, 0);
        let out = cold.query(&q);
        assert_eq!(out.resolution, Resolution::ExactHit);
        assert_eq!(out.answers, first.answers);
        cold.self_check().expect("invariants hold after import");
    }

    #[test]
    fn flushed_export_import_round_trip() {
        let warm = engine();
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let first = warm.query(&q);
        warm.flush_window();
        let exported = warm.export_entries();
        assert_eq!(exported.len(), 1);
        let cold = engine();
        let report = cold.import_entries(exported).expect("primary import");
        assert_eq!(report.admitted, 1);
        assert_eq!(cold.query(&q).answers, first.answers);
    }

    #[test]
    fn import_rejects_out_of_range_answers() {
        let e = engine();
        let alien = vec![(graph_from(&[0, 1], &[(0, 1)]), vec![GraphId::new(999)])];
        let report = e.import_entries(alien).expect("primary import");
        assert_eq!(report.admitted, 0);
        assert_eq!(report.skipped_invalid, 1);
        assert_eq!(e.cached_queries(), 0);
    }

    #[test]
    fn import_reports_capacity_truncation_in_order() {
        // Capacity 2, four valid entries: the first two are admitted, the
        // tail is reported skipped — the documented truncation order.
        let s = store();
        let method = Ggsx::build(&s, GgsxConfig::default());
        let e = IgqEngine::new(
            method,
            IgqConfig {
                cache_capacity: 2,
                window: 1,
                ..Default::default()
            },
        )
        .expect("valid engine");
        let mk = |l: u32| (graph_from(&[l, l + 1], &[(0, 1)]), vec![GraphId::new(0)]);
        let report = e
            .import_entries(vec![mk(0), mk(10), mk(20), mk(30)])
            .expect("primary import");
        assert_eq!(
            report,
            ImportReport {
                admitted: 2,
                skipped_capacity: 2,
                skipped_invalid: 0
            }
        );
        assert_eq!(e.cached_queries(), 2);
        // The residents are the *head* of the batch.
        let sigs: Vec<GraphSignature> = {
            let exported = e.export_entries();
            exported
                .iter()
                .map(|(g, _)| GraphSignature::of(g))
                .collect()
        };
        assert!(sigs.contains(&GraphSignature::of(&mk(0).0)));
        assert!(sigs.contains(&GraphSignature::of(&mk(10).0)));
    }

    fn workload() -> Vec<Graph> {
        vec![
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2], &[(0, 1)]),
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
            graph_from(&[9, 9], &[(0, 1)]),
            graph_from(&[0, 1], &[(0, 1)]), // repeat
            graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),
            graph_from(&[1, 0], &[(0, 1)]), // isomorphic repeat
            graph_from(&[0], &[]),
            graph_from(&[2], &[]),
        ]
    }

    fn engine_sized(capacity: usize, window: usize) -> IgqEngine<Ggsx> {
        let s = store();
        let method = Ggsx::build(&s, GgsxConfig::default());
        IgqEngine::new(
            method,
            IgqConfig {
                cache_capacity: capacity,
                window,
                ..Default::default()
            },
        )
        .expect("valid engine")
    }

    #[test]
    fn incremental_mode_performs_no_full_rebuild() {
        // Tiny capacity + window force heavy churn: every window must
        // evict. The delta-maintained indexes must still equal a rebuild.
        let e = engine_sized(2, 1);
        for q in workload() {
            let _ = e.query(&q);
        }
        assert!(
            e.stats().maintenances >= 5,
            "windows of 1 maintain almost every query"
        );
        assert!(e.stats().maintenance_postings_touched > 0);
        e.self_check()
            .expect("incremental indexes match a fresh rebuild");
    }

    #[test]
    fn query_features_are_extracted_exactly_once() {
        // Window larger than the workload so no maintenance (whose
        // admissions legitimately re-enumerate) runs mid-measurement.
        let e = engine_sized(8, 8);
        let warm = graph_from(&[0, 1], &[(0, 1)]);
        let _ = e.query(&warm);
        for q in [
            graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
            graph_from(&[2, 2], &[(0, 1)]),
        ] {
            let before = igq_features::thread_enumeration_count();
            let queries_before = e.stats().queries;
            let extractions_before = e.stats().feature_extractions;
            let _ = e.query(&q);
            let enumerations = igq_features::thread_enumeration_count() - before;
            assert_eq!(
                enumerations, 1,
                "filter + both probes must share one path enumeration for {q:?}"
            );
            assert_eq!(e.stats().queries - queries_before, 1);
            assert_eq!(e.stats().feature_extractions - extractions_before, 1);
        }
    }

    #[test]
    fn exact_fastpath_skips_extraction_entirely() {
        let e = engine_sized(8, 1);
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let _ = e.query(&q);
        let before = igq_features::thread_enumeration_count();
        let repeat = e.query(&q);
        assert_eq!(repeat.resolution, Resolution::ExactHit);
        assert_eq!(
            igq_features::thread_enumeration_count() - before,
            0,
            "canonical-code repeats resolve with zero enumerations"
        );
    }

    #[test]
    fn verify_stage_amortization_counters() {
        let e = engine();
        let q1 = graph_from(&[0, 1], &[(0, 1)]);
        let q2 = graph_from(&[2, 2], &[(0, 1)]);
        assert_eq!(e.query(&q1).resolution, Resolution::Verified);
        assert_eq!(e.query(&q2).resolution, Resolution::Verified);
        let st = e.stats();
        assert_eq!(
            st.plan_builds, 2,
            "subgraph direction: exactly one plan per verified query"
        );
        // Exact repeats never reach the verify stage: no new plan.
        assert_eq!(e.query(&q1).resolution, Resolution::ExactHit);
        assert_eq!(e.stats().plan_builds, 2);
        // Warm the thread scratch to 3-vertex queries, then another
        // 3-vertex query must verify allocation-free.
        let _ = e.query(&graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]));
        let before = e.stats().scratch_allocs;
        let out = e.query(&graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]));
        assert!(out.db_iso_tests > 0, "the steady-state probe must verify");
        assert_eq!(
            e.stats().scratch_allocs,
            before,
            "steady-state verification is allocation-free"
        );
    }

    #[test]
    fn self_check_passes_through_lifecycle() {
        let e = engine();
        e.self_check().expect("fresh engine");
        for q in [
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2], &[(0, 1)]),
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
        ] {
            let _ = e.query(&q);
            e.self_check().expect("mid-stream");
        }
    }

    #[test]
    fn query_batch_matches_sequential_answers() {
        let s = store();
        let naive = NaiveMethod::build(&s);
        let method = Ggsx::build(&s, GgsxConfig::default());
        let e = IgqEngine::new(
            method,
            IgqConfig::builder()
                .cache_capacity(8)
                .window(2)
                .batch_threads(4)
                .build()
                .expect("valid config"),
        )
        .expect("valid engine");
        let queries = workload();
        let outs = e.query_batch(&queries);
        assert_eq!(outs.len(), queries.len());
        for (q, out) in queries.iter().zip(outs.iter()) {
            let (truth, _) = naive.query(q);
            assert_eq!(out.answers, truth, "batch answer diverges for {q:?}");
        }
        assert_eq!(e.stats().queries, queries.len() as u64);
    }

    fn open_engine(s: &Arc<GraphStore>, store: &Arc<crate::MemStore>) -> IgqEngine<Ggsx> {
        let method = Ggsx::build(s, GgsxConfig::default());
        IgqEngine::open(
            method,
            IgqConfig {
                cache_capacity: 8,
                window: 2,
                persistence: crate::PersistenceConfig::manual(),
                ..Default::default()
            },
            Arc::clone(store) as Arc<dyn crate::CacheStore>,
        )
        .expect("open")
    }

    #[test]
    fn open_checkpoint_reopen_serves_warm_state() {
        let s = store();
        let mem = Arc::new(crate::MemStore::new());
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let first_answers;
        {
            let e1 = open_engine(&s, &mem);
            first_answers = e1.query(&q).answers.clone();
            let _ = e1.query(&graph_from(&[2, 2], &[(0, 1)])); // flip W=2
            assert!(e1.stats().wal_appends >= 1, "flip appended a WAL record");
            e1.checkpoint().expect("checkpoint");
            assert!(e1.stats().checkpoint_time > std::time::Duration::ZERO);
        }
        assert!(mem.checkpoint_bytes() > 0);

        let e2 = open_engine(&s, &mem);
        assert_eq!(
            e2.stats().recovery_replayed_windows,
            0,
            "checkpoint covered every flip; WAL tail empty"
        );
        assert_eq!(e2.cached_queries(), 2);
        let repeat = e2.query(&q);
        assert_eq!(repeat.resolution, Resolution::ExactHit);
        assert_eq!(repeat.answers, first_answers);
        e2.self_check().expect("recovered engine invariants");
    }

    #[test]
    fn wal_only_recovery_replays_flips_without_a_checkpoint() {
        let s = store();
        let mem = Arc::new(crate::MemStore::new());
        {
            let e1 = open_engine(&s, &mem);
            for q in workload() {
                let _ = e1.query(&q);
            }
            // Dropped without ever checkpointing: durability rides on the
            // WAL alone (the Drop drains pending appends).
        }
        assert_eq!(mem.checkpoint_bytes(), 0);
        assert!(mem.wal_bytes() > 0);
        let e2 = open_engine(&s, &mem);
        assert!(e2.stats().recovery_replayed_windows >= 1);
        assert!(e2.cached_queries() >= 1);
        e2.self_check().expect("replayed engine invariants");
    }

    #[test]
    fn open_rejects_foreign_config_and_dataset() {
        let s = store();
        let mem = Arc::new(crate::MemStore::new());
        {
            let e = open_engine(&s, &mem);
            let _ = e.query(&graph_from(&[0, 1], &[(0, 1)]));
            let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
            e.checkpoint().expect("checkpoint");
        }
        // Different cache geometry → config fingerprint mismatch.
        let method = Ggsx::build(&s, GgsxConfig::default());
        let err = IgqEngine::<Ggsx>::open(
            method,
            IgqConfig {
                cache_capacity: 16,
                window: 2,
                persistence: crate::PersistenceConfig::manual(),
                ..Default::default()
            },
            Arc::clone(&mem) as Arc<dyn crate::CacheStore>,
        )
        .err()
        .expect("mismatched config rejected");
        assert!(matches!(err, PersistError::ConfigMismatch { .. }), "{err}");
        // Different dataset → dataset fingerprint mismatch.
        let other: Arc<GraphStore> =
            Arc::new(vec![graph_from(&[5, 6], &[(0, 1)])].into_iter().collect());
        let err = open_engine_err(&other, &mem);
        assert!(matches!(err, PersistError::DatasetMismatch { .. }), "{err}");
    }

    fn open_engine_err(s: &Arc<GraphStore>, mem: &Arc<crate::MemStore>) -> PersistError {
        let method = Ggsx::build(s, GgsxConfig::default());
        IgqEngine::<Ggsx>::open(
            method,
            IgqConfig {
                cache_capacity: 8,
                window: 2,
                persistence: crate::PersistenceConfig::manual(),
                ..Default::default()
            },
            Arc::clone(mem) as Arc<dyn crate::CacheStore>,
        )
        .err()
        .expect("open must fail")
    }

    #[test]
    fn auto_checkpoint_fires_on_cadence() {
        let s = store();
        let mem = Arc::new(crate::MemStore::new());
        let method = Ggsx::build(&s, GgsxConfig::default());
        let e = IgqEngine::<Ggsx>::open(
            method,
            IgqConfig {
                cache_capacity: 8,
                window: 1,
                persistence: crate::PersistenceConfig::every(2),
                ..Default::default()
            },
            Arc::clone(&mem) as Arc<dyn crate::CacheStore>,
        )
        .expect("open");
        let _ = e.query(&graph_from(&[0, 1], &[(0, 1)]));
        assert_eq!(mem.checkpoint_bytes(), 0, "below cadence: WAL only");
        let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
        assert!(
            mem.checkpoint_bytes() > 0,
            "second flip crossed the cadence and auto-checkpointed"
        );
        // Compaction keeps the WAL to the post-checkpoint tail.
        let parsed_wal = mem.raw_wal();
        assert!(parsed_wal.len() < 2048, "compacted WAL stays small");
    }

    fn replication_queries() -> Vec<Graph> {
        vec![
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2], &[(0, 1)]),
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[2, 2, 2], &[(0, 1), (1, 2)]),
            graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
        ]
    }

    fn replication_pair(
        config: &IgqConfig,
    ) -> (IgqEngine<Ggsx>, IgqEngine<Ggsx>, crate::ReplicaFeed) {
        let s = store();
        let primary =
            IgqEngine::new(Ggsx::build(&s, GgsxConfig::default()), *config).expect("valid primary");
        let (checkpoint, feed) = match primary.subscribe_replication(None) {
            Subscription::Snapshot {
                checkpoint, feed, ..
            } => (checkpoint, feed),
            Subscription::Live { .. } => panic!("fresh subscriber must get a snapshot"),
        };
        let follower =
            IgqEngine::open_follower(Ggsx::build(&s, GgsxConfig::default()), *config, &checkpoint)
                .expect("valid follower");
        (primary, follower, feed)
    }

    fn drain_feed(feed: &crate::ReplicaFeed, follower: &IgqEngine<Ggsx>) -> u64 {
        let mut applied = 0;
        while let Some(d) = feed.try_recv() {
            follower.apply_replica_delta(&d.bytes).expect("apply delta");
            applied += 1;
        }
        applied
    }

    #[test]
    fn follower_converges_with_in_memory_primary() {
        let config = IgqConfig::builder()
            .cache_capacity(8)
            .window(1)
            .build()
            .expect("valid config");
        let (primary, follower, feed) = replication_pair(&config);
        let queries = replication_queries();
        let truths: Vec<Vec<GraphId>> = queries.iter().map(|q| primary.query(q).answers).collect();
        assert!(drain_feed(&feed, &follower) > 0);
        assert_eq!(follower.cached_queries(), primary.cached_queries());
        assert_eq!(follower.replication_lag(), Some(0));
        follower.self_check().expect("follower invariants");
        for (q, truth) in queries.iter().zip(&truths) {
            let out = follower.query(q);
            assert_eq!(&out.answers, truth);
            assert_eq!(
                out.resolution,
                Resolution::ExactHit,
                "replicated resident must exact-hit"
            );
        }
    }

    #[test]
    fn apply_replica_delta_skips_duplicates_and_detects_gaps() {
        let config = IgqConfig::builder()
            .cache_capacity(8)
            .window(1)
            .build()
            .expect("valid config");
        let (primary, follower, feed) = replication_pair(&config);
        for q in replication_queries().iter().take(3) {
            let _ = primary.query(q);
        }
        let d1 = feed.try_recv().expect("first group");
        let d2 = feed.try_recv().expect("second group");
        let d3 = feed.try_recv().expect("third group");
        assert_eq!(follower.apply_replica_delta(&d1.bytes), Ok(d1.seq));
        // Duplicate redelivery (resume overlap) is an idempotent skip.
        assert_eq!(follower.apply_replica_delta(&d1.bytes), Ok(d1.seq));
        // A gap is typed — the caller must resume or re-bootstrap.
        assert_eq!(
            follower.apply_replica_delta(&d3.bytes),
            Err(ReplicaError::SeqGap {
                expected: d1.seq + 1,
                found: d3.seq,
            })
        );
        assert_eq!(follower.apply_replica_delta(&d2.bytes), Ok(d2.seq));
        assert_eq!(follower.apply_replica_delta(&d3.bytes), Ok(d3.seq));
        // Truncated group bytes never partially apply.
        let cached_before = follower.cached_queries();
        let seq_before = follower.stats().last_applied_seq;
        assert!(matches!(
            follower.apply_replica_delta(&d3.bytes[..d3.bytes.len() - 1]),
            Err(ReplicaError::Corrupt(_))
        ));
        assert_eq!(follower.cached_queries(), cached_before);
        assert_eq!(follower.stats().last_applied_seq, seq_before);
    }

    #[test]
    fn delta_group_with_two_records_is_rejected_whole() {
        let config = IgqConfig::builder()
            .cache_capacity(8)
            .window(1)
            .build()
            .expect("valid config");
        let (primary, follower, feed) = replication_pair(&config);
        let _ = primary.query(&replication_queries()[0]);
        let d = feed.try_recv().expect("group");
        // Two `R` frames in one group — the shape a multi-shard primary
        // once sent — is not a flip this replica can apply.
        let doubled = [&d.bytes[..], &d.bytes[..]].concat();
        assert!(matches!(
            follower.apply_replica_delta(&doubled),
            Err(ReplicaError::Corrupt(_))
        ));
        assert_eq!(follower.cached_queries(), 0, "nothing applied");
        assert_eq!(follower.apply_replica_delta(&d.bytes), Ok(d.seq));
    }

    #[test]
    fn follower_rejects_writes_and_tracks_staleness() {
        let config = IgqConfig::builder()
            .cache_capacity(8)
            .window(1)
            .build()
            .expect("valid config");
        let (primary, follower, feed) = replication_pair(&config);
        assert!(!primary.is_follower());
        assert!(follower.is_follower());
        assert_eq!(primary.replication_lag(), None);
        assert_eq!(
            follower.import_entries(vec![(graph_from(&[0], &[]), vec![])]),
            Err(ReplicaError::ReadOnly("import_entries"))
        );
        assert_eq!(
            primary.apply_replica_delta(b"whatever"),
            Err(ReplicaError::NotFollower)
        );
        // Local queries on a follower are answered but never admitted.
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let out = follower.query(&q);
        assert!(!out.answers.is_empty());
        let _ = follower.query(&graph_from(&[2, 2], &[(0, 1)]));
        assert_eq!(follower.cached_queries(), 0);
        // Staleness = heard − applied; a heartbeat alone raises it.
        let _ = primary.query(&q);
        let d = feed.try_recv().expect("group");
        follower.note_replica_heard(d.seq);
        assert_eq!(follower.replication_lag(), Some(1));
        follower.apply_replica_delta(&d.bytes).expect("apply");
        assert_eq!(follower.replication_lag(), Some(0));
        let s = follower.stats();
        assert_eq!(s.replica_groups_applied, 1);
        assert!(s.replica_bytes_applied > 0);
        assert_eq!(primary.stats().replica_groups_published, 1);
    }

    #[test]
    fn resume_within_ring_is_live_and_beyond_requires_snapshot() {
        let config = IgqConfig::builder()
            .cache_capacity(8)
            .window(1)
            .build()
            .expect("valid config");
        let (primary, follower, feed) = replication_pair(&config);
        for q in replication_queries().iter().take(2) {
            let _ = primary.query(q);
        }
        drain_feed(&feed, &follower);
        let at = follower.stats().last_applied_seq;
        let _ = primary.query(&replication_queries()[2]);
        // Everything after `at` is still in the replay ring: live resume.
        match primary.subscribe_replication(Some(at)) {
            Subscription::Live { feed } => {
                let d = feed.try_recv().expect("ring replay");
                assert_eq!(d.seq, at + 1);
                follower.apply_replica_delta(&d.bytes).expect("apply");
            }
            Subscription::Snapshot { .. } => panic!("in-ring resume must be live"),
        }
        // A seq before the hub ever existed is not provably gap-free.
        assert!(matches!(
            primary.subscribe_replication(Some(9999)),
            Subscription::Snapshot { .. }
        ));
    }

    #[test]
    fn follower_chains_groups_to_downstream_subscribers() {
        let config = IgqConfig::builder()
            .cache_capacity(8)
            .window(1)
            .build()
            .expect("valid config");
        let (primary, follower, feed) = replication_pair(&config);
        let downstream_feed = match follower.subscribe_replication(None) {
            Subscription::Snapshot { feed, .. } => feed,
            Subscription::Live { .. } => panic!("fresh subscriber must get a snapshot"),
        };
        let _ = primary.query(&graph_from(&[0, 1], &[(0, 1)]));
        let d = feed.try_recv().expect("group");
        follower.apply_replica_delta(&d.bytes).expect("apply");
        let chained = downstream_feed.try_recv().expect("chained group");
        assert_eq!(chained.seq, d.seq);
        assert_eq!(chained.bytes, d.bytes);
    }
}
