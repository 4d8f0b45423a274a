//! The unified iGQ query engine (paper Sections 4.2–4.4, 5, and Fig. 6):
//! one concurrently shareable pipeline, generic over the query
//! [`QueryDirection`].
//!
//! [`Engine<D>`] wraps a dataset method and runs each query `g` through
//! one stage function after another over a per-query context:
//!
//! 1. `canonicalize`: the canonical code keys the exact-repeat lookup
//!    and admission;
//! 2. `exact_lookup`: optimal case 1 (Section 4.3) by hash lookup — an
//!    exact repeat returns its stored answer outright;
//! 3. `filter`: one path enumeration feeds the direction's filter, which
//!    produces the candidate set `CS(g)` (no false negatives);
//! 4. `probe_and_prune`: one query index yields cached queries whose
//!    stored answers are *known answers*, the other cached queries whose
//!    answers *bound* the candidates (which side is which is the
//!    direction's [`KNOWN_IS_ISUB`](QueryDirection::KNOWN_IS_ISUB)). An
//!    exact repeat `canonical_code` declined, or a bounding query with an
//!    empty answer, settles `g`; otherwise `CS_igq = (CS \ ∪ known) ∩
//!    (∩ bounds)` (formulas (3) and (5), inverted per Section 4.4). Every
//!    hit's replacement metadata is credited (Section 5.1);
//! 5. `verify`: verification of the survivors; the final answer adds back
//!    the known answers (formula (4));
//! 6. `finish`, the one epilogue of every resolution: window admission
//!    and maintenance (Section 5.2), the flip's WAL drain, the
//!    auto-checkpoint and the lifetime stats.
//!
//! # Concurrency model
//!
//! `query` takes `&self`: the engine is a shared service, `Send + Sync`,
//! fanned out across threads through an `Arc`. All mutable state — the
//! admission window, the flip ordinal, the [`QueryCache`] and the live
//! query index (`Isub` and `Isuper`) over it — sits behind **one**
//! [`std::sync::RwLock`]. Iso-test costs come from a row per query,
//! indexed by the stored graph's vertex count (from a table built at
//! construction), so no cost memo lives in the state. The lifetime
//! counters are one [`crate::EngineStats`] behind a leaf `Mutex`, which a
//! query takes once, in `finish`, to fold its tallies. The expensive stages
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
//! A follower's re-bootstrap ([`Engine::install_snapshot`]) swaps the
//! whole state under the write side. A query in flight may run its early
//! stages against the old state and its later ones against the new; its
//! answers stay exact because every slot it uses is found and consumed
//! inside one write-lock section (`exact_lookup`, `probe_and_prune`).
//!
//! Verification fans a large candidate batch out over the cores no other
//! query of this engine is using: `run` raises and lowers one in-flight
//! count, and the verify stage turns it into a width
//! ([`igq_methods::fanout_width`]). Queries of a batch
//! ([`Engine::query_batch`]) already run on a fan-out's workers and
//! verify serially.
//!
//! Two state machines sit beside the state lock. The role (`Follower {
//! epoch }` or `Primary { epoch }`) is one atomic word, changed only under
//! the write side by its transitions: adopt a sender's epoch, promote. The
//! WAL log (unappended records, health, appends since the last checkpoint)
//! sits behind one mutex that also orders appends; its transitions write
//! the health gauges into the ledger.
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
//! identical to never restarting. A recorded flip — a WAL record at
//! recovery, a delta group on a follower — is replayed by one function,
//! `replay_flip`. See the [`crate::persist`] module docs for formats and
//! the recovery protocol.
//!
//! A failed store write degrades durability, never answers: the log keeps
//! up to [`WAL_QUEUE_LIMIT`] unwritten flips queued and retries on one
//! backoff clock. With a checkpoint cadence, or once a full queue was
//! dropped, the retry that comes due is a checkpoint.
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
use crate::outcome::{QueryOutcome, Resolution};
use crate::persist::{self, CacheStore, PersistError};
use crate::query_index::QueryIndex;
use crate::replicate::{DeltaGroup, ReplicaError, ReplicationHub, Subscription};
use crate::stats::{EngineStats, QueryTally};
use igq_features::{enumerate_paths, PathFeatures};
use igq_graph::canon::{canonical_code, CanonicalCode, GraphSignature};
use igq_graph::stats::DatasetStats;
use igq_graph::{Graph, GraphId};
use igq_iso::LogValue;
use igq_methods::{
    available_cores, fanout_width, intersect_positions, Filtered, PlanSource, QueryContext,
};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    /// Flip ordinal: how many non-empty window flips this engine's cache
    /// has absorbed (including recovered history). Each persisted WAL
    /// record carries the flip's `seq`; recovery resumes from the highest
    /// replayed value.
    seq: u64,
    cache: QueryCache,
    /// `Isub` and `Isuper`: one index over the cache's residents.
    index: QueryIndex,
}

impl State {
    /// A cold state: empty window, cache and indexes.
    fn empty(config: &IgqConfig) -> State {
        State {
            window: Vec::new(),
            seq: 0,
            cache: QueryCache::with_policy(config.cache_capacity, config.policy),
            index: QueryIndex::over_slots(config.path_config, config.cache_capacity),
        }
    }
}

/// One query's pass through the stages of [`Engine::run`]: its inputs,
/// wall-time origin and canonical code (unless `canonical_code` declined
/// it), and the outcome and tallies the stages fill in.
struct QueryCtx<'q> {
    q: &'q Graph,
    opts: &'q QueryOptions,
    start: Instant,
    code: Option<CanonicalCode>,
    outcome: QueryOutcome,
    tally: QueryTally,
}

/// Persistence control for a store-attached engine ([`Engine::open`]).
struct PersistCtl {
    store: Arc<dyn CacheStore>,
    /// The header WAL rewrites write: a store-attached engine is a primary
    /// for life, so its epoch is fixed at [`Engine::open`].
    header: persist::WalHeader,
    /// Auto-checkpoint cadence in WAL appends; `None` = manual only.
    checkpoint_every: Option<u64>,
    /// One checkpointer at a time; the auto path skips (try-lock) rather
    /// than queue up behind an in-flight checkpoint.
    checkpoint_lock: Mutex<()>,
}

/// The engine's replication role with its failover epoch. Degraded is not
/// a role: only a store-attached primary can degrade, so that state
/// belongs to the [`WalLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Follower { epoch: u64 },
    Primary { epoch: u64 },
}

/// The highest epoch an artifact or a stream may carry: [`RoleCell`]
/// keeps the role in the bit below the epoch, and a promotion adds one.
const MAX_EPOCH: u64 = u64::MAX >> 2;

impl Role {
    fn epoch(self) -> u64 {
        match self {
            Role::Follower { epoch } | Role::Primary { epoch } => epoch,
        }
    }

    fn is_follower(self) -> bool {
        matches!(self, Role::Follower { .. })
    }

    /// Transition: take state stamped with the sender's epoch `stream`.
    /// Refuses a primary, and a deposed primary's older epoch; a newer one
    /// is the new primary announcing itself.
    fn adopt(self, stream: u64) -> Result<Role, ReplicaError> {
        match self {
            Role::Primary { .. } => Err(ReplicaError::NotFollower),
            Role::Follower { epoch } if stream < epoch => Err(ReplicaError::EpochFenced {
                stream,
                local: epoch,
            }),
            Role::Follower { .. } => checked_epoch(stream)
                .map(|epoch| Role::Follower { epoch })
                .map_err(ReplicaError::Corrupt),
        }
    }

    /// Transition: a follower becomes a writable primary one epoch on.
    fn promote(self) -> Result<Role, ReplicaError> {
        match self {
            Role::Follower { epoch } => Ok(Role::Primary { epoch: epoch + 1 }),
            Role::Primary { .. } => Err(ReplicaError::NotFollower),
        }
    }
}

fn checked_epoch(epoch: u64) -> Result<u64, String> {
    if epoch > MAX_EPOCH {
        return Err(format!("failover epoch {epoch} is out of range"));
    }
    Ok(epoch)
}

/// One [`Role`] in one atomic word (epoch shifted left, follower flag in
/// bit 0), so no reader pairs a new epoch with an old role. Stored only
/// under the state write lock. `Relaxed`: the word publishes no other
/// data, and a reader that needs the state with it holds the state lock.
struct RoleCell(AtomicU64);

impl RoleCell {
    fn pack(role: Role) -> u64 {
        role.epoch() << 1 | u64::from(role.is_follower())
    }

    fn load(&self) -> Role {
        let word = self.0.load(Ordering::Relaxed);
        let epoch = word >> 1;
        if word & 1 == 1 {
            Role::Follower { epoch }
        } else {
            Role::Primary { epoch }
        }
    }

    fn store(&self, role: Role) {
        self.0.store(Self::pack(role), Ordering::Relaxed);
    }
}

#[derive(Clone, Copy)]
enum Health {
    Healthy,
    /// A store write failed: the failed flip and every later one wait in
    /// the queue for a retry at `retry_at`, backed off per strike.
    Degraded {
        strikes: u32,
        retry_at: Instant,
        /// A failed append may have left a partial record, which a
        /// rewrite must drop before the next append (or it is a mid-log
        /// hole recovery rejects).
        torn_tail: bool,
        /// The last flip dropped with an overflowing queue: the log has a
        /// hole only a checkpoint at or after that flip can cover, so the
        /// retry is a checkpoint from then on.
        dropped_through: Option<u64>,
    },
}

/// Most encoded flips a degraded log queues. Each record carries the
/// metadata of every resident (O(cache) bytes); the flip that would
/// exceed the bound drops the queue instead, and the checkpoint that
/// heals the log re-covers every dropped flip.
pub const WAL_QUEUE_LIMIT: usize = 64;

/// The WAL's write side, whose methods are the log's transitions. Its
/// mutex orders appends and publication; never taken under the state
/// write lock.
struct WalLog {
    /// Encoded-but-unappended records in flip order, as `(seq, bytes)`;
    /// empty while healthy.
    queue: VecDeque<(u64, Vec<u8>)>,
    health: Health,
    /// Records appended since the last checkpoint.
    appends_since_checkpoint: u64,
}

impl WalLog {
    fn is_degraded(&self) -> bool {
        matches!(self.health, Health::Degraded { .. })
    }

    fn retry_due(&self) -> bool {
        matches!(self.health, Health::Degraded { retry_at, .. } if Instant::now() >= retry_at)
    }

    /// Whether a degraded log retries with a checkpoint: with a cadence,
    /// or once it dropped its queue.
    fn retries_by_checkpoint(&self, p: &PersistCtl) -> bool {
        p.checkpoint_every.is_some()
            || matches!(
                self.health,
                Health::Degraded {
                    dropped_through: Some(_),
                    ..
                }
            )
    }

    /// On the cadence while healthy; as the retry while degraded, when
    /// that is a checkpoint (it re-covers every queued and dropped flip
    /// at once).
    fn checkpoint_due(&self, p: &PersistCtl) -> bool {
        match self.health {
            Health::Healthy => p
                .checkpoint_every
                .is_some_and(|every| self.appends_since_checkpoint >= every),
            Health::Degraded { .. } => self.retries_by_checkpoint(p) && self.retry_due(),
        }
    }

    /// Transition: append one encoded flip. A degraded log queues it, or
    /// drops a full queue instead ([`WAL_QUEUE_LIMIT`]), and replays the
    /// queue when due unless its retry is a checkpoint.
    fn append(&mut self, p: &PersistCtl, seq: u64, bytes: Vec<u8>, ledger: &Ledger) {
        match &mut self.health {
            Health::Degraded {
                dropped_through, ..
            } if self.queue.len() >= WAL_QUEUE_LIMIT => {
                self.queue.clear();
                *dropped_through = Some(seq);
            }
            _ => self.queue.push_back((seq, bytes)),
        }
        if !self.is_degraded() || (!self.retries_by_checkpoint(p) && self.retry_due()) {
            self.replay(p, ledger);
        } else {
            let queued = self.queue.len() as u64;
            tally(ledger, |s| s.wal_quarantined_groups = queued);
        }
    }

    /// Transition: a write failed; the backoff doubles per strike.
    fn degrade(&mut self, reason: String, torn: bool, ledger: &Ledger) {
        let (strikes, torn_tail, dropped_through) = match self.health {
            Health::Healthy => (0, false, None),
            Health::Degraded {
                strikes,
                torn_tail,
                dropped_through,
                ..
            } => (strikes, torn_tail, dropped_through),
        };
        if strikes == 0 {
            eprintln!("igq: warning: {reason}; entering degraded mode");
        }
        let backoff = WAL_RETRY_FLOOR
            .saturating_mul(1 << strikes.min(10))
            .min(WAL_RETRY_CEIL);
        self.health = Health::Degraded {
            strikes: strikes + 1,
            retry_at: Instant::now() + backoff,
            torn_tail: torn || torn_tail,
            dropped_through,
        };
        let queued = self.queue.len() as u64;
        tally(ledger, |s| {
            s.degraded = true;
            s.degraded_reason = reason;
            s.wal_retry_failures += 1;
            s.wal_quarantined_groups = queued;
        });
    }

    /// Transition: repair a torn tail, then append the queue.
    fn replay(&mut self, p: &PersistCtl, ledger: &Ledger) {
        if let Health::Degraded {
            torn_tail: true, ..
        } = self.health
        {
            if let Err(e) = self.rewrite(p, 0) {
                return self.degrade(format!("WAL tail repair failed: {e}"), false, ledger);
            }
        }
        self.flush(p, "quarantined WAL flips replayed", ledger);
    }

    /// Transition: a checkpoint of flip `seq` was saved (or failed to
    /// be). Rewrites the log to the records after it and appends the
    /// queued flips after it. On a degraded log this is the checkpoint
    /// retry: a failure is a strike, a drained queue heals. A checkpoint
    /// older than the last dropped flip leaves the hole for the next
    /// retry.
    fn checkpointed(
        &mut self,
        p: &PersistCtl,
        saved: Result<u64, PersistError>,
        ledger: &Ledger,
    ) -> Result<(), PersistError> {
        match saved.and_then(|seq| self.rewrite(p, seq)) {
            Ok(kept) => {
                self.appends_since_checkpoint = kept;
                if let Health::Degraded {
                    dropped_through: Some(_),
                    ..
                } = self.health
                {
                    return Ok(());
                }
            }
            Err(e) if self.is_degraded() => {
                self.degrade(format!("checkpoint retry failed: {e}"), false, ledger);
                return Err(e);
            }
            Err(e) => return Err(e),
        }
        self.flush(p, "checkpoint re-covered the quarantined WAL flips", ledger);
        Ok(())
    }

    /// Appends the queue in flip order. A failure leaves the rest queued
    /// and degrades the log; a drained queue heals it (`how` says how).
    fn flush(&mut self, p: &PersistCtl, how: &str, ledger: &Ledger) {
        while let Some((seq, bytes)) = self.queue.pop_front() {
            if let Err(e) = p.store.append_wal(&bytes) {
                self.queue.push_front((seq, bytes));
                return self.degrade(format!("WAL append failed: {e}"), true, ledger);
            }
            self.appends_since_checkpoint += 1;
            tally(ledger, |s| {
                s.wal_appends += 1;
                s.wal_bytes_appended += bytes.len() as u64;
            });
        }
        if self.is_degraded() {
            self.health = Health::Healthy;
            eprintln!("igq: info: degraded mode cleared — {how}");
            tally(ledger, |s| {
                s.degraded = false;
                s.degraded_reason.clear();
                s.wal_quarantined_groups = 0;
            });
        }
    }

    /// Rewrites the log to its intact records after flip `after` (0 keeps
    /// them all), which drops a torn tail, and drops the queued and
    /// dropped flips a checkpoint at `after` covers. Returns the number of
    /// records kept.
    fn rewrite(&mut self, p: &PersistCtl, after: u64) -> Result<u64, PersistError> {
        let (compacted, kept) = persist::compact_wal(&p.store.load_wal()?, after, &p.header);
        p.store.replace_wal(&compacted)?;
        if let Health::Degraded {
            torn_tail,
            dropped_through,
            ..
        } = &mut self.health
        {
            *torn_tail = false;
            if dropped_through.is_some_and(|seq| seq <= after) {
                *dropped_through = None;
            }
        }
        self.queue.retain(|(seq, _)| *seq > after);
        Ok(kept)
    }
}

/// The lifetime counters: a leaf lock, never held across I/O or while
/// taking another lock.
type Ledger = Mutex<EngineStats>;

/// Writes the ledger: `f` runs under its lock, so it must only update
/// fields.
fn tally(ledger: &Ledger, f: impl FnOnce(&mut EngineStats)) {
    f(&mut ledger.lock().expect(POISONED));
}

/// What a persisted artifact must match to be restored into an engine,
/// checked alike by [`Engine::open`], [`Engine::open_follower`] and
/// [`Engine::install_snapshot`], and stamped on every checkpoint and
/// snapshot. Computed once at construction: the dataset cannot change
/// under a live engine.
struct StoreIdentity {
    config_fp: u64,
    dataset_fp: u64,
    labels: usize,
    /// Dataset size: every installed answer id must lie below it.
    graphs: usize,
}

/// `Err` when `answers` names a graph at or past `graphs`, the dataset
/// size. Decoded lists are strictly increasing, so only the last id needs
/// checking; an id outside the dataset would index past the engine's
/// per-graph tables when the list is credited. Callers add where the list
/// came from in `map_err`, so nothing is formatted when the check passes.
fn check_answer_ids(answers: &[GraphId], graphs: usize) -> Result<(), String> {
    match answers.last() {
        Some(id) if id.index() >= graphs => Err(format!(
            "answer id {} is outside the dataset of {graphs} graphs",
            id.raw()
        )),
        _ => Ok(()),
    }
}

impl StoreIdentity {
    fn check_fingerprints(&self, config_fp: u64, dataset_fp: u64) -> Result<(), PersistError> {
        if config_fp != self.config_fp {
            return Err(PersistError::ConfigMismatch {
                expected: self.config_fp,
                found: config_fp,
            });
        }
        if dataset_fp != self.dataset_fp {
            return Err(PersistError::DatasetMismatch {
                expected: self.dataset_fp,
                found: dataset_fp,
            });
        }
        Ok(())
    }

    /// Decodes a checkpoint-format artifact (`what` names it in errors)
    /// and checks that it belongs to this engine.
    fn decode(&self, what: &str, bytes: &[u8]) -> Result<persist::CheckpointData, PersistError> {
        let data = persist::decode_checkpoint(bytes)?;
        self.check_fingerprints(data.config_fp, data.dataset_fp)?;
        // The persisted label universe is derived from the same config +
        // dataset the fingerprints cover; a disagreement means the
        // artifact is internally inconsistent (the replacement metadata
        // was accumulated under a different cost model).
        if data.labels != self.labels {
            return Err(PersistError::Corrupt(format!(
                "{what} label universe {} does not match the engine's {}",
                data.labels, self.labels
            )));
        }
        for p in &data.entries {
            check_answer_ids(&p.entry.answers, self.graphs)
                .map_err(|m| PersistError::Corrupt(format!("{what} slot {}: {m}", p.slot)))?;
        }
        for w in &data.window {
            check_answer_ids(&w.answers, self.graphs)
                .map_err(|m| PersistError::Corrupt(format!("{what} window: {m}")))?;
        }
        Ok(data)
    }
}

/// Panic message for a lock whose holder panicked: the state behind it
/// may be half-updated, so every later caller fails loudly too.
const POISONED: &str = "engine lock poisoned";

/// One query's place in [`Engine`]'s in-flight count: raised on entry,
/// lowered on drop, so a query that panics still leaves.
struct InFlight<'a>(&'a AtomicUsize);

impl<'a> InFlight<'a> {
    fn enter(count: &'a AtomicUsize) -> InFlight<'a> {
        // Relaxed: the count publishes no other data; a stale read only
        // picks a different (always correct) width.
        count.fetch_add(1, Ordering::Relaxed);
        InFlight(count)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Backoff floor/ceiling between quarantine retry rounds.
const WAL_RETRY_FLOOR: Duration = Duration::from_millis(50);
const WAL_RETRY_CEIL: Duration = Duration::from_secs(5);

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
    /// The WAL's write side; its mutex serializes the outbox drain, so
    /// records land and publish in exactly their outbox (= flip) order.
    /// Stays empty and healthy without a store.
    wal: Mutex<WalLog>,
    /// `Some` iff the engine was attached to a [`CacheStore`] via
    /// [`Engine::open`].
    persist: Option<PersistCtl>,
    /// Primary-side replication fan-out. Inert (and cost-free on the
    /// flip path) until the first [`Engine::subscribe_replication`]
    /// activates it; from then on every committed flip group is
    /// published through it, post-append, in flip order.
    hub: ReplicationHub,
    /// Follower ([`Engine::open_follower`]: replays a primary's groups,
    /// admits nothing) or primary, with the failover epoch: bumped by
    /// [`Engine::promote`], persisted, and stamped on every published
    /// group so a deposed primary's stream is fenced.
    role: RoleCell,
    /// The lifetime counters, written through [`tally`].
    stats: Ledger,
    /// The fingerprints and label universe this engine's artifacts carry.
    identity: StoreIdentity,
    /// Each dataset graph's vertex count `Ni`, by id: what the cost rows
    /// are indexed by.
    vertex_counts: Box<[u32]>,
    /// Queries inside [`Engine::run`] right now, this one included: the
    /// verification fan-out's gate ([`igq_methods::fanout_width`]).
    in_flight: AtomicUsize,
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
        let id = Self::identity(&method, &config);
        let state = State::empty(&config);
        let primary = Role::Primary { epoch: 0 };
        Ok(Self::assemble(method, config, id, state, None, primary))
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

    /// Derives what this engine's persisted artifacts must carry (one
    /// pass over the dataset).
    fn identity(method: &D::Method, config: &IgqConfig) -> StoreIdentity {
        StoreIdentity {
            config_fp: persist::config_fingerprint(config, D::direction_name()),
            dataset_fp: persist::dataset_fingerprint(D::store(method)),
            labels: Self::resolve_labels(method, config),
            graphs: D::store(method).len(),
        }
    }

    fn assemble(
        method: D::Method,
        config: IgqConfig,
        identity: StoreIdentity,
        state: State,
        persist: Option<PersistCtl>,
        role: Role,
    ) -> Engine<D> {
        let vertex_counts = D::store(&method)
            .iter()
            .map(|(_, g)| g.vertex_count() as u32)
            .collect();
        Engine {
            method,
            config,
            state: RwLock::new(state),
            wal_outbox: Mutex::new(VecDeque::new()),
            wal: Mutex::new(WalLog {
                queue: VecDeque::new(),
                health: Health::Healthy,
                appends_since_checkpoint: 0,
            }),
            persist,
            hub: ReplicationHub::new(),
            role: RoleCell(AtomicU64::new(RoleCell::pack(role))),
            stats: Mutex::new(EngineStats {
                epoch: role.epoch(),
                ..EngineStats::default()
            }),
            identity,
            vertex_counts,
            in_flight: AtomicUsize::new(0),
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
        let id = Self::identity(&method, &config);
        let checkpoint = (store.load_checkpoint()?)
            .map(|bytes| id.decode("checkpoint", &bytes))
            .transpose()?;
        let wal = persist::parse_wal(&store.load_wal()?)?;
        if let Some(h) = &wal.header {
            id.check_fingerprints(h.config_fp, h.dataset_fp)?;
        }
        // The failover epoch survives restarts: a promoted-then-restarted
        // primary must keep fencing its predecessor's stream. Either
        // artifact may be the newer one (checkpoint cadence vs. WAL
        // header rewrite), so take the max.
        let epoch = checkpoint
            .as_ref()
            .map_or(0, |d| d.epoch)
            .max(wal.header.as_ref().map_or(0, |h| h.epoch));
        checked_epoch(epoch).map_err(PersistError::Corrupt)?;
        if wal.torn_tail {
            eprintln!(
                "igq: warning: WAL ends in a torn record (crash mid-append); \
                 truncating to the last intact flip"
            );
        }

        let st = Self::restore_from_checkpoint(&config, checkpoint)?;
        let pctl = PersistCtl {
            store,
            header: persist::WalHeader {
                config_fp: id.config_fp,
                dataset_fp: id.dataset_fp,
                epoch,
            },
            checkpoint_every: config
                .persistence
                .checkpoint_every_windows
                .map(|w| w as u64),
            checkpoint_lock: Mutex::new(()),
        };
        let primary = Role::Primary { epoch };
        let mut engine = Self::assemble(method, config, id, st, Some(pctl), primary);

        // Replay the WAL tail record by record (one record per flip)
        // through the path a follower applies delta groups with.
        let mut kept: Vec<persist::WalRecord> = Vec::new();
        {
            let mut guard = engine.lock_write();
            let st = &mut *guard;
            let mut previous: Option<u64> = None;
            for record in wal.records {
                let seq = record.seq;
                if previous == Some(seq) {
                    return Err(PersistError::Corrupt(format!(
                        "WAL records flip {seq} twice"
                    )));
                }
                previous = Some(seq);
                if seq <= st.seq {
                    continue; // subsumed by the checkpoint
                }
                if seq != st.seq + 1 {
                    let expected = st.seq + 1;
                    return Err(PersistError::Corrupt(format!(
                        "WAL sequence gap: expected flip {expected}, found {seq}"
                    )));
                }
                // Recovery rebuilds state; it is not maintenance work.
                engine
                    .replay_flip(st, &record)
                    .map_err(PersistError::Corrupt)?;
                kept.push(record);
            }
            // The checkpoint's pending window is only current while no
            // flip followed it: the first replayed WAL record's admission
            // batch *contained* those entries (a flip drains the whole
            // window), so keeping them would admit them a second time at
            // the next flip — a duplicate resident the never-restarted
            // engine does not have. After any replay the true state is
            // "window empty as of the last flip" (entries enqueued after
            // it are the documented loss window).
            if !kept.is_empty() {
                st.window.clear();
            }
            // Recompute any window signature an old artifact did not carry.
            for w in &mut st.window {
                w.signature
                    .get_or_insert_with(|| GraphSignature::of(&w.graph));
            }
        }

        // Compact the WAL to exactly the replayed tail (drops records the
        // checkpoint subsumes and any torn bytes) and re-establish the
        // header, so the file is clean from here on.
        let p = engine.persist.as_ref().expect("store attached above");
        p.store
            .replace_wal(&persist::encode_wal(&p.header, &kept))?;
        let replayed = kept.len() as u64;
        tally(&engine.stats, |s| s.recovery_replayed_windows = replayed);
        let log = engine.wal.get_mut().expect(POISONED);
        log.appends_since_checkpoint = replayed;
        Ok(engine)
    }

    /// The shared restore half of [`Engine::open`] and
    /// [`Engine::open_follower`]: reconstitutes the cache and the query
    /// index from a decoded checkpoint — no re-enumeration, no
    /// re-canonicalization (the persisted feature sets feed
    /// [`QueryIndex::insert`] directly, once each is checked against the
    /// configured `max_len`). The checkpoint's pending window is restored
    /// as-is (its signatures are the caller's job). `None` yields a cold
    /// start.
    fn restore_from_checkpoint(
        config: &IgqConfig,
        checkpoint: Option<persist::CheckpointData>,
    ) -> Result<State, PersistError> {
        let mut st = State::empty(config);
        let Some(data) = checkpoint else {
            return Ok(st);
        };
        let entries = slot_entries(&data.entries);
        st.cache = QueryCache::restore(
            config.cache_capacity,
            config.policy,
            data.round,
            data.slot_count,
            data.free,
            entries,
        )
        .map_err(PersistError::Corrupt)?;
        let max_len = config.path_config.max_len;
        for p in &data.entries {
            // Older/foreign checkpoints without feature sets fall back to
            // enumeration.
            let features = match &p.features {
                None => enumerate_paths(&p.entry.graph, &config.path_config),
                Some(f) => {
                    // Outside input: a sequence longer than `max_len` edges
                    // would index past the per-length table, and a zero
                    // count would plant a tombstone counted as live.
                    let bad = f.complete_len > max_len
                        || f.counts.iter().any(|(seq, count)| {
                            !(1..=max_len + 1).contains(&seq.len()) || *count == 0
                        });
                    if bad {
                        return Err(PersistError::Corrupt(format!(
                            "slot {}: persisted feature set does not fit max_len {max_len}",
                            p.slot
                        )));
                    }
                    let mut features = PathFeatures {
                        complete_len: f.complete_len,
                        ..PathFeatures::default()
                    };
                    // One insert at a time into an unsized map: the map's
                    // key order is the order the next checkpoint writes.
                    for (seq, count) in &f.counts {
                        features.counts.insert(seq.clone(), *count);
                    }
                    features
                }
            };
            st.index
                .insert(p.slot, Arc::clone(&p.entry.graph), &features);
        }
        st.seq = data.seq;
        st.window = data.window;
        Ok(st)
    }

    /// Opens a **follower** read replica from a primary's snapshot — the
    /// `checkpoint` payload of [`Subscription::Snapshot`] (any durable
    /// checkpoint of the same engine works too): a cold follower that
    /// then installs the snapshot like
    /// [`install_snapshot`](Engine::install_snapshot). The follower serves
    /// read-only queries over the replicated cache: its state advances
    /// only through [`Engine::apply_replica_delta`] and
    /// [`Engine::install_snapshot`], and local queries are never admitted
    /// to a window.
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
        let id = Self::identity(&method, &config);
        let (st, epoch) = Self::rebuild(&config, &id, snapshot)?;
        let cold = State::empty(&config);
        let follower = Role::Follower { epoch: 0 };
        let engine = Self::assemble(method, config, id, cold, None, follower);
        engine
            .install(st, epoch)
            .map_err(|e| PersistError::Corrupt(e.to_string()))?;
        Ok(engine)
    }

    /// Re-bootstraps this follower **in place** from a primary's snapshot
    /// (the same payload [`open_follower`](Engine::open_follower) takes),
    /// for a follower whose stream can no longer be proven contiguous.
    /// The snapshot is decoded and the state rebuilt off every lock; the
    /// swap itself runs under the write lock. Replication position
    /// (`last_applied_seq` and the heard gauge) is *set* to the
    /// snapshot's seq, which may be lower than before (a primary that
    /// restarted without history), and the replaced residents' plans go
    /// with their index; the replication hub is reset, which disconnects
    /// every downstream feed (their subscribers re-bootstrap in turn).
    /// Lifetime counters carry on. Returns the installed seq.
    ///
    /// Refusals leave the engine untouched:
    /// [`ReplicaError::NotFollower`] on a primary,
    /// [`ReplicaError::Corrupt`] for a snapshot that does not decode or
    /// belongs to another config or dataset, and
    /// [`ReplicaError::EpochFenced`] for a snapshot from an older
    /// failover epoch — a deposed primary's state never replaces the
    /// current one.
    pub fn install_snapshot(&self, snapshot: &[u8]) -> Result<u64, ReplicaError> {
        if !self.is_follower() {
            return Err(ReplicaError::NotFollower);
        }
        let (st, epoch) = Self::rebuild(&self.config, &self.identity, snapshot)?;
        self.install(st, epoch)
    }

    /// Decodes a snapshot and rebuilds the state it describes (window
    /// cleared: a follower never admits), with its failover epoch.
    fn rebuild(
        config: &IgqConfig,
        id: &StoreIdentity,
        snapshot: &[u8],
    ) -> Result<(State, u64), PersistError> {
        let data = id.decode("snapshot", snapshot)?;
        let epoch = data.epoch;
        let mut st = Self::restore_from_checkpoint(config, Some(data))?;
        st.window.clear();
        Ok((st, epoch))
    }

    /// The locked half of [`install_snapshot`](Engine::install_snapshot):
    /// adopts the snapshot's epoch, then swaps `st` in.
    fn install(&self, st: State, epoch: u64) -> Result<u64, ReplicaError> {
        let seq = st.seq;
        let old = {
            let mut guard = self.lock_write();
            let role = self.role.load().adopt(epoch)?;
            self.role.store(role);
            tally(&self.stats, |s| {
                s.set_position(seq);
                s.epoch = epoch;
            });
            self.hub.reset();
            std::mem::replace(&mut *guard, st)
        };
        // Off the lock: drop the replaced state.
        drop(old);
        Ok(seq)
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
            if let Some(feed) = self.hub.try_resume(after, Vec::new()) {
                return Subscription::Live { feed };
            }
            // The subscriber is older than the in-memory resume ring. On
            // a durable primary the missing groups are usually still in
            // the WAL: replay them from disk and splice them in front of
            // the live ring, so the follower catches up over the stream
            // instead of re-transferring a full snapshot.
            if let Some(feed) = self.wal_backlog_feed(after) {
                tally(&self.stats, |s| s.replica_wal_catchups += 1);
                return Subscription::Live { feed };
            }
        }
        let id = &self.identity;
        let data = self.capture_state(&g, id.config_fp, id.dataset_fp);
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
        // Under the WAL lock no appender is writing, so the log read here
        // is a clean prefix of the stream.
        let log = self.wal.lock().expect(POISONED);
        if log.is_degraded() {
            return None;
        }
        // A torn tail only drops the final (never-committed) record; the
        // intact prefix is still a valid backlog source.
        let wal = persist::parse_wal(&p.store.load_wal().ok()?).ok()?;
        let epoch = self.role.load().epoch();
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
        self.hub.try_resume(after, backlog)
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
        if !self.is_follower() {
            return Err(ReplicaError::NotFollower);
        }
        let (stream_epoch, record) = persist::decode_group_binary(bytes)?;
        let seq = record.seq;
        {
            let mut guard = self.lock_write();
            let st = &mut *guard;
            // Re-checked under the write lock, so a group racing a
            // promotion is rejected rather than applied to a now-writable
            // primary.
            let role = self.role.load().adopt(stream_epoch)?;
            tally(&self.stats, |s| s.note_heard(seq));
            if seq <= st.seq {
                return Ok(st.seq);
            }
            if seq != st.seq + 1 {
                return Err(ReplicaError::SeqGap {
                    expected: st.seq + 1,
                    found: seq,
                });
            }
            let (postings, elapsed) = self
                .replay_flip(st, &record)
                .map_err(ReplicaError::Corrupt)?;
            self.role.store(role);
            tally(&self.stats, |s| {
                s.epoch = stream_epoch;
                s.note_applied(seq);
                s.maintenance_postings_touched += postings;
                s.maintenance_time += elapsed;
                s.replica_groups_applied += 1;
                s.replica_bytes_applied += bytes.len() as u64;
            });
        }
        // Off the state locks: republish the same bytes for any chained
        // subscribers (a follower can itself feed further replicas).
        self.publish(seq, || Arc::from(bytes));
        Ok(seq)
    }

    /// Replays one recorded flip — a WAL record at recovery, a delta
    /// group on a follower: the recorded evictions/admissions re-applied
    /// verbatim (the policy is not re-run, so slot decisions are the
    /// recording engine's), its metadata table restored, the query index
    /// updated like a live flip, and the state's seq advanced to the
    /// record's. Seq, epoch and duplicate checks are the caller's; `Err`
    /// means a corrupt record. Returns the index work
    /// (postings touched, time) for the caller to record or not.
    fn replay_flip(
        &self,
        st: &mut State,
        record: &persist::WalRecord,
    ) -> Result<(u64, Duration), String> {
        for p in &record.admitted {
            check_answer_ids(&p.entry.answers, self.identity.graphs)
                .map_err(|m| format!("flip {} slot {}: {m}", record.seq, p.slot))?;
        }
        let delta = WindowDelta {
            evicted: record.evicted.clone(),
            admitted: record.admitted.iter().map(|p| p.slot).collect(),
            features: Vec::new(),
        };
        st.cache
            .replay_window(&record.evicted, slot_entries(&record.admitted))?;
        // Each table lists every resident after its flip.
        for &(slot, meta) in &record.metas {
            if st.cache.get(slot).is_none() {
                return Err(format!(
                    "flip {} metadata for slot {slot}, which is not occupied after replay",
                    record.seq
                ));
            }
            st.cache.entry_mut(slot).meta = meta;
        }
        let work = self.apply_index_delta(st, &delta);
        st.seq = record.seq;
        Ok(work)
    }

    /// `true` if this engine is a read-only follower replica
    /// ([`Engine::open_follower`]) that has not been
    /// [`promote`](Engine::promote)d.
    pub fn is_follower(&self) -> bool {
        self.role.load().is_follower()
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
        let role = self.role.load().promote()?;
        self.role.store(role);
        tally(&self.stats, |s| s.epoch = role.epoch());
        Ok(role.epoch())
    }

    /// The current failover epoch: 0 until a promotion happens anywhere
    /// in the replication tree; bumped by [`promote`](Engine::promote),
    /// adopted from the stream by followers.
    pub fn epoch(&self) -> u64 {
        self.role.load().epoch()
    }

    /// Follower staleness in window flips — the highest flip heard from
    /// the primary's stream minus the last flip applied locally. `None`
    /// on a primary. Cheap (one short ledger read): intended for
    /// per-request bounded-staleness admission checks.
    pub fn replication_lag(&self) -> Option<u64> {
        self.is_follower()
            .then(|| self.stats.lock().expect(POISONED).replication_lag_windows)
    }

    /// Records that the primary's stream has reached `seq` without
    /// applying anything (e.g. a heartbeat, or a delta observed but still
    /// queued): the staleness gauge measures heard-vs-applied, so feeds
    /// should report both sides.
    pub fn note_replica_heard(&self, seq: u64) {
        tally(&self.stats, |s| s.note_heard(seq));
    }

    /// The wrapped method.
    pub fn method(&self) -> &D::Method {
        &self.method
    }

    /// Aggregate statistics so far: an owned clone of the ledger, safe to
    /// call from any thread at any time. Every per-query counter in it
    /// covers the same set of finished queries.
    pub fn stats(&self) -> EngineStats {
        self.stats.lock().expect(POISONED).clone()
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
    /// sets, and the query index with its residents' plans) — the iGQ bar
    /// of Figure 18.
    pub fn igq_index_size_bytes(&self) -> u64 {
        let st = self.lock_read();
        st.cache.heap_size_bytes() + st.index.heap_size_bytes()
    }

    /// The cost row of a query with `n` vertices: estimated iso-test costs
    /// against dataset graphs, with the pattern/target roles ordered by
    /// the direction.
    fn cost_row(&self, n: usize) -> CostRow<'_> {
        CostRow {
            cost_ln: D::cost_ln,
            labels: self.identity.labels,
            n,
            vertex_counts: &self.vertex_counts,
            cells: Vec::new(),
        }
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
        tally(&self.stats, |s| s.requests_served += 1);
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
            0 => available_cores(),
            n => n,
        };
        igq_methods::par_map(items.len(), threads, |_, i| run(&items[i]))
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
            tally(&self.stats, |s| s.batches_coalesced += 1);
        }
        self.fan_out(requests, |r| self.execute(r))
    }

    /// Records one request shed by admission control into
    /// [`EngineStats::requests_rejected_overload`]. Called by the serving
    /// edge, which owns the shed decision; the engine only keeps the
    /// ledger.
    pub fn note_overload_rejection(&self) {
        tally(&self.stats, |s| s.requests_rejected_overload += 1);
    }

    /// The shared pipeline behind [`query`](Engine::query) and
    /// [`execute`](Engine::execute), one stage per function: canonicalize
    /// → exact lookup → filter → probe and prune → verify. Each
    /// resolution — a canonical-code exact hit, a probe-found exact hit,
    /// the empty-answer shortcut, or verification — ends in
    /// [`finish`](Self::finish).
    fn run(&self, q: &Graph, opts: &QueryOptions) -> QueryOutcome {
        let _flight = InFlight::enter(&self.in_flight);
        let mut ctx = self.canonicalize(q, opts);
        if self.exact_lookup(&mut ctx) {
            return self.finish(ctx, None);
        }
        let (qf, filtered) = self.filter(&mut ctx);
        if let Some(survivors) = self.probe_and_prune(&mut ctx, &qf, &filtered.candidates) {
            self.verify(&mut ctx, &filtered.context, survivors);
        }
        self.finish(ctx, Some(qf))
    }

    /// Stage: the query's canonical code — the exact-repeat key, admitted
    /// with the query so maintenance never recomputes it.
    fn canonicalize<'q>(&self, q: &'q Graph, opts: &'q QueryOptions) -> QueryCtx<'q> {
        let start = Instant::now();
        let code = canonical_code(q);
        let tally = QueryTally {
            canonicalization_time: start.elapsed(),
            canonical_code_declined: code.is_none(),
            ..QueryTally::default()
        };
        QueryCtx {
            q,
            opts,
            start,
            code,
            outcome: QueryOutcome::default(),
            tally,
        }
    }

    /// Stage: optimal case 1 by hash lookup, before any filtering or
    /// probing. The probes still catch repeats of the rare query
    /// `canonical_code` declines (over its vertex cap, or out of leaves).
    /// The common miss pays only a read lock; a hit re-checks under the
    /// write lock (the slot may have been evicted in between), which then
    /// covers the query clock, the copy of the stored answers and the
    /// hit's credit. That credit is the resident's memoized known credit
    /// at its own size ([`CacheEntry::known_credit`]), summed once.
    /// Returns whether the query resolved.
    fn exact_lookup(&self, ctx: &mut QueryCtx<'_>) -> bool {
        let Some(code) = &ctx.code else { return false };
        if self.lock_read().cache.slot_with_code(code).is_none() {
            return false;
        }
        let mut st = self.lock_write();
        let Some(slot) = st.cache.slot_with_code(code) else {
            return false;
        };
        st.cache.tick_all();
        let entry = st.cache.entry_mut(slot);
        // Credit: without running the filter the alleviated candidate set
        // is unknown; the stored answers are a conservative lower bound
        // on it. The repeat is isomorphic to the resident, so it has the
        // resident's size and the credit is the same on every repeat.
        let n = entry.graph.vertex_count();
        let credit = entry.known_credit(n, |answers| self.cost_row(n).sum(answers.iter().copied()));
        entry.meta.record_hit(entry.answers.len() as u64, credit);
        ctx.outcome.answers = entry.answers.clone();
        ctx.outcome.resolution = Resolution::ExactHit;
        ctx.outcome.igq_time = ctx.start.elapsed();
        true
    }

    /// Stage: single-pass feature extraction (shared by the filter and
    /// both probes), then the base method's filter, outside the locks.
    fn filter(&self, ctx: &mut QueryCtx<'_>) -> (PathFeatures, Filtered) {
        let start = Instant::now();
        let qf = enumerate_paths(ctx.q, &self.config.path_config);
        ctx.outcome.igq_time = start.elapsed();
        ctx.tally.features_extracted = true;
        let start = Instant::now();
        let filtered = D::filter(&self.method, ctx.q, &qf);
        ctx.outcome.filter_time = start.elapsed();
        (qf, filtered)
    }

    /// Stage: probe `Isub`/`Isuper` and apply the answer algebra to the
    /// candidate set `cs`, all under one write lock so every probed slot
    /// stays valid while its stored answers are used. Settles the query
    /// outright on a probe-found exact repeat (optimal case 1) or a
    /// cached bounding query with an empty answer (optimal case 2);
    /// otherwise returns [`prune_and_credit`]'s survivors and the known
    /// answers inside `cs`. Every hit is credited either way.
    fn probe_and_prune(
        &self,
        ctx: &mut QueryCtx<'_>,
        qf: &PathFeatures,
        cs: &[GraphId],
    ) -> Option<(Vec<GraphId>, Vec<GraphId>)> {
        let q = ctx.q;
        let mut guard = self.lock_write();
        let st = &mut *guard;
        let p_start = Instant::now();
        let (sub_slots, sub_stats) = st.index.supergraphs_of(q, qf);
        let (super_slots, super_stats) = st.index.subgraphs_of(q, qf);
        let probe_time = p_start.elapsed();
        ctx.tally.isuper = super_stats;
        let o = &mut ctx.outcome;
        o.igq_iso_tests = sub_stats.tests + super_stats.tests;
        o.isub_hits = sub_slots.len();
        o.isuper_hits = super_slots.len();
        o.candidates_before = cs.len();

        let bookkeeping_start = Instant::now();
        // Every cached entry has now seen one more query.
        st.cache.tick_all();

        // The direction decides which probe feeds the *known answers*
        // path and which the *bounding* path (Section 4.4 inversion).
        let (known_slots, bound_slots) = if D::KNOWN_IS_ISUB {
            (&sub_slots, &super_slots)
        } else {
            (&super_slots, &sub_slots)
        };

        // Optimal case 1: exact repeat — g isomorphic to a cached query.
        // g ⊆ G (or G ⊆ g) at equal vertex/edge counts is an isomorphism.
        // Optimal case 2: a cached bounding query with an empty answer set
        // proves Answer(g) = ∅ (Section 4.3; roles inverted in the
        // supergraph direction, Section 4.4).
        let settled = sub_slots
            .iter()
            .chain(super_slots.iter())
            .copied()
            .find(|&s| {
                let g = &st.cache.entry(s).graph;
                g.vertex_count() == q.vertex_count() && g.edge_count() == q.edge_count()
            })
            .map(|s| (s, Resolution::ExactHit))
            .or_else(|| {
                bound_slots
                    .iter()
                    .copied()
                    .find(|&s| st.cache.entry(s).answers.is_empty())
                    .map(|s| (s, Resolution::EmptyAnswerShortcut))
            });
        let pruned = prune_and_credit(
            &mut st.cache,
            &mut self.cost_row(q.vertex_count()),
            self.vertex_counts.len(),
            cs,
            (known_slots, bound_slots),
            settled.map(|(slot, _)| slot),
        );
        let survivors = match settled {
            Some((slot, resolution)) => {
                o.resolution = resolution;
                o.candidates_after = 0;
                if resolution == Resolution::ExactHit {
                    o.answers = st.cache.entry(slot).answers.clone();
                    o.pruned_by_isub = cs.len();
                } else if D::KNOWN_IS_ISUB {
                    o.pruned_by_isuper = cs.len();
                } else {
                    o.pruned_by_isub = cs.len();
                }
                None
            }
            None => Some(pruned.report::<D>(o)),
        };
        ctx.outcome.igq_time += probe_time + bookkeeping_start.elapsed();
        survivors
    }

    /// Stage: verification of the surviving candidates `pruned`, outside
    /// the lock, with one matching plan for the query, fanned out over the
    /// cores no other query of this engine is using
    /// ([`igq_methods::fanout_width`]). The final answer adds back the
    /// known answers `known_in_cs` (formula (4)).
    fn verify(
        &self,
        ctx: &mut QueryCtx<'_>,
        context: &QueryContext,
        (pruned, known_in_cs): (Vec<GraphId>, Vec<GraphId>),
    ) {
        let start = Instant::now();
        let in_flight = self.in_flight.load(Ordering::Relaxed);
        let plan_source =
            PlanSource::with_width(fanout_width(available_cores(), in_flight, pruned.len()));
        let (results, batch_stats) =
            D::verify(&self.method, ctx.q, context, &pruned, Some(plan_source));
        ctx.tally.verify = batch_stats;
        let o = &mut ctx.outcome;
        o.db_iso_tests = pruned.len() as u64;
        o.aborted_tests = results.iter().filter(|r| r.aborted).count() as u64;
        let mut answers: Vec<GraphId> = pruned
            .iter()
            .zip(results.iter())
            .filter(|(_, r)| r.contains)
            .map(|(&id, _)| id)
            .collect();
        o.verify_time = start.elapsed();
        answers.extend_from_slice(&known_in_cs);
        answers.sort_unstable();
        answers.dedup();
        o.answers = answers;
    }

    /// The one epilogue of every resolution: admission and, on a full
    /// window, the flip under the write lock; the WAL drain and
    /// auto-checkpoint off it; then wall time, and the query's one fold
    /// into the ledger. `features` are the query's path features, when
    /// its filter extracted them: they ride with its window entry, so the
    /// flip indexes the query without enumerating it again.
    fn finish(&self, ctx: QueryCtx<'_>, features: Option<PathFeatures>) -> QueryOutcome {
        let mut outcome = ctx.outcome;
        // An exact hit is cached already. A query whose verification hit
        // the abort budget has a possibly-incomplete answer set: caching
        // it would let formulas (3)–(5) turn one bounded verification
        // into wrong answers for *future* queries. A follower's cache
        // changes only by replaying the primary's groups (checked ahead of
        // the lock, this can at worst skip one admission racing a
        // promotion). An empty-answer query is prime cache material.
        if outcome.resolution != Resolution::ExactHit
            && outcome.aborted_tests == 0
            && !ctx.opts.skip_admission
            && !self.is_follower()
        {
            let maint_start = Instant::now();
            // The admission record (graph clone, WL signature) is built
            // before the lock so concurrent callers do not serialize on it.
            let entry = WindowEntry {
                graph: Arc::new(ctx.q.clone()),
                answers: outcome.answers.clone(),
                signature: Some(GraphSignature::of(ctx.q)),
                code: Some(ctx.code),
                features,
            };
            let flipped = {
                let mut st = self.lock_write();
                self.enqueue(&mut st, entry);
                self.maybe_flip(&mut st, false)
            };
            let checkpoint_due = flipped && self.drain_outbox();
            outcome.igq_time += maint_start.elapsed();
            if checkpoint_due {
                self.maybe_auto_checkpoint();
            }
        }
        outcome.wall_time = ctx.start.elapsed();
        tally(&self.stats, |s| s.fold_query(&outcome, &ctx.tally));
        outcome
    }

    /// Adds an admission record to the window unless its graph is an
    /// exact duplicate of a pending window entry
    /// (cache duplicates were already handled by the exact-hit path; two
    /// concurrent first-time callers of the same query can still both
    /// admit — duplicate residents are tolerated by the cache, see
    /// `duplicate_codes_survive_partial_eviction`).
    fn enqueue(&self, st: &mut State, entry: WindowEntry) {
        let dup = st.window.iter().any(|e| {
            e.signature == entry.signature && igq_iso::are_isomorphic(&entry.graph, &e.graph)
        });
        if !dup {
            st.window.push(entry);
        }
    }

    /// Flips the window once it holds `W` queries (any, when `force`d):
    /// evicts/admits and brings the query index in line with the resulting
    /// slot delta — incrementally on this thread (remove evicted slots,
    /// insert admitted ones; O(window delta)). Returns whether it flipped.
    fn maybe_flip(&self, st: &mut State, force: bool) -> bool {
        let due = st.window.len() >= if force { 1 } else { self.config.window };
        if due {
            let incoming = std::mem::take(&mut st.window);
            self.apply_incoming(st, incoming);
        }
        due
    }

    /// Applies one admission batch as a window flip
    /// ([`QueryCache::apply_window`]): the flip is captured as one WAL
    /// record, and the index delta is applied inline (evicted residents'
    /// plans go with their slots).
    fn apply_incoming(&self, st: &mut State, incoming: Vec<WindowEntry>) {
        let delta = st.cache.apply_window(incoming);
        if delta.is_empty() {
            return;
        }
        self.capture_wal(st, &delta);
        let (postings, elapsed) = self.apply_index_delta(st, &delta);
        tally(&self.stats, |s| {
            s.maintenances += 1;
            s.maintenance_postings_touched += postings;
            s.maintenance_time += elapsed;
            s.note_applied(st.seq);
        });
    }

    /// Brings the query index in line with the cache after `delta` was
    /// applied to it; the caller holds the state write lock. Returns the
    /// postings touched (each once) and the time it took.
    fn apply_index_delta(&self, st: &mut State, delta: &WindowDelta) -> (u64, Duration) {
        if delta.is_empty() {
            return (0, Duration::ZERO);
        }
        let maint_start = Instant::now();
        let touched = st.index.apply_delta(&st.cache, delta);
        (touched, maint_start.elapsed())
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
    /// with neither a store nor subscribers. Returns whether an
    /// auto-checkpoint is due, read under the WAL lock it already holds.
    fn drain_outbox(&self) -> bool {
        if self.persist.is_none() && !self.hub.is_active() {
            return false;
        }
        // One appender at a time: pops happen only under the WAL lock, in
        // FIFO order, so append order is flip order — and so is
        // publication order on the replication hub.
        let mut log = self.wal.lock().expect(POISONED);
        loop {
            let record = self.wal_outbox.lock().expect(POISONED).pop_front();
            let Some(record) = record else { break };
            if let Some(p) = &self.persist {
                // One flip is one append (and one fsync on disk-backed
                // stores): a crash can tear at most the final record,
                // which recovery truncates.
                let bytes = persist::encode_wal_record(&record);
                log.append(p, record.seq, bytes, &self.stats);
            }
            // Replication tracks the *live* engine, not the disk: the
            // flip is published even when the local WAL is degraded
            // (followers mirror memory; durability is the primary's own
            // problem). Publication after the append attempt keeps "what
            // followers saw" always ≤ "what the primary wrote" on a
            // healthy log.
            self.publish(record.seq, || {
                persist::encode_group_binary(&record, self.epoch()).into()
            });
        }
        self.persist.as_ref().is_some_and(|p| log.checkpoint_due(p))
    }

    /// Publishes one flip group to the replication hub's subscribers, if
    /// it has been activated.
    fn publish(&self, seq: u64, bytes: impl FnOnce() -> Arc<[u8]>) {
        if self.hub.is_active() {
            self.hub.publish(DeltaGroup {
                seq,
                bytes: bytes(),
            });
            tally(&self.stats, |s| s.replica_groups_published += 1);
        }
    }

    /// Forces maintenance regardless of window fill (used by harnesses at
    /// warm-up boundaries).
    pub fn flush_window(&self) {
        self.maybe_flip(&mut self.lock_write(), true);
        if self.drain_outbox() {
            self.maybe_auto_checkpoint();
        }
    }

    /// Writes a checkpoint to the attached [`CacheStore`] and compacts
    /// the WAL to the post-checkpoint tail. The snapshot covers the full
    /// durable state — cache, indexes (as per-slot feature sets), pending
    /// window, replacement metadata, free-slot geometry — **without**
    /// flushing the window or otherwise perturbing engine behavior, so a
    /// checkpointed engine and an untouched one remain observationally
    /// identical. Runs whatever the log's retry clock says.
    ///
    /// State capture runs under the state *read* lock (concurrent queries
    /// proceed; flips wait); encoding, storage I/O, and WAL compaction
    /// run with no engine lock held. A no-op `Ok(())` for engines
    /// constructed without a store ([`Engine::new`]).
    pub fn checkpoint(&self) -> Result<(), PersistError> {
        let Some(p) = &self.persist else {
            return Ok(());
        };
        let _one_at_a_time = p.checkpoint_lock.lock().expect(POISONED);
        self.write_checkpoint(p)
    }

    /// The body of a checkpoint; the caller holds `checkpoint_lock`.
    fn write_checkpoint(&self, p: &PersistCtl) -> Result<(), PersistError> {
        let start = Instant::now();
        let data = {
            // Under the read lock no flip can land, so the capture is
            // flip-consistent; the drain (safe here: it takes no state
            // lock) first appends every flip captured so far.
            let g = self.lock_read();
            self.drain_outbox();
            self.capture_state(&g, p.header.config_fp, p.header.dataset_fp)
        };
        let seq = data.seq;
        let bytes = persist::encode_checkpoint(&data);
        let saved = p.store.save_checkpoint(&bytes).map(|()| seq);
        // Under the WAL lock no appender is writing, so compaction cannot
        // drop a record newer than the checkpoint; it works on raw bytes
        // because it blocks appends.
        self.wal
            .lock()
            .expect(POISONED)
            .checkpointed(p, saved, &self.stats)?;
        let elapsed = start.elapsed();
        tally(&self.stats, |s| {
            s.checkpoint_time += elapsed;
            s.checkpoint_bytes_written += bytes.len() as u64;
        });
        Ok(())
    }

    /// Auto-checkpoint when the log's clock says so: on the configured
    /// cadence while healthy, and as the backoff-gated retry while
    /// degraded. Called off the state lock after a drain found one due;
    /// failures are reported to stderr (the engine keeps serving — an
    /// explicit [`checkpoint`](Engine::checkpoint) call surfaces the
    /// error).
    fn maybe_auto_checkpoint(&self) {
        let Some(p) = &self.persist else { return };
        let _one_at_a_time = match p.checkpoint_lock.try_lock() {
            Ok(guard) => guard,
            // A checkpoint is in flight; a due one stays due for the next
            // flip.
            Err(TryLockError::WouldBlock) => return,
            Err(TryLockError::Poisoned(_)) => panic!("{POISONED}"),
        };
        // Re-checked under the lock: a checkpoint that just finished may
        // have covered this flip, or failed and re-armed the clock.
        if !self.wal.lock().expect(POISONED).checkpoint_due(p) {
            return;
        }
        if let Err(e) = self.write_checkpoint(p) {
            eprintln!("igq: warning: auto-checkpoint failed: {e}");
        }
    }

    /// Snapshots the full durable state (the checkpoint payload and the
    /// single serialization path behind [`Engine::checkpoint`] and
    /// [`Engine::export_entries`]). Caller holds the state lock; per-slot
    /// feature sets are read from the live query index, which indexes
    /// every resident. Entries come out in slot order.
    fn capture_state(
        &self,
        st: &State,
        config_fp: u64,
        dataset_fp: u64,
    ) -> persist::CheckpointData {
        let entries = st
            .cache
            .iter()
            .map(|(slot, e)| {
                let (counts, complete_len) = st
                    .index
                    .slot_features(slot)
                    .expect("flips index every resident");
                persist::PersistedEntry {
                    slot,
                    entry: e.clone(),
                    features: Some(persist::SlotFeatureSet {
                        counts,
                        complete_len,
                    }),
                }
            })
            .collect();
        persist::CheckpointData {
            seq: st.seq,
            config_fp,
            dataset_fp,
            epoch: self.role.load().epoch(),
            labels: self.identity.labels,
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

    /// Debug/production sanity check: verifies the engine's internal
    /// invariants (cache within capacity, sorted answer sets), then diffs
    /// the incrementally maintained query index against a fresh shadow
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
        // Index ≡ cache: the index must hold exactly the cached slots,
        // with postings identical to a from-scratch rebuild.
        let graphs = st
            .cache
            .iter()
            .map(|(slot, e)| (slot, Arc::clone(&e.graph)));
        let fresh = QueryIndex::build(graphs, self.config.path_config);
        st.index
            .snapshot()
            .diff(&fresh.snapshot())
            .map_err(|e| format!("query index drifted from shadow rebuild: {e}"))
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

/// `(slot, entry)` pairs of persisted entries, as the cache restores them.
fn slot_entries(entries: &[persist::PersistedEntry]) -> Vec<(usize, CacheEntry)> {
    entries.iter().map(|p| (p.slot, p.entry.clone())).collect()
}

/// `ln c(n, Ni)` for one query size `n`, as a row indexed by the stored
/// graph's vertex count `Ni` whose cells are computed on first use.
struct CostRow<'e> {
    /// [`QueryDirection::cost_ln`]: the roles ordered by the direction.
    cost_ln: fn(usize, usize, usize) -> LogValue,
    labels: usize,
    n: usize,
    /// `Ni` by dataset graph id.
    vertex_counts: &'e [u32],
    /// `ln c(n, Ni)` by `Ni`; NaN until computed.
    cells: Vec<f64>,
}

impl CostRow<'_> {
    /// The estimated cost of testing graph `id`.
    fn cost(&mut self, id: GraphId) -> LogValue {
        let ni = self.vertex_counts[id.index()] as usize;
        if ni >= self.cells.len() {
            self.cells.resize(ni + 1, f64::NAN);
        }
        let cell = &mut self.cells[ni];
        if cell.is_nan() {
            *cell = (self.cost_ln)(self.labels, self.n, ni).ln();
        }
        LogValue::from_ln(*cell)
    }

    /// The summed cost of testing every graph in `ids`, added one at a
    /// time in the given order: `GraphMeta::cost_alleviated` reaches
    /// checkpoints and WAL records, so its bits must not depend on how
    /// the sum is grouped.
    fn sum(&mut self, ids: impl IntoIterator<Item = GraphId>) -> LogValue {
        ids.into_iter()
            .fold(LogValue::ZERO, |total, id| total.add(self.cost(id)))
    }
}

/// What [`prune_and_credit`] leaves of a candidate set `CS`.
struct Pruned {
    /// `CS_igq`: the candidates left to verify.
    survivors: Vec<GraphId>,
    /// The known answers inside `CS`, added back after verification
    /// (formula (4)).
    known_in_cs: Vec<GraphId>,
    /// Candidates removed as known answers (formula (3)).
    by_known: usize,
    /// Candidates removed by the bounding answer sets (formula (5)).
    by_bound: usize,
}

impl Pruned {
    /// Records the prune counts (per probe, as the direction assigns the
    /// paths) and `candidates_after` in `o`; returns `CS_igq` and the
    /// known answers inside `CS`.
    fn report<D: QueryDirection>(self, o: &mut QueryOutcome) -> (Vec<GraphId>, Vec<GraphId>) {
        let (by_isub, by_isuper) = if D::KNOWN_IS_ISUB {
            (self.by_known, self.by_bound)
        } else {
            (self.by_bound, self.by_known)
        };
        o.pruned_by_isub = by_isub;
        o.pruned_by_isuper = by_isuper;
        o.candidates_after = self.survivors.len();
        (self.survivors, self.known_in_cs)
    }
}

/// Formula (3) (or its Section 4.4 inverse) drops the candidates that
/// are known answers; formula (5) keeps only candidates in every bounding
/// answer set. Each hit's replacement metadata is credited on the way
/// (Section 5.1), known hits first, then bounding hits, each in probe
/// order, then `bonus` (the slot that settled the query, if one did)
/// with the whole candidate set. One pass per hit:
///
/// * a known hit's answers `A` are few, so `CS ∩ A` is found once by
///   galloping from the smaller side. Its positions in `cs` mark the
///   known answers, and its candidates are the hit's credit (those its
///   answers *cover*). When `CS` holds every answer, that credit is the
///   resident's known credit at the query's size, summed once per size
///   ([`CacheEntry::known_credit`]);
/// * a bounding hit's answers are many, so one pass over `cs` tests each
///   candidate against the resident's answer bitset. The misses `CS \ A`
///   are both the hit's credit (those its answers *exclude*) and the
///   candidates it removes from the survivors.
///
/// Each credit is summed in candidate (= id) order, so the stored costs
/// keep their bits. `graphs` is the dataset size (the bitsets' width).
fn prune_and_credit(
    cache: &mut QueryCache,
    costs: &mut CostRow<'_>,
    graphs: usize,
    cs: &[GraphId],
    (known_slots, bound_slots): (&[usize], &[usize]),
    bonus: Option<usize>,
) -> Pruned {
    const ALIVE: u8 = 0;
    const KNOWN: u8 = 1;
    const BOUNDED: u8 = 2;
    let mut fate = vec![ALIVE; cs.len()];
    let mut positions = Vec::new();
    for &s in known_slots {
        let entry = cache.entry_mut(s);
        intersect_positions(cs, &entry.answers, &mut positions);
        for &i in &positions {
            fate[i] = KNOWN;
        }
        let cost = if positions.len() == entry.answers.len() {
            // `A ⊆ CS`: the sum over `CS ∩ A` is the sum over `A`, which
            // depends on the resident and the query size alone.
            entry.known_credit(costs.n, |answers| costs.sum(answers.iter().copied()))
        } else {
            costs.sum(positions.iter().map(|&i| cs[i]))
        };
        entry.meta.record_hit(positions.len() as u64, cost);
    }
    for &s in bound_slots {
        let bits = cache.entry(s).answer_bits(graphs);
        let mut excluded = 0u64;
        let mut cost = LogValue::ZERO;
        for (fate, &id) in fate.iter_mut().zip(cs) {
            let i = id.index();
            if bits[i / 64] >> (i % 64) & 1 == 0 {
                excluded += 1;
                cost = cost.add(costs.cost(id));
                if *fate == ALIVE {
                    *fate = BOUNDED;
                }
            }
        }
        cache.entry_mut(s).meta.record_hit(excluded, cost);
    }
    if let Some(s) = bonus {
        let cost = costs.sum(cs.iter().copied());
        cache.entry_mut(s).meta.record_hit(cs.len() as u64, cost);
    }
    let mut survivors = Vec::new();
    let mut known_in_cs = Vec::new();
    let mut by_bound = 0;
    for (&fate, &id) in fate.iter().zip(cs) {
        match fate {
            ALIVE => survivors.push(id),
            KNOWN => known_in_cs.push(id),
            _ => by_bound += 1,
        }
    }
    Pruned {
        by_known: known_in_cs.len(),
        by_bound,
        survivors,
        known_in_cs,
    }
}

#[cfg(test)]
#[path = "engine_tests/answer_algebra.rs"]
mod answer_algebra;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use igq_graph::{graph_from, GraphStore};
    use igq_methods::{Ggsx, GgsxConfig, NaiveMethod, SubgraphMethod};
    use std::sync::Arc;

    pub(crate) fn store() -> Arc<GraphStore> {
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

    /// A path too long for `canonical_code` (over its vertex cap): its
    /// repeats can only be found by the probes.
    fn long_path() -> Graph {
        let n = 129u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
        graph_from(&vec![0; n as usize], &edges)
    }

    #[test]
    fn exact_fastpath_skips_probe_iso_tests() {
        let e = engine_sized(8, 1);
        // A small repeat resolves by canonical code, without probing the
        // query indexes at all.
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let first = e.query(&q);
        let repeat = e.query(&q);
        assert_eq!(repeat.resolution, Resolution::ExactHit);
        assert_eq!(repeat.answers, first.answers);
        assert_eq!(repeat.db_iso_tests, 0);
        assert_eq!(repeat.igq_iso_tests, 0, "no probe tests on the fast path");
        // A repeat `canonical_code` declines still resolves, through the
        // probes, which pay iso tests.
        let long = long_path();
        assert!(canonical_code(&long).is_none());
        let first = e.query(&long);
        let repeat = e.query(&long);
        assert_eq!(repeat.resolution, Resolution::ExactHit);
        assert_eq!(repeat.answers, first.answers);
        assert_eq!(repeat.db_iso_tests, 0);
        assert!(repeat.igq_iso_tests > 0, "probe path pays iso tests");
    }

    #[test]
    fn every_resolution_ends_in_one_epilogue() {
        use Resolution::{EmptyAnswerShortcut as Empty, ExactHit, Verified};
        let e = engine(); // C = 8, W = 2
        let edge = graph_from(&[0, 1], &[(0, 1)]);
        let nines = |n: usize| graph_from(&vec![9; n], &[(0, 1), (1, 2), (2, 3)][..n - 1]);
        // (query, expected resolution, whether it fills the window)
        let steps = [
            (nines(2), Verified, false),
            (edge.clone(), Verified, true),
            (nines(3), Empty, false),
            (edge, ExactHit, false), // by canonical code
            (nines(4), Empty, true),
            (long_path(), Verified, false),
            (graph_from(&[2, 2], &[(0, 1)]), Verified, true),
            (long_path(), ExactHit, false), // through the probes
        ];
        for (i, (q, resolution, flips)) in steps.iter().enumerate() {
            let before = e.stats();
            let out = e.query(q);
            assert_eq!(out.resolution, *resolution, "step {i}");
            let after = e.stats();
            let delta = |f: fn(&EngineStats) -> u64| f(&after) - f(&before);
            assert_eq!(delta(|s| s.queries), 1, "step {i}");
            assert_eq!(
                delta(|s| s.exact_hits),
                u64::from(*resolution == ExactHit),
                "step {i}"
            );
            assert_eq!(
                delta(|s| s.empty_shortcuts),
                u64::from(*resolution == Empty),
                "step {i}"
            );
            assert_eq!(delta(|s| s.maintenances), u64::from(*flips), "step {i}");
        }
        assert_eq!(e.cached_queries(), 6, "exact hits are never admitted");
        e.self_check().expect("invariants hold");
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

    pub(crate) fn open_engine(
        s: &Arc<GraphStore>,
        store: &Arc<crate::MemStore>,
    ) -> IgqEngine<Ggsx> {
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

    /// A checkpoint of a warm engine over `store()`, re-encoded with a
    /// label universe one larger than the engine's.
    fn checkpoint_with_foreign_labels(mem: &Arc<crate::MemStore>) -> Vec<u8> {
        use crate::CacheStore;
        {
            let e = open_engine(&store(), mem);
            let _ = e.query(&graph_from(&[0, 1], &[(0, 1)]));
            let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
            e.checkpoint().expect("checkpoint");
        }
        let bytes = mem.load_checkpoint().expect("load").expect("checkpoint");
        let mut data = persist::decode_checkpoint(&bytes).expect("decode");
        data.labels += 1;
        persist::encode_checkpoint(&data)
    }

    #[test]
    fn open_rejects_checkpoint_with_foreign_label_universe() {
        use crate::CacheStore;
        let mem = Arc::new(crate::MemStore::new());
        let bytes = checkpoint_with_foreign_labels(&mem);
        mem.save_checkpoint(&bytes).expect("save");
        let err = open_engine_err(&store(), &mem);
        assert!(
            matches!(&err, PersistError::Corrupt(m) if m.contains("checkpoint label universe")),
            "{err}"
        );
    }

    #[test]
    fn open_follower_rejects_snapshot_with_foreign_label_universe() {
        let mem = Arc::new(crate::MemStore::new());
        let bytes = checkpoint_with_foreign_labels(&mem);
        let err = IgqEngine::<Ggsx>::open_follower(
            Ggsx::build(&store(), GgsxConfig::default()),
            IgqConfig {
                cache_capacity: 8,
                window: 2,
                persistence: crate::PersistenceConfig::manual(),
                ..Default::default()
            },
            &bytes,
        )
        .err()
        .expect("foreign snapshot rejected");
        assert!(
            matches!(&err, PersistError::Corrupt(m) if m.contains("snapshot label universe")),
            "{err}"
        );
    }

    /// `bytes`, a checkpoint, re-encoded (with a valid checksum) after
    /// `tamper` edited its first slot's feature set.
    fn with_tampered_features(
        bytes: &[u8],
        tamper: impl FnOnce(&mut persist::SlotFeatureSet),
    ) -> (Vec<u8>, usize) {
        let mut data = persist::decode_checkpoint(bytes).expect("decode");
        let first = &mut data.entries[0];
        tamper(first.features.as_mut().expect("checkpoints carry features"));
        let slot = first.slot;
        (persist::encode_checkpoint(&data), slot)
    }

    /// Adds a 20-label sequence: a feature far longer than `max_len`.
    fn add_overlong_feature(f: &mut persist::SlotFeatureSet) {
        let labels = [igq_graph::LabelId::new(0); 20];
        f.counts
            .push((igq_features::LabelSeq::canonical(&labels), 1));
    }

    #[test]
    fn open_rejects_a_malformed_persisted_feature_set() {
        use crate::CacheStore;
        let s = store();
        let mem = Arc::new(crate::MemStore::new());
        {
            let e = open_engine(&s, &mem);
            let _ = e.query(&graph_from(&[0, 1], &[(0, 1)]));
            let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
            e.checkpoint().expect("checkpoint");
        }
        let bytes = mem.load_checkpoint().expect("load").expect("checkpoint");
        let tampers: [fn(&mut persist::SlotFeatureSet); 3] = [
            add_overlong_feature,
            |f| f.complete_len = 20,
            |f| f.counts[0].1 = 0,
        ];
        for tamper in tampers {
            let (tampered, slot) = with_tampered_features(&bytes, tamper);
            mem.save_checkpoint(&tampered).expect("save");
            let err = open_engine_err(&s, &mem);
            assert!(
                matches!(&err, PersistError::Corrupt(m) if m.contains(&format!("slot {slot}"))),
                "{err}"
            );
        }
    }

    #[test]
    fn install_snapshot_rejects_a_feature_longer_than_max_len() {
        let (primary, follower, feed) = replication_pair();
        for q in replication_queries().iter().take(3) {
            let _ = primary.query(q);
        }
        drain_feed(&feed, &follower);
        let (tampered, _) = with_tampered_features(&snapshot_of(&primary).0, add_overlong_feature);
        let (seq, cached) = (follower.stats().last_applied_seq, follower.cached_queries());
        assert!(matches!(
            follower.install_snapshot(&tampered),
            Err(ReplicaError::Corrupt(m)) if m.contains("max_len")
        ));
        assert_eq!(follower.stats().last_applied_seq, seq);
        assert_eq!(follower.cached_queries(), cached);
        assert_eq!(follower.epoch(), 0);
        follower.self_check().expect("untouched invariants");
        let _ = primary.query(&replication_queries()[3]);
        assert_eq!(drain_feed(&feed, &follower), 1, "the stream still applies");
    }

    #[test]
    fn a_flip_touches_each_posting_once() {
        let e = engine_sized(2, 1);
        let path_config = e.config().path_config;
        let distinct = |g: &Graph| enumerate_paths(g, &path_config).counts.len() as u64;
        let residents = || -> Vec<(usize, Arc<Graph>)> {
            let st = e.lock_read();
            st.cache
                .iter()
                .map(|(s, en)| (s, Arc::clone(&en.graph)))
                .collect()
        };
        let (mut admitted, mut evicted) = (0, 0);
        for q in workload() {
            let (before, stats_before) = (residents(), e.stats());
            let _ = e.query(&q);
            let (after, stats_after) = (residents(), e.stats());
            let gone = |from: &[(usize, Arc<Graph>)], to: &[(usize, Arc<Graph>)]| {
                from.iter()
                    .filter(|(s, g)| !to.iter().any(|(t, h)| s == t && Arc::ptr_eq(g, h)))
                    .map(|(_, g)| Arc::clone(g))
                    .collect::<Vec<_>>()
            };
            let (out, new) = (gone(&before, &after), gone(&after, &before));
            let expected: u64 = out.iter().chain(&new).map(|g| distinct(g)).sum();
            assert_eq!(
                stats_after.maintenance_postings_touched
                    - stats_before.maintenance_postings_touched,
                expected,
                "query {q:?}: {} evicted, {} admitted",
                out.len(),
                new.len()
            );
            admitted += new.len();
            evicted += out.len();
        }
        assert!(
            admitted > 0 && evicted > 0,
            "{admitted} admitted, {evicted} evicted"
        );
    }

    #[test]
    fn open_rejects_wal_metadata_for_unoccupied_slot() {
        use crate::CacheStore;
        let s = store();
        let mem = Arc::new(crate::MemStore::new());
        {
            let e = open_engine(&s, &mem);
            for q in workload() {
                let _ = e.query(&q);
            }
        }
        let wal = persist::parse_wal(&mem.raw_wal()).expect("parse");
        let header = wal.header.expect("header");
        let mut records = wal.records;
        assert!(records.len() >= 2, "the defect sits before the last record");
        let meta = records[0].metas[0].1;
        records[0].metas.push((99, meta));
        mem.replace_wal(&persist::encode_wal(&header, &records))
            .expect("replace");
        let err = open_engine_err(&s, &mem);
        assert!(
            matches!(&err, PersistError::Corrupt(m) if m.contains("slot 99, which is not occupied")),
            "{err}"
        );
    }

    #[test]
    fn apply_replica_delta_rejects_metadata_for_unoccupied_slot() {
        let (primary, follower, feed) = replication_pair();
        let _ = primary.query(&replication_queries()[0]);
        let d = feed.try_recv().expect("group");
        let (epoch, mut record) = persist::decode_group_binary(&d.bytes).expect("decode");
        let meta = record.metas[0].1;
        record.metas.push((99, meta));
        let bytes = persist::encode_group_binary(&record, epoch);
        assert!(matches!(
            follower.apply_replica_delta(&bytes),
            Err(ReplicaError::Corrupt(m)) if m.contains("slot 99, which is not occupied")
        ));
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

    pub(crate) fn replication_queries() -> Vec<Graph> {
        vec![
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2], &[(0, 1)]),
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[2, 2, 2], &[(0, 1), (1, 2)]),
            graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
        ]
    }

    fn snapshot_of(engine: &IgqEngine<Ggsx>) -> (Vec<u8>, crate::ReplicaFeed) {
        match engine.subscribe_replication(None) {
            Subscription::Snapshot {
                checkpoint, feed, ..
            } => (checkpoint, feed),
            Subscription::Live { .. } => panic!("fresh subscriber must get a snapshot"),
        }
    }

    fn replica_config() -> IgqConfig {
        IgqConfig::builder()
            .cache_capacity(8)
            .window(1)
            .build()
            .expect("valid config")
    }

    fn follower_of(snapshot: &[u8]) -> IgqEngine<Ggsx> {
        let method = Ggsx::build(&store(), GgsxConfig::default());
        IgqEngine::open_follower(method, replica_config(), snapshot).expect("valid follower")
    }

    pub(crate) fn replication_pair() -> (IgqEngine<Ggsx>, IgqEngine<Ggsx>, crate::ReplicaFeed) {
        let method = Ggsx::build(&store(), GgsxConfig::default());
        let primary = IgqEngine::new(method, replica_config()).expect("valid primary");
        let (checkpoint, feed) = snapshot_of(&primary);
        let follower = follower_of(&checkpoint);
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
        let (primary, follower, feed) = replication_pair();
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
        let (primary, follower, feed) = replication_pair();
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
        let (primary, follower, feed) = replication_pair();
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
        let (primary, follower, feed) = replication_pair();
        assert!(!primary.is_follower());
        assert!(follower.is_follower());
        assert_eq!(primary.replication_lag(), None);
        assert_eq!(
            primary.apply_replica_delta(b"whatever"),
            Err(ReplicaError::NotFollower)
        );
        assert_eq!(
            primary.install_snapshot(b"whatever"),
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
        let (primary, follower, feed) = replication_pair();
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
        let (primary, follower, feed) = replication_pair();
        let (_, downstream_feed) = snapshot_of(&follower);
        let _ = primary.query(&graph_from(&[0, 1], &[(0, 1)]));
        let d = feed.try_recv().expect("group");
        follower.apply_replica_delta(&d.bytes).expect("apply");
        let chained = downstream_feed.try_recv().expect("chained group");
        assert_eq!(chained.seq, d.seq);
        assert_eq!(chained.bytes, d.bytes);
    }

    #[test]
    fn install_snapshot_rebootstraps_in_place_and_keeps_counters() {
        let (primary, follower, feed) = replication_pair();
        let queries = replication_queries();
        let truths: Vec<Vec<GraphId>> = queries.iter().map(|q| primary.query(q).answers).collect();
        drain_feed(&feed, &follower);
        let (_, downstream) = snapshot_of(&follower);
        for q in &queries {
            let _ = follower.execute(&QueryRequest::new(q.clone()));
        }
        let before = follower.stats();
        assert!(before.last_applied_seq > 1);

        // A primary restarted without history (a subscriber activated its
        // hub): one flip, then a snapshot.
        let restarted = replication_pair().0;
        let _ = restarted.query(&queries[0]);
        let (checkpoint, restarted_feed) = snapshot_of(&restarted);
        assert_eq!(follower.install_snapshot(&checkpoint), Ok(1));

        let after = follower.stats();
        assert_eq!(after.last_applied_seq, 1, "the seq is set, not maxed");
        assert_eq!(follower.replication_lag(), Some(0));
        assert_eq!(follower.cached_queries(), restarted.cached_queries());
        assert!(follower.is_follower());
        assert_eq!(after.queries, before.queries);
        assert_eq!(after.requests_served, before.requests_served);
        assert_eq!(after.replica_groups_applied, before.replica_groups_applied);
        assert_eq!(
            downstream.recv_timeout(Duration::from_secs(1)).err(),
            Some(crate::RecvTimeoutError::Disconnected),
            "the hub reset closes downstream feeds"
        );
        follower.self_check().expect("installed invariants");
        for (q, truth) in queries.iter().zip(&truths) {
            assert_eq!(&follower.query(q).answers, truth);
        }
        // The new stream applies on top of the installed state.
        let _ = restarted.query(&queries[1]);
        assert_eq!(drain_feed(&restarted_feed, &follower), 1);
        assert_eq!(follower.stats().last_applied_seq, 2);
        assert_eq!(follower.cached_queries(), restarted.cached_queries());
    }

    /// The role machine: one row per starting role, one column per
    /// transition. Each cell checks the typed result, then `epoch()`, the
    /// ledger's epoch and `is_follower()`; a refusal must also leave the
    /// position and the cached entries alone.
    #[test]
    fn role_machine_table() {
        use ReplicaError::{EpochFenced, NotFollower};
        const COLUMNS: [&str; 7] = [
            "apply older",
            "apply equal",
            "apply newer",
            "install older",
            "install equal",
            "install newer",
            "promote",
        ];
        // Senders at epochs 0, 1 and 2 that all hold flip 1 and send flip
        // 2: a primary, a promoted follower of it, and a promoted follower
        // of that.
        let queries = replication_queries();
        let (p0, p1, feed0) = replication_pair();
        let _ = p0.query(&queries[0]);
        drain_feed(&feed0, &p1);
        let (snap0, _) = snapshot_of(&p0);
        assert_eq!(p1.promote(), Ok(1));
        let (snap1, feed1) = snapshot_of(&p1);
        let p2 = follower_of(&snap1);
        assert_eq!(p2.promote(), Ok(2));
        let (snap2, feed2) = snapshot_of(&p2);
        let groups: Vec<Arc<[u8]>> = [(&p0, &feed0), (&p1, &feed1), (&p2, &feed2)]
            .into_iter()
            .map(|(sender, feed)| {
                let _ = sender.query(&queries[1]);
                feed.try_recv().expect("flip 2").bytes
            })
            .collect();
        let snaps = [snap0, snap1, snap2];

        let method = || Ggsx::build(&store(), GgsxConfig::default());
        let fenced = || {
            Err(EpochFenced {
                stream: 0,
                local: 1,
            })
        };
        let refused = |epoch| std::array::from_fn(|_| (Err(NotFollower), epoch, false));
        type Make<'a> = Box<dyn Fn() -> IgqEngine<Ggsx> + 'a>;
        type Cells = [(Result<u64, ReplicaError>, u64, bool); 7];
        let rows: [(&str, Make, Cells, bool); 4] = [
            (
                "fresh follower",
                Box::new(|| follower_of(&snaps[1])),
                [
                    (fenced(), 1, true),
                    (Ok(2), 1, true),
                    (Ok(2), 2, true),
                    (fenced(), 1, true),
                    (Ok(1), 1, true),
                    (Ok(1), 2, true),
                    (Ok(2), 2, false),
                ],
                false,
            ),
            (
                "promoted follower",
                Box::new(|| {
                    let e = follower_of(&snaps[0]);
                    e.promote().expect("promote");
                    e
                }),
                refused(1),
                true,
            ),
            (
                "in-memory primary",
                Box::new(|| IgqEngine::new(method(), replica_config()).expect("primary")),
                refused(0),
                true,
            ),
            (
                "durable primary",
                Box::new(|| {
                    let mem = Arc::new(crate::MemStore::new());
                    mem.save_checkpoint(&snaps[1]).expect("save");
                    IgqEngine::open(method(), replica_config(), mem).expect("open")
                }),
                refused(1),
                true,
            ),
        ];
        for (row, make, cells, admits) in &rows {
            for (col, (want, epoch, follower)) in cells.iter().enumerate() {
                let e = make();
                let before = (e.stats().last_applied_seq, e.export_entries());
                let got = match col {
                    0..=2 => e.apply_replica_delta(&groups[col]),
                    3..=5 => e.install_snapshot(&snaps[col - 3]),
                    _ => e.promote(),
                };
                let cell = format!("{row}, {}", COLUMNS[col]);
                assert_eq!(&got, want, "{cell}");
                assert_eq!(e.epoch(), *epoch, "{cell}");
                assert_eq!(e.stats().epoch, *epoch, "{cell}: the ledger's epoch");
                assert_eq!(e.is_follower(), *follower, "{cell}");
                if got.is_err() {
                    let after = (e.stats().last_applied_seq, e.export_entries());
                    assert!(after == before, "{cell}: a refusal changes nothing");
                }
            }
            let e = make();
            let cached = e.cached_queries();
            let _ = e.query(&queries[2]);
            assert_eq!(e.cached_queries() > cached, *admits, "{row}: admission");
        }
    }

    #[test]
    fn role_cell_holds_every_epoch_a_role_can_reach() {
        for role in [
            Role::Follower { epoch: 0 },
            Role::Primary { epoch: 7 },
            Role::Follower { epoch: MAX_EPOCH },
            Role::Follower { epoch: MAX_EPOCH }
                .promote()
                .expect("promote"),
        ] {
            assert_eq!(RoleCell(AtomicU64::new(RoleCell::pack(role))).load(), role);
        }
        assert!(matches!(
            Role::Follower { epoch: 0 }.adopt(MAX_EPOCH + 1),
            Err(ReplicaError::Corrupt(_))
        ));
    }

    #[test]
    fn install_snapshot_refuses_corrupt_or_foreign_snapshots() {
        let (primary, follower, feed) = replication_pair();
        let _ = primary.query(&replication_queries()[0]);
        drain_feed(&feed, &follower);
        let (_, downstream) = snapshot_of(&follower);
        let (good, _) = snapshot_of(&primary);
        // `engine()` runs with another window: a foreign config.
        let (foreign, _) = snapshot_of(&engine());
        let (seq, cached) = (follower.stats().last_applied_seq, follower.cached_queries());
        for bad in [&b"garbage"[..], &good[..good.len() - 1], &foreign[..]] {
            assert!(matches!(
                follower.install_snapshot(bad),
                Err(ReplicaError::Corrupt(_))
            ));
            assert_eq!(follower.stats().last_applied_seq, seq);
            assert_eq!(follower.cached_queries(), cached);
            assert_eq!(follower.epoch(), 0);
        }
        follower.self_check().expect("untouched invariants");
        // The hub was not reset: the next group still chains downstream.
        let _ = primary.query(&replication_queries()[1]);
        assert_eq!(drain_feed(&feed, &follower), 1);
        assert_eq!(downstream.try_recv().map(|g| g.seq), Some(seq + 1));
    }

    /// Appends `id` to the first entry's answers of a decoded checkpoint
    /// and re-encodes it (with a valid checksum), returning the slot.
    fn with_extra_answer(bytes: &[u8], id: GraphId) -> (Vec<u8>, usize) {
        let mut data = persist::decode_checkpoint(bytes).expect("decode");
        let first = &mut data.entries[0];
        first.entry.answers.push(id);
        let slot = first.slot;
        (persist::encode_checkpoint(&data), slot)
    }

    #[test]
    fn open_and_install_snapshot_refuse_answer_ids_outside_the_dataset() {
        use crate::CacheStore;
        let s = store();
        let outside = GraphId::new(s.len() as u32);
        let mem = Arc::new(crate::MemStore::new());
        {
            let e = open_engine(&s, &mem);
            let _ = e.query(&graph_from(&[0, 1], &[(0, 1)]));
            let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
            e.checkpoint().expect("checkpoint");
        }
        let bytes = mem.load_checkpoint().expect("load").expect("checkpoint");
        let (damaged, slot) = with_extra_answer(&bytes, outside);
        mem.save_checkpoint(&damaged).expect("save");
        let err = open_engine_err(&s, &mem);
        assert!(
            matches!(&err, PersistError::Corrupt(m)
                if m.contains(&format!("checkpoint slot {slot}")) && m.contains("outside the dataset")),
            "{err}"
        );

        let (primary, follower, feed) = replication_pair();
        let _ = primary.query(&replication_queries()[0]);
        drain_feed(&feed, &follower);
        let (snapshot, _) = snapshot_of(&primary);
        let cached = follower.cached_queries();
        let (damaged, slot) = with_extra_answer(&snapshot, outside);
        assert!(matches!(
            follower.install_snapshot(&damaged),
            Err(ReplicaError::Corrupt(m))
                if m.contains(&format!("snapshot slot {slot}")) && m.contains("outside the dataset")
        ));
        assert_eq!(
            follower.cached_queries(),
            cached,
            "refused state is not installed"
        );
        follower.self_check().expect("untouched invariants");
    }

    #[test]
    fn wal_replay_and_delta_apply_refuse_answer_ids_outside_the_dataset() {
        use crate::CacheStore;
        let s = store();
        let outside = GraphId::new(s.len() as u32);
        let mem = Arc::new(crate::MemStore::new());
        {
            let e = open_engine(&s, &mem);
            let _ = e.query(&graph_from(&[0, 1], &[(0, 1)]));
            let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
        }
        let wal = persist::parse_wal(&mem.load_wal().expect("load")).expect("parse");
        let mut records = wal.records;
        records[0].admitted[0].entry.answers.push(outside);
        let header = wal.header.expect("header");
        mem.replace_wal(&persist::encode_wal(&header, &records))
            .expect("replace");
        let err = open_engine_err(&s, &mem);
        assert!(
            matches!(&err, PersistError::Corrupt(m)
                if m.contains("flip 1 slot") && m.contains("outside the dataset")),
            "{err}"
        );

        let (primary, follower, feed) = replication_pair();
        let _ = primary.query(&replication_queries()[0]);
        let d = feed.try_recv().expect("group");
        let (epoch, mut record) = persist::decode_group_binary(&d.bytes).expect("decode");
        record.admitted[0].entry.answers.push(outside);
        let bytes = persist::encode_group_binary(&record, epoch);
        assert!(matches!(
            follower.apply_replica_delta(&bytes),
            Err(ReplicaError::Corrupt(m)) if m.contains("outside the dataset")
        ));
        assert_eq!(follower.cached_queries(), 0, "refused group is not applied");
    }

    #[test]
    fn rejected_gap_group_leaves_the_epoch_alone() {
        let (primary, follower, _feed) = replication_pair();
        let promoted = follower_of(&snapshot_of(&primary).0);
        assert_eq!(promoted.promote(), Ok(1));
        let (_, promoted_feed) = snapshot_of(&promoted);
        let _ = promoted.query(&replication_queries()[0]);
        let _ = promoted.query(&replication_queries()[1]);
        let g1 = promoted_feed.try_recv().expect("first epoch-1 group");
        let g2 = promoted_feed.try_recv().expect("second epoch-1 group");
        assert_eq!(
            follower.apply_replica_delta(&g2.bytes),
            Err(ReplicaError::SeqGap {
                expected: 1,
                found: 2
            })
        );
        assert_eq!(follower.epoch(), 0, "a rejected group changes nothing");
        assert_eq!(follower.apply_replica_delta(&g1.bytes), Ok(1));
        assert_eq!(follower.epoch(), 1, "an applied group adopts its epoch");
    }

    /// Each resident's `Isuper` plan lives and dies with its slot: after
    /// flips that evict and reuse slots, a restart, and a follower's
    /// re-bootstrap, the live index's probe, run twice (cold, then on
    /// built plans), agrees with a fresh build over the same residents.
    #[test]
    fn resident_plans_live_and_die_with_their_slots() {
        let probes = [
            graph_from(
                &[0, 1, 2, 0, 1, 2],
                &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            ),
            graph_from(&[2, 2, 2, 0], &[(0, 1), (1, 2), (0, 2), (2, 3)]),
            graph_from(&[1, 0, 0, 2], &[(0, 1), (0, 2), (0, 3)]),
        ];
        let agrees = |e: &IgqEngine<Ggsx>| {
            let st = e.lock_read();
            let path_config = e.config().path_config;
            let residents = st
                .cache
                .iter()
                .map(|(slot, c)| (slot, Arc::clone(&c.graph)));
            let fresh = QueryIndex::build(residents, path_config);
            for q in &probes {
                let qf = enumerate_paths(q, &path_config);
                let (want, want_stats) = fresh.subgraphs_of(q, &qf);
                for _ in 0..2 {
                    let (got, stats) = st.index.subgraphs_of(q, &qf);
                    assert_eq!(got, want, "probe {q:?}");
                    assert_eq!(
                        (stats.tests, stats.states),
                        (want_stats.tests, want_stats.states)
                    );
                }
            }
        };
        // Distinct three-vertex paths over labels {0, 1, 2}: more than the
        // cache holds, so flips evict residents and reuse their slots.
        let paths = (0..27u32).map(|i| graph_from(&[i % 3, i / 3 % 3, i / 9], &[(0, 1), (1, 2)]));
        let s = store();
        let mem = Arc::new(crate::MemStore::new());
        let primary = open_engine(&s, &mem);
        for q in paths {
            let _ = primary.query(&q);
            agrees(&primary);
        }
        // `agrees` built every plan the first two probes test, and they
        // flip nothing before their probes run.
        primary.flush_window();
        let before = primary.stats();
        for q in &probes[..2] {
            let _ = primary.query(q);
        }
        let after = primary.stats();
        assert_eq!(after.plan_cache_misses, before.plan_cache_misses);
        assert!(after.plan_cache_hits > before.plan_cache_hits);
        primary.checkpoint().expect("checkpoint");
        let reopened = open_engine(&s, &mem);
        agrees(&reopened);

        let snapshot = |e: &IgqEngine<Ggsx>| snapshot_of(e).0;
        let method = Ggsx::build(&s, GgsxConfig::default());
        let follower = IgqEngine::open_follower(method, *reopened.config(), &snapshot(&reopened))
            .expect("valid follower");
        agrees(&follower);
        for q in &probes {
            let _ = reopened.query(q);
        }
        reopened.flush_window();
        follower
            .install_snapshot(&snapshot(&reopened))
            .expect("re-bootstrap");
        agrees(&follower);
    }
}
