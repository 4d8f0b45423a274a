//! Durable engine state: the [`CacheStore`] storage abstraction, the
//! versioned checkpoint + window-delta write-ahead log (WAL) encoding, and
//! the typed [`PersistError`] the whole persistence surface reports.
//!
//! # Why
//!
//! The paper's central asset is the *accumulated* query cache and its
//! `Isub`/`Isuper` indexes; losing them on restart forfeits exactly the
//! work iGQ exists to amortize. This module makes durability part of the
//! engine API: [`crate::Engine::open`] recovers a warm engine from the
//! last checkpoint plus the WAL tail instead of rebuilding from scratch,
//! and [`crate::Engine::checkpoint`] (or the config-driven auto-checkpoint,
//! [`crate::config::PersistenceConfig`]) writes new recovery points.
//!
//! # On-disk layout
//!
//! A [`CacheStore`] holds two logical files:
//!
//! * **Checkpoint** — one self-contained snapshot of the engine's durable
//!   state: every cached entry (graph, sorted answers, WL signature,
//!   canonical code, replacement metadata, and its enumerated path-feature
//!   multiset so recovery can rebuild both query indexes *without*
//!   re-enumerating or re-canonicalizing anything), the pending admission
//!   window, the cache's free-slot list and maintenance round, and the
//!   flip sequence number the snapshot covers. The byte format is the
//!   `IGQBCKP1` magic, a `u64` LE FNV-1a checksum over the payload, a
//!   `u64` LE payload length, and the binary payload. [`DirStore`] writes
//!   it via temp-file + atomic rename, so a crashed checkpoint can never
//!   replace a good one with a torn file.
//! * **WAL** — an append-only log of window flips: the `IGQBWAL1` magic,
//!   then self-delimiting frames (tag byte, `u32` LE payload length,
//!   `u64` LE payload checksum, payload). Each `R` record carries the
//!   flip's sequence number, the evicted slots, the admitted entries
//!   (graph + answers + signature + code), and the post-flip replacement
//!   metadata of every resident. The first frame is a header record
//!   (`H`) binding the log to a config/dataset fingerprint pair. Records
//!   are appended by the engine's outbox drain — off the engine's state
//!   lock — in flip order.
//!
//! This is the only format: bytes that do not start with the matching
//! magic are [`PersistError::Corrupt`], never handed to another parser.
//!
//! # Recovery protocol
//!
//! [`crate::Engine::open`] loads the checkpoint (if any), verifies its
//! version, checksum, and config/dataset fingerprints, then replays every
//! WAL record with `seq` greater than the checkpoint's: evictions and
//! admissions are re-applied to the cache **as recorded** (the replacement
//! policy is not re-run), each record's metadata table is restored (each
//! lists every resident after its flip, so the last one leaves the
//! replacement state), and both query indexes are updated incrementally —
//! through the same `replay_flip` a follower applies delta groups with.
//! A torn *final* WAL record — the signature of a crash mid-append — is
//! truncated with a warning; any other inconsistency (mid-log corruption,
//! checksum or fingerprint mismatch, a sequence gap) is a typed
//! [`PersistError`], never a silent fallback. After recovery the WAL is
//! compacted to exactly the replayed tail.
//!
//! # Equivalence guarantee
//!
//! Recovery restores the complete decision-relevant state as of the last
//! persisted flip: cache contents *and* slot geometry (free-list order,
//! maintenance round — both feed the replacement policy), replacement
//! metadata, pending window, and index postings. An engine recovered at a
//! flip boundary is therefore observationally identical to one that never
//! restarted — the property `tests/persistence.rs` establishes with a
//! randomized proptest across both query directions. Queries processed
//! *after* the last flip and the last explicit checkpoint are the
//! durability loss window.

use crate::cache::{CacheEntry, WindowEntry};
use crate::config::ConfigError;
use crate::metadata::GraphMeta;
use igq_features::LabelSeq;
use igq_graph::canon::{CanonicalCode, GraphSignature};
use igq_graph::{Graph, GraphId, GraphStore, LabelId};
use igq_iso::LogValue;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Checkpoint format version this build writes and reads.
pub const CHECKPOINT_VERSION: u64 = 1;
/// WAL format version this build writes and reads.
pub const WAL_VERSION: u64 = 1;

/// Magic prefix of a checkpoint.
const BCKPT_MAGIC: &[u8; 8] = b"IGQBCKP1";
/// Magic prefix of a WAL stream.
const BWAL_MAGIC: &[u8; 8] = b"IGQBWAL1";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why persistence failed: storage I/O, a damaged artifact, or an artifact
/// that belongs to a different engine configuration or dataset.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying storage failed (filesystem error, permission, ...).
    Io(std::io::Error),
    /// The artifact is structurally damaged in a way a torn final WAL
    /// record cannot explain: a missing magic, an undecodable payload, a
    /// mid-log torn record, a sequence gap, or internally inconsistent
    /// state.
    Corrupt(String),
    /// A checksum did not match its payload.
    Checksum {
        /// Checksum stored in the artifact header.
        expected: u64,
        /// Checksum recomputed over the payload.
        found: u64,
    },
    /// The artifact was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the artifact.
        found: u64,
        /// Version this build supports.
        supported: u64,
    },
    /// The artifact was produced under a different engine configuration
    /// (cache capacity, window, path features, policy, or label universe).
    ConfigMismatch {
        /// Fingerprint of the opening engine's configuration.
        expected: u64,
        /// Fingerprint stored in the artifact.
        found: u64,
    },
    /// The artifact's answers belong to a different dataset; importing
    /// them would violate the engine's exactness guarantees.
    DatasetMismatch {
        /// Fingerprint of the opening engine's dataset.
        expected: u64,
        /// Fingerprint stored in the artifact.
        found: u64,
    },
    /// The engine configuration itself was invalid (persistence never
    /// started).
    Config(ConfigError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "storage i/o error: {e}"),
            PersistError::Corrupt(m) => write!(f, "corrupt persisted state: {m}"),
            PersistError::Checksum { expected, found } => write!(
                f,
                "checksum mismatch: header says {expected:016x}, payload hashes to {found:016x}"
            ),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build supports {supported})"
            ),
            PersistError::ConfigMismatch { expected, found } => write!(
                f,
                "config fingerprint mismatch: engine {expected:016x} vs stored {found:016x} \
                 (query direction, cache capacity, window, path features, policy, and label \
                 universe must match)"
            ),
            PersistError::DatasetMismatch { expected, found } => write!(
                f,
                "dataset fingerprint mismatch: engine {expected:016x} vs stored {found:016x} \
                 (persisted answers are only valid against the dataset that produced them)"
            ),
            PersistError::Config(e) => write!(f, "invalid engine configuration: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

impl From<ConfigError> for PersistError {
    fn from(e: ConfigError) -> PersistError {
        PersistError::Config(e)
    }
}

// ---------------------------------------------------------------------------
// The storage abstraction
// ---------------------------------------------------------------------------

/// Storage backend for one engine's durable state: a single checkpoint
/// slot plus an append-only WAL.
///
/// Implementations must make [`save_checkpoint`](CacheStore::save_checkpoint)
/// and [`replace_wal`](CacheStore::replace_wal) *atomic* with respect to
/// crashes (readers see either the old or the new bytes, never a mix) —
/// [`DirStore`] uses temp-file + rename. [`append_wal`] only needs ordinary
/// append semantics; a crash mid-append produces a torn final record,
/// which recovery tolerates by design.
///
/// [`append_wal`]: CacheStore::append_wal
pub trait CacheStore: Send + Sync + fmt::Debug {
    /// Reads the current checkpoint, or `None` when none was ever saved.
    fn load_checkpoint(&self) -> Result<Option<Vec<u8>>, PersistError>;

    /// Atomically replaces the checkpoint with `bytes`.
    fn save_checkpoint(&self, bytes: &[u8]) -> Result<(), PersistError>;

    /// Reads the whole WAL (empty vector when none exists).
    fn load_wal(&self) -> Result<Vec<u8>, PersistError>;

    /// Appends one encoded record.
    fn append_wal(&self, record: &[u8]) -> Result<(), PersistError>;

    /// Atomically replaces the whole WAL (compaction after a checkpoint
    /// or recovery).
    fn replace_wal(&self, bytes: &[u8]) -> Result<(), PersistError>;
}

/// Filesystem-backed [`CacheStore`]: a directory holding `checkpoint.igq`
/// and `wal.igq`. Checkpoint and WAL replacement go through a sibling
/// temp file + `rename` (with the file and its directory fsynced), so
/// crashes never leave a half-written artifact in place; WAL appends are
/// fsynced individually, so a flip is durable against power loss once
/// its drain returns.
///
/// **Single writer**: a store directory belongs to one live engine at a
/// time. Opening the same directory from a second engine (or process)
/// while the first is appending interleaves compactions with appends and
/// will be detected as corruption on the next recovery — coordinate
/// externally if multiple processes share a directory.
#[derive(Debug)]
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<DirStore, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(DirStore { dir })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.igq")
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.igq")
    }

    fn write_atomic(&self, target: &Path, bytes: &[u8]) -> Result<(), PersistError> {
        let tmp = target.with_extension("igq.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, target)?;
        // Make the rename itself durable: fsync the directory entry (best
        // effort — not every filesystem supports opening a directory).
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

impl CacheStore for DirStore {
    fn load_checkpoint(&self) -> Result<Option<Vec<u8>>, PersistError> {
        match fs::read(self.checkpoint_path()) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn save_checkpoint(&self, bytes: &[u8]) -> Result<(), PersistError> {
        self.write_atomic(&self.checkpoint_path(), bytes)
    }

    fn load_wal(&self) -> Result<Vec<u8>, PersistError> {
        match fs::read(self.wal_path()) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    fn append_wal(&self, record: &[u8]) -> Result<(), PersistError> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.wal_path())?;
        f.write_all(record)?;
        // One fsync per window flip (appends are per-flip, not per-query):
        // the flip is durable against power loss once the drain returns.
        f.sync_all()?;
        Ok(())
    }

    fn replace_wal(&self, bytes: &[u8]) -> Result<(), PersistError> {
        self.write_atomic(&self.wal_path(), bytes)
    }
}

/// Panic message for a [`MemStore`] lock whose holder panicked.
const POISONED: &str = "mem store lock poisoned";

/// In-memory [`CacheStore`] for tests and benchmarks: the "filesystem" is
/// two byte buffers behind a mutex. Share one across "sessions" via
/// `Arc<MemStore>`, or [`fork`](MemStore::fork) an independent copy to
/// simulate a restart from a point-in-time snapshot.
#[derive(Debug, Default)]
pub struct MemStore {
    inner: Mutex<MemStoreInner>,
}

#[derive(Debug, Default)]
struct MemStoreInner {
    checkpoint: Option<Vec<u8>>,
    wal: Vec<u8>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// An independent deep copy of the current contents (a point-in-time
    /// "disk image" — useful for opening a second engine from the state a
    /// first engine had at this moment).
    pub fn fork(&self) -> MemStore {
        let inner = self.inner.lock().expect(POISONED);
        MemStore {
            inner: Mutex::new(MemStoreInner {
                checkpoint: inner.checkpoint.clone(),
                wal: inner.wal.clone(),
            }),
        }
    }

    /// Size of the current checkpoint in bytes (0 when none).
    pub fn checkpoint_bytes(&self) -> usize {
        self.inner
            .lock()
            .expect(POISONED)
            .checkpoint
            .as_ref()
            .map_or(0, Vec::len)
    }

    /// Size of the current WAL in bytes.
    pub fn wal_bytes(&self) -> usize {
        self.inner.lock().expect(POISONED).wal.len()
    }

    /// Overwrites the checkpoint bytes directly (corruption-injection
    /// tests).
    pub fn set_checkpoint(&self, bytes: Option<Vec<u8>>) {
        self.inner.lock().expect(POISONED).checkpoint = bytes;
    }

    /// Returns a copy of the raw WAL bytes (corruption-injection tests).
    pub fn raw_wal(&self) -> Vec<u8> {
        self.inner.lock().expect(POISONED).wal.clone()
    }

    /// Overwrites the WAL bytes directly (corruption-injection tests).
    pub fn set_wal(&self, bytes: Vec<u8>) {
        self.inner.lock().expect(POISONED).wal = bytes;
    }
}

impl CacheStore for MemStore {
    fn load_checkpoint(&self) -> Result<Option<Vec<u8>>, PersistError> {
        Ok(self.inner.lock().expect(POISONED).checkpoint.clone())
    }

    fn save_checkpoint(&self, bytes: &[u8]) -> Result<(), PersistError> {
        self.inner.lock().expect(POISONED).checkpoint = Some(bytes.to_vec());
        Ok(())
    }

    fn load_wal(&self) -> Result<Vec<u8>, PersistError> {
        Ok(self.inner.lock().expect(POISONED).wal.clone())
    }

    fn append_wal(&self, record: &[u8]) -> Result<(), PersistError> {
        self.inner
            .lock()
            .expect(POISONED)
            .wal
            .extend_from_slice(record);
        Ok(())
    }

    fn replace_wal(&self, bytes: &[u8]) -> Result<(), PersistError> {
        self.inner.lock().expect(POISONED).wal = bytes.to_vec();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fingerprints and checksums
// ---------------------------------------------------------------------------

/// FNV-1a over a byte slice — the artifact checksum. Not cryptographic;
/// it guards against truncation and bit rot, not adversaries.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv_fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the config fields that determine whether persisted
/// state is compatible: the query **direction** (a subgraph engine's
/// cached answer sets mean the opposite of a supergraph engine's), cache
/// geometry (`C`, `W`), the path-feature family both query indexes are
/// built from, the replacement policy (whose counters the artifacts
/// carry), and the configured label universe (the cost model's scale).
/// Deliberately *excludes* runtime tunables that do not change the
/// durable state's meaning — batch width, fast-path toggle, and the
/// checkpoint cadence — so a deployment can change those across restarts
/// without invalidating its store.
pub(crate) fn config_fingerprint(config: &crate::IgqConfig, direction: &str) -> u64 {
    let mut h = fnv1a64(b"igq-config-v1");
    h = fnv_fold(h, fnv1a64(direction.as_bytes()));
    h = fnv_fold(h, config.cache_capacity as u64);
    h = fnv_fold(h, config.window as u64);
    h = fnv_fold(h, config.path_config.max_len as u64);
    h = fnv_fold(h, config.path_config.include_vertices as u64);
    h = fnv_fold(h, config.path_config.budget);
    h = fnv_fold(h, fnv1a64(config.policy.name().as_bytes()));
    h = fnv_fold(h, config.label_universe as u64);
    h
}

/// Structural fingerprint of a dataset: graph count plus, per graph, the
/// vertex labels and every edge (endpoints and edge label). Persisted
/// answers are graph *ids* whose correctness depends on the exact graph
/// structure, so any edit — a different file, regenerated data, a
/// reordered store, a single rewired or relabeled edge — must change the
/// fingerprint. One O(V + E) pass at engine open.
pub(crate) fn dataset_fingerprint(store: &GraphStore) -> u64 {
    let mut h = fnv1a64(b"igq-dataset-v1");
    h = fnv_fold(h, store.len() as u64);
    for (_, g) in store.iter() {
        h = fnv_fold(h, g.vertex_count() as u64);
        h = fnv_fold(h, g.edge_count() as u64);
        // Vertex labels folded positionally (a sum would let label
        // permutations collide, and answers are not permutation-safe).
        for v in g.vertices() {
            h = fnv_fold(h, g.label(v).raw() as u64);
        }
        if g.has_edge_labels() {
            for ((u, v), l) in g.labeled_edges() {
                h = fnv_fold(h, ((u.raw() as u64) << 32) | v.raw() as u64);
                h = fnv_fold(h, l.raw() as u64);
            }
        } else {
            for &(u, v) in g.edges() {
                h = fnv_fold(h, ((u.raw() as u64) << 32) | v.raw() as u64);
            }
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Durable state model (crate-internal)
// ---------------------------------------------------------------------------

/// One cached slot's enumerated path features, persisted so recovery can
/// rebuild the query indexes without re-enumerating any graph.
#[derive(Debug, Clone)]
pub(crate) struct SlotFeatureSet {
    /// Distinct canonical label sequences with occurrence counts.
    pub counts: Vec<(LabelSeq, u32)>,
    /// Deepest exhaustively enumerated path length.
    pub complete_len: usize,
}

/// One persisted cache entry: the slot it occupies plus everything the
/// live [`CacheEntry`] holds, with its feature set alongside.
#[derive(Debug, Clone)]
pub(crate) struct PersistedEntry {
    pub slot: usize,
    pub entry: CacheEntry,
    /// `None` in WAL records (recovery re-enumerates the short tail);
    /// always present in checkpoints.
    pub features: Option<SlotFeatureSet>,
}

/// The checkpoint's decoded payload.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointData {
    /// Window flips covered by this snapshot; WAL records with `seq`
    /// beyond it are the replay tail.
    pub seq: u64,
    /// Fingerprint of the writing engine's config.
    pub config_fp: u64,
    /// Fingerprint of the writing engine's dataset.
    pub dataset_fp: u64,
    /// Resolved label-universe size of the writing engine's cost model.
    pub labels: usize,
    /// The cache's maintenance-round counter.
    pub round: u64,
    /// Size of the cache's slot table.
    pub slot_count: usize,
    /// Free-slot stack, bottom first (order feeds future admissions).
    pub free: Vec<usize>,
    /// Occupied slots.
    pub entries: Vec<PersistedEntry>,
    /// Pending admission window (`Itemp`), in arrival order.
    pub window: Vec<WindowEntry>,
    /// Failover epoch of the writing engine: bumped on every follower
    /// promotion so a stale primary's stream is fenced. `0` (the
    /// pre-failover default, omitted from the encoding) means the engine
    /// was never promoted.
    pub epoch: u64,
}

/// One WAL record: everything one window flip changed.
#[derive(Debug, Clone)]
pub(crate) struct WalRecord {
    /// Flip ordinal (1-based, contiguous).
    pub seq: u64,
    /// Slots whose occupant was evicted, in eviction order.
    pub evicted: Vec<usize>,
    /// Admitted entries, in admission order (no feature sets — replay
    /// re-enumerates the tail).
    pub admitted: Vec<PersistedEntry>,
    /// Post-flip replacement metadata of every resident slot. Replay
    /// applies each table in turn, so the last one is what survives.
    pub metas: Vec<(usize, GraphMeta)>,
}

/// The WAL's decoded header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalHeader {
    pub config_fp: u64,
    pub dataset_fp: u64,
    /// Failover epoch of the writing engine (`0`, omitted from the
    /// encoding, for never-promoted engines).
    pub epoch: u64,
}

/// The outcome of parsing a WAL byte stream.
#[derive(Debug)]
pub(crate) struct WalParse {
    /// `None` for an empty (never-written) WAL.
    pub header: Option<WalHeader>,
    /// Every intact record, in file order.
    pub records: Vec<WalRecord>,
    /// `true` when a torn final record was dropped (crash mid-append).
    pub torn_tail: bool,
}

// ---------------------------------------------------------------------------
// The store codec
// ---------------------------------------------------------------------------
//
// The byte encoding of the durable state model above: LEB128 varints
// for counts and small ordinals, fixed 8-byte little-endian words for
// dense bit patterns (canonical-code words, WL hashes, fingerprints,
// cost exponent bits), and delta-coded sorted answer sets. Layout:
//
// * **Checkpoint** — `IGQBCKP1` magic, then a `u64` LE FNV-1a checksum
//   over the payload, a `u64` LE payload length, and the payload
//   (version varint first).
// * **WAL** — `IGQBWAL1` magic, then self-delimiting frames: a tag byte
//   (`H`/`R`), a `u32` LE payload length, a `u64` LE payload checksum,
//   and the payload. A record payload serializes `seq` first so
//   checkpoint-time compaction can read it without decoding the frame,
//   then a shard tag and a flip-group width that are always 0 and 1.
//   Headers (checkpoint and WAL) likewise record a shard count of 1.
//   These bytes are kept so stores and streams from builds whose engine
//   state could be sharded still open; a multi-shard artifact is
//   rejected as [`PersistError::Corrupt`].
//
// Torn-tail semantics: an incomplete or checksum-damaged **final** frame
// is dropped and reported, the same damage mid-stream is
// [`PersistError::Corrupt`].

/// Appends a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn put_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a binary payload. Every read is bounds-checked; errors
/// are plain strings the caller wraps into [`PersistError`] with frame
/// context (torn tail vs mid-stream corruption is positional, so the
/// reader itself cannot decide).
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated payload (wanted {n} bytes, {} left)",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u64_le(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err("varint overflows u64".into());
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A claimed element count, sanity-bounded by the bytes actually
    /// present (each element costs at least `min_bytes`), so a damaged
    /// count cannot drive a pathological allocation.
    fn count(&mut self, what: &str, min_bytes: usize) -> Result<usize, String> {
        let n = self.varint()? as usize;
        if n.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(format!("{what} count {n} exceeds payload"));
        }
        Ok(n)
    }
}

fn graph_to_bin(out: &mut Vec<u8>, g: &Graph) {
    put_varint(out, g.vertex_count() as u64);
    put_varint(out, g.edge_count() as u64);
    out.push(g.has_edge_labels() as u8);
    for v in g.vertices() {
        put_varint(out, g.label(v).raw() as u64);
    }
    if g.has_edge_labels() {
        for ((u, v), l) in g.labeled_edges() {
            put_varint(out, u.raw() as u64);
            put_varint(out, v.raw() as u64);
            put_varint(out, l.raw() as u64);
        }
    } else {
        for &(u, v) in g.edges() {
            put_varint(out, u.raw() as u64);
            put_varint(out, v.raw() as u64);
        }
    }
}

fn graph_from_bin(r: &mut Reader) -> Result<Graph, String> {
    let vcount = r.count("vertex", 1)?;
    let ecount = r.varint()? as usize;
    let labeled = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(format!("bad edge-label flag {other}")),
    };
    let mut b = igq_graph::GraphBuilder::with_capacity(vcount, ecount);
    for _ in 0..vcount {
        b.add_vertex(LabelId::new(r.varint()? as u32));
    }
    if ecount.saturating_mul(2) > r.remaining() {
        return Err(format!("edge count {ecount} exceeds payload"));
    }
    for _ in 0..ecount {
        let u = igq_graph::VertexId::new(r.varint()? as u32);
        let v = igq_graph::VertexId::new(r.varint()? as u32);
        let result = if labeled {
            b.add_edge_labeled(u, v, LabelId::new(r.varint()? as u32))
        } else {
            b.add_edge(u, v)
        };
        result.map_err(|e| e.to_string())?;
    }
    b.try_build().map_err(|e| e.to_string())
}

/// Answer ids are kept sorted by the engine, so consecutive deltas are
/// small; wrapping arithmetic keeps the round trip exact even for an
/// unsorted sequence (the delta simply goes wide).
fn answers_to_bin(out: &mut Vec<u8>, answers: &[GraphId]) {
    put_varint(out, answers.len() as u64);
    let mut prev = 0u32;
    for id in answers {
        put_varint(out, id.raw().wrapping_sub(prev) as u64);
        prev = id.raw();
    }
}

fn answers_from_bin(r: &mut Reader) -> Result<Vec<GraphId>, String> {
    let n = r.count("answer", 1)?;
    let mut out = Vec::with_capacity(n);
    let mut prev = 0u32;
    for _ in 0..n {
        prev = prev.wrapping_add(r.varint()? as u32);
        out.push(GraphId::new(prev));
    }
    Ok(out)
}

fn sig_to_bin(out: &mut Vec<u8>, s: &GraphSignature) {
    put_varint(out, s.vertices as u64);
    put_varint(out, s.edges as u64);
    put_u64_le(out, s.wl_hash);
}

fn sig_from_bin(r: &mut Reader) -> Result<GraphSignature, String> {
    Ok(GraphSignature {
        vertices: r.varint()? as u32,
        edges: r.varint()? as u32,
        wl_hash: r.u64_le()?,
    })
}

fn code_words_to_bin(out: &mut Vec<u8>, c: &CanonicalCode) {
    put_varint(out, c.words().len() as u64);
    for &w in c.words() {
        put_u64_le(out, w);
    }
}

fn code_words_from_bin(r: &mut Reader) -> Result<CanonicalCode, String> {
    let n = r.count("code word", 8)?;
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        words.push(r.u64_le()?);
    }
    Ok(CanonicalCode::from_words(words))
}

fn code_to_bin(out: &mut Vec<u8>, code: &Option<CanonicalCode>) {
    match code {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            code_words_to_bin(out, c);
        }
    }
}

fn code_from_bin(r: &mut Reader) -> Result<Option<CanonicalCode>, String> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(code_words_from_bin(r)?)),
        other => Err(format!("bad code flag {other}")),
    }
}

fn meta_to_bin(out: &mut Vec<u8>, m: &GraphMeta) {
    put_varint(out, m.hits);
    put_varint(out, m.queries_seen);
    put_varint(out, m.removed);
    // The log-domain cost is an `f64` exponent that can legitimately be
    // -inf (never-hit entries): store its exact bit pattern, not a
    // decimal rendering.
    put_u64_le(out, m.cost_alleviated.ln().to_bits());
    put_varint(out, m.last_hit_at);
}

fn meta_from_bin(r: &mut Reader) -> Result<GraphMeta, String> {
    Ok(GraphMeta {
        hits: r.varint()?,
        queries_seen: r.varint()?,
        removed: r.varint()?,
        cost_alleviated: LogValue::from_ln(f64::from_bits(r.u64_le()?)),
        last_hit_at: r.varint()?,
    })
}

fn features_to_bin(out: &mut Vec<u8>, f: &SlotFeatureSet) {
    put_varint(out, f.complete_len as u64);
    put_varint(out, f.counts.len() as u64);
    for (seq, count) in &f.counts {
        put_varint(out, seq.labels().len() as u64);
        for l in seq.labels() {
            put_varint(out, l.raw() as u64);
        }
        put_varint(out, *count as u64);
    }
}

fn features_from_bin(r: &mut Reader) -> Result<SlotFeatureSet, String> {
    let complete_len = r.varint()? as usize;
    let n = r.count("feature", 2)?;
    let mut counts = Vec::with_capacity(n);
    let mut labels: Vec<LabelId> = Vec::new();
    for _ in 0..n {
        let len = r.count("feature label", 1)?;
        labels.clear();
        for _ in 0..len {
            labels.push(LabelId::new(r.varint()? as u32));
        }
        counts.push((LabelSeq::canonical(&labels), r.varint()? as u32));
    }
    Ok(SlotFeatureSet {
        counts,
        complete_len,
    })
}

fn entry_to_bin(out: &mut Vec<u8>, e: &PersistedEntry) {
    put_varint(out, e.slot as u64);
    graph_to_bin(out, &e.entry.graph);
    answers_to_bin(out, &e.entry.answers);
    sig_to_bin(out, &e.entry.signature);
    code_to_bin(out, &e.entry.code);
    meta_to_bin(out, &e.entry.meta);
    match &e.features {
        None => out.push(0),
        Some(f) => {
            out.push(1);
            features_to_bin(out, f);
        }
    }
}

fn entry_from_bin(r: &mut Reader) -> Result<PersistedEntry, String> {
    let slot = r.varint()? as usize;
    let graph = graph_from_bin(r)?;
    let answers = answers_from_bin(r)?;
    let signature = sig_from_bin(r)?;
    let code = code_from_bin(r)?;
    let meta = meta_from_bin(r)?;
    let features = match r.u8()? {
        0 => None,
        1 => Some(features_from_bin(r)?),
        other => return Err(format!("bad feature flag {other}")),
    };
    Ok(PersistedEntry {
        slot,
        entry: CacheEntry {
            graph: Arc::new(graph),
            signature,
            code,
            answers,
            meta,
            memo: Default::default(),
        },
        features,
    })
}

fn window_entry_to_bin(out: &mut Vec<u8>, w: &WindowEntry) {
    graph_to_bin(out, &w.graph);
    answers_to_bin(out, &w.answers);
    match &w.signature {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            sig_to_bin(out, s);
        }
    }
    // Three-way flag folding both Option layers: canonicalization not
    // attempted / attempted but over budget / attempted with a code.
    match &w.code {
        None => out.push(0),
        Some(None) => out.push(1),
        Some(Some(c)) => {
            out.push(2);
            code_words_to_bin(out, c);
        }
    }
}

fn window_entry_from_bin(r: &mut Reader) -> Result<WindowEntry, String> {
    let graph = graph_from_bin(r)?;
    let answers = answers_from_bin(r)?;
    let signature = match r.u8()? {
        0 => None,
        1 => Some(sig_from_bin(r)?),
        other => return Err(format!("bad signature flag {other}")),
    };
    let code = match r.u8()? {
        0 => None,
        1 => Some(None),
        2 => Some(Some(code_words_from_bin(r)?)),
        other => return Err(format!("bad window code flag {other}")),
    };
    Ok(WindowEntry {
        graph: Arc::new(graph),
        answers,
        signature,
        code,
    })
}

fn metas_to_bin(out: &mut Vec<u8>, metas: &[(usize, GraphMeta)]) {
    put_varint(out, metas.len() as u64);
    for (slot, m) in metas {
        put_varint(out, *slot as u64);
        meta_to_bin(out, m);
    }
}

fn metas_from_bin(r: &mut Reader) -> Result<Vec<(usize, GraphMeta)>, String> {
    let n = r.count("meta", 13)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let slot = r.varint()? as usize;
        out.push((slot, meta_from_bin(r)?));
    }
    Ok(out)
}

/// Encodes a checkpoint to its on-disk bytes (magic, checksum, length,
/// payload).
pub(crate) fn encode_checkpoint(data: &CheckpointData) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + data.entries.len() * 128);
    put_varint(&mut p, CHECKPOINT_VERSION);
    put_varint(&mut p, data.seq);
    put_u64_le(&mut p, data.config_fp);
    put_u64_le(&mut p, data.dataset_fp);
    put_varint(&mut p, data.labels as u64);
    put_varint(&mut p, data.round);
    put_varint(&mut p, data.slot_count as u64);
    put_varint(&mut p, 1); // shard count
    put_varint(&mut p, data.free.len() as u64);
    for &s in &data.free {
        put_varint(&mut p, s as u64);
    }
    put_varint(&mut p, data.entries.len() as u64);
    for e in &data.entries {
        entry_to_bin(&mut p, e);
    }
    put_varint(&mut p, data.window.len() as u64);
    for w in &data.window {
        window_entry_to_bin(&mut p, w);
    }
    // Trailing, presence-optional: never-promoted checkpoints stay
    // byte-identical to the pre-failover format, and pre-failover
    // artifacts (no trailing bytes) decode as epoch 0.
    if data.epoch > 0 {
        put_varint(&mut p, data.epoch);
    }
    let mut out = Vec::with_capacity(24 + p.len());
    out.extend_from_slice(BCKPT_MAGIC);
    put_u64_le(&mut out, fnv1a64(&p));
    put_u64_le(&mut out, p.len() as u64);
    out.extend_from_slice(&p);
    out
}

/// Decodes and verifies checkpoint bytes (magic, checksum, version).
/// Fingerprint validation against the opening engine is the caller's job
/// (the fingerprints are in the returned data).
pub(crate) fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointData, PersistError> {
    let corrupt = |m: String| PersistError::Corrupt(format!("checkpoint: {m}"));
    if !bytes.starts_with(BCKPT_MAGIC) {
        return Err(corrupt("missing IGQBCKP1 magic".into()));
    }
    if bytes.len() < 24 {
        return Err(corrupt("truncated header".into()));
    }
    let expected = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
    let payload = &bytes[24..];
    if payload.len() != len {
        return Err(corrupt(format!(
            "payload length {} does not match header {len}",
            payload.len()
        )));
    }
    let found = fnv1a64(payload);
    if found != expected {
        return Err(PersistError::Checksum { expected, found });
    }
    let mut r = Reader::new(payload);
    let mut go = || -> Result<CheckpointData, String> {
        let version = r.varint()?;
        if version != CHECKPOINT_VERSION {
            return Err(format!("@version:{version}"));
        }
        let seq = r.varint()?;
        let config_fp = r.u64_le()?;
        let dataset_fp = r.u64_le()?;
        let labels = r.varint()? as usize;
        let round = r.varint()?;
        let slot_count = r.varint()? as usize;
        single_shard(r.varint()?, 0)?;
        let nfree = r.count("free slot", 1)?;
        let mut free = Vec::with_capacity(nfree);
        for _ in 0..nfree {
            free.push(r.varint()? as usize);
        }
        let nentries = r.count("entry", 16)?;
        let mut entries = Vec::with_capacity(nentries);
        for _ in 0..nentries {
            entries.push(entry_from_bin(&mut r)?);
        }
        let nwindow = r.count("window entry", 4)?;
        let mut window = Vec::with_capacity(nwindow);
        for _ in 0..nwindow {
            window.push(window_entry_from_bin(&mut r)?);
        }
        // Optional trailing epoch (absent in pre-failover artifacts).
        let epoch = if r.remaining() > 0 { r.varint()? } else { 0 };
        if r.remaining() != 0 {
            return Err(format!("{} trailing bytes", r.remaining()));
        }
        Ok(CheckpointData {
            seq,
            config_fp,
            dataset_fp,
            labels,
            round,
            slot_count,
            free,
            entries,
            window,
            epoch,
        })
    };
    go().map_err(|m| match m.strip_prefix("@version:") {
        Some(v) => PersistError::UnsupportedVersion {
            found: v.parse().unwrap_or(0),
            supported: CHECKPOINT_VERSION,
        },
        None => corrupt(m),
    })
}

/// Rejects state written by a multi-shard engine, which earlier builds
/// could run: checkpoint and WAL headers must record a shard count of 1,
/// and every WAL record a shard `tag` of 0 in a flip group of width
/// (`shards`) 1. The error names the writer's shard count.
fn single_shard(shards: u64, tag: u64) -> Result<(), String> {
    if shards == 1 && tag == 0 {
        return Ok(());
    }
    Err(format!(
        "written by a {shards}-shard engine (shard tag {tag}); engine state is no longer \
         sharded, so rebuild the store"
    ))
}

/// One binary WAL frame: tag byte, `u32` LE payload length, `u64` LE
/// payload checksum, payload.
fn frame_bin(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + payload.len());
    out.push(tag);
    put_u32_le(&mut out, payload.len() as u32);
    put_u64_le(&mut out, fnv1a64(payload));
    out.extend_from_slice(payload);
    out
}

/// Bytes of the frame header preceding each binary WAL payload.
const BFRAME_HEADER: usize = 13;

/// One complete frame of a binary stream, as [`frames`] yields it.
struct Frame<'a> {
    tag: u8,
    /// The whole frame, header included.
    raw: &'a [u8],
    /// Whether the frame ends the stream.
    last: bool,
}

impl<'a> Frame<'a> {
    fn payload(&self) -> &'a [u8] {
        &self.raw[BFRAME_HEADER..]
    }

    /// The payload, or the checksum in the frame header and the
    /// payload's own when they differ.
    fn checked_payload(&self) -> Result<&'a [u8], (u64, u64)> {
        let expected = u64::from_le_bytes(self.raw[5..13].try_into().expect("8 bytes"));
        let found = fnv1a64(self.payload());
        if found != expected {
            return Err((expected, found));
        }
        Ok(self.payload())
    }
}

/// The stream ends inside a frame (a torn tail): inside its header
/// (`tag` unknown) or inside the payload of a frame tagged `tag`.
struct Torn {
    tag: Option<u8>,
}

/// Walks the frames of a binary stream whose magic is already stripped:
/// complete frames in order, then `Err(Torn)` if the stream ends inside
/// one. Checksums are checked on request, so each caller keeps its own
/// policy for damage and torn tails.
fn frames(bytes: &[u8]) -> impl Iterator<Item = Result<Frame<'_>, Torn>> {
    let mut rest = bytes;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let frame = rest.get(..BFRAME_HEADER).map_or(Err(None), |h| {
            let len = u32::from_le_bytes(h[1..5].try_into().expect("4 bytes")) as usize;
            rest.get(..BFRAME_HEADER + len).ok_or(Some(h[0]))
        });
        match frame {
            Ok(raw) => {
                rest = &rest[raw.len()..];
                let (tag, last) = (raw[0], rest.is_empty());
                Some(Ok(Frame { tag, raw, last }))
            }
            Err(tag) => {
                rest = &[];
                Some(Err(Torn { tag }))
            }
        }
    })
}

/// Encodes the stream prefix: the WAL magic plus the header frame binding
/// the log to an engine identity.
fn encode_wal_header(h: &WalHeader) -> Vec<u8> {
    let mut p = Vec::with_capacity(24);
    put_varint(&mut p, WAL_VERSION);
    put_u64_le(&mut p, h.config_fp);
    put_u64_le(&mut p, h.dataset_fp);
    put_varint(&mut p, 1); // shard count

    // Trailing, presence-optional (see the checkpoint's epoch note).
    if h.epoch > 0 {
        put_varint(&mut p, h.epoch);
    }
    let mut out = BWAL_MAGIC.to_vec();
    out.extend_from_slice(&frame_bin(b'H', &p));
    out
}

/// Encodes one flip record as a WAL frame (an appendable unit; the
/// stream's magic and header come from [`encode_wal`]).
pub(crate) fn encode_wal_record(r: &WalRecord) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + r.admitted.len() * 64 + r.metas.len() * 16);
    // `seq` leads the payload: compaction reads it without decoding the
    // rest of the frame.
    put_varint(&mut p, r.seq);
    put_varint(&mut p, 0); // shard tag
    put_varint(&mut p, 1); // flip-group width
    put_varint(&mut p, r.evicted.len() as u64);
    for &s in &r.evicted {
        put_varint(&mut p, s as u64);
    }
    put_varint(&mut p, r.admitted.len() as u64);
    for e in &r.admitted {
        entry_to_bin(&mut p, e);
    }
    metas_to_bin(&mut p, &r.metas);
    frame_bin(b'R', &p)
}

fn wal_header_from_bin(payload: &[u8]) -> Result<WalHeader, PersistError> {
    let mut r = Reader::new(payload);
    let mut go = || -> Result<(u64, WalHeader), String> {
        let version = r.varint()?;
        let config_fp = r.u64_le()?;
        let dataset_fp = r.u64_le()?;
        single_shard(r.varint()?, 0)?;
        let h = WalHeader {
            config_fp,
            dataset_fp,
            // Optional trailing epoch (absent in pre-failover artifacts).
            epoch: if r.remaining() > 0 { r.varint()? } else { 0 },
        };
        if r.remaining() != 0 {
            return Err(format!("{} trailing header bytes", r.remaining()));
        }
        Ok((version, h))
    };
    let (version, h) = go().map_err(|m| PersistError::Corrupt(format!("WAL header: {m}")))?;
    if version != WAL_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    Ok(h)
}

/// Checks the shard tag and flip-group width that follow a record's
/// `seq`. Runs before [`record_from_bin`] on every checksum-valid `R`
/// frame, so a multi-shard engine's final record is reported as such
/// rather than dropped as a torn tail. Structural damage is left to
/// [`record_from_bin`], which reports it in context.
fn check_record_layout(payload: &[u8]) -> Result<(), PersistError> {
    let mut r = Reader::new(payload);
    if let (Ok(_seq), Ok(tag), Ok(width)) = (r.varint(), r.varint(), r.varint()) {
        single_shard(width, tag).map_err(|m| PersistError::Corrupt(format!("WAL record: {m}")))?;
    }
    Ok(())
}

fn record_from_bin(payload: &[u8]) -> Result<WalRecord, String> {
    let mut r = Reader::new(payload);
    let seq = r.varint()?;
    let (tag, width) = (r.varint()?, r.varint()?);
    single_shard(width, tag)?;
    let nevicted = r.count("evicted slot", 1)?;
    let mut evicted = Vec::with_capacity(nevicted);
    for _ in 0..nevicted {
        evicted.push(r.varint()? as usize);
    }
    let nadmitted = r.count("admitted entry", 16)?;
    let mut admitted = Vec::with_capacity(nadmitted);
    for _ in 0..nadmitted {
        admitted.push(entry_from_bin(&mut r)?);
    }
    let metas = metas_from_bin(&mut r)?;
    if r.remaining() != 0 {
        return Err(format!("{} trailing record bytes", r.remaining()));
    }
    Ok(WalRecord {
        seq,
        evicted,
        admitted,
        metas,
    })
}

/// Parses a WAL byte stream: magic, header frame, then record frames in
/// order. An incomplete or checksum-damaged **final** frame is tolerated
/// (dropped, reported via [`WalParse::torn_tail`]) — that is what a crash
/// mid-append leaves behind; damage anywhere else, or a non-empty stream
/// that does not start with the magic, is [`PersistError::Corrupt`].
pub(crate) fn parse_wal(bytes: &[u8]) -> Result<WalParse, PersistError> {
    if bytes.is_empty() {
        return Ok(WalParse {
            header: None,
            records: Vec::new(),
            torn_tail: false,
        });
    }
    let bytes = bytes
        .strip_prefix(BWAL_MAGIC)
        .ok_or_else(|| PersistError::Corrupt("WAL: missing IGQBWAL1 magic".into()))?;
    let mut header = None;
    let mut records = Vec::new();
    let mut torn_tail = false;
    for (index, frame) in frames(bytes).enumerate() {
        let Ok(frame) = frame else {
            torn_tail = true;
            break;
        };
        let payload = match frame.checked_payload() {
            Ok(payload) => payload,
            Err(_) if frame.last => {
                torn_tail = true;
                break;
            }
            Err((expected, found)) => {
                return Err(PersistError::Corrupt(format!(
                    "WAL frame {} damaged mid-log: checksum mismatch \
                     ({expected:016x} vs {found:016x})",
                    index + 1
                )));
            }
        };
        match frame.tag {
            b'H' => {
                if index != 0 {
                    return Err(PersistError::Corrupt(
                        "WAL header record not at start".into(),
                    ));
                }
                header = Some(wal_header_from_bin(payload)?);
            }
            b'R' => {
                if header.is_none() {
                    return Err(PersistError::Corrupt("WAL record before header".into()));
                }
                check_record_layout(payload)?;
                match record_from_bin(payload) {
                    Ok(r) => records.push(r),
                    Err(_) if frame.last => torn_tail = true,
                    Err(reason) => {
                        return Err(PersistError::Corrupt(format!(
                            "WAL frame {} damaged mid-log: {reason}",
                            index + 1
                        )));
                    }
                }
            }
            other => {
                return Err(PersistError::Corrupt(format!(
                    "unknown WAL frame tag {other:#04x}"
                )));
            }
        }
    }
    if header.is_none() && (!records.is_empty() || !torn_tail) {
        return Err(PersistError::Corrupt("WAL has no header record".into()));
    }
    Ok(WalParse {
        header,
        records,
        torn_tail,
    })
}

/// Checkpoint-time WAL compaction over **raw bytes**: keeps `R` frames
/// with `seq > keep_after` verbatim under a fresh header, dropping a torn
/// final frame. Only each payload's leading `seq` varint is read — no
/// per-record decode/re-encode — because this runs under the engine's
/// submit lock, where every microsecond blocks WAL appends. Returns the
/// new stream and the number of kept records. Damaged mid-log frames are
/// kept as-is (recovery, with time to spare, diagnoses them properly); a
/// stream without the magic keeps nothing.
pub(crate) fn compact_wal(bytes: &[u8], keep_after: u64, header: &WalHeader) -> (Vec<u8>, u64) {
    let mut out = encode_wal_header(header);
    let mut kept = 0u64;
    let stream = bytes.strip_prefix(BWAL_MAGIC).unwrap_or(&[]);
    // A torn final append ends the walk; the checkpoint covers its flip.
    for frame in frames(stream).map_while(Result::ok) {
        if frame.tag != b'R' {
            continue; // old header
        }
        match Reader::new(frame.payload()).varint() {
            Ok(seq) if seq <= keep_after => {}
            _ => {
                out.extend_from_slice(frame.raw);
                kept += 1;
            }
        }
    }
    (out, kept)
}

/// Encodes a header plus records as a fresh WAL byte stream (open-time
/// compaction).
pub(crate) fn encode_wal(header: &WalHeader, records: &[WalRecord]) -> Vec<u8> {
    let mut out = encode_wal_header(header);
    for r in records {
        out.extend_from_slice(&encode_wal_record(r));
    }
    out
}

// ---------------------------------------------------------------------------
// Replication delta-group codec
//
// The replication stream's wire unit is one committed flip, encoded as
// the WAL codec's `R` frame — no magic, no header (the subscription
// supplies both fingerprint checks and ordering). Decode is strict: a
// replicated group travels over a reliable stream, so any truncation or
// damage is an error and the whole group is rejected before anything
// applies.

/// Encodes one flip for the replication stream. A non-zero `epoch` (the
/// primary has been promoted at least once) leads the group as an `E`
/// frame — the group header followers fence stale primaries by; epoch-0
/// groups stay byte-identical to the pre-failover stream (and to the
/// WAL's `R` frame).
pub(crate) fn encode_group_binary(record: &WalRecord, epoch: u64) -> Vec<u8> {
    let mut out = Vec::new();
    if epoch > 0 {
        let mut p = Vec::with_capacity(4);
        put_varint(&mut p, epoch);
        out.extend_from_slice(&frame_bin(b'E', &p));
    }
    out.extend_from_slice(&encode_wal_record(record));
    out
}

/// Decodes a replication delta group: an optional leading `E` (epoch)
/// frame, then exactly one `R` frame, strict. Returns the stream epoch
/// (`0` when the `E` frame is absent — a never-promoted primary)
/// alongside the record.
pub(crate) fn decode_group_binary(bytes: &[u8]) -> Result<(u64, WalRecord), PersistError> {
    let mut epoch = 0u64;
    let mut record = None;
    for (index, frame) in frames(bytes).enumerate() {
        let tag = match &frame {
            Ok(f) => f.tag,
            Err(Torn { tag: Some(tag) }) => *tag,
            Err(Torn { tag: None }) => {
                return Err(PersistError::Corrupt(
                    "delta group ends in a truncated frame header".into(),
                ));
            }
        };
        if tag != b'R' && !(tag == b'E' && index == 0) {
            return Err(PersistError::Corrupt(format!(
                "unexpected delta-group frame tag {tag:#04x}"
            )));
        }
        let Ok(frame) = frame else {
            return Err(PersistError::Corrupt(
                "delta group ends in a truncated frame payload".into(),
            ));
        };
        let payload = frame
            .checked_payload()
            .map_err(|(expected, found)| PersistError::Checksum { expected, found })?;
        if tag == b'E' {
            let mut r = Reader::new(payload);
            epoch = r
                .varint()
                .map_err(|m| PersistError::Corrupt(format!("delta-group epoch: {m}")))?;
            if r.remaining() != 0 {
                return Err(PersistError::Corrupt(
                    "delta-group epoch frame has trailing bytes".into(),
                ));
            }
        } else if record.is_some() {
            return Err(PersistError::Corrupt(
                "delta group carries more than one record".into(),
            ));
        } else {
            record = Some(
                record_from_bin(payload)
                    .map_err(|m| PersistError::Corrupt(format!("delta-group record: {m}")))?,
            );
        }
    }
    let record = record.ok_or_else(|| PersistError::Corrupt("empty delta group".into()))?;
    Ok((epoch, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;

    fn entry(slot: usize, label: u32) -> PersistedEntry {
        let g = graph_from(&[label, label + 1], &[(0, 1)]);
        let sig = GraphSignature::of(&g);
        let code = igq_graph::canon::canonical_code(&g);
        PersistedEntry {
            slot,
            entry: CacheEntry {
                graph: Arc::new(g),
                signature: sig,
                code,
                answers: vec![GraphId::new(1), GraphId::new(4)],
                meta: {
                    let mut m = GraphMeta::new();
                    m.tick();
                    m.record_hit(3, LogValue::from_linear(1e30));
                    m
                },
                memo: Default::default(),
            },
            features: Some(SlotFeatureSet {
                counts: vec![
                    (LabelSeq::canonical(&[LabelId::new(label)]), 1),
                    (
                        LabelSeq::canonical(&[LabelId::new(label), LabelId::new(label + 1)]),
                        1,
                    ),
                ],
                complete_len: 4,
            }),
        }
    }

    fn checkpoint_data() -> CheckpointData {
        CheckpointData {
            seq: 7,
            config_fp: 11,
            dataset_fp: 22,
            labels: 5,
            round: 9,
            slot_count: 3,
            free: vec![2],
            entries: vec![entry(0, 0), entry(1, 3)],
            window: vec![WindowEntry {
                graph: Arc::new(graph_from(&[9], &[])),
                answers: vec![],
                signature: None,
                code: Some(None),
            }],
            epoch: 0,
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_everything() {
        let data = checkpoint_data();
        let bytes = encode_checkpoint(&data);
        let back = decode_checkpoint(&bytes).expect("decodes");
        assert_eq!(back.seq, 7);
        assert_eq!(back.config_fp, 11);
        assert_eq!(back.dataset_fp, 22);
        assert_eq!(back.labels, 5);
        assert_eq!(back.round, 9);
        assert_eq!(back.slot_count, 3);
        assert_eq!(back.free, vec![2]);
        assert_eq!(back.entries.len(), 2);
        let (a, b) = (&data.entries[0].entry, &back.entries[0].entry);
        assert_eq!(a.graph.as_ref(), b.graph.as_ref());
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.code, b.code);
        assert_eq!(a.answers, b.answers);
        assert_eq!(a.meta.hits, b.meta.hits);
        assert_eq!(a.meta.cost_alleviated, b.meta.cost_alleviated);
        let (fa, fb) = (
            data.entries[0].features.as_ref().unwrap(),
            back.entries[0].features.as_ref().unwrap(),
        );
        let (mut ca, mut cb) = (fa.counts.clone(), fb.counts.clone());
        ca.sort();
        cb.sort();
        assert_eq!(ca, cb);
        assert_eq!(back.window.len(), 1);
        assert_eq!(back.window[0].code, Some(None), "budget-miss code survives");
    }

    #[test]
    fn negative_infinity_cost_roundtrips_exactly() {
        let m = GraphMeta::new(); // cost = LogValue::ZERO = ln -inf
        let mut buf = Vec::new();
        meta_to_bin(&mut buf, &m);
        let back = meta_from_bin(&mut Reader::new(&buf)).expect("decodes");
        assert_eq!(back.cost_alleviated, LogValue::ZERO);
    }

    #[test]
    fn checkpoint_checksum_mismatch_is_detected() {
        let mut bytes = encode_checkpoint(&checkpoint_data());
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        match decode_checkpoint(&bytes) {
            Err(PersistError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    fn wal_record(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            evicted: vec![1],
            admitted: vec![PersistedEntry {
                features: None,
                ..entry(1, seq as u32)
            }],
            metas: vec![(0, GraphMeta::new()), (1, GraphMeta::new())],
        }
    }

    #[test]
    fn wal_roundtrip_and_torn_tail_tolerance() {
        let header = WalHeader {
            config_fp: 1,
            dataset_fp: 2,
            epoch: 0,
        };
        let mut bytes = encode_wal_header(&header);
        bytes.extend_from_slice(&encode_wal_record(&wal_record(1)));
        bytes.extend_from_slice(&encode_wal_record(&wal_record(2)));
        let parsed = parse_wal(&bytes).expect("clean parse");
        assert_eq!(parsed.records.len(), 2);
        assert!(!parsed.torn_tail);
        assert_eq!(parsed.header.unwrap().config_fp, 1);

        // Crash mid-append: chop the final record short.
        let torn = &bytes[..bytes.len() - 10];
        let parsed = parse_wal(torn).expect("torn tail tolerated");
        assert_eq!(parsed.records.len(), 1, "final record dropped");
        assert!(parsed.torn_tail);

        // Same damage mid-log is corruption, not a torn tail.
        let mut mid = encode_wal_header(&header);
        let mut r1 = encode_wal_record(&wal_record(1));
        r1.truncate(r1.len() - 10);
        mid.extend_from_slice(&r1);
        mid.extend_from_slice(&encode_wal_record(&wal_record(2)));
        match parse_wal(&mid) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn unsharded_encodings_decode_to_defaults() {
        // The shard fields are constants, pinned at their old single-shard
        // values: checkpoint and WAL headers record one shard (the varint
        // after the checkpoint's slot count; the last header varint),
        // every record shard tag 0 in a flip group of width 1 (the two
        // varints after `seq`).
        let ckpt = encode_checkpoint(&checkpoint_data());
        let payload = &ckpt[24..];
        // version 1, seq 7, two fingerprints, labels 5, round 9, slots 3.
        assert_eq!(&payload[18..22], &[5, 9, 3, 1]);
        assert!(decode_checkpoint(&ckpt).is_ok());
        let header = WalHeader {
            config_fp: 1,
            dataset_fp: 2,
            epoch: 0,
        };
        let head = encode_wal_header(&header);
        assert_eq!(head.last(), Some(&1), "WAL header shard count");
        let frame = encode_wal_record(&wal_record(3));
        assert_eq!(&frame[BFRAME_HEADER..BFRAME_HEADER + 3], &[3, 0, 1]);
        let parsed = parse_wal(&encode_wal(&header, &[wal_record(3)])).expect("parses");
        assert_eq!(parsed.records[0].seq, 3);
    }

    /// Rewrites a record frame's shard tag and flip-group width (the two
    /// single-byte varints after a one-byte `seq`), with a valid checksum.
    fn retagged(record: &WalRecord, tag: u8, width: u8) -> Vec<u8> {
        let mut payload = encode_wal_record(record)[BFRAME_HEADER..].to_vec();
        payload[1] = tag;
        payload[2] = width;
        frame_bin(b'R', &payload)
    }

    #[test]
    fn multi_shard_artifacts_are_typed_corruption() {
        let header = WalHeader {
            config_fp: 1,
            dataset_fp: 2,
            epoch: 0,
        };
        let expect_shards = |result: Result<(), PersistError>, shards: &str| match result {
            Err(PersistError::Corrupt(m)) => {
                assert!(m.contains(&format!("{shards}-shard engine")), "{m}");
            }
            other => panic!("expected Corrupt naming {shards} shards, got {other:?}"),
        };
        for (tag, width) in [(2, 4), (0, 4), (2, 1)] {
            let bad = retagged(&wal_record(2), tag, width);
            // As the final frame (never mistaken for a torn tail) and
            // mid-log.
            let mut last = encode_wal(&header, &[wal_record(1)]);
            last.extend_from_slice(&bad);
            expect_shards(parse_wal(&last).map(drop), &width.to_string());
            let mut mid = encode_wal(&header, &[]);
            mid.extend_from_slice(&bad);
            mid.extend_from_slice(&encode_wal_record(&wal_record(3)));
            expect_shards(parse_wal(&mid).map(drop), &width.to_string());
            // On the replication stream too.
            expect_shards(decode_group_binary(&bad).map(drop), &width.to_string());
        }
        // A WAL header recording four shards.
        let mut p = Vec::new();
        put_varint(&mut p, WAL_VERSION);
        put_u64_le(&mut p, 1);
        put_u64_le(&mut p, 2);
        put_varint(&mut p, 4);
        let mut wal = BWAL_MAGIC.to_vec();
        wal.extend_from_slice(&frame_bin(b'H', &p));
        expect_shards(parse_wal(&wal).map(drop), "4");
        // A checkpoint recording four shards.
        let ckpt = encode_checkpoint(&checkpoint_data());
        let mut payload = ckpt[24..].to_vec();
        payload[21] = 4;
        let mut forged = BCKPT_MAGIC.to_vec();
        put_u64_le(&mut forged, fnv1a64(&payload));
        put_u64_le(&mut forged, payload.len() as u64);
        forged.extend_from_slice(&payload);
        expect_shards(decode_checkpoint(&forged).map(drop), "4");
    }

    #[test]
    fn empty_wal_parses_to_nothing() {
        let parsed = parse_wal(b"").expect("empty ok");
        assert!(parsed.header.is_none());
        assert!(parsed.records.is_empty());
        assert!(!parsed.torn_tail);
    }

    #[test]
    fn wal_compaction_roundtrips() {
        let header = WalHeader {
            config_fp: 5,
            dataset_fp: 6,
            epoch: 0,
        };
        let bytes = encode_wal(&header, &[wal_record(1), wal_record(2)]);
        let parsed = parse_wal(&bytes).expect("parses");
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.records[1].seq, 2);
        assert_eq!(parsed.records[1].evicted, vec![1]);
        assert_eq!(parsed.records[1].metas.len(), 2);
    }

    #[test]
    fn raw_compaction_keeps_only_the_tail_and_drops_torn_bytes() {
        let header = WalHeader {
            config_fp: 9,
            dataset_fp: 10,
            epoch: 0,
        };
        let mut bytes = encode_wal_header(&header);
        for seq in 1..=4 {
            bytes.extend_from_slice(&encode_wal_record(&wal_record(seq)));
        }
        bytes.extend_from_slice(b"R 0000 torn-partial-append");
        let (compacted, kept) = compact_wal(&bytes, 2, &header);
        assert_eq!(kept, 2);
        let parsed = parse_wal(&compacted).expect("compacted WAL parses");
        assert_eq!(
            parsed.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert!(!parsed.torn_tail, "torn bytes dropped by compaction");
        assert_eq!(parsed.header.unwrap().config_fp, 9);
        // Kept records survive byte-identically (checksums still valid).
        let (again, kept_again) = compact_wal(&compacted, 0, &header);
        assert_eq!(kept_again, 2);
        assert_eq!(parse_wal(&again).expect("parses").records.len(), 2);
    }

    #[test]
    fn mem_store_fork_is_independent() {
        let a = MemStore::new();
        a.save_checkpoint(b"one").unwrap();
        a.append_wal(b"rec\n").unwrap();
        let b = a.fork();
        a.save_checkpoint(b"two").unwrap();
        a.replace_wal(b"").unwrap();
        assert_eq!(b.load_checkpoint().unwrap().unwrap(), b"one");
        assert_eq!(b.load_wal().unwrap(), b"rec\n");
        assert_eq!(a.load_checkpoint().unwrap().unwrap(), b"two");
        assert_eq!(a.wal_bytes(), 0);
    }

    #[test]
    fn dir_store_roundtrips_and_survives_missing_files() {
        let dir = std::env::temp_dir().join(format!("igq_dirstore_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DirStore::open(&dir).expect("open");
        assert!(store.load_checkpoint().unwrap().is_none());
        assert!(store.load_wal().unwrap().is_empty());
        store.save_checkpoint(b"ckpt").unwrap();
        store.append_wal(b"a\n").unwrap();
        store.append_wal(b"b\n").unwrap();
        assert_eq!(store.load_checkpoint().unwrap().unwrap(), b"ckpt");
        assert_eq!(store.load_wal().unwrap(), b"a\nb\n");
        store.replace_wal(b"c\n").unwrap();
        assert_eq!(store.load_wal().unwrap(), b"c\n");
        // Reopening sees the same state (it's the filesystem).
        let again = DirStore::open(&dir).expect("reopen");
        assert_eq!(again.load_checkpoint().unwrap().unwrap(), b"ckpt");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_config_fingerprints_are_pinned() {
        // Values computed before `IgqConfig` lost its two
        // background-maintenance fields (PR 20): a store written by any
        // earlier build under the default config must still open. The
        // first two are the direction names `Engine::open` passes.
        let c = crate::IgqConfig::default();
        assert_eq!(config_fingerprint(&c, "subgraph"), 0x4ce7_0d56_394c_5534);
        assert_eq!(config_fingerprint(&c, "supergraph"), 0x99bf_b69c_735d_234c);
        assert_eq!(config_fingerprint(&c, "sub"), 0x48c7_2804_008e_4c72);
        assert_eq!(config_fingerprint(&c, "super"), 0xbb5c_c350_8b3e_6d4e);
    }

    #[test]
    fn fingerprints_react_to_relevant_changes_only() {
        let base = crate::IgqConfig::default();
        let fp = config_fingerprint(&base, "subgraph");
        assert_eq!(fp, config_fingerprint(&base, "subgraph"), "deterministic");
        let mut bigger = base;
        bigger.cache_capacity += 1;
        assert_ne!(fp, config_fingerprint(&bigger, "subgraph"));
        assert_ne!(
            fp,
            config_fingerprint(&base, "supergraph"),
            "the two query directions must never share a store"
        );
        let mut tuned = base;
        tuned.batch_threads = 3;
        assert_eq!(
            fp,
            config_fingerprint(&tuned, "subgraph"),
            "runtime tunables may change across restarts"
        );

        let a: GraphStore = vec![graph_from(&[0, 1], &[(0, 1)])].into_iter().collect();
        let b: GraphStore = vec![graph_from(&[0, 2], &[(0, 1)])].into_iter().collect();
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&a.clone()));
        // Same vertex/edge counts and label *multiset* — labels merely
        // permuted across vertices: must still differ (answers are
        // position-sensitive).
        let perm_a: GraphStore = vec![graph_from(&[1, 0, 2], &[(0, 1), (1, 2)])]
            .into_iter()
            .collect();
        let perm_b: GraphStore = vec![graph_from(&[0, 1, 2], &[(0, 1), (1, 2)])]
            .into_iter()
            .collect();
        assert_ne!(dataset_fingerprint(&perm_a), dataset_fingerprint(&perm_b));
        // Same vertex count, edge count, and label sum — only an edge
        // rewired: the fingerprint must still differ.
        let path: GraphStore = vec![graph_from(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)])]
            .into_iter()
            .collect();
        let star: GraphStore = vec![graph_from(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)])]
            .into_iter()
            .collect();
        assert_ne!(dataset_fingerprint(&path), dataset_fingerprint(&star));
        // Edge labels alone must also register.
        let el_a: GraphStore = vec![igq_graph::graph_from_el(&[0, 1], &[(0, 1, 1)])]
            .into_iter()
            .collect();
        let el_b: GraphStore = vec![igq_graph::graph_from_el(&[0, 1], &[(0, 1, 2)])]
            .into_iter()
            .collect();
        assert_ne!(dataset_fingerprint(&el_a), dataset_fingerprint(&el_b));
    }

    #[test]
    fn varint_roundtrips_across_the_range() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
        // A malformed continuation that would overflow u64 must error,
        // not silently truncate.
        let mut r = Reader::new(&[0xff; 10]);
        assert!(r.varint().is_err());
    }

    #[test]
    fn binary_checkpoint_roundtrip_preserves_everything() {
        let data = checkpoint_data();
        let bytes = encode_checkpoint(&data);
        assert!(bytes.starts_with(BCKPT_MAGIC));
        let back = decode_checkpoint(&bytes).expect("decodes");
        assert_eq!(back.seq, 7);
        assert_eq!(back.config_fp, 11);
        assert_eq!(back.dataset_fp, 22);
        assert_eq!(back.labels, 5);
        assert_eq!(back.round, 9);
        assert_eq!(back.slot_count, 3);
        assert_eq!(back.free, vec![2]);
        assert_eq!(back.entries.len(), 2);
        let (a, b) = (&data.entries[0].entry, &back.entries[0].entry);
        assert_eq!(a.graph.as_ref(), b.graph.as_ref());
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.code, b.code);
        assert_eq!(a.answers, b.answers);
        assert_eq!(a.meta.hits, b.meta.hits);
        assert_eq!(a.meta.cost_alleviated, b.meta.cost_alleviated);
        let (fa, fb) = (
            data.entries[0].features.as_ref().unwrap(),
            back.entries[0].features.as_ref().unwrap(),
        );
        let (mut ca, mut cb) = (fa.counts.clone(), fb.counts.clone());
        ca.sort();
        cb.sort();
        assert_eq!(ca, cb);
        assert_eq!(fa.complete_len, fb.complete_len);
        assert_eq!(back.window.len(), 1);
        assert_eq!(back.window[0].code, Some(None), "budget-miss code survives");
    }

    #[test]
    fn binary_checkpoint_checksum_and_version_gates() {
        let bytes = encode_checkpoint(&checkpoint_data());
        let mut flipped = bytes.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x01;
        match decode_checkpoint(&flipped) {
            Err(PersistError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
        // Forge an unsupported payload version (leading varint) with a
        // recomputed checksum: the gate must fire, not a decode error.
        let mut forged_payload = bytes[24..].to_vec();
        forged_payload[0] = 99; // version varint 1 -> 99
        let mut forged = BCKPT_MAGIC.to_vec();
        put_u64_le(&mut forged, fnv1a64(&forged_payload));
        put_u64_le(&mut forged, forged_payload.len() as u64);
        forged.extend_from_slice(&forged_payload);
        match decode_checkpoint(&forged) {
            Err(PersistError::UnsupportedVersion { found: 99, .. }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
        // Truncation that cuts into the payload is structural corruption.
        match decode_checkpoint(&bytes[..bytes.len() - 3]) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn binary_wal_roundtrip_and_torn_frame_tolerance() {
        let header = WalHeader {
            config_fp: 1,
            dataset_fp: 2,
            epoch: 0,
        };
        let bytes = encode_wal(&header, &[wal_record(1), wal_record(2)]);
        assert!(bytes.starts_with(BWAL_MAGIC));
        let parsed = parse_wal(&bytes).expect("clean binary parse");
        assert_eq!(parsed.records.len(), 2);
        assert!(!parsed.torn_tail);
        assert_eq!(parsed.header.unwrap().config_fp, 1);
        assert_eq!(parsed.records[1].seq, 2);
        assert_eq!(parsed.records[1].evicted, vec![1]);
        assert_eq!(parsed.records[1].metas.len(), 2);
        assert_eq!(
            parsed.records[1].admitted[0].entry.answers,
            wal_record(2).admitted[0].entry.answers
        );

        // Crash mid-append: chop the final frame short.
        let torn = &bytes[..bytes.len() - 10];
        let parsed = parse_wal(torn).expect("torn tail tolerated");
        assert_eq!(parsed.records.len(), 1, "final frame dropped");
        assert!(parsed.torn_tail);

        // A bit flip in the *final* frame's payload is also a torn tail...
        let mut flipped = bytes.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x01;
        let parsed = parse_wal(&flipped).expect("damaged final frame tolerated");
        assert_eq!(parsed.records.len(), 1);
        assert!(parsed.torn_tail);

        // ...but the same damage mid-log is corruption.
        let r1 = encode_wal_record(&wal_record(1));
        let mut mid = encode_wal(&header, &[]);
        let mut broken = r1.clone();
        let at = broken.len() - 2;
        broken[at] ^= 0x01;
        mid.extend_from_slice(&broken);
        mid.extend_from_slice(&encode_wal_record(&wal_record(2)));
        match parse_wal(&mid) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn binary_raw_compaction_keeps_only_the_tail_and_drops_torn_bytes() {
        let header = WalHeader {
            config_fp: 9,
            dataset_fp: 10,
            epoch: 0,
        };
        let mut bytes = encode_wal(&header, &[]);
        for seq in 1..=4 {
            bytes.extend_from_slice(&encode_wal_record(&wal_record(seq)));
        }
        bytes.extend_from_slice(b"R torn-partial");
        let (compacted, kept) = compact_wal(&bytes, 2, &header);
        assert_eq!(kept, 2);
        let parsed = parse_wal(&compacted).expect("compacted WAL parses");
        assert_eq!(
            parsed.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert!(!parsed.torn_tail, "torn bytes dropped by compaction");
        assert_eq!(parsed.header.unwrap().config_fp, 9);
        // Kept frames survive byte-identically (checksums still valid).
        let (again, kept_again) = compact_wal(&compacted, 0, &header);
        assert_eq!(kept_again, 2);
        assert_eq!(parse_wal(&again).expect("parses").records.len(), 2);
    }

    #[test]
    fn delta_group_roundtrips_and_rejects_any_damage() {
        let mut a = wal_record(9);
        a.evicted = vec![0];
        let bytes = encode_group_binary(&a, 0);
        assert_eq!(
            bytes,
            encode_wal_record(&a),
            "an epoch-0 group is the WAL frame"
        );
        let (epoch, back) = decode_group_binary(&bytes).expect("round-trips");
        assert_eq!(epoch, 0, "no E frame decodes as epoch 0");
        assert_eq!(back.seq, 9);
        assert_eq!(back.evicted, vec![0]);

        // Replication is strict: truncation anywhere is an error, not a
        // tolerated torn tail, and a bad tag is named before truncation...
        let corrupt = |b: &[u8]| match decode_group_binary(b) {
            Err(PersistError::Corrupt(m)) => m,
            other => panic!("expected corruption, got {other:?}"),
        };
        let torn = &bytes[..bytes.len() - 3];
        assert_eq!(
            corrupt(torn),
            "delta group ends in a truncated frame payload"
        );
        assert_eq!(
            corrupt(&bytes[..5]),
            "delta group ends in a truncated frame header"
        );
        let retagged = [b"X", &torn[1..]].concat();
        assert_eq!(corrupt(&retagged), "unexpected delta-group frame tag 0x58");
        // ...as is a flipped payload bit (checksum)...
        let mut flipped = bytes.clone();
        let at = flipped.len() - 2;
        flipped[at] ^= 0x40;
        assert!(matches!(
            decode_group_binary(&flipped),
            Err(PersistError::Checksum { .. })
        ));
        // ...and an empty group.
        assert!(matches!(
            decode_group_binary(&[]),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn delta_group_epoch_frame_roundtrips() {
        let r = wal_record(3);
        // A promoted primary's group leads with the E frame...
        let bytes = encode_group_binary(&r, 7);
        let (epoch, back) = decode_group_binary(&bytes).expect("round-trips");
        assert_eq!(epoch, 7);
        assert_eq!(back.seq, 3);
        // ...an epoch-0 group carries no E frame (pre-failover bytes)...
        let plain = encode_group_binary(&r, 0);
        assert!(bytes.len() > plain.len());
        assert_eq!(plain[0], b'R');
        // ...an E frame anywhere but first is rejected...
        let e_frame = &bytes[..bytes.len() - plain.len()];
        let mut swapped = plain.clone();
        swapped.extend_from_slice(e_frame);
        assert!(matches!(
            decode_group_binary(&swapped),
            Err(PersistError::Corrupt(_))
        ));
        // ...and a lone E frame is an empty group.
        assert!(matches!(
            decode_group_binary(e_frame),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn epoch_is_presence_optional() {
        let mut data = checkpoint_data();
        // Epoch 0 writes no trailing epoch varint (the pre-failover
        // encoding) and decodes as 0.
        data.epoch = 0;
        let plain = encode_checkpoint(&data);
        assert_eq!(decode_checkpoint(&plain).expect("decodes").epoch, 0);
        // A promoted engine's epoch survives, at the cost of one varint.
        data.epoch = 5;
        let promoted = encode_checkpoint(&data);
        assert_eq!(promoted.len(), plain.len() + 1);
        assert_eq!(decode_checkpoint(&promoted).expect("decodes").epoch, 5);
        // Same for the WAL header.
        let header = WalHeader {
            config_fp: 1,
            dataset_fp: 2,
            epoch: 9,
        };
        let bytes = encode_wal(&header, &[wal_record(1)]);
        let parsed = parse_wal(&bytes).expect("parses");
        assert_eq!(parsed.header.expect("header").epoch, 9);
        // Compaction preserves the epoch through the fresh header.
        let (compacted, _) = compact_wal(&bytes, 0, &header);
        assert_eq!(
            parse_wal(&compacted)
                .expect("parses")
                .header
                .expect("header")
                .epoch,
            9
        );
    }

    #[test]
    fn compaction_keeps_nothing_of_a_stream_without_the_magic() {
        let header = WalHeader {
            config_fp: 1,
            dataset_fp: 2,
            epoch: 0,
        };
        let json_era: &[u8] = b"H 0000000000000000 2 {}\nR 0000000000000000 2 {}\n";
        assert!(matches!(parse_wal(json_era), Err(PersistError::Corrupt(_))));
        let (compacted, kept) = compact_wal(json_era, 0, &header);
        assert_eq!(kept, 0);
        assert_eq!(compacted, encode_wal(&header, &[]));
    }
}
