//! Fault injection for the storage layer: [`FaultyStore`] wraps any
//! [`CacheStore`] and injects I/O errors, torn writes, short reads, and
//! slow fsyncs — **scripted** (fail the next N operations of a kind) or
//! **seeded** (each operation fails with a configured probability from a
//! deterministic PRNG), so chaos runs reproduce exactly from a seed.
//!
//! It is correct-by-construction with respect to the engine's crash
//! model: an injected torn write really does leave a prefix of the
//! record on the inner store, exactly what a power loss mid-`append_wal`
//! leaves on disk, so recovery and degraded-mode behavior are exercised
//! against the documented failure shapes rather than a simulation of
//! them. Its self-tests live in `tests/chaos_store.rs`.
//!
//! All knobs are atomics: tests flip faults on and off at runtime while
//! an engine is serving from other threads.

use igq::core::{CacheStore, PersistError};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Panic message for a [`FaultyStore`] lock whose holder panicked.
const POISONED: &str = "faulty store lock poisoned";

/// Which storage operation a fault knob targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// [`CacheStore::append_wal`].
    Append,
    /// [`CacheStore::save_checkpoint`].
    SaveCheckpoint,
    /// [`CacheStore::load_wal`] and [`CacheStore::load_checkpoint`].
    Load,
    /// [`CacheStore::replace_wal`].
    ReplaceWal,
}

/// Counters of injected faults, per kind (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Operations failed with an injected I/O error.
    pub io_errors: u64,
    /// Failed appends that first wrote a prefix of the record (torn
    /// writes).
    pub torn_writes: u64,
    /// Reads returned truncated (short reads).
    pub short_reads: u64,
    /// Appends delayed by the slow-fsync knob.
    pub slow_fsyncs: u64,
}

/// A [`CacheStore`] wrapper that injects storage faults on the way to an
/// inner store. Healthy (pass-through) until a knob is set; see the
/// [module docs](self).
pub struct FaultyStore {
    inner: Arc<dyn CacheStore>,
    /// Fail the next N calls, per operation kind (scripted mode).
    fail_next: [AtomicU64; 4],
    /// Probability (in parts per million) that any operation fails
    /// (seeded mode); 0 = off.
    fail_ppm: AtomicU64,
    /// xorshift64* state for the seeded mode; never 0.
    rng: AtomicU64,
    /// On an injected append failure, first write this percentage
    /// (0–100) of the record to the inner store — a torn write, exactly
    /// the prefix a crash mid-append leaves.
    torn_write_pct: AtomicU64,
    /// Truncate WAL reads by this many trailing bytes (short read);
    /// 0 = off. The engine must treat the result as a torn tail, never
    /// return a wrong answer.
    short_read_bytes: AtomicU64,
    /// Sleep this long before every append (slow fsync); `None` = off.
    slow_fsync: Mutex<Option<Duration>>,
    injected: Mutex<FaultStats>,
}

impl fmt::Debug for FaultyStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyStore")
            .field("inner", &self.inner)
            .field("fail_ppm", &self.fail_ppm.load(Ordering::Relaxed))
            .field("injected", &*self.injected.lock().expect(POISONED))
            .finish_non_exhaustive()
    }
}

impl FaultyStore {
    /// Wraps `inner` with every fault disabled (pure pass-through).
    pub fn new(inner: Arc<dyn CacheStore>) -> Arc<FaultyStore> {
        Arc::new(FaultyStore {
            inner,
            fail_next: Default::default(),
            fail_ppm: AtomicU64::new(0),
            rng: AtomicU64::new(0x9E3779B97F4A7C15),
            torn_write_pct: AtomicU64::new(0),
            short_read_bytes: AtomicU64::new(0),
            slow_fsync: Mutex::new(None),
            injected: Mutex::new(FaultStats::default()),
        })
    }

    /// Scripted mode: fail the next `n` operations of kind `op` with an
    /// injected I/O error (counts down; stacks with the seeded mode).
    pub fn fail_next(&self, op: FaultOp, n: u64) {
        self.fail_next[op as usize].store(n, Ordering::Relaxed);
    }

    /// Seeded mode: every operation independently fails with probability
    /// `p` (clamped to `[0, 1]`), drawn from a deterministic xorshift64*
    /// stream seeded by `seed` — the same seed replays the same fault
    /// schedule for the same operation sequence.
    pub fn seed_faults(&self, seed: u64, p: f64) {
        self.rng.store(seed.max(1), Ordering::Relaxed);
        let ppm = (p.clamp(0.0, 1.0) * 1_000_000.0) as u64;
        self.fail_ppm.store(ppm, Ordering::Relaxed);
    }

    /// Torn writes: when an append fails (scripted or seeded), first
    /// write `pct`% (0–100) of the record to the inner store, exactly
    /// the prefix a crash mid-append leaves.
    pub fn tear_writes(&self, pct: u64) {
        self.torn_write_pct.store(pct.min(100), Ordering::Relaxed);
    }

    /// Short reads: truncate every WAL read by `bytes` trailing bytes
    /// (0 disables). Recovery must see a torn tail, never corruption of
    /// an earlier record.
    pub fn shorten_reads(&self, bytes: u64) {
        self.short_read_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Slow fsync: delay every append by `d` (`None` disables).
    pub fn slow_fsync(&self, d: Option<Duration>) {
        *self.slow_fsync.lock().expect(POISONED) = d;
    }

    /// Clears every fault knob (the store heals); injected-fault
    /// counters are preserved.
    pub fn heal(&self) {
        for n in &self.fail_next {
            n.store(0, Ordering::Relaxed);
        }
        self.fail_ppm.store(0, Ordering::Relaxed);
        self.torn_write_pct.store(0, Ordering::Relaxed);
        self.short_read_bytes.store(0, Ordering::Relaxed);
        *self.slow_fsync.lock().expect(POISONED) = None;
    }

    /// Cumulative injected-fault counters.
    pub fn injected(&self) -> FaultStats {
        *self.injected.lock().expect(POISONED)
    }

    /// Draws the next value from the seeded stream (xorshift64*).
    fn next_rand(&self) -> u64 {
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.store(x, Ordering::Relaxed);
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// `true` when this call of `op` should fail: a scripted count is
    /// pending, or the seeded coin lands on failure.
    fn should_fail(&self, op: FaultOp) -> bool {
        let pending = &self.fail_next[op as usize];
        if pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            return true;
        }
        let ppm = self.fail_ppm.load(Ordering::Relaxed);
        ppm > 0 && self.next_rand() % 1_000_000 < ppm
    }

    fn injected_error(&self, what: &str) -> PersistError {
        self.injected.lock().expect(POISONED).io_errors += 1;
        PersistError::Io(std::io::Error::other(format!("injected fault: {what}")))
    }
}

impl CacheStore for FaultyStore {
    fn load_checkpoint(&self) -> Result<Option<Vec<u8>>, PersistError> {
        if self.should_fail(FaultOp::Load) {
            return Err(self.injected_error("checkpoint load"));
        }
        self.inner.load_checkpoint()
    }

    fn save_checkpoint(&self, bytes: &[u8]) -> Result<(), PersistError> {
        if self.should_fail(FaultOp::SaveCheckpoint) {
            // Checkpoint saves are atomic by contract (temp + rename), so
            // an injected failure leaves the old checkpoint in place —
            // no torn variant exists for this operation.
            return Err(self.injected_error("checkpoint save"));
        }
        self.inner.save_checkpoint(bytes)
    }

    fn load_wal(&self) -> Result<Vec<u8>, PersistError> {
        if self.should_fail(FaultOp::Load) {
            return Err(self.injected_error("WAL load"));
        }
        let mut bytes = self.inner.load_wal()?;
        let short = self.short_read_bytes.load(Ordering::Relaxed) as usize;
        if short > 0 && !bytes.is_empty() {
            bytes.truncate(bytes.len().saturating_sub(short));
            self.injected.lock().expect(POISONED).short_reads += 1;
        }
        Ok(bytes)
    }

    fn append_wal(&self, record: &[u8]) -> Result<(), PersistError> {
        if let Some(d) = *self.slow_fsync.lock().expect(POISONED) {
            self.injected.lock().expect(POISONED).slow_fsyncs += 1;
            std::thread::sleep(d);
        }
        if self.should_fail(FaultOp::Append) {
            let pct = self.torn_write_pct.load(Ordering::Relaxed);
            if pct > 0 {
                // The torn prefix really lands on the inner store: the
                // on-disk log now ends mid-record, exactly like a crash
                // between `write_all` and `sync_all`.
                let cut = (record.len() as u64 * pct / 100) as usize;
                if cut > 0 && self.inner.append_wal(&record[..cut]).is_ok() {
                    self.injected.lock().expect(POISONED).torn_writes += 1;
                }
            }
            return Err(self.injected_error("WAL append"));
        }
        self.inner.append_wal(record)
    }

    fn replace_wal(&self, bytes: &[u8]) -> Result<(), PersistError> {
        if self.should_fail(FaultOp::ReplaceWal) {
            // Replacement is atomic by contract: a failure leaves the old
            // log bytes (including any torn tail) untouched.
            return Err(self.injected_error("WAL replace"));
        }
        self.inner.replace_wal(bytes)
    }
}
