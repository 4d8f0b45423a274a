//! Primary → follower replication: stream the window-delta WAL to
//! read-only replica engines.
//!
//! A durable engine already externalizes every state change as one WAL
//! record per window flip ([`crate::persist`], tagged with the flip's
//! `seq`). Replication reuses that exact artifact as its wire unit, the
//! **delta group**: after a flip's record has been handed to the store
//! (post-fsync on disk-backed stores), the primary's `ReplicationHub`
//! publishes it — encoded in the binary WAL codec — to every subscribed
//! follower. A follower engine
//! ([`Engine::open_follower`](crate::Engine::open_follower)) bootstraps
//! from a primary checkpoint snapshot and then replays delta groups
//! through the same `replay_window` path recovery uses, so a drained
//! follower is observationally identical to the primary as of the last
//! applied flip — the restart-equivalence guarantee, applied remotely.
//!
//! # Topology and flow
//!
//! ```text
//!   primary Engine ──flip──▶ wal_outbox ──drain──▶ CacheStore (WAL)
//!                                  │ (post-append)
//!                                  ▼
//!                          ReplicationHub ──▶ ring buffer (resume window)
//!                                  │
//!                      ┌───────────┼───────────┐
//!                      ▼           ▼           ▼
//!                 ReplicaFeed  ReplicaFeed  ReplicaFeed
//!                      │           │           │
//!                 follower     follower     follower
//!                 (apply_replica_delta, read-only queries)
//! ```
//!
//! # Consistency and staleness
//!
//! * Delta groups are applied **whole or not at all**: a truncated or
//!   damaged group fails with [`ReplicaError::Corrupt`] before any state
//!   changes (the same "whole flip" rule recovery applies to a torn WAL
//!   tail).
//! * Seqs are contiguous: a group that is neither the next flip nor a
//!   duplicate fails with [`ReplicaError::SeqGap`]; the follower must
//!   resume from its `last_applied_seq` or re-bootstrap from a fresh
//!   snapshot.
//! * Followers serve reads at a bounded, observable staleness:
//!   `replication_lag_windows` (highest seq heard from the primary minus
//!   last applied seq) feeds the serving edge's lag-gated admission
//!   control.
//! * Replication follows the **live** engine, not the disk: a primary
//!   whose WAL went unhealthy (failed append) keeps publishing groups —
//!   followers track the in-memory truth the primary itself serves.
//!
//! Subscribing is cheap and races are closed by construction: the hub is
//! activated under the primary's state read lock (so no flip can
//! commit concurrently), and registration and ring-replay happen under
//! one hub lock, so every group is delivered exactly once — through the
//! backlog or through the live channel.

use crate::persist::PersistError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
pub use std::sync::mpsc::RecvTimeoutError;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Flip groups the hub retains for resuming followers. A follower whose
/// `last_applied_seq` has fallen further behind than this must
/// re-bootstrap from a snapshot instead of resuming the stream.
pub const REPLICATION_RING_GROUPS: usize = 256;

/// Typed failures of the replication subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaError {
    /// A follower-only operation was invoked on a primary engine.
    NotFollower,
    /// A write-path operation was invoked on a read-only follower; the
    /// payload names the rejected operation.
    ReadOnly(&'static str),
    /// The delta stream skipped a flip: the follower must resume from its
    /// `last_applied_seq` (the primary's ring may still cover it) or
    /// re-bootstrap from a fresh snapshot.
    SeqGap {
        /// The flip the follower needed next.
        expected: u64,
        /// The flip the stream delivered instead.
        found: u64,
    },
    /// The delta group or snapshot failed to decode or validate; the
    /// follower state is unchanged (groups apply whole or not at all).
    Corrupt(String),
    /// The delta group carries an older failover epoch than the engine:
    /// its sender is a deposed primary (a follower was promoted past it)
    /// and its flips must not be applied. The stream should be dropped —
    /// resubscribing to the stale sender cannot help.
    EpochFenced {
        /// Epoch the rejected group was stamped with.
        stream: u64,
        /// The engine's current epoch.
        local: u64,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::NotFollower => {
                write!(f, "engine is not a follower (no replica source attached)")
            }
            ReplicaError::ReadOnly(op) => {
                write!(f, "follower engines are read-only: {op} rejected")
            }
            ReplicaError::SeqGap { expected, found } => write!(
                f,
                "replication stream gap: expected flip {expected}, found {found}"
            ),
            ReplicaError::Corrupt(why) => write!(f, "replication payload corrupt: {why}"),
            ReplicaError::EpochFenced { stream, local } => write!(
                f,
                "replication stream fenced: group epoch {stream} is older than local epoch \
                 {local} (sender is a deposed primary)"
            ),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<PersistError> for ReplicaError {
    fn from(e: PersistError) -> ReplicaError {
        ReplicaError::Corrupt(e.to_string())
    }
}

/// One committed window flip, encoded for the replication stream: the
/// flip's WAL record as a binary `R` frame, exactly as the binary WAL
/// codec writes it (after an `E` epoch frame once the primary has been
/// promoted). The bytes are `Arc`-shared so the hub can fan one group out
/// to N followers and its ring without copying.
#[derive(Debug, Clone)]
pub struct DeltaGroup {
    /// The flip ordinal the record carries.
    pub seq: u64,
    /// The flip's binary WAL `R` frame.
    pub bytes: Arc<[u8]>,
}

/// A follower's live end of the replication stream. Messages arrive in
/// flip order with no gaps relative to the subscription point; the feed
/// disconnects when the primary engine drops.
#[derive(Debug)]
pub struct ReplicaFeed {
    rx: Receiver<DeltaGroup>,
}

impl ReplicaFeed {
    /// Blocks until the next delta group arrives; `None` once the
    /// primary is gone.
    pub fn recv(&self) -> Option<DeltaGroup> {
        self.rx.recv().ok()
    }

    /// Takes a queued group without blocking (`None` when the queue is
    /// currently empty *or* the primary is gone — use
    /// [`recv_timeout`](Self::recv_timeout) to distinguish).
    pub fn try_recv(&self) -> Option<DeltaGroup> {
        self.rx.try_recv().ok()
    }

    /// Blocks for at most `timeout`; distinguishes a quiet stream
    /// (`Err(Timeout)`) from a dropped primary (`Err(Disconnected)`).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<DeltaGroup, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }
}

/// What [`subscribe_replication`](crate::api::QueryEngine::subscribe_replication)
/// hands a new follower.
#[derive(Debug)]
pub enum Subscription {
    /// The requested resume point is still covered: the feed continues
    /// exactly after the follower's `last_applied_seq`, no re-bootstrap
    /// needed.
    Live {
        /// Delta groups from the resume point onward.
        feed: ReplicaFeed,
    },
    /// Bootstrap (or fallen-behind resume): install the checkpoint
    /// snapshot first, then drain the feed, which continues exactly
    /// after the snapshot's flip.
    Snapshot {
        /// Flip ordinal the snapshot covers.
        seq: u64,
        /// Encoded engine checkpoint (binary codec), for
        /// [`Engine::open_follower`](crate::Engine::open_follower).
        checkpoint: Vec<u8>,
        /// Delta groups from `seq` onward.
        feed: ReplicaFeed,
    },
}

/// The primary side: retains a ring of recent flip groups for resuming
/// followers and fans each published group out to every live subscriber.
/// Inert (and free) until the first subscription activates it; once
/// active it stays active for the engine's lifetime, so the committed
/// seq stream is published without holes.
#[derive(Debug)]
pub(crate) struct ReplicationHub {
    /// Lock-free mirror of `HubInner::active` for the flip path's cheap
    /// "is anyone listening" check. Set under the engine's control read
    /// lock, read under its write lock, so every flip after activation
    /// observes it.
    active: AtomicBool,
    inner: Mutex<HubInner>,
}

/// Panic message for a hub lock whose holder panicked.
const POISONED: &str = "replication hub lock poisoned";

#[derive(Debug)]
struct HubInner {
    active: bool,
    /// Seq of the newest published group; groups at or below
    /// `last - ring.len()` have been dropped from the ring.
    last: u64,
    ring: VecDeque<DeltaGroup>,
    subs: Vec<Sender<DeltaGroup>>,
}

impl ReplicationHub {
    pub(crate) fn new() -> ReplicationHub {
        ReplicationHub {
            active: AtomicBool::new(false),
            inner: Mutex::new(HubInner {
                active: false,
                last: 0,
                ring: VecDeque::new(),
                subs: Vec::new(),
            }),
        }
    }

    /// Whether any subscription has ever activated this hub. A `true`
    /// obliges the engine to build and publish every subsequent flip
    /// group.
    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Activates the hub at the engine's current flip `seq`. Must run
    /// while the caller holds the control read lock: no flip can commit
    /// concurrently, so `seq` is exact and every later flip sees the
    /// active flag. Idempotent after the first call.
    pub(crate) fn activate(&self, seq: u64) {
        let mut inner = self.inner.lock().expect(POISONED);
        if !inner.active {
            inner.active = true;
            inner.last = seq;
            self.active.store(true, Ordering::Release);
        }
    }

    /// Publishes one committed flip group: appends it to the resume ring
    /// and delivers it to every live subscriber (dead subscribers — feed
    /// dropped — are pruned here). Called post-append in flip order.
    pub(crate) fn publish(&self, group: DeltaGroup) {
        let mut inner = self.inner.lock().expect(POISONED);
        if !inner.active {
            return;
        }
        inner.last = inner.last.max(group.seq);
        inner.ring.push_back(group.clone());
        while inner.ring.len() > REPLICATION_RING_GROUPS {
            inner.ring.pop_front();
        }
        inner.subs.retain(|tx| tx.send(group.clone()).is_ok());
    }

    /// Attaches a resuming follower that has applied every flip up to and
    /// including `after`. Returns `None` when the ring no longer covers
    /// `after + 1` (or the follower claims flips the primary never
    /// published) — the caller falls back to a snapshot. Registration
    /// and backlog replay are atomic under the hub lock, so no group is
    /// missed or duplicated around the attach point.
    pub(crate) fn try_resume(&self, after: u64) -> Option<ReplicaFeed> {
        let mut inner = self.inner.lock().expect(POISONED);
        let covered = after == inner.last
            || (after < inner.last && inner.ring.front().is_some_and(|g| g.seq <= after + 1));
        if !covered {
            return None;
        }
        Some(attach(&mut inner, after))
    }

    /// Attaches a bootstrapping follower that holds a snapshot of flip
    /// `after`: backlog-replays any already-published newer groups and
    /// registers for the rest. Always succeeds.
    pub(crate) fn attach_after(&self, after: u64) -> ReplicaFeed {
        attach(&mut self.inner.lock().expect(POISONED), after)
    }

    /// Attaches a resuming follower whose gap the ring no longer covers,
    /// splicing a caller-supplied backlog (flip groups `after + 1 ..`,
    /// re-encoded from the primary's WAL) in front of the ring. Succeeds
    /// only when the backlog's end connects to the ring — its last seq is
    /// the newest published flip, or the ring still holds the next one —
    /// so the spliced stream is provably gap-free; `None` sends the
    /// caller to the snapshot path. Splice and registration are atomic
    /// under the hub lock, so no group is missed or duplicated around the
    /// seam.
    pub(crate) fn attach_with_backlog(
        &self,
        after: u64,
        backlog: Vec<DeltaGroup>,
    ) -> Option<ReplicaFeed> {
        let mut inner = self.inner.lock().expect(POISONED);
        let backlog_last = backlog.last().map(|g| g.seq).unwrap_or(after);
        let covered = backlog_last == inner.last
            || (backlog_last < inner.last
                && inner
                    .ring
                    .front()
                    .is_some_and(|g| g.seq <= backlog_last + 1));
        if !covered {
            return None;
        }
        let (tx, rx) = mpsc::channel();
        for g in backlog.into_iter().filter(|g| g.seq > after) {
            // Sending to our own fresh channel cannot fail.
            let _ = tx.send(g);
        }
        for g in inner.ring.iter().filter(|g| g.seq > backlog_last) {
            let _ = tx.send(g.clone());
        }
        inner.subs.push(tx);
        Some(ReplicaFeed { rx })
    }

    /// Live subscriber count (post-prune accuracy is best-effort: dead
    /// feeds are only pruned on publish).
    #[cfg(test)]
    pub(crate) fn subscribers(&self) -> usize {
        self.inner.lock().expect(POISONED).subs.len()
    }
}

fn attach(inner: &mut HubInner, after: u64) -> ReplicaFeed {
    let (tx, rx) = mpsc::channel();
    for g in inner.ring.iter().filter(|g| g.seq > after) {
        // Sending to our own fresh channel cannot fail.
        let _ = tx.send(g.clone());
    }
    inner.subs.push(tx);
    ReplicaFeed { rx }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(seq: u64) -> DeltaGroup {
        DeltaGroup {
            seq,
            bytes: vec![seq as u8].into(),
        }
    }

    #[test]
    fn inactive_hub_drops_publishes() {
        let hub = ReplicationHub::new();
        assert!(!hub.is_active());
        hub.publish(group(1));
        hub.activate(0);
        // Nothing published while inactive is replayable.
        assert!(hub.try_resume(0).is_some());
        let feed = hub.try_resume(0).unwrap();
        assert!(feed.try_recv().is_none());
    }

    #[test]
    fn resume_replays_ring_backlog_exactly_once() {
        let hub = ReplicationHub::new();
        hub.activate(0);
        for s in 1..=5 {
            hub.publish(group(s));
        }
        let feed = hub.try_resume(2).expect("ring covers 3..=5");
        let got: Vec<u64> = std::iter::from_fn(|| feed.try_recv().map(|g| g.seq)).collect();
        assert_eq!(got, vec![3, 4, 5]);
        hub.publish(group(6));
        assert_eq!(feed.try_recv().map(|g| g.seq), Some(6));
        assert!(feed.try_recv().is_none());
    }

    #[test]
    fn resume_beyond_ring_or_future_requires_snapshot() {
        let hub = ReplicationHub::new();
        hub.activate(0);
        for s in 1..=(REPLICATION_RING_GROUPS as u64 + 10) {
            hub.publish(group(s));
        }
        // Seq 1 has been popped from the ring.
        assert!(hub.try_resume(0).is_none(), "fell out of the ring");
        assert!(hub.try_resume(9).is_none(), "fell out of the ring");
        assert!(
            hub.try_resume(REPLICATION_RING_GROUPS as u64 + 100)
                .is_none(),
            "claims flips never published"
        );
        assert!(hub
            .try_resume(REPLICATION_RING_GROUPS as u64 + 10)
            .is_some());
    }

    #[test]
    fn activation_floor_blocks_pre_activation_resume() {
        let hub = ReplicationHub::new();
        // Engine already at flip 7 when the first follower arrives (e.g.
        // flips 1..=7 committed under persistence before replication).
        hub.activate(7);
        assert!(
            hub.try_resume(3).is_none(),
            "pre-activation flips unavailable"
        );
        assert!(hub.try_resume(7).is_some(), "caught-up resume is fine");
    }

    #[test]
    fn dead_subscribers_are_pruned_on_publish() {
        let hub = ReplicationHub::new();
        hub.activate(0);
        let feed = hub.attach_after(0);
        drop(feed);
        let live = hub.attach_after(0);
        assert_eq!(hub.subscribers(), 2);
        hub.publish(group(1));
        assert_eq!(hub.subscribers(), 1);
        assert_eq!(live.recv_timeout(Duration::from_secs(1)).unwrap().seq, 1);
    }

    #[test]
    fn backlog_splice_is_gap_free_or_refused() {
        let hub = ReplicationHub::new();
        hub.activate(0);
        for s in 1..=(REPLICATION_RING_GROUPS as u64 + 10) {
            hub.publish(group(s));
        }
        // Ring holds 11..=266; a follower at 4 splices a WAL backlog
        // 5..=12 that overlaps the ring seam.
        let backlog: Vec<DeltaGroup> = (5..=12).map(group).collect();
        let feed = hub.attach_with_backlog(4, backlog).expect("splices");
        let got: Vec<u64> = std::iter::from_fn(|| feed.try_recv().map(|g| g.seq)).collect();
        let want: Vec<u64> = (5..=(REPLICATION_RING_GROUPS as u64 + 10)).collect();
        assert_eq!(got, want, "backlog + ring, exactly once each");
        hub.publish(group(REPLICATION_RING_GROUPS as u64 + 11));
        assert_eq!(
            feed.try_recv().map(|g| g.seq),
            Some(REPLICATION_RING_GROUPS as u64 + 11)
        );

        // A backlog that stops short of the ring leaves a gap: refused.
        let short: Vec<DeltaGroup> = (5..=8).map(group).collect();
        assert!(hub.attach_with_backlog(4, short).is_none());
        // An empty backlog degenerates to try_resume semantics.
        assert!(hub.attach_with_backlog(4, Vec::new()).is_none());
    }

    #[test]
    fn errors_display_their_shape() {
        let gap = ReplicaError::SeqGap {
            expected: 4,
            found: 9,
        };
        assert!(gap.to_string().contains("expected flip 4"));
        assert!(gap.to_string().contains("found 9"));
        assert!(ReplicaError::NotFollower
            .to_string()
            .contains("not a follower"));
        assert!(ReplicaError::ReadOnly("import_entries")
            .to_string()
            .contains("import_entries"));
        let fenced = ReplicaError::EpochFenced {
            stream: 1,
            local: 2,
        };
        assert!(fenced.to_string().contains("epoch 1"));
        assert!(fenced.to_string().contains("local epoch 2"));
    }
}
