//! Delegating wrappers that time two layer boundaries *inside* a running
//! engine without touching it: [`SubgraphMethod`] (the `methods` layer)
//! and [`CacheStore`] (the `core::persist` layer) are public traits, so
//! the engine accepts a wrapper wherever it accepts the real thing.
//!
//! Both wrappers are in place in the untraced pass too; they record spans
//! and counts only while the [`Tracer`] is on.

use crate::trace::Tracer;
use igq_core::{CacheStore, PersistError};
use igq_features::PathFeatures;
use igq_graph::{Graph, GraphId, GraphStore};
use igq_iso::MatchConfig;
use igq_methods::{
    Filtered, PlanSource, QueryContext, SubgraphMethod, VerifyBatchStats, VerifyOutcome,
};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

pub const SPAN_FILTER: &str = "methods.filter";
pub const SPAN_VERIFY: &str = "methods.verify";
pub const SPAN_APPEND_WAL: &str = "core.persist.append_wal";
pub const SPAN_SAVE_CHECKPOINT: &str = "core.persist.save_checkpoint";
const SPAN_REPLACE_WAL: &str = "core.persist.replace_wal";
const SPAN_LOAD: &str = "core.persist.load";

/// Counts taken at the `methods` boundary while tracing is on.
#[derive(Debug, Default)]
pub struct MethodCounts {
    pub candidates_verified: AtomicU64,
    pub answers: AtomicU64,
}

/// A [`SubgraphMethod`] that forwards every call to a shared `M`.
pub struct Probe<M> {
    inner: Arc<M>,
    tracer: Arc<Tracer>,
    pub counts: Arc<MethodCounts>,
}

impl<M> Probe<M> {
    pub fn new(inner: Arc<M>, tracer: Arc<Tracer>) -> Probe<M> {
        Probe {
            inner,
            tracer,
            counts: Arc::default(),
        }
    }

    fn count(&self, outcomes: &[VerifyOutcome]) {
        if self.tracer.is_on() {
            let answers = outcomes.iter().filter(|o| o.contains).count() as u64;
            self.counts
                .candidates_verified
                .fetch_add(outcomes.len() as u64, Relaxed);
            self.counts.answers.fetch_add(answers, Relaxed);
        }
    }
}

impl<M: SubgraphMethod> SubgraphMethod for Probe<M> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn store(&self) -> &GraphStore {
        self.inner.store()
    }

    fn filter(&self, q: &Graph) -> Filtered {
        let _span = self.tracer.span(SPAN_FILTER);
        self.inner.filter(q)
    }

    fn filter_with_features(&self, q: &Graph, features: Option<&PathFeatures>) -> Filtered {
        let _span = self.tracer.span(SPAN_FILTER);
        self.inner.filter_with_features(q, features)
    }

    fn verify(&self, q: &Graph, context: &QueryContext, candidate: GraphId) -> VerifyOutcome {
        let _span = self.tracer.span(SPAN_VERIFY);
        let outcome = self.inner.verify(q, context, candidate);
        self.count(std::slice::from_ref(&outcome));
        outcome
    }

    fn verify_batch_with_plans(
        &self,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
        plans: Option<PlanSource<'_>>,
    ) -> (Vec<VerifyOutcome>, VerifyBatchStats) {
        let _span = self.tracer.span(SPAN_VERIFY);
        let out = self
            .inner
            .verify_batch_with_plans(q, context, candidates, plans);
        self.count(&out.0);
        out
    }

    fn verify_batch_with(
        &self,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
    ) -> (Vec<VerifyOutcome>, VerifyBatchStats) {
        let _span = self.tracer.span(SPAN_VERIFY);
        let out = self.inner.verify_batch_with(q, context, candidates);
        self.count(&out.0);
        out
    }

    fn verify_batch(
        &self,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
    ) -> Vec<VerifyOutcome> {
        let _span = self.tracer.span(SPAN_VERIFY);
        let out = self.inner.verify_batch(q, context, candidates);
        self.count(&out);
        out
    }

    fn index_size_bytes(&self) -> u64 {
        self.inner.index_size_bytes()
    }

    fn match_config(&self) -> MatchConfig {
        self.inner.match_config()
    }
}

/// Counts taken at the `core::persist` boundary while tracing is on.
#[derive(Debug, Default)]
pub struct StoreCounts {
    pub append_wal_calls: AtomicU64,
    pub wal_bytes: AtomicU64,
    pub save_checkpoint_calls: AtomicU64,
    /// Size of the most recent checkpoint.
    pub checkpoint_bytes: AtomicU64,
}

/// A [`CacheStore`] that forwards every call to `S`.
pub struct TimedStore<S> {
    inner: S,
    tracer: Arc<Tracer>,
    pub counts: StoreCounts,
}

impl<S> TimedStore<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> TimedStore<S> {
        TimedStore {
            inner,
            tracer,
            counts: StoreCounts::default(),
        }
    }
}

impl<S: fmt::Debug> fmt::Debug for TimedStore<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimedStore").field(&self.inner).finish()
    }
}

impl<S: CacheStore> CacheStore for TimedStore<S> {
    fn load_checkpoint(&self) -> Result<Option<Vec<u8>>, PersistError> {
        let _span = self.tracer.span(SPAN_LOAD);
        self.inner.load_checkpoint()
    }

    fn save_checkpoint(&self, bytes: &[u8]) -> Result<(), PersistError> {
        let _span = self.tracer.span(SPAN_SAVE_CHECKPOINT);
        if self.tracer.is_on() {
            self.counts.save_checkpoint_calls.fetch_add(1, Relaxed);
            self.counts
                .checkpoint_bytes
                .store(bytes.len() as u64, Relaxed);
        }
        self.inner.save_checkpoint(bytes)
    }

    fn load_wal(&self) -> Result<Vec<u8>, PersistError> {
        let _span = self.tracer.span(SPAN_LOAD);
        self.inner.load_wal()
    }

    fn append_wal(&self, record: &[u8]) -> Result<(), PersistError> {
        let _span = self.tracer.span(SPAN_APPEND_WAL);
        if self.tracer.is_on() {
            self.counts.append_wal_calls.fetch_add(1, Relaxed);
            self.counts
                .wal_bytes
                .fetch_add(record.len() as u64, Relaxed);
        }
        self.inner.append_wal(record)
    }

    fn replace_wal(&self, bytes: &[u8]) -> Result<(), PersistError> {
        let _span = self.tracer.span(SPAN_REPLACE_WAL);
        self.inner.replace_wal(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_core::MemStore;
    use igq_graph::graph_from;
    use igq_methods::{Ggsx, GgsxConfig};

    fn tiny_method() -> Arc<Ggsx> {
        let store: Arc<GraphStore> = Arc::new(
            vec![
                graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
                graph_from(&[0, 1], &[(0, 1)]),
                graph_from(&[2, 2], &[(0, 1)]),
            ]
            .into_iter()
            .collect(),
        );
        Arc::new(Ggsx::build(&store, GgsxConfig::default()))
    }

    #[test]
    fn probe_passes_every_call_through() {
        let inner = tiny_method();
        let tracer = Arc::new(Tracer::new());
        let probe = Probe::new(Arc::clone(&inner), Arc::clone(&tracer));
        let q = graph_from(&[0, 1], &[(0, 1)]);

        assert_eq!(probe.name(), inner.name());
        assert_eq!(probe.index_size_bytes(), inner.index_size_bytes());
        assert_eq!(probe.query(&q), inner.query(&q));
        let (a, b) = (probe.filter(&q), inner.filter(&q));
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(
            probe.verify_batch(&q, &a.context, &a.candidates),
            inner.verify_batch(&q, &b.context, &b.candidates)
        );
        assert_eq!(
            probe.verify(&q, &a.context, a.candidates[0]),
            inner.verify(&q, &b.context, b.candidates[0])
        );
        assert!(tracer.take().is_empty(), "nothing is recorded while off");
        assert_eq!(probe.counts.candidates_verified.load(Relaxed), 0);

        tracer.enable(16);
        let (answers, tests) = probe.query(&q);
        assert_eq!((answers, tests), inner.query(&q));
        let names: Vec<_> = tracer.take().iter().map(|s| s.name).collect();
        assert_eq!(names, vec![SPAN_FILTER, SPAN_VERIFY]);
        assert_eq!(probe.counts.candidates_verified.load(Relaxed), tests);
        assert_eq!(probe.counts.answers.load(Relaxed), 2);
    }

    #[test]
    fn timed_store_passes_every_call_through() {
        let tracer = Arc::new(Tracer::new());
        let timed = TimedStore::new(MemStore::new(), Arc::clone(&tracer));
        let plain = MemStore::new();
        tracer.enable(16);
        for store in [&timed as &dyn CacheStore, &plain as &dyn CacheStore] {
            assert_eq!(store.load_checkpoint().unwrap(), None);
            store.append_wal(b"one\n").unwrap();
            store.append_wal(b"two\n").unwrap();
            store.save_checkpoint(b"snapshot").unwrap();
            store.replace_wal(b"two\n").unwrap();
        }
        assert_eq!(timed.load_wal().unwrap(), plain.load_wal().unwrap());
        assert_eq!(
            timed.load_checkpoint().unwrap(),
            plain.load_checkpoint().unwrap()
        );
        assert_eq!(timed.counts.append_wal_calls.load(Relaxed), 2);
        assert_eq!(timed.counts.wal_bytes.load(Relaxed), 8);
        assert_eq!(timed.counts.save_checkpoint_calls.load(Relaxed), 1);
        assert_eq!(timed.counts.checkpoint_bytes.load(Relaxed), 8);
        let appends = tracer
            .take()
            .iter()
            .filter(|s| s.name == SPAN_APPEND_WAL)
            .count();
        assert_eq!(appends, 2);
    }
}
