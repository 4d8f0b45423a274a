//! The paired baseline-vs-iGQ experiment harness.
//!
//! Every speedup figure in the paper compares a base method `M` against
//! `iGQ M` on the *same* dataset and query stream, reporting the ratio of
//! average per-query iso tests (Figs. 7–11) or wall-clock (Figs. 12–17).
//! [`run_paired`] reproduces that protocol: the first `W` queries warm the
//! iGQ index and are excluded from measurement on both sides, exactly as in
//! Section 7.1. Both sides, and every bespoke experiment, account their
//! queries through the one loop in [`measure`].

use igq_core::{Engine, IgqConfig, IgqEngine, QueryDirection, QueryOutcome, Resolution};
use igq_graph::{Graph, GraphStore};
use igq_methods::{MethodKind, SubgraphMethod};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggregates of one (baseline or iGQ) run over the measured queries.
#[derive(Debug, Clone, Default)]
pub struct AggStats {
    /// Measured queries.
    pub queries: u64,
    /// DB iso tests.
    pub iso_tests: u64,
    /// Filter time.
    pub filter_time: Duration,
    /// Verify time.
    pub verify_time: Duration,
    /// End-to-end time.
    pub total_time: Duration,
    /// Sum of candidate-set sizes.
    pub candidates: u64,
    /// Sum of answer-set sizes.
    pub answers: u64,
    /// Optimal case 1 resolutions (iGQ only).
    pub exact_hits: u64,
    /// Optimal case 2 resolutions (iGQ only).
    pub empty_shortcuts: u64,
    /// The same aggregates per query-size bucket (see [`bucket_of`]).
    pub groups: BTreeMap<usize, AggStats>,
}

impl AggStats {
    fn avg(&self, total: f64) -> f64 {
        total / self.queries.max(1) as f64
    }

    /// Average iso tests per query.
    pub fn avg_iso_tests(&self) -> f64 {
        self.avg(self.iso_tests as f64)
    }

    /// Average wall-clock per query.
    pub fn avg_time(&self) -> Duration {
        Duration::from_secs_f64(self.avg(self.total_time.as_secs_f64()))
    }

    /// Average candidate-set size.
    pub fn avg_candidates(&self) -> f64 {
        self.avg(self.candidates as f64)
    }

    /// Average answer-set size.
    pub fn avg_answers(&self) -> f64 {
        self.avg(self.answers as f64)
    }

    /// Average false positives per query (candidates − answers).
    pub fn avg_false_positives(&self) -> f64 {
        self.avg_candidates() - self.avg_answers()
    }

    fn add(&mut self, out: &QueryOutcome) {
        self.queries += 1;
        self.iso_tests += out.db_iso_tests;
        self.filter_time += out.filter_time;
        self.verify_time += out.verify_time;
        self.total_time += out.total_time();
        self.candidates += out.candidates_before as u64;
        self.answers += out.answers.len() as u64;
        match out.resolution {
            Resolution::ExactHit => self.exact_hits += 1,
            Resolution::EmptyAnswerShortcut => self.empty_shortcuts += 1,
            Resolution::Verified => {}
        }
    }
}

/// Speedup of `igq` over `base` (baseline / iGQ): in average query time
/// when `time` is set, else in average iso tests.
pub fn speedup(base: &AggStats, igq: &AggStats, time: bool) -> f64 {
    let avg = |a: &AggStats| match time {
        true => a.avg_time().as_secs_f64(),
        false => a.avg_iso_tests(),
    };
    ratio(avg(base), avg(igq))
}

/// A paired comparison result.
#[derive(Debug, Clone)]
pub struct PairedRun {
    /// Method display name.
    pub method: String,
    /// Baseline aggregates.
    pub baseline: AggStats,
    /// iGQ aggregates.
    pub igq: AggStats,
    /// Cached queries at the end of the iGQ run.
    pub cached_queries: usize,
    /// iGQ index footprint at the end of the iGQ run.
    pub index_bytes: u64,
}

impl PairedRun {
    /// Overall speedup; see [`speedup`].
    pub fn speedup(&self, time: bool) -> f64 {
        speedup(&self.baseline, &self.igq, time)
    }

    /// Speedup per query-size bucket both sides saw.
    pub fn group_speedups(&self, time: bool) -> BTreeMap<usize, f64> {
        let groups = self.baseline.groups.iter();
        let pairs = groups.filter_map(|(size, b)| Some((*size, b, self.igq.groups.get(size)?)));
        pairs
            .map(|(size, b, i)| (size, speedup(b, i, time)))
            .collect()
    }
}

/// `a / b` with divide-by-zero mapped to "∞-ish": when iGQ needs zero
/// tests/time and the baseline needed some, report the baseline count
/// itself as the speedup floor (a common convention for bar charts).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b <= f64::EPSILON {
        if a <= f64::EPSILON {
            1.0
        } else {
            a.max(1.0)
        }
    } else {
        a / b
    }
}

/// Answers every query with `answer(i, q)` and aggregates the outcomes
/// of `queries[warmup..]`.
pub fn measure(
    queries: &[Graph],
    warmup: usize,
    mut answer: impl FnMut(usize, &Graph) -> QueryOutcome,
) -> AggStats {
    let mut agg = AggStats::default();
    for (i, q) in queries.iter().enumerate() {
        let out = answer(i, q);
        if i >= warmup {
            agg.add(&out);
            agg.groups.entry(bucket_of(q)).or_default().add(&out);
        }
    }
    agg
}

/// Runs the baseline (method alone) over `queries[warmup..]`.
pub fn run_baseline(method: &dyn SubgraphMethod, queries: &[Graph], warmup: usize) -> AggStats {
    measure(queries, warmup, |_, q| {
        let t0 = Instant::now();
        let filtered = method.filter(q);
        let filter_time = t0.elapsed();
        let t1 = Instant::now();
        let outcomes = method.verify_batch(q, &filtered.context, &filtered.candidates);
        let verify_time = t1.elapsed();
        let answers = filtered
            .candidates
            .iter()
            .zip(&outcomes)
            .filter(|(_, o)| o.contains)
            .map(|(&id, _)| id)
            .collect();
        QueryOutcome {
            answers,
            db_iso_tests: filtered.candidates.len() as u64,
            candidates_before: filtered.candidates.len(),
            filter_time,
            verify_time,
            ..Default::default()
        }
    })
}

/// Runs `engine` over the stream, measuring `queries[warmup..]`. The
/// window is flushed after the warm-up queries so they are visible to the
/// index immediately, mirroring the paper's warm-up protocol.
pub fn run_engine<D: QueryDirection>(
    engine: &Engine<D>,
    queries: &[Graph],
    warmup: usize,
) -> AggStats {
    measure(queries, warmup, |i, q| {
        let out = engine.query(q);
        if i + 1 == warmup {
            engine.flush_window();
        }
        out
    })
}

/// Runs the full paired comparison for one method kind; the first
/// `config.window` queries are the warm-up. Panics if iGQ's answers
/// differ from the method's.
pub fn run_paired(
    store: &Arc<GraphStore>,
    kind: MethodKind,
    threads: usize,
    queries: &[Graph],
    config: IgqConfig,
) -> PairedRun {
    let method = kind.build(store, threads);
    let baseline = run_baseline(method.as_ref(), queries, config.window);
    let engine = IgqEngine::new(method, config).expect("valid bench config");
    let igq = run_engine(&engine, queries, config.window);
    assert_eq!(baseline.answers, igq.answers, "Theorem 1 violated");
    PairedRun {
        method: kind.name(threads),
        baseline,
        igq,
        cached_queries: engine.cached_queries(),
        index_bytes: engine.igq_index_size_bytes(),
    }
}

/// Buckets a query by its size: the nearest paper size {4, 8, 12, 16, 20},
/// ties broken toward the larger bucket.
pub fn bucket_of(q: &Graph) -> usize {
    let e = q.edge_count();
    *igq_workload::PAPER_QUERY_SIZES
        .iter()
        .min_by_key(|&&s| ((s as i64 - e as i64).abs(), usize::MAX - s))
        .expect("nonempty sizes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::GraphId;
    use igq_workload::{DatasetKind, Distribution, QueryGenerator};

    fn tiny_setup() -> (Arc<GraphStore>, Vec<Graph>) {
        let store = Arc::new(DatasetKind::Aids.generate(60, 3));
        let queries =
            QueryGenerator::new(&store, Distribution::Zipf(1.4), Distribution::Zipf(1.4), 11)
                .take(40);
        (store, queries)
    }

    #[test]
    fn paired_run_has_equal_answers_and_fewer_tests() {
        let (store, queries) = tiny_setup();
        let config = IgqConfig {
            cache_capacity: 30,
            window: 5,
            ..Default::default()
        };
        let run = run_paired(&store, MethodKind::Ggsx, 1, &queries, config);
        assert_eq!(run.baseline.queries, run.igq.queries);
        // iGQ must never answer differently...
        assert_eq!(run.baseline.answers, run.igq.answers);
        // ...and never test more than the baseline.
        assert!(run.igq.iso_tests <= run.baseline.iso_tests);
        assert!(run.speedup(false) >= 1.0);
    }

    #[test]
    fn ratio_edge_cases() {
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert_eq!(ratio(10.0, 0.0), 10.0);
        assert!((ratio(10.0, 5.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_mapping() {
        use igq_graph::graph_from;
        let q3 = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bucket_of(&q3), 4);
        let q18 = graph_from(&[0; 19], &(0..18).map(|i| (i, i + 1)).collect::<Vec<_>>());
        assert_eq!(bucket_of(&q18), 20);
    }

    #[test]
    fn method_kinds_build_and_answer_identically() {
        let (store, queries) = tiny_setup();
        let answers = |kind: MethodKind, store: &Arc<GraphStore>| -> Vec<Vec<GraphId>> {
            let m = kind.build(store, 2);
            queries.iter().take(5).map(|q| m.query(q).0).collect()
        };
        let expected = answers(MethodKind::Ggsx, &store);
        for kind in [MethodKind::Grapes1, MethodKind::GrapesN, MethodKind::GCode] {
            assert_eq!(answers(kind, &store), expected, "{kind:?}");
        }
        // CT-Index's subtree enumeration is slow unoptimised: it indexes
        // the first graphs only, and must find exactly their answers.
        const CT_GRAPHS: usize = 20;
        let prefix: GraphStore = store
            .iter()
            .take(CT_GRAPHS)
            .map(|(_, g)| g.clone())
            .collect();
        let in_prefix = |ids: Vec<GraphId>| ids.into_iter().filter(|id| id.index() < CT_GRAPHS);
        let expected: Vec<Vec<GraphId>> = expected
            .into_iter()
            .map(|ids| in_prefix(ids).collect())
            .collect();
        assert!(expected.iter().any(|ids| !ids.is_empty()), "vacuous prefix");
        assert_eq!(answers(MethodKind::CtIndex, &Arc::new(prefix)), expected);
    }
}
