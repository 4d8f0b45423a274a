//! Plan-amortized batch verification shared by the filter-then-verify
//! methods.
//!
//! iGQ's whole contribution is shrinking the *number* of DB iso tests;
//! this module makes each surviving test cheap. A batch is verified with
//! per-query state built once:
//!
//! * one [`MatchPlan`] built from the precomputed label statistics of the
//!   **candidate batch itself** (summed over a sample of the candidates'
//!   store profiles, falling back to the store-wide
//!   [`GraphStore::label_frequency`] table for empty batches) —
//!   target-independent, shared by every candidate, and ranked for
//!   exactly the graphs that survived filtering rather than for the whole
//!   dataset;
//! * the query's [`GraphProfile`], powering the pre-verify screen
//!   ([`GraphProfile::may_contain`]: label-count + degree-sequence
//!   dominance) against each candidate's precomputed store profile — a
//!   rejected candidate never starts a search;
//! * the method's [`MatchConfig`], captured once per query instead of
//!   being rebuilt per `verify` call.
//!
//! The plan is built once per batch by one function (`acquire_plan`),
//! shared with Grapes' component-restricted batches. Queries do not share
//! plans: the only plans that outlive a query are the cached queries' own
//! `Isuper` probe plans, kept beside them in the engine's query index.
//!
//! # Touch-ahead
//!
//! On AIDS-sized targets a candidate costs more in cold memory than in
//! search: the matcher walks the target's labels, CSR arrays, label index
//! and bitset rows as dependent loads. So before a candidate is screened
//! and searched, the next one's arrays and store profile are read one
//! word per cache line ([`Graph::touch`], [`GraphProfile::touch`]); those
//! misses then overlap with the current search. Every run of candidates
//! goes through this one loop (`touching_ahead`): the serial batch, each
//! fan-out chunk, and so Grapes' component batches too. Only targets of
//! at most 64 vertices (those with bitset rows) are touched: a PDBS- or
//! PPI-sized target spans thousands of lines, most of which one search
//! never reads, and touching them all made PDBS verification slower.
//!
//! # Fan-out
//!
//! Every candidate's verdict is independent of the others, so one helper
//! (`verify_candidates`) verifies a batch on several workers: the plain
//! path (GGSX, CT-Index, gCode, Naive) on [`PlanSource::width`] workers,
//! Grapes on `min(k, width)`, its paper width `k` capped by the same
//! rule. The batch is cut into chunks of at most
//! `MAX_CHUNK` candidates that the workers claim from one cursor
//! ([`crate::par_map`]); they share the one plan and query profile,
//! outcomes come back index-aligned, and the per-chunk
//! [`VerifyBatchStats`] are merged, so a fanned-out batch reports exactly
//! what a serial one does apart from `scratch_allocs` and `fanouts`. The
//! engine decides the width with [`fanout_width`]: batches below
//! [`FANOUT_MIN_CANDIDATES`] and queries without an idle core verify
//! serially, and a fan-out never nests inside another.
//!
//! A serial batch searches on the caller's thread-local
//! [`MatchScratch`] ([`igq_iso::with_thread_scratch`]). A fan-out's
//! workers are fresh scoped threads, so each calling thread keeps a pool
//! of worker scratch instead (worker `i` searches on slot `i`), and every
//! slot a batch uses is first sized for the batch's largest target. So
//! `scratch_allocs` — scratch buffer growths — is zero in steady state on
//! both paths once the workload's largest query and target have been
//! seen. [`VerifyBatchStats`] reports that amortization evidence with
//! plans built and screen rejections, surfaced through `EngineStats` in
//! `igq-core`.

use crate::method::VerifyOutcome;
use igq_graph::fxhash::FxHashMap;
use igq_graph::{Graph, GraphId, GraphProfile, GraphStore, LabelId};
use igq_iso::plan::{matches_with_plan, MatchPlan, MatchScratch};
use igq_iso::{with_thread_scratch, MatchConfig};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Mutex, OnceLock};

/// Amortization accounting for one `verify_batch` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyBatchStats {
    /// Matching plans built (1 per query on the subgraph path, plus one
    /// per large candidate; one per candidate on the supergraph path,
    /// where the pattern varies).
    pub plan_builds: u64,
    /// Scratch buffer allocations/growths during the batch. Zero in
    /// steady state once the thread's workspace (or, for a fanned-out
    /// batch, its worker pool) has warmed up.
    pub scratch_allocs: u64,
    /// Candidates rejected by the pre-verify screen (label-count or
    /// degree-sequence dominance) without starting a search.
    pub preverify_rejections: u64,
    /// Batches verified on more than one worker.
    pub fanouts: u64,
}

impl VerifyBatchStats {
    /// Folds another batch's counters into this one.
    pub fn merge(&mut self, other: &VerifyBatchStats) {
        self.plan_builds += other.plan_builds;
        self.scratch_allocs += other.scratch_allocs;
        self.preverify_rejections += other.preverify_rejections;
        self.fanouts += other.fanouts;
    }
}

/// What the engine hands down the verification path: the width a batch
/// may fan out to. The lifetime parameter is part of the type's public
/// name and borrows nothing.
#[derive(Clone, Copy, Debug)]
pub struct PlanSource<'a> {
    /// Workers a batch may verify on ([`fanout_width`]); 1 verifies
    /// serially. Grapes verifies on the smaller of this and its `k`.
    pub width: usize,
    _borrows: PhantomData<&'a ()>,
}

impl PlanSource<'_> {
    /// A source allowing `width` workers.
    pub fn with_width(width: usize) -> Self {
        PlanSource {
            width,
            _borrows: PhantomData,
        }
    }
}

/// Smallest batch the engine fans out. Each extra worker costs one
/// scoped-thread spawn and join, about 31 µs on the 2-core reference box
/// (`par_map` over two trivial items); two workers save half the batch's
/// search time, at `methods.verify_us_per_candidate` ≈ 0.82–0.99 µs on
/// `aids_uniform_inproc` (seed 7, two traced runs with the flat label
/// index and the touch-ahead; 1.05–1.28 µs before them). They break even
/// near 2 × 31 / 0.99 ≈ 63 to 2 × 31 / 0.82 ≈ 76 candidates, so 64 now
/// sits at break-even rather than with a margin. In six alternating
/// benchmark pairs on that workload, 96 read a median 1 433 qps against
/// 64's 1 413, inside 64's quartile spread of 436, so 64 stays. Before
/// the touch-ahead, four pairs read 1 422 qps at 64 and 1 353 at 128,
/// against 1 142 serial.
pub const FANOUT_MIN_CANDIDATES: usize = 64;

/// Most candidates one claim takes: few enough that a thousand-candidate
/// batch still balances when a handful of its candidates dominate the
/// search time.
const MAX_CHUNK: usize = 16;

/// The fan-out's width rule: how many workers a batch of `candidates`
/// verifies on when `in_flight` queries (the caller's included) share a
/// machine with `cores` cores. Below [`FANOUT_MIN_CANDIDATES`], or with
/// no idle core, one; otherwise the query's own core plus every idle one,
/// `cores − (in_flight − 1)`. Never below 1.
pub fn fanout_width(cores: usize, in_flight: usize, candidates: usize) -> usize {
    if candidates < FANOUT_MIN_CANDIDATES {
        return 1;
    }
    cores.saturating_sub(in_flight.saturating_sub(1)).max(1)
}

/// [`std::thread::available_parallelism`], read once per process (it
/// queries the affinity mask and cgroup quota on every call).
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Target size (vertices) above which a candidate gets its own
/// target-ordered plan instead of the batch's shared plan. Small targets
/// (AIDS-style molecules) are searched in microseconds, so per-pair plan
/// construction used to dominate — the shared plan removes it. Large
/// targets (PDBS proteins, dense synthetics) are searched in hundreds of
/// microseconds and exploration-order quality dominates — only the
/// target's own label index ranks seeds correctly there, and the
/// µs-scale plan build is noise against the search it steers.
pub const PER_TARGET_PLAN_MIN_VERTICES: usize = 128;

/// Adaptive search: the shared batch plan for small targets, a fresh
/// target-ordered plan (counted in `stats.plan_builds`) for targets of at
/// least [`PER_TARGET_PLAN_MIN_VERTICES`] vertices. Scratch is reused
/// either way.
pub fn matches_adaptive(
    shared: &MatchPlan,
    pattern: &Graph,
    target: &Graph,
    scratch: &mut MatchScratch,
    stats: &mut VerifyBatchStats,
) -> VerifyOutcome {
    let (verdict, states) = if target.vertex_count() >= PER_TARGET_PLAN_MIN_VERTICES {
        stats.plan_builds += 1;
        let plan = MatchPlan::for_target(pattern, target, shared.config());
        matches_with_plan(&plan, target, scratch)
    } else {
        matches_with_plan(shared, target, scratch)
    };
    VerifyOutcome {
        contains: verdict.is_found(),
        aborted: verdict.is_aborted(),
        states,
    }
}

/// How many candidate profiles feed the batch-level label statistic. The
/// ordering heuristic needs relative rarity, not exact sums, so a sample
/// keeps plan seeding O(1)-ish even for thousand-candidate batches.
const RARITY_SAMPLE: usize = 64;

/// Label rarity aggregated over (a sample of) the batch's candidate
/// profiles — the statistic that ranks plan seeds for exactly the graphs
/// about to be searched. Empty batches fall back to the store-wide table.
pub fn batch_label_rarity<'s>(
    store: &'s GraphStore,
    candidates: &[GraphId],
) -> impl Fn(LabelId) -> u64 + 's {
    let mut totals: FxHashMap<LabelId, u64> = FxHashMap::default();
    let step = (candidates.len() / RARITY_SAMPLE).max(1);
    for &id in candidates.iter().step_by(step).take(RARITY_SAMPLE) {
        for &(l, c) in store.profile(id).label_counts() {
            *totals.entry(l).or_insert(0) += c as u64;
        }
    }
    move |l: LabelId| {
        if totals.is_empty() {
            store.label_frequency(l)
        } else {
            totals.get(&l).copied().unwrap_or(0)
        }
    }
}

/// The query's shared plan for one batch, ranked by
/// [`batch_label_rarity`] and counted in `stats.plan_builds`.
pub(crate) fn acquire_plan(
    store: &GraphStore,
    q: &Graph,
    config: &MatchConfig,
    candidates: &[GraphId],
    stats: &mut VerifyBatchStats,
) -> MatchPlan {
    stats.plan_builds += 1;
    MatchPlan::build(q, config, &mut batch_label_rarity(store, candidates))
}

thread_local! {
    /// The scratch this thread lends to the workers of its fan-outs
    /// (worker `i` searches on slot `i`). The workers are fresh scoped
    /// threads, so their own thread-local scratch would be cold in every
    /// batch; the pool keeps it warm across the caller's queries.
    static WORKER_SCRATCH: RefCell<Vec<Mutex<MatchScratch>>> = const { RefCell::new(Vec::new()) };
}

/// Panic message for a worker-scratch slot whose worker panicked.
const WORKER_PANICKED: &str = "a verification worker panicked holding its scratch";

/// Runs `verify` over `ids` in order, touching candidate `i + 1`'s graph
/// and store profile before candidate `i` is verified (see "Touch-ahead"
/// in the module docs). One ahead: two and four ahead were no faster.
fn touching_ahead(
    store: &GraphStore,
    ids: &[GraphId],
    mut verify: impl FnMut(GraphId) -> VerifyOutcome,
) -> Vec<VerifyOutcome> {
    ids.iter()
        .enumerate()
        .map(|(i, &id)| {
            if let Some(&next) = ids.get(i + 1) {
                store.get(next).touch();
                store.profile(next).touch();
            }
            verify(id)
        })
        .collect()
}

/// Verifies `candidates` against the query `q` on up to `width` workers,
/// returning index-aligned outcomes: each candidate is screened against
/// the query's profile, and a survivor is decided by `search` on a
/// scratch the helper supplies and accounts in `stats.scratch_allocs`.
/// A batch too small to split, a width of 1 and a call from inside
/// another fan-out all run serially on the thread's own scratch.
pub(crate) fn verify_candidates(
    store: &GraphStore,
    q: &Graph,
    candidates: &[GraphId],
    width: usize,
    stats: &mut VerifyBatchStats,
    search: impl Fn(GraphId, &mut MatchScratch, &mut VerifyBatchStats) -> VerifyOutcome + Sync,
) -> Vec<VerifyOutcome> {
    let query_profile = GraphProfile::of(q);
    let verify = |id: GraphId, scratch: &mut MatchScratch, stats: &mut VerifyBatchStats| {
        if !store.profile(id).may_contain(&query_profile) {
            stats.preverify_rejections += 1;
            return VerifyOutcome::REJECTED;
        }
        let before = scratch.alloc_events();
        let out = search(id, scratch, stats);
        stats.scratch_allocs += scratch.alloc_events() - before;
        out
    };
    let width = width.max(1);
    // At least four chunks per worker, so a worker stuck on a slow chunk
    // leaves the rest to the others.
    let chunk = (candidates.len() / (4 * width)).clamp(1, MAX_CHUNK);
    let chunks = candidates.len().div_ceil(chunk);
    let workers = crate::par::workers(chunks, width);
    if workers == 1 {
        return with_thread_scratch(|scratch| {
            touching_ahead(store, candidates, |id| verify(id, scratch, stats))
        });
    }
    // Which chunks a worker claims depends on scheduling, so every slot
    // in use is first sized for the batch's largest target (a Grapes
    // component is no larger than its graph).
    let max_target = candidates
        .iter()
        .map(|&id| store.get(id).vertex_count())
        .max()
        .unwrap_or(0);
    let mut pool = WORKER_SCRATCH.take();
    if pool.len() < workers {
        pool.resize_with(workers, Mutex::default);
    }
    for slot in &mut pool[..workers] {
        let scratch = slot.get_mut().expect(WORKER_PANICKED);
        let before = scratch.alloc_events();
        scratch.reserve(q.vertex_count(), max_target);
        stats.scratch_allocs += scratch.alloc_events() - before;
    }
    let verified = crate::par_map(chunks, workers, |worker, c| {
        let scratch = &mut *pool[worker].lock().expect(WORKER_PANICKED);
        let mut local = VerifyBatchStats::default();
        let run = &candidates[c * chunk..candidates.len().min((c + 1) * chunk)];
        let outcomes = touching_ahead(store, run, |id| verify(id, scratch, &mut local));
        (outcomes, local)
    });
    WORKER_SCRATCH.set(pool);
    stats.fanouts += 1;
    let mut outcomes = Vec::with_capacity(candidates.len());
    for (chunk_outcomes, local) in verified {
        stats.merge(&local);
        outcomes.extend(chunk_outcomes);
    }
    outcomes
}

/// The standard plan-amortized batch body used by every method whose
/// verification is a plain VF2 test against the stored candidate (GGSX,
/// CT-Index, gCode, Naive): one plan, one profile, one serial pass over
/// the candidates on the thread's scratch.
pub fn verify_batch_plain(
    store: &GraphStore,
    q: &Graph,
    config: &MatchConfig,
    candidates: &[GraphId],
) -> (Vec<VerifyOutcome>, VerifyBatchStats) {
    verify_batch_plain_with(store, q, config, candidates, None)
}

/// [`verify_batch_plain`] with the engine's [`PlanSource`]: the batch
/// fans out to [`PlanSource::width`] workers, sharing one plan.
pub fn verify_batch_plain_with(
    store: &GraphStore,
    q: &Graph,
    config: &MatchConfig,
    candidates: &[GraphId],
    plans: Option<PlanSource<'_>>,
) -> (Vec<VerifyOutcome>, VerifyBatchStats) {
    if candidates.is_empty() {
        // Nothing to verify: skip the per-query setup (plan ordering,
        // profile, screen) entirely — fully pruned queries are iGQ's best
        // case.
        return (Vec::new(), VerifyBatchStats::default());
    }
    let mut stats = VerifyBatchStats::default();
    let plan = acquire_plan(store, q, config, candidates, &mut stats);
    let width = plans.map_or(1, |p| p.width);
    let outcomes = verify_candidates(store, q, candidates, width, &mut stats, |id, s, stats| {
        matches_adaptive(&plan, q, store.get(id), s, stats)
    });
    (outcomes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;
    use std::sync::Arc;

    fn store() -> Arc<GraphStore> {
        Arc::new(
            vec![
                graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
                graph_from(&[0, 1], &[(0, 1)]),
                graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),
                graph_from(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3)]),
            ]
            .into_iter()
            .collect(),
        )
    }

    #[test]
    fn prescreen_rejects_without_search() {
        let s = store();
        // Query needs a degree-3 vertex: no store graph has one.
        let star = graph_from(&[0, 1, 0, 2], &[(0, 1), (0, 2), (0, 3)]);
        let all: Vec<GraphId> = s.ids().collect();
        let (outcomes, stats) = verify_batch_plain(&s, &star, &MatchConfig::default(), &all);
        assert!(outcomes.iter().all(|o| !o.contains && o.states == 0));
        assert_eq!(stats.preverify_rejections, all.len() as u64);
    }

    #[test]
    fn scratch_allocs_settle_to_zero() {
        let s = store();
        let all: Vec<GraphId> = s.ids().collect();
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let config = MatchConfig::default();
        let _ = verify_batch_plain(&s, &q, &config, &all); // warm the thread scratch
        let (_, stats) = verify_batch_plain(&s, &q, &config, &all);
        assert_eq!(
            stats.scratch_allocs, 0,
            "warm steady state allocates nothing"
        );
    }

    /// A fanned-out batch warms its calling thread's worker pool once;
    /// repeating it allocates nothing, and its plan is built once.
    #[test]
    fn fanned_out_scratch_allocs_settle_to_zero() {
        let s = store();
        let batch: Vec<GraphId> = s.ids().cycle().take(3 * MAX_CHUNK).collect();
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let config = MatchConfig::default();
        let plans = Some(PlanSource::with_width(2));
        let (serial, _) = verify_batch_plain(&s, &q, &config, &batch);
        let (cold, cold_stats) = verify_batch_plain_with(&s, &q, &config, &batch, plans);
        let (warm, warm_stats) = verify_batch_plain_with(&s, &q, &config, &batch, plans);
        assert_eq!((cold, warm), (serial.clone(), serial));
        assert_eq!(cold_stats.fanouts, 1);
        assert_eq!(cold_stats.plan_builds, 1);
        assert_eq!(warm_stats.plan_builds, 1);
        assert_eq!(warm_stats.scratch_allocs, 0, "worker pool stays warm");
    }

    /// The width rule: one worker below the threshold or without an idle
    /// core, otherwise the caller's core plus every idle one.
    #[test]
    fn fanout_width_table() {
        let below = FANOUT_MIN_CANDIDATES - 1;
        let at = FANOUT_MIN_CANDIDATES;
        // (cores, in flight, candidates, width)
        let table = [
            (1, 1, below, 1),
            (1, 1, at, 1),
            (1, 2, at, 1),
            (1, 3, at, 1),
            (2, 1, below, 1),
            (2, 1, at, 2),
            (2, 2, below, 1),
            (2, 2, at, 1),
            (2, 3, at, 1),
            (4, 1, below, 1),
            (4, 1, at, 4),
            (4, 2, below, 1),
            (4, 2, at, 3),
            (4, 3, at, 2),
            (4, 5, at, 1),
            (4, 0, at, 4),
        ];
        for (cores, in_flight, candidates, width) in table {
            let got = fanout_width(cores, in_flight, candidates);
            assert_eq!(
                got, width,
                "cores {cores}, in flight {in_flight}, {candidates} candidates"
            );
            let idle = cores > in_flight.max(1);
            assert!(got >= 1);
            assert_eq!(got > 1, idle && candidates >= FANOUT_MIN_CANDIDATES);
        }
    }
}
