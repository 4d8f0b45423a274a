//! Plan-amortized batch verification shared by the filter-then-verify
//! methods.
//!
//! iGQ's whole contribution is shrinking the *number* of DB iso tests;
//! this module makes each surviving test cheap. A [`BatchVerifier`] is
//! constructed once per query and carries:
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
//! When the caller passes a [`PlanSource`] (the engine's canonical-code
//! [`PlanCache`] plus the query's code), a repeated query reuses its
//! cached plan — the build is skipped entirely and `plan_builds` stays 0
//! for the batch. That cache-or-build step is one function
//! (`acquire_plan`), shared with Grapes' component-restricted batches.
//!
//! The caller supplies a [`MatchScratch`] (usually the thread-local one
//! via [`igq_iso::with_thread_scratch`]), so the steady-state loop is
//! allocation-free. [`VerifyBatchStats`] reports the amortization
//! evidence: plans built, scratch buffer growths, and screen rejections —
//! surfaced through `EngineStats` in `igq-core`.

use crate::method::VerifyOutcome;
use igq_graph::canon::CanonicalCode;
use igq_graph::fxhash::FxHashMap;
use igq_graph::{Graph, GraphId, GraphProfile, GraphStore, LabelId};
use igq_iso::plan::{matches_with_plan, MatchPlan, MatchScratch};
use igq_iso::plan_cache::PlanCache;
use igq_iso::{with_thread_scratch, MatchConfig};
use std::sync::Arc;

/// Amortization accounting for one `verify_batch` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyBatchStats {
    /// Matching plans built (0 on a plan-cache hit, 1 per query otherwise
    /// on the subgraph path; one per candidate on the supergraph path,
    /// where the pattern varies).
    pub plan_builds: u64,
    /// Scratch buffer allocations/growths during the batch. Zero in
    /// steady state once the thread's workspace has warmed up.
    pub scratch_allocs: u64,
    /// Candidates rejected by the pre-verify screen (label-count or
    /// degree-sequence dominance) without starting a search.
    pub preverify_rejections: u64,
    /// Batches whose shared plan came from the canonical-code plan cache.
    pub plan_cache_hits: u64,
    /// Batches that consulted the plan cache and had to (re)build.
    pub plan_cache_misses: u64,
}

impl VerifyBatchStats {
    /// Folds another batch's counters into this one.
    pub fn merge(&mut self, other: &VerifyBatchStats) {
        self.plan_builds += other.plan_builds;
        self.scratch_allocs += other.scratch_allocs;
        self.preverify_rejections += other.preverify_rejections;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
    }
}

/// A borrowed handle to the engine's canonical-code plan cache, handed
/// down the verification path so a batch can reuse the query's plan
/// across repeats. `key` is the query's canonical code when it has one (a
/// query `canonical_code` declines — over 128 vertices, or still out of
/// leaves after orbit pruning — simply plans fresh: a missed
/// optimization, never an error).
#[derive(Clone, Copy)]
pub struct PlanSource<'a> {
    /// The shared, internally synchronized plan cache.
    pub cache: &'a PlanCache,
    /// The query's canonical code, if canonicalizable.
    pub key: Option<&'a CanonicalCode>,
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
) -> (igq_iso::Verdict, u64) {
    if target.vertex_count() >= PER_TARGET_PLAN_MIN_VERTICES {
        stats.plan_builds += 1;
        let plan = MatchPlan::for_target(pattern, target, shared.config());
        matches_with_plan(&plan, target, scratch)
    } else {
        matches_with_plan(shared, target, scratch)
    }
}

/// Per-query verification state for a batch of store candidates: plan,
/// query profile, and match configuration, all built exactly once (the
/// plan possibly zero times, via the cache).
pub struct BatchVerifier<'a> {
    store: &'a GraphStore,
    query: &'a Graph,
    plan: Arc<MatchPlan>,
    query_profile: GraphProfile,
    stats: VerifyBatchStats,
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

/// The query's shared plan for one batch: served from `plans`' cache when
/// the query has a canonical code (counting the hit or miss), built fresh
/// otherwise, ranked by [`batch_label_rarity`] either way. Every build is
/// counted in `stats.plan_builds`.
pub(crate) fn acquire_plan(
    store: &GraphStore,
    q: &Graph,
    config: &MatchConfig,
    candidates: &[GraphId],
    plans: Option<PlanSource<'_>>,
    stats: &mut VerifyBatchStats,
) -> Arc<MatchPlan> {
    let mut rarity = batch_label_rarity(store, candidates);
    match plans {
        Some(PlanSource {
            cache,
            key: Some(key),
        }) => {
            let (plan, hit) = cache.get_or_build(key, q, config, &mut rarity);
            if hit {
                stats.plan_cache_hits += 1;
            } else {
                stats.plan_cache_misses += 1;
                stats.plan_builds += 1;
            }
            plan
        }
        _ => {
            stats.plan_builds += 1;
            Arc::new(MatchPlan::build(q, config, &mut rarity))
        }
    }
}

impl<'a> BatchVerifier<'a> {
    /// Builds the per-query state: one plan (ordered by the candidate
    /// batch's aggregated label rarity), one profile, one captured config.
    /// With `plans`, the engine's plan cache is consulted first: a fresh
    /// cached plan for the query's canonical code skips the build entirely
    /// (`plan_builds` stays 0, `plan_cache_hits` becomes 1). Without a
    /// cache, [`verify_batch_plain`] is the usual entry.
    pub fn with_plans(
        store: &'a GraphStore,
        q: &'a Graph,
        config: &MatchConfig,
        candidates: &[GraphId],
        plans: Option<PlanSource<'_>>,
    ) -> BatchVerifier<'a> {
        let mut stats = VerifyBatchStats::default();
        let plan = acquire_plan(store, q, config, candidates, plans, &mut stats);
        BatchVerifier {
            store,
            query: q,
            plan,
            query_profile: GraphProfile::of(q),
            stats,
        }
    }

    /// Verifies one candidate: pre-verify screen, then the plan-amortized
    /// search through `scratch`. Zero heap allocations.
    pub fn verify(&mut self, candidate: GraphId, scratch: &mut MatchScratch) -> VerifyOutcome {
        if !self
            .store
            .profile(candidate)
            .may_contain(&self.query_profile)
        {
            self.stats.preverify_rejections += 1;
            return VerifyOutcome {
                contains: false,
                aborted: false,
                states: 0,
            };
        }
        let before = scratch.alloc_events();
        let (verdict, states) = matches_adaptive(
            &self.plan,
            self.query,
            self.store.get(candidate),
            scratch,
            &mut self.stats,
        );
        self.stats.scratch_allocs += scratch.alloc_events() - before;
        VerifyOutcome {
            contains: verdict.is_found(),
            aborted: verdict.is_aborted(),
            states,
        }
    }

    /// The batch's accounting.
    pub fn finish(self) -> VerifyBatchStats {
        self.stats
    }
}

/// The standard plan-amortized batch body used by every method whose
/// verification is a plain VF2 test against the stored candidate (GGSX,
/// CT-Index, gCode, Naive): one [`BatchVerifier`], the thread's scratch,
/// one pass over the candidates.
pub fn verify_batch_plain(
    store: &GraphStore,
    q: &Graph,
    config: &MatchConfig,
    candidates: &[GraphId],
) -> (Vec<VerifyOutcome>, VerifyBatchStats) {
    verify_batch_plain_with(store, q, config, candidates, None)
}

/// [`verify_batch_plain`] with a plan-cache handle: the shared plan comes
/// from the cache on repeats.
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
    let mut verifier = BatchVerifier::with_plans(store, q, config, candidates, plans);
    let outcomes = with_thread_scratch(|scratch| {
        candidates
            .iter()
            .map(|&id| verifier.verify(id, scratch))
            .collect()
    });
    (outcomes, verifier.finish())
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
    fn plan_cache_path_is_observationally_identical() {
        let s = store();
        let all: Vec<GraphId> = s.ids().collect();
        let config = MatchConfig::default();
        let cache = igq_iso::PlanCache::new(64);
        let q = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let key = igq_graph::canon::canonical_code(&q).unwrap();
        let plans = PlanSource {
            cache: &cache,
            key: Some(&key),
        };
        let (baseline, _) = verify_batch_plain(&s, &q, &config, &all);

        let (cold, cold_stats) = verify_batch_plain_with(&s, &q, &config, &all, Some(plans));
        assert_eq!(cold, baseline);
        assert_eq!(cold_stats.plan_cache_misses, 1);
        assert_eq!(cold_stats.plan_builds, 1);

        let (warm, warm_stats) = verify_batch_plain_with(&s, &q, &config, &all, Some(plans));
        assert_eq!(warm, baseline, "cached plan changes no verdict");
        assert_eq!(warm_stats.plan_cache_hits, 1);
        assert_eq!(warm_stats.plan_builds, 0, "hit skips the build");
    }

    #[test]
    fn missing_code_plans_fresh() {
        let s = store();
        let all: Vec<GraphId> = s.ids().collect();
        let cache = igq_iso::PlanCache::new(64);
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let plans = PlanSource {
            cache: &cache,
            key: None,
        };
        let (_, stats) =
            verify_batch_plain_with(&s, &q, &MatchConfig::default(), &all, Some(plans));
        assert_eq!(stats.plan_builds, 1);
        assert_eq!(stats.plan_cache_hits + stats.plan_cache_misses, 0);
        assert!(cache.is_empty());
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
}
