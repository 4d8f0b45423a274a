//! The filter-then-verify method abstraction.
//!
//! iGQ "can be incorporated into any sub/supergraph query processing
//! method" (paper abstract); [`SubgraphMethod`] is that plug point. A method
//! owns its dataset index, produces a *candidate set* with no false
//! negatives ([`SubgraphMethod::filter`]), and decides individual candidates
//! with a subgraph-isomorphism test ([`SubgraphMethod::verify`]).

use igq_features::{LabelSeq, PathFeatures};
use igq_graph::{Graph, GraphId, GraphStore};
use igq_iso::MatchConfig;

/// Query-scoped data computed during filtering and reused during
/// verification (e.g. Grapes needs the query's path features to look up
/// location info per candidate).
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    /// The query's canonical path features with occurrence counts. Set by
    /// Grapes' filter (its location-aware verifier is the one reader).
    pub path_features: Option<Vec<(LabelSeq, u32)>>,
}

/// Output of the filtering stage.
#[derive(Debug, Clone)]
pub struct Filtered {
    /// Candidate graph ids, sorted ascending, no duplicates, and —
    /// critically — containing every true answer (no false negatives).
    pub candidates: Vec<GraphId>,
    /// Reusable query-scoped context.
    pub context: QueryContext,
}

impl Filtered {
    /// A candidate set with no context.
    pub fn new(candidates: Vec<GraphId>) -> Filtered {
        debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
        Filtered {
            candidates,
            context: QueryContext::default(),
        }
    }
}

/// Verdict of verifying one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// True when the candidate contains the query.
    pub contains: bool,
    /// True when the engine aborted on budget (then `contains` is `false`
    /// but the candidate must be treated as *undecided* by callers that
    /// care about exactness).
    pub aborted: bool,
    /// Search states explored.
    pub states: u64,
}

impl VerifyOutcome {
    /// A candidate decided without a search (screened out, or too small
    /// to host the query): not contained, no states.
    pub(crate) const REJECTED: VerifyOutcome = VerifyOutcome {
        contains: false,
        aborted: false,
        states: 0,
    };

    pub(crate) fn from_match(r: &igq_iso::semantics::MatchResult) -> VerifyOutcome {
        VerifyOutcome {
            contains: r.outcome.is_found(),
            aborted: matches!(r.outcome, igq_iso::Outcome::Aborted),
            states: r.states,
        }
    }
}

/// A filter-then-verify subgraph query processing method.
///
/// # Contract
///
/// * `filter` never excludes a true answer (`g ⊆ Gi ⇒ Gi ∈ candidates`);
/// * `verify(q, ctx, id)` decides `q ⊆ store()[id]` exactly (up to an
///   explicitly configured abort budget); the provided default does so
///   with one per-pair test, so an implementation needs only `name`,
///   `store`, `filter` and `index_size_bytes`;
/// * `candidates` are sorted ascending.
pub trait SubgraphMethod: Send + Sync {
    /// Short human-readable name ("GGSX", "Grapes(6)", ...).
    fn name(&self) -> String;

    /// The dataset this method indexes.
    fn store(&self) -> &GraphStore;

    /// The filtering stage: produce candidates for query `q`.
    fn filter(&self, q: &Graph) -> Filtered;

    /// Filtering with the query's path features already extracted (the iGQ
    /// engine enumerates them once and shares them with its index probes).
    /// Path-feature methods override this to skip their own enumeration;
    /// the default ignores the hint and delegates to [`Self::filter`].
    ///
    /// `features` may have been extracted under a different [`PathConfig`]
    /// than the method's own index: implementations must stay sound (no
    /// false negatives) for any exhaustively enumerated feature set, e.g.
    /// by ignoring features longer than their indexed depth.
    ///
    /// [`PathConfig`]: igq_features::PathConfig
    fn filter_with_features(&self, q: &Graph, features: Option<&PathFeatures>) -> Filtered {
        let _ = features;
        self.filter(q)
    }

    /// The verification stage for a single candidate. The default is one
    /// per-pair test of `q` against `store()[candidate]` under
    /// [`Self::match_config`] ([`igq_iso::find_one`]); methods whose
    /// verification is not a plain test against the stored graph (Grapes'
    /// component restriction) override it.
    fn verify(&self, q: &Graph, context: &QueryContext, candidate: GraphId) -> VerifyOutcome {
        let _ = context;
        let target = self.store().get(candidate);
        VerifyOutcome::from_match(&igq_iso::find_one(q, target, &self.match_config()))
    }

    /// Approximate index footprint in bytes (Figure 18).
    fn index_size_bytes(&self) -> u64;

    /// The iso-engine configuration used in verification.
    fn match_config(&self) -> MatchConfig {
        MatchConfig::default()
    }

    /// The primary verification entry point: verifies many candidates,
    /// returning index-aligned outcomes plus the batch's amortization
    /// accounting ([`VerifyBatchStats`]). Built-in methods override this
    /// with the plan-amortized hot path (one [`MatchPlan`] per query —
    /// or zero, when `plans` carries the engine's canonical-code plan
    /// cache and the query is a repeat — thread-local scratch, profile
    /// pre-verify screening); the default ignores `plans` and walks
    /// [`Self::verify`] sequentially so external implementations stay
    /// correct unmodified.
    ///
    /// [`MatchPlan`]: igq_iso::MatchPlan
    /// [`VerifyBatchStats`]: crate::batch::VerifyBatchStats
    fn verify_batch_with_plans(
        &self,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
        plans: Option<crate::batch::PlanSource<'_>>,
    ) -> (Vec<VerifyOutcome>, crate::batch::VerifyBatchStats) {
        let _ = plans;
        let outcomes = candidates
            .iter()
            .map(|&id| self.verify(q, context, id))
            .collect();
        (outcomes, crate::batch::VerifyBatchStats::default())
    }

    /// [`Self::verify_batch_with_plans`] without a plan-cache handle.
    fn verify_batch_with(
        &self,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
    ) -> (Vec<VerifyOutcome>, crate::batch::VerifyBatchStats) {
        self.verify_batch_with_plans(q, context, candidates, None)
    }

    /// Verifies many candidates, discarding the batch accounting. The
    /// output is index-aligned with `candidates`.
    fn verify_batch(
        &self,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
    ) -> Vec<VerifyOutcome> {
        self.verify_batch_with(q, context, candidates).0
    }

    /// Convenience: full query = filter + verify-all, routed through
    /// [`Self::verify_batch`] so method overrides (plan amortization,
    /// Grapes(k) parallel verification) apply here too. Returns the answer
    /// ids (sorted) and the number of verification tests performed.
    fn query(&self, q: &Graph) -> (Vec<GraphId>, u64) {
        let filtered = self.filter(q);
        let outcomes = self.verify_batch(q, &filtered.context, &filtered.candidates);
        let answers = filtered
            .candidates
            .iter()
            .zip(outcomes.iter())
            .filter(|(_, o)| o.contains)
            .map(|(&id, _)| id)
            .collect();
        (answers, filtered.candidates.len() as u64)
    }
}

/// Forwarding impl so harness code can treat `Box<dyn SubgraphMethod>`
/// uniformly (e.g. hand it to the iGQ engine).
impl SubgraphMethod for Box<dyn SubgraphMethod> {
    fn name(&self) -> String {
        self.as_ref().name()
    }
    fn store(&self) -> &GraphStore {
        self.as_ref().store()
    }
    fn filter(&self, q: &Graph) -> Filtered {
        self.as_ref().filter(q)
    }
    fn filter_with_features(&self, q: &Graph, features: Option<&PathFeatures>) -> Filtered {
        self.as_ref().filter_with_features(q, features)
    }
    fn verify(&self, q: &Graph, context: &QueryContext, candidate: GraphId) -> VerifyOutcome {
        self.as_ref().verify(q, context, candidate)
    }
    fn verify_batch_with_plans(
        &self,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
        plans: Option<crate::batch::PlanSource<'_>>,
    ) -> (Vec<VerifyOutcome>, crate::batch::VerifyBatchStats) {
        self.as_ref()
            .verify_batch_with_plans(q, context, candidates, plans)
    }
    fn verify_batch_with(
        &self,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
    ) -> (Vec<VerifyOutcome>, crate::batch::VerifyBatchStats) {
        self.as_ref().verify_batch_with(q, context, candidates)
    }
    fn verify_batch(
        &self,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
    ) -> Vec<VerifyOutcome> {
        self.as_ref().verify_batch(q, context, candidates)
    }
    fn index_size_bytes(&self) -> u64 {
        self.as_ref().index_size_bytes()
    }
    fn match_config(&self) -> MatchConfig {
        self.as_ref().match_config()
    }
}

/// Skew ratio beyond which the sorted set operations switch from linear
/// merge to galloping (exponential search) over the larger side. Below it
/// the merge's perfect locality wins; above it the `O(s · log(l/s))`
/// gallop does.
const GALLOP_SKEW: usize = 8;

/// Exponential ("galloping") lower-bound search: the first index `>= from`
/// in the sorted slice `s` whose element is `>= x`. `O(log d)` where `d`
/// is the distance from `from` to the answer — the engine's Formula (5)
/// loop walks a cursor forward, so successive calls touch only the gap.
fn gallop_lower_bound<T: Ord>(s: &[T], from: usize, x: &T) -> usize {
    if from >= s.len() || s[from] >= *x {
        return from;
    }
    let mut step = 1;
    let mut lo = from;
    // Invariant: s[lo] < x. Double until the window covers the answer.
    while lo + step < s.len() && s[lo + step] < *x {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step + 1).min(s.len());
    lo + 1 + s[lo + 1..hi].partition_point(|e| e < x)
}

/// Computes the sorted intersection of `a` and `b` (both sorted) into
/// `out` (cleared first), with set semantics: each common value appears
/// once even if an input carries duplicates. Galloping over the larger
/// side when the sizes are skewed by more than `GALLOP_SKEW` (8); linear
/// merge otherwise. Reuse `out` across calls to keep the hot path
/// allocation-free.
pub fn intersect_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    out.clear();
    // Intersection is symmetric: gallop with the smaller side driving.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if large.len() >= GALLOP_SKEW * small.len().max(1) {
        let mut cursor = 0;
        for &x in small {
            if out.last() == Some(&x) {
                continue; // duplicate in the driving side
            }
            cursor = gallop_lower_bound(large, cursor, &x);
            if cursor >= large.len() {
                break;
            }
            if large[cursor] == x {
                out.push(x);
            }
        }
        return;
    }
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if out.last() != Some(&small[i]) {
                    out.push(small[i]);
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Computes the sorted difference `a \ b` (both sorted) into `out`
/// (cleared first). Elements of `a` are kept in order; galloping over `b`
/// when it is much larger than `a`.
pub fn subtract_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    out.clear();
    if b.len() >= GALLOP_SKEW * a.len().max(1) {
        let mut cursor = 0;
        for &x in a {
            cursor = gallop_lower_bound(b, cursor, &x);
            if cursor >= b.len() || b[cursor] != x {
                out.push(x);
            }
        }
        return;
    }
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
}

/// Computes the sorted intersection of `a` (sorted) and `b` (sorted).
pub fn intersect_sorted(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_into(a, b, &mut out);
    out
}

/// Computes the sorted difference `a \ b` (both sorted).
pub fn subtract_sorted(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    let mut out = Vec::with_capacity(a.len());
    subtract_into(a, b, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<GraphId> {
        raw.iter().map(|&r| GraphId::new(r)).collect()
    }

    #[test]
    fn intersect() {
        assert_eq!(
            intersect_sorted(&ids(&[1, 3, 5, 7]), &ids(&[2, 3, 5, 8])),
            ids(&[3, 5])
        );
        assert_eq!(intersect_sorted(&ids(&[]), &ids(&[1])), ids(&[]));
        assert_eq!(intersect_sorted(&ids(&[1, 2]), &ids(&[1, 2])), ids(&[1, 2]));
    }

    #[test]
    fn subtract() {
        assert_eq!(
            subtract_sorted(&ids(&[1, 2, 3, 4]), &ids(&[2, 4])),
            ids(&[1, 3])
        );
        assert_eq!(subtract_sorted(&ids(&[1, 2]), &ids(&[])), ids(&[1, 2]));
        assert_eq!(
            subtract_sorted(&ids(&[1, 2]), &ids(&[0, 1, 2, 9])),
            ids(&[])
        );
    }

    #[test]
    fn gallop_intersect_edge_cases() {
        let mut out = Vec::new();
        // Empty sides.
        intersect_into::<u32>(&[], &[], &mut out);
        assert!(out.is_empty());
        intersect_into(&[1u32, 2, 3], &[], &mut out);
        assert!(out.is_empty());
        intersect_into(&[], &[1u32, 2, 3], &mut out);
        assert!(out.is_empty());
        // Disjoint (skew triggers galloping: 2 vs 40 elements).
        let big: Vec<u32> = (100..140).collect();
        intersect_into(&[1u32, 2], &big, &mut out);
        assert!(out.is_empty());
        // Subset at the boundaries of the larger side.
        intersect_into(&[100u32, 139], &big, &mut out);
        assert_eq!(out, vec![100, 139]);
        // Full subset.
        intersect_into(&big, &big, &mut out);
        assert_eq!(out, big);
        // Duplicates at boundaries collapse to set semantics.
        intersect_into(&[5u32, 5, 9, 9], &[5u32, 9], &mut out);
        assert_eq!(out, vec![5, 9]);
        intersect_into(&[5u32, 9], &[5u32, 5, 9, 9], &mut out);
        assert_eq!(out, vec![5, 9]);
        // Buffer is cleared between calls.
        intersect_into(&[1u32], &[2u32], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn gallop_subtract_edge_cases() {
        let mut out = Vec::new();
        subtract_into::<u32>(&[], &[], &mut out);
        assert!(out.is_empty());
        subtract_into(&[1u32, 2], &[], &mut out);
        assert_eq!(out, vec![1, 2]);
        // b much larger (galloping path), removals at both boundaries.
        let big: Vec<u32> = (0..64).collect();
        subtract_into(&[0u32, 31, 63], &big, &mut out);
        assert!(out.is_empty());
        subtract_into(&[0u32, 64, 100], &big, &mut out);
        assert_eq!(out, vec![64, 100]);
        // Disjoint.
        subtract_into(&[200u32, 300], &big, &mut out);
        assert_eq!(out, vec![200, 300]);
    }

    #[test]
    fn gallop_paths_agree_with_linear_merge() {
        // Cross-check the galloping branch against the merge branch on a
        // skewed instance with hits and misses interleaved.
        let large: Vec<u32> = (0..500).filter(|x| x % 3 != 1).collect();
        let small: Vec<u32> = vec![0, 1, 7, 100, 101, 499];
        let mut gallop = Vec::new();
        intersect_into(&small, &large, &mut gallop); // skew >= 8: gallops
        let merged: Vec<u32> = small
            .iter()
            .copied()
            .filter(|x| large.binary_search(x).is_ok())
            .collect();
        assert_eq!(gallop, merged);
        let mut sub = Vec::new();
        subtract_into(&small, &large, &mut sub);
        let subtracted: Vec<u32> = small
            .iter()
            .copied()
            .filter(|x| large.binary_search(x).is_err())
            .collect();
        assert_eq!(sub, subtracted);
    }

    #[test]
    fn verify_outcome_from_match() {
        use igq_iso::semantics::MatchResult;
        let found = MatchResult {
            outcome: igq_iso::Outcome::Found(vec![]),
            states: 3,
        };
        let o = VerifyOutcome::from_match(&found);
        assert!(o.contains && !o.aborted && o.states == 3);
        let aborted = MatchResult {
            outcome: igq_iso::Outcome::Aborted,
            states: 9,
        };
        let o = VerifyOutcome::from_match(&aborted);
        assert!(!o.contains && o.aborted);
    }
}
