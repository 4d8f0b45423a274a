//! The sub/super **direction** of the unified query pipeline.
//!
//! The paper's Section 4.4 observation — "the elegance afforded by the
//! double use of iGQ is unique" — is that subgraph and supergraph query
//! processing run the *same* engine with the roles of the two query
//! indexes swapped. [`crate::Engine`] implements the pipeline once,
//! generically over a [`QueryDirection`]:
//!
//! * [`SubgraphQueries<M>`] — `Answer(g) = {Gi : g ⊆ Gi}` over any
//!   [`SubgraphMethod`] `M`. *Known answers* come from cached supergraphs
//!   of `g` (`Isub` hits, formula (3)); cached subgraphs *bound* the
//!   candidates (`Isuper` hits, formula (5)).
//! * [`SupergraphQueries`] — `Answer(g) = {Gi : Gi ⊆ g}` over the
//!   trie-based [`TrieSupergraphMethod`]. The algebra inverts: known
//!   answers flow from cached **subgraphs** (`Isuper` hits), cached
//!   **supergraphs** bound the candidates (`Isub` hits), and the
//!   empty-answer shortcut fires from a cached supergraph with no answers.
//!
//! A direction contributes exactly the four points where the pipelines
//! used to diverge: the filter stage, the verification stage, the
//! iso-test cost-model argument order, and which probe feeds the *known*
//! path. Everything else — fast path, probes, window admission,
//! maintenance dispatch, locking — is shared in [`crate::Engine`].

use igq_features::PathFeatures;
use igq_graph::{Graph, GraphId, GraphStore};
use igq_iso::{iso_cost_ln, LogValue};
use igq_methods::{
    Filtered, PlanSource, QueryContext, SubgraphMethod, TrieSupergraphMethod, VerifyBatchStats,
    VerifyOutcome,
};
use std::marker::PhantomData;

/// One direction (sub or super) of the unified [`crate::Engine`] pipeline.
///
/// Implementations are zero-sized type-level markers; all methods are
/// associated functions over the direction's
/// [`Method`](QueryDirection::Method).
pub trait QueryDirection: Send + Sync {
    /// The wrapped filter-then-verify dataset method.
    type Method: Send + Sync;

    /// `true` when the *known answers* path is fed by `Isub` hits (cached
    /// supergraphs of the query) — the subgraph direction. The supergraph
    /// direction inverts the roles, so its known path is `Isuper`.
    /// Controls both the answer algebra and which `pruned_by_*` counter
    /// each path reports into.
    const KNOWN_IS_ISUB: bool;

    /// Human-readable direction name for reports.
    fn direction_name() -> &'static str;

    /// The dataset the method answers queries over.
    fn store(method: &Self::Method) -> &GraphStore;

    /// Filtering stage: a candidate set with no false negatives, reusing
    /// the query's already-extracted path features.
    fn filter(method: &Self::Method, q: &Graph, features: &PathFeatures) -> Filtered;

    /// Verification stage over the pruned candidates, index-aligned, plus
    /// the batch's plan/scratch amortization accounting. `plans` carries
    /// the width the batch may fan out to; directions that verify
    /// serially ignore it.
    fn verify(
        method: &Self::Method,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
        plans: Option<PlanSource<'_>>,
    ) -> (Vec<VerifyOutcome>, VerifyBatchStats);

    /// `ln c(·, ·)` for one candidate test, with the pattern/target roles
    /// ordered for this direction: subgraph queries test the **query**
    /// inside the stored graph, supergraph queries test the **stored
    /// graph** inside the query. `labels` is the label universe `L`.
    fn cost_ln(labels: usize, query_vertices: usize, stored_vertices: usize) -> LogValue;
}

/// Subgraph-query direction over any [`SubgraphMethod`] `M` (paper
/// Sections 4.2–4.3). `crate::IgqEngine<M>` is `Engine<SubgraphQueries<M>>`.
pub struct SubgraphQueries<M>(PhantomData<fn() -> M>);

impl<M: SubgraphMethod> QueryDirection for SubgraphQueries<M> {
    type Method = M;

    const KNOWN_IS_ISUB: bool = true;

    fn direction_name() -> &'static str {
        "subgraph"
    }

    fn store(method: &M) -> &GraphStore {
        method.store()
    }

    fn filter(method: &M, q: &Graph, features: &PathFeatures) -> Filtered {
        method.filter_with_features(q, Some(features))
    }

    fn verify(
        method: &M,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
        plans: Option<PlanSource<'_>>,
    ) -> (Vec<VerifyOutcome>, VerifyBatchStats) {
        method.verify_batch_with_plans(q, context, candidates, plans)
    }

    fn cost_ln(labels: usize, query_vertices: usize, stored_vertices: usize) -> LogValue {
        // The query is the pattern, the stored graph the target.
        iso_cost_ln(query_vertices, stored_vertices, labels)
    }
}

/// Supergraph-query direction over the trie-based method of Section 6.2
/// (paper Section 4.4). `crate::IgqSuperEngine` is
/// `Engine<SupergraphQueries>`.
pub struct SupergraphQueries;

impl QueryDirection for SupergraphQueries {
    type Method = TrieSupergraphMethod;

    const KNOWN_IS_ISUB: bool = false;

    fn direction_name() -> &'static str {
        "supergraph"
    }

    fn store(method: &TrieSupergraphMethod) -> &GraphStore {
        method.store()
    }

    fn filter(method: &TrieSupergraphMethod, q: &Graph, features: &PathFeatures) -> Filtered {
        Filtered::new(method.filter_super_with_features(q, features))
    }

    fn verify(
        method: &TrieSupergraphMethod,
        q: &Graph,
        _context: &QueryContext,
        candidates: &[GraphId],
        _plans: Option<PlanSource<'_>>,
    ) -> (Vec<VerifyOutcome>, VerifyBatchStats) {
        // Supergraph verification builds one plan per *candidate* (each
        // stored graph is the pattern) and verifies serially.
        method.verify_super_batch(q, candidates)
    }

    fn cost_ln(labels: usize, query_vertices: usize, stored_vertices: usize) -> LogValue {
        // Inverted: the stored candidate is the pattern searched for
        // inside the query graph.
        iso_cost_ln(stored_vertices, query_vertices, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_argument_order_inverts_with_direction() {
        // Sub: pattern = 2-vertex query, target = 4-vertex stored graph —
        // a real cost. Super swaps the roles: a 4-vertex candidate cannot
        // embed in a 2-vertex query, so the cost model reports zero.
        let sub = SubgraphQueries::<igq_methods::NaiveMethod>::cost_ln(2, 2, 4);
        let sup = SupergraphQueries::cost_ln(2, 2, 4);
        assert!(!sub.is_zero());
        assert!(sup.is_zero());
    }

    #[test]
    fn known_path_roles() {
        const {
            assert!(SubgraphQueries::<igq_methods::NaiveMethod>::KNOWN_IS_ISUB);
            assert!(!SupergraphQueries::KNOWN_IS_ISUB);
        }
    }
}
