//! # igq-iso
//!
//! The subgraph-isomorphism matcher and the iGQ cost model.
//!
//! The verification stage of every filter-then-verify method — and therefore
//! the quantity iGQ exists to minimize — is the NP-complete subgraph
//! isomorphism test (paper Definition 2: an injective, label- and
//! edge-preserving map; i.e. *monomorphism*). This crate provides:
//!
//! * [`plan`] — the one matcher: VF2 (Cordella et al., TPAMI 2004, the
//!   matcher GGSX and CT-Index use and "arguably the most widely used" per
//!   the paper) split into a query-side [`MatchPlan`] plus a reusable
//!   [`MatchScratch`] workspace, so batch verification builds one plan per
//!   query and explores candidates with zero per-candidate heap
//!   allocations. [`find_one`] is its per-pair entry (a target-ordered
//!   plan on the thread's scratch) behind [`is_subgraph`],
//!   [`are_isomorphic`] and every one-off test;
//! * [`budget`] — optional search-state budgets so harness code can bound
//!   pathological instances *without* silently changing answers (exhausting
//!   a budget yields [`Outcome::Aborted`], never a fabricated no);
//! * [`cost`] — the asymptotic iso-test cost model of Section 5.1,
//!   `c(g′,Gi) = Ni·Ni! / (L^{n+1}·(Ni−n)!)`, evaluated in log space because
//!   the factorials overflow `f64` for every PDBS-sized graph;
//! * [`stats`] — mergeable counters for tests run and states explored.
//!
//! The integration tests hold the matcher to two independent engines kept
//! under `tests/common/`: the per-pair VF2 engine it replaced, and
//! Ullmann's 1976 algorithm (\[39\] in the paper).

#![forbid(unsafe_code)]

pub mod budget;
pub mod cost;
pub mod logmath;
pub mod plan;
pub mod semantics;
pub mod stats;

pub use budget::Budget;
pub use cost::iso_cost_ln;
pub use logmath::LogValue;
pub use plan::{
    find_one, find_with_plan, matches_with_plan, with_thread_scratch, MatchPlan, MatchScratch,
    Verdict,
};
pub use semantics::{MatchConfig, MatchSemantics, Outcome};
pub use stats::IsoStats;

use igq_graph::Graph;

/// Convenience: unlimited-budget monomorphism test through [`find_one`].
///
/// ```
/// use igq_graph::graph_from;
/// let path = graph_from(&[0, 1], &[(0, 1)]);
/// let tri = graph_from(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
/// assert!(igq_iso::is_subgraph(&path, &tri));
/// assert!(!igq_iso::is_subgraph(&tri, &path));
/// ```
pub fn is_subgraph(pattern: &Graph, target: &Graph) -> bool {
    find_one(pattern, target, &MatchConfig::default())
        .outcome
        .is_found()
}

/// True when `a` and `b` are isomorphic (at equal vertex and edge counts a
/// monomorphism is necessarily an isomorphism).
pub fn are_isomorphic(a: &Graph, b: &Graph) -> bool {
    a.vertex_count() == b.vertex_count() && a.edge_count() == b.edge_count() && is_subgraph(a, b)
}
