//! Matching semantics, configuration, and result types.

use crate::budget::Budget;
use igq_graph::VertexId;

/// Which notion of "subgraph" an engine should decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchSemantics {
    /// Paper Definition 2: injective map preserving labels and edges.
    /// Non-edges of the pattern are unconstrained. This is the semantics of
    /// the entire graph-query-processing literature the paper builds on.
    #[default]
    Monomorphism,
    /// Additionally requires pattern non-edges to map to target non-edges
    /// (induced subgraph isomorphism). Provided as an extension; iGQ's
    /// correctness argument is semantics-agnostic as long as the method and
    /// the query cache agree.
    Induced,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchConfig {
    /// Monomorphism (default) or induced.
    pub semantics: MatchSemantics,
    /// Optional cap on explored search states.
    pub budget: Budget,
}

impl MatchConfig {
    /// Monomorphism with a state budget.
    pub fn with_budget(max_states: u64) -> Self {
        MatchConfig {
            semantics: MatchSemantics::Monomorphism,
            budget: Budget::limited(max_states),
        }
    }

    /// Induced semantics, unlimited budget.
    pub fn induced() -> Self {
        MatchConfig {
            semantics: MatchSemantics::Induced,
            budget: Budget::unlimited(),
        }
    }
}

/// The verdict of a single test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// An embedding was found; `mapping[p.index()]` is the image of pattern
    /// vertex `p` in the target.
    Found(Vec<VertexId>),
    /// The full search space was exhausted without an embedding.
    NotFound,
    /// The state budget ran out before a decision; the answer is unknown.
    Aborted,
}

impl Outcome {
    /// True only for [`Outcome::Found`].
    #[inline]
    pub fn is_found(&self) -> bool {
        matches!(self, Outcome::Found(_))
    }

    /// True only for [`Outcome::NotFound`] — note `Aborted` is *not* a no.
    #[inline]
    pub fn is_not_found(&self) -> bool {
        matches!(self, Outcome::NotFound)
    }

    /// The embedding, if found.
    pub fn mapping(&self) -> Option<&[VertexId]> {
        match self {
            Outcome::Found(m) => Some(m),
            _ => None,
        }
    }
}

/// Result of one engine invocation: verdict plus work accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchResult {
    /// The verdict.
    pub outcome: Outcome,
    /// Number of search states (recursive extensions) explored.
    pub states: u64,
}

impl MatchResult {
    /// A result from its verdict and state count.
    pub fn new(outcome: Outcome, states: u64) -> Self {
        MatchResult { outcome, states }
    }
}

/// Validates that `mapping` is a correct embedding of `pattern` into
/// `target` under `semantics`. Test/debug helper used by the matcher's
/// unit tests and by the property tests.
pub fn verify_embedding(
    pattern: &igq_graph::Graph,
    target: &igq_graph::Graph,
    mapping: &[VertexId],
    semantics: MatchSemantics,
) -> bool {
    if mapping.len() != pattern.vertex_count() {
        return false;
    }
    // Injectivity.
    let mut seen = vec![false; target.vertex_count()];
    for &t in mapping {
        if t.index() >= target.vertex_count() || seen[t.index()] {
            return false;
        }
        seen[t.index()] = true;
    }
    // Labels.
    for p in pattern.vertices() {
        if pattern.label(p) != target.label(mapping[p.index()]) {
            return false;
        }
    }
    // Edges (and non-edges for induced).
    for u in pattern.vertices() {
        for v in pattern.vertices() {
            if u >= v {
                continue;
            }
            let pe = pattern.has_edge(u, v);
            let te = target.has_edge(mapping[u.index()], mapping[v.index()]);
            match semantics {
                MatchSemantics::Monomorphism => {
                    if pe && !te {
                        return false;
                    }
                }
                MatchSemantics::Induced => {
                    if pe != te {
                        return false;
                    }
                }
            }
            // Mapped edges must agree on edge labels (default 0 when a
            // side is unlabeled).
            if pe
                && te
                && pattern.edge_label(u, v)
                    != target.edge_label(mapping[u.index()], mapping[v.index()])
            {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;

    #[test]
    fn outcome_predicates() {
        assert!(Outcome::Found(vec![]).is_found());
        assert!(!Outcome::Aborted.is_found());
        assert!(!Outcome::Aborted.is_not_found());
        assert!(Outcome::NotFound.is_not_found());
    }

    #[test]
    fn verify_embedding_accepts_identity() {
        let g = graph_from(&[0, 1], &[(0, 1)]);
        let id = vec![VertexId::new(0), VertexId::new(1)];
        assert!(verify_embedding(&g, &g, &id, MatchSemantics::Monomorphism));
        assert!(verify_embedding(&g, &g, &id, MatchSemantics::Induced));
    }

    #[test]
    fn verify_embedding_rejects_label_mismatch() {
        let p = graph_from(&[0], &[]);
        let t = graph_from(&[1], &[]);
        assert!(!verify_embedding(
            &p,
            &t,
            &[VertexId::new(0)],
            MatchSemantics::Monomorphism
        ));
    }

    #[test]
    fn verify_embedding_rejects_non_injective() {
        let p = graph_from(&[0, 0], &[]);
        let t = graph_from(&[0, 0], &[]);
        let m = vec![VertexId::new(0), VertexId::new(0)];
        assert!(!verify_embedding(&p, &t, &m, MatchSemantics::Monomorphism));
    }

    #[test]
    fn induced_rejects_extra_target_edge() {
        // Pattern: two disconnected labeled-0 vertices. Target: edge between them.
        let p = graph_from(&[0, 0], &[]);
        let t = graph_from(&[0, 0], &[(0, 1)]);
        let m = vec![VertexId::new(0), VertexId::new(1)];
        assert!(verify_embedding(&p, &t, &m, MatchSemantics::Monomorphism));
        assert!(!verify_embedding(&p, &t, &m, MatchSemantics::Induced));
    }
}
