//! The iGQ supergraph-query engine (paper Section 4.4).
//!
//! For supergraph queries (`Answer(g) = {Gi ∈ D : Gi ⊆ g}`) the iGQ
//! components stay exactly the same — `Isub` and `Isuper` over cached
//! queries — but the answer-set algebra inverts:
//!
//! * a cached **subgraph** `G ⊆ g` contributes *known answers*: every
//!   `a ∈ Answer(G)` satisfies `a ⊆ G ⊆ g` (the union path, mirroring
//!   formula (4));
//! * a cached **supergraph** `G ⊇ g` bounds the candidates: `a ⊆ g` implies
//!   `a ⊆ G`, so candidates outside `Answer(G)` are pruned (the
//!   intersection path, mirroring formula (5));
//! * optimal case 1 (exact repeat) is unchanged; optimal case 2 inverts —
//!   a cached **supergraph** with an empty answer proves the answer empty.
//!
//! "The elegance afforded by the double use of iGQ is unique." — unique
//! enough that since the shared-handle API redesign the supergraph engine
//! *is* the subgraph engine: [`IgqSuperEngine`] is
//! [`crate::Engine`] instantiated in the
//! [`crate::SupergraphQueries`] direction, which
//! contributes only the four inversion points (filter, verify, cost-model
//! argument order, known-path role). The pipeline, locking, caching, and
//! maintenance machinery live once in [`crate::engine`].

use crate::direction::SupergraphQueries;
use crate::engine::Engine;

/// The iGQ engine for supergraph queries, wrapping the trie-based
/// supergraph method of Section 6.2. A [`crate::QueryEngine`] like its
/// subgraph sibling: `Send + Sync`, queried through `&self`, shared
/// through an `Arc`.
pub type IgqSuperEngine = Engine<SupergraphQueries>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IgqConfig, QueryRequest, Resolution};
    use igq_features::PathConfig;
    use igq_graph::{graph_from, Graph, GraphId, GraphStore};
    use igq_iso::MatchConfig;
    use igq_methods::TrieSupergraphMethod;
    use std::sync::Arc;

    fn store() -> Arc<GraphStore> {
        Arc::new(
            vec![
                graph_from(&[0, 1], &[(0, 1)]),                    // g0
                graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]), // g1
                graph_from(&[0], &[]),                             // g2
                graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),         // g3
            ]
            .into_iter()
            .collect(),
        )
    }

    fn engine() -> IgqSuperEngine {
        let s = store();
        let m = TrieSupergraphMethod::build(&s, PathConfig::default(), MatchConfig::default());
        IgqSuperEngine::new(
            m,
            IgqConfig::builder()
                .cache_capacity(8)
                .window(2)
                .build()
                .expect("valid config"),
        )
        .expect("valid engine")
    }

    fn naive_super(q: &Graph) -> Vec<GraphId> {
        store()
            .iter()
            .filter(|(_, g)| igq_iso::is_subgraph(g, q))
            .map(|(id, _)| id)
            .collect()
    }

    fn ids(raw: &[u32]) -> Vec<GraphId> {
        raw.iter().map(|&r| GraphId::new(r)).collect()
    }

    #[test]
    fn answers_match_brute_force() {
        let e = engine();
        for q in [
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[2, 2, 2, 0], &[(0, 1), (1, 2), (0, 2)]),
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]), // repeat
        ] {
            let out = e.query(&q);
            assert_eq!(out.answers, naive_super(&q), "query {q:?}");
        }
    }

    #[test]
    fn exact_repeat_short_circuits() {
        let e = engine();
        let q = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let first = e.query(&q);
        let _ = e.query(&graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]));
        let repeat = e.query(&q);
        assert_eq!(repeat.resolution, Resolution::ExactHit);
        assert_eq!(repeat.db_iso_tests, 0);
        assert_eq!(repeat.answers, first.answers);
    }

    #[test]
    fn known_answers_flow_from_cached_subqueries() {
        let e = engine();
        // Cache a small supergraph query first.
        let small = graph_from(&[0, 1], &[(0, 1)]);
        let small_out = e.query(&small);
        assert_eq!(small_out.answers, ids(&[0, 2]));
        let _ = e.query(&graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]));
        // A bigger query containing the cached one: its cached answers are
        // reused without verification.
        let big = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let out = e.query(&big);
        assert!(out.isuper_hits >= 1);
        assert!(out.pruned_by_isuper >= 1);
        assert_eq!(out.answers, naive_super(&big));
    }

    #[test]
    fn inverted_empty_shortcut() {
        let e = engine();
        // Query with labels nothing in D matches... careful: g2 = single 0
        // is contained in anything with a 0 label. Use label 9 only.
        let q9 = graph_from(&[9, 9], &[(0, 1)]);
        let first = e.query(&q9);
        assert!(first.answers.is_empty());
        let _ = e.query(&graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]));
        // A *subgraph* of the cached empty-answer query.
        let sub = graph_from(&[9], &[]);
        let out = e.query(&sub);
        assert_eq!(out.resolution, Resolution::EmptyAnswerShortcut);
        assert!(out.answers.is_empty());
        assert_eq!(out.db_iso_tests, 0);
    }

    #[test]
    fn cache_population() {
        let e = engine();
        let _ = e.query(&graph_from(&[0, 1], &[(0, 1)]));
        let _ = e.query(&graph_from(&[2, 2], &[(0, 1)]));
        assert_eq!(e.cached_queries(), 2);
        assert!(e.stats().maintenances >= 1);
    }

    #[test]
    fn unified_engine_surface_works_in_super_direction() {
        // The API-redesign dividend: export, self_check, and typed
        // requests — previously subgraph-only — now come with the shared
        // pipeline.
        let e = engine();
        let q = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let first = e.query(&q);
        assert_eq!(e.export_entries().len(), 1, "window entries export too");
        e.flush_window();
        let out = e.query(&q);
        assert_eq!(out.resolution, Resolution::ExactHit);
        assert_eq!(out.answers, first.answers);
        e.self_check().expect("invariants hold after warm-up");

        let cached = e.cached_queries();
        let resp = e.execute(&QueryRequest::new(graph_from(&[2, 2], &[(0, 1)])).skip_admission());
        assert_eq!(
            resp.outcome.answers,
            naive_super(&graph_from(&[2, 2], &[(0, 1)]))
        );
        e.flush_window();
        assert_eq!(e.cached_queries(), cached, "skip_admission leaves no trace");
    }
}
