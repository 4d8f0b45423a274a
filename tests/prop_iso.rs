//! Property tests over the matcher: the production per-pair entry
//! (`igq::iso::find_one`, behind `is_subgraph`) against two independent
//! oracles kept in `tests/common/` — the per-pair VF2 engine it replaced
//! and Ullmann's algorithm — plus fixed cases pinning the oracles
//! themselves.

mod common;

use common::{arb_graph, arb_graph_el, assert_oracle_contract, ullmann_oracle, vf2_oracle};
use igq::graph::canon::invariant_hash;
use igq::graph::{graph_from, graph_from_el, Graph};
use igq::iso::semantics::verify_embedding;
use igq::iso::{find_one, Budget, MatchConfig, MatchSemantics, Outcome};
use proptest::prelude::*;

fn config(induced: bool) -> MatchConfig {
    if induced {
        MatchConfig::induced()
    } else {
        MatchConfig::default()
    }
}

/// The production matcher meets the VF2 oracle's contract (same verdict
/// and mapping, never more states) and agrees with Ullmann on the
/// verdict.
fn assert_three_way(p: &Graph, t: &Graph, cfg: &MatchConfig) {
    let production = find_one(p, t, cfg);
    let ullmann = ullmann_oracle::find_one(p, t, cfg).outcome.is_found();
    assert_oracle_contract(&production, p, t, cfg);
    assert_eq!(
        production.outcome.is_found(),
        ullmann,
        "ullmann oracle: pattern {p:?} target {t:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every graph embeds in itself (identity is a monomorphism).
    #[test]
    fn graph_embeds_in_itself(g in arb_graph(8, 3)) {
        prop_assert!(igq::iso::is_subgraph(&g, &g));
    }

    /// The production matcher, VF2 and Ullmann always agree on the
    /// containment verdict (and the matcher on VF2's mapping).
    #[test]
    fn vf2_and_ullmann_agree(p in arb_graph(5, 3), t in arb_graph(8, 3)) {
        assert_three_way(&p, &t, &MatchConfig::default());
    }

    /// The three engines also agree under induced semantics.
    #[test]
    fn engines_agree_induced(p in arb_graph(4, 2), t in arb_graph(7, 2)) {
        assert_three_way(&p, &t, &MatchConfig::induced());
    }

    /// Any mapping the production matcher (or the VF2 oracle) returns is
    /// a valid embedding, in either semantics.
    #[test]
    fn vf2_mappings_are_valid(p in arb_graph(6, 3), t in arb_graph(9, 3), induced in any::<bool>()) {
        let cfg = config(induced);
        for r in [find_one(&p, &t, &cfg), vf2_oracle::find_one(&p, &t, &cfg)] {
            if let Some(m) = r.outcome.mapping() {
                prop_assert!(verify_embedding(&p, &t, m, cfg.semantics));
            }
        }
    }

    /// Containment is transitive: a ⊆ b and b ⊆ c implies a ⊆ c.
    #[test]
    fn containment_is_transitive(a in arb_graph(4, 2), b in arb_graph(6, 2), c in arb_graph(8, 2)) {
        if igq::iso::is_subgraph(&a, &b) && igq::iso::is_subgraph(&b, &c) {
            prop_assert!(igq::iso::is_subgraph(&a, &c));
        }
    }

    /// WL hashes are isomorphism invariants: relabeling vertices preserves
    /// the hash (tested by round-tripping through a random permutation).
    #[test]
    fn wl_hash_is_permutation_invariant(g in arb_graph(8, 3), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.vertex_count();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut rng);
        let labels: Vec<u32> = (0..n).map(|i| {
            let orig = perm.iter().position(|&p| p as usize == i).unwrap();
            g.label(igq::graph::VertexId::from_index(orig)).raw()
        }).collect();
        let edges: Vec<(u32, u32)> = g.edges().iter()
            .map(|&(u, v)| (perm[u.index()], perm[v.index()]))
            .collect();
        let h = igq::graph::graph_from(&labels, &edges);
        prop_assert_eq!(invariant_hash(&g), invariant_hash(&h));
        // And the permuted graph is mutually contained with the original.
        prop_assert!(igq::iso::are_isomorphic(&g, &h));
    }

    /// A pattern with more vertices/edges than the target never matches.
    #[test]
    fn size_monotonicity(p in arb_graph(8, 3), t in arb_graph(8, 3)) {
        if p.vertex_count() > t.vertex_count() || p.edge_count() > t.edge_count() {
            prop_assert!(!igq::iso::is_subgraph(&p, &t));
        }
    }

    /// The three engines agree on edge-labeled instances too, in either
    /// semantics.
    #[test]
    fn engines_agree_with_edge_labels(
        p in arb_graph_el(4, 2, 2),
        t in arb_graph_el(7, 2, 2),
        induced in any::<bool>(),
    ) {
        assert_three_way(&p, &t, &config(induced));
    }

    /// Under any state budget the production matcher meets the VF2
    /// oracle's contract — whatever the oracle decides within the budget
    /// it decides identically, whatever it decides agrees with the
    /// unbudgeted oracle — and whenever neither it nor Ullmann aborts,
    /// their verdicts agree.
    #[test]
    fn matcher_matches_oracles_under_budgets(
        p in arb_graph_el(5, 2, 2),
        t in arb_graph_el(8, 2, 2),
        budget in 1u64..40,
        induced in any::<bool>(),
    ) {
        let cfg = MatchConfig { budget: Budget::limited(budget), ..config(induced) };
        let production = find_one(&p, &t, &cfg);
        assert_oracle_contract(&production, &p, &t, &cfg);
        let ullmann = ullmann_oracle::find_one(&p, &t, &cfg).outcome;
        if production.outcome != Outcome::Aborted && ullmann != Outcome::Aborted {
            prop_assert_eq!(production.outcome.is_found(), ullmann.is_found());
        }
    }

    /// Edge-labeled containment implies vertex-only containment: erasing
    /// edge labels can only *add* matches (the soundness fact that lets
    /// vertex-label-based filters serve edge-labeled data).
    #[test]
    fn erasing_edge_labels_is_monotone(p in arb_graph_el(4, 2, 2), t in arb_graph_el(7, 2, 2)) {
        if igq::iso::is_subgraph(&p, &t) {
            let erase = |g: &igq::graph::Graph| {
                let labels: Vec<u32> = g.labels().iter().map(|l| l.raw()).collect();
                let edges: Vec<(u32, u32)> =
                    g.edges().iter().map(|&(u, v)| (u.raw(), v.raw())).collect();
                igq::graph::graph_from(&labels, &edges)
            };
            prop_assert!(igq::iso::is_subgraph(&erase(&p), &erase(&t)));
        }
    }

    /// Every edge-labeled mapping the production matcher (or the VF2
    /// oracle) returns is a valid embedding under the edge-label-aware
    /// checker.
    #[test]
    fn vf2_edge_labeled_mappings_are_valid(p in arb_graph_el(5, 2, 3), t in arb_graph_el(8, 2, 3)) {
        let cfg = MatchConfig::default();
        for r in [find_one(&p, &t, &cfg), vf2_oracle::find_one(&p, &t, &cfg)] {
            if let Some(m) = r.outcome.mapping() {
                prop_assert!(verify_embedding(&p, &t, m, MatchSemantics::Monomorphism));
            }
        }
    }

    /// Removing an edge from the pattern preserves containment.
    #[test]
    fn pattern_edge_removal_preserves_containment(p in arb_graph(6, 3), t in arb_graph(9, 3)) {
        if p.edge_count() == 0 || !igq::iso::is_subgraph(&p, &t) {
            return Ok(());
        }
        // Drop the first edge.
        let labels: Vec<u32> = p.labels().iter().map(|l| l.raw()).collect();
        let edges: Vec<(u32, u32)> = p.edges().iter().skip(1)
            .map(|&(u, v)| (u.raw(), v.raw()))
            .collect();
        let weaker = igq::graph::graph_from(&labels, &edges);
        prop_assert!(igq::iso::is_subgraph(&weaker, &t));
    }
}

#[test]
fn ullmann_agrees_with_vf2_on_fixed_cases() {
    let cases = vec![
        // (pattern, target)
        (
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[1, 0, 1], &[(0, 1), (1, 2)]),
        ),
        (
            graph_from(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
            graph_from(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]),
        ),
        (
            graph_from(&[2, 2, 3], &[(0, 1), (1, 2)]),
            graph_from(&[2, 2, 3, 3], &[(0, 1), (1, 2), (2, 3), (0, 3)]),
        ),
        (
            graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            graph_from(&[0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        ),
    ];
    for (p, t) in cases {
        assert_three_way(&p, &t, &MatchConfig::default());
    }
}

#[test]
fn ullmann_edge_labels_agree_with_vf2() {
    let t = graph_from_el(&[0, 0, 0], &[(0, 1, 1), (1, 2, 2)]);
    let cases = vec![
        graph_from_el(&[0, 0], &[(0, 1, 1)]),
        graph_from_el(&[0, 0], &[(0, 1, 2)]),
        graph_from_el(&[0, 0], &[(0, 1, 3)]),
        graph_from_el(&[0, 0, 0], &[(0, 1, 1), (1, 2, 2)]),
        graph_from_el(&[0, 0, 0], &[(0, 1, 2), (1, 2, 2)]),
        graph_from(&[0, 0], &[(0, 1)]),
    ];
    for p in cases {
        assert_three_way(&p, &t, &MatchConfig::default());
    }
}

#[test]
fn ullmann_produces_valid_mappings() {
    let p = graph_from(&[1, 2, 1], &[(0, 1), (1, 2)]);
    let t = graph_from(&[1, 2, 1, 2], &[(0, 1), (1, 2), (2, 3)]);
    let r = ullmann_oracle::find_one(&p, &t, &MatchConfig::default());
    let m = r.outcome.mapping().expect("match exists").to_vec();
    assert!(verify_embedding(&p, &t, &m, MatchSemantics::Monomorphism));
}

#[test]
fn ullmann_refinement_kills_hopeless_instances_without_search() {
    // Pattern: star with 3 leaves labeled 1; target has max degree 2.
    let p = graph_from(&[0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]);
    let t = graph_from(&[0, 1, 1, 1], &[(0, 1), (0, 2)]);
    let r = ullmann_oracle::find_one(&p, &t, &MatchConfig::default());
    assert!(r.outcome.is_not_found());
    assert_eq!(r.states, 0, "degree seed/refinement should preempt search");
}

#[test]
fn ullmann_induced_semantics() {
    let p2 = graph_from(&[0, 0], &[]); // two isolated vertices
    let k2 = graph_from(&[0, 0], &[(0, 1)]);
    assert!(ullmann_oracle::find_one(&p2, &k2, &MatchConfig::default())
        .outcome
        .is_found());
    assert!(ullmann_oracle::find_one(&p2, &k2, &MatchConfig::induced())
        .outcome
        .is_not_found());
}

#[test]
fn ullmann_budget_abort() {
    let p = graph_from(&[0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let mut edges = Vec::new();
    for i in 0..10u32 {
        for j in (i + 1)..10u32 {
            edges.push((i, j));
        }
    }
    let t = graph_from(&[0; 10], &edges);
    let cfg = MatchConfig {
        semantics: MatchSemantics::Induced,
        budget: Budget::limited(3),
    };
    assert_eq!(
        ullmann_oracle::find_one(&p, &t, &cfg).outcome,
        Outcome::Aborted
    );
}

#[test]
fn ullmann_empty_pattern() {
    let t = graph_from(&[0], &[]);
    assert!(
        ullmann_oracle::find_one(&graph_from(&[], &[]), &t, &MatchConfig::default())
            .outcome
            .is_found()
    );
}

#[test]
fn vf2_oracle_count_embeddings_on_triangle() {
    // Labeled edge 0-0 in a triangle of zeros: 3 edges x 2 orientations.
    let p = graph_from(&[0, 0], &[(0, 1)]);
    let tri = graph_from(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
    let (count, _, aborted) =
        vf2_oracle::count_embeddings(&p, &tri, u64::MAX, &MatchConfig::default());
    assert_eq!(count, 6);
    assert!(!aborted);
}

#[test]
fn vf2_oracle_count_respects_limit() {
    let p = graph_from(&[0], &[]);
    let t = graph_from(&[0; 10], &[]);
    let (count, _, _) = vf2_oracle::count_embeddings(&p, &t, 4, &MatchConfig::default());
    assert_eq!(count, 4);
}
