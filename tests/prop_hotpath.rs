//! Property tests for the verification hot path: the per-pair entry
//! (`igq_iso::find_one`) and the plan-amortized matcher against the VF2
//! oracle kept in `tests/common/vf2_oracle.rs` (the contract is
//! `common::assert_oracle_contract`), the batch verifiers
//! against per-pair oracle verdicts, fanned-out batches against serial
//! ones, and the galloping set operations against their linear-merge
//! definitions.

mod common;

use common::{
    arb_graph, arb_graph_el, arb_store, assert_oracle_contract, oracle_is_subgraph, vf2_oracle,
};
use igq::iso::plan::{find_with_plan, matches_with_plan, MatchPlan, MatchScratch};
use igq::iso::{find_one, MatchConfig};
use igq::methods::{
    intersect_into, intersect_sorted, subtract_into, subtract_sorted, NaiveMethod, SubgraphMethod,
    FANOUT_MIN_CANDIDATES,
};
use igq::prelude::*;
use proptest::prelude::*;

/// The per-pair entry meets the VF2 oracle's contract (same outcome and
/// mapping whenever the oracle completes, never more states); a
/// target-ordered plan run on a fresh scratch is the per-pair entry, and
/// the verdict-only search agrees with it on verdict, abort and states.
fn assert_parity(p: &Graph, t: &Graph, config: &MatchConfig) {
    let production = find_one(p, t, config);
    assert_oracle_contract(&production, p, t, config);
    let plan = MatchPlan::for_target(p, t, config);
    let mut scratch = MatchScratch::new();
    assert_eq!(find_with_plan(&plan, t, &mut scratch), production);
    let (verdict, states) = matches_with_plan(&plan, t, &mut scratch);
    assert_eq!(states, production.states);
    assert_eq!(verdict.is_found(), production.outcome.is_found());
    assert_eq!(
        verdict.is_aborted(),
        production.outcome == igq::iso::Outcome::Aborted
    );
}

fn config(induced: bool) -> MatchConfig {
    if induced {
        MatchConfig::induced()
    } else {
        MatchConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// With the target's own label index as the rarity statistic, the
    /// matcher searches in the VF2 oracle's order: same verdict, same
    /// mapping, never more explored states (its label-aware lookahead only
    /// skips subtrees without an embedding) — under both semantics.
    #[test]
    fn planned_matcher_is_observationally_identical_to_vf2(
        p in arb_graph(5, 3),
        t in arb_graph(8, 3),
        induced in any::<bool>(),
    ) {
        assert_parity(&p, &t, &config(induced));
    }

    /// The contract extends to edge-labeled graphs.
    #[test]
    fn planned_matcher_identical_with_edge_labels(
        p in arb_graph_el(4, 3, 2),
        t in arb_graph_el(7, 3, 2),
        induced in any::<bool>(),
    ) {
        assert_parity(&p, &t, &config(induced));
    }

    /// ...and to budget-limited searches: whatever the oracle decides
    /// within a budget the matcher decides identically, and whatever the
    /// matcher decides agrees with the unbudgeted oracle.
    #[test]
    fn planned_matcher_identical_under_budgets(
        p in arb_graph(5, 2),
        t in arb_graph(8, 2),
        budget in 1u64..40,
    ) {
        assert_parity(&p, &t, &MatchConfig::with_budget(budget));
    }

    /// A plan ordered by *store-level* rarity (the batch hot path) may
    /// explore in a different order but must reach the same verdict, and
    /// one scratch shared across every pair must behave like a fresh one.
    #[test]
    fn store_rarity_plans_and_shared_scratch_agree_on_verdicts(
        store in arb_store(6, 7, 3),
        queries in proptest::collection::vec(arb_graph(5, 3), 1..6),
        induced in any::<bool>(),
    ) {
        let config = config(induced);
        let mut shared = MatchScratch::new();
        for q in &queries {
            let plan = MatchPlan::build(q, &config, &mut |l| store.label_frequency(l));
            for (_, g) in store.iter() {
                let (verdict, _) = matches_with_plan(&plan, g, &mut shared);
                let oracle = vf2_oracle::find_one(q, g, &config);
                prop_assert_eq!(verdict.is_found(), oracle.outcome.is_found(),
                    "query {:?} target {:?}", q, g);
            }
        }
    }

    /// The full batch path (prescreen + store-rarity plan + thread
    /// scratch), as the engine drives it through `verify_batch`, is
    /// observationally identical to per-pair oracle verification:
    /// containment verdict and abort status per candidate. So is each
    /// method's single-candidate `verify` — the provided default over
    /// `igq_iso::find_one`, and Grapes' one-candidate component batch —
    /// with and without the filter's context.
    #[test]
    fn batch_verification_matches_per_pair_verdicts(
        store in arb_store(6, 7, 3),
        queries in proptest::collection::vec(arb_graph(5, 3), 1..6),
    ) {
        let methods: Vec<Box<dyn SubgraphMethod>> = vec![
            Box::new(NaiveMethod::build(&store)),
            Box::new(Grapes::build(&store, GrapesConfig::default())),
        ];
        for method in &methods {
            for q in &queries {
                let filtered = method.filter(q);
                let outcomes = method.verify_batch(q, &filtered.context, &filtered.candidates);
                for (&id, out) in filtered.candidates.iter().zip(outcomes.iter()) {
                    let truth = oracle_is_subgraph(q, store.get(id));
                    prop_assert_eq!(out.contains, truth);
                    prop_assert!(!out.aborted, "unlimited budget never aborts");
                    prop_assert_eq!(method.verify(q, &filtered.context, id).contains, truth);
                    prop_assert_eq!(method.verify(q, &Default::default(), id).contains, truth);
                }
            }
        }
    }

    /// The pre-verify screen alone never rejects a true containment.
    #[test]
    fn prescreen_is_sound(p in arb_graph(5, 3), t in arb_graph(8, 3)) {
        if oracle_is_subgraph(&p, &t) {
            prop_assert!(GraphProfile::of(&t).may_contain(&GraphProfile::of(&p)));
        }
    }

    /// A batch fanned out over 1..=4 workers is the serial batch: the
    /// same outcome at every index (verdict, abort, states) and the same
    /// accounting apart from `scratch_allocs` and `fanouts`, with the
    /// plan built once whatever the width. Batch sizes straddle the
    /// engine's fan-out threshold; the engine-facing entry at width 1 is
    /// the plain serial entry.
    #[test]
    fn fanned_out_batches_equal_serial_ones(
        store in arb_store(12, 7, 3),
        q in arb_graph(5, 3),
        size in 1usize..2 * FANOUT_MIN_CANDIDATES,
        width in 1usize..=4,
        budget in proptest::option::of(1u64..40),
    ) {
        use igq::methods::{verify_batch_plain, verify_batch_plain_with, PlanSource, VerifyBatchStats};
        let config = budget.map_or_else(MatchConfig::default, MatchConfig::with_budget);
        let batch: Vec<GraphId> = store.ids().cycle().take(size).collect();
        let fanned = u64::from(width > 1 && size > 1);
        let comparable = |s: VerifyBatchStats| VerifyBatchStats { scratch_allocs: 0, fanouts: 0, ..s };
        let at = |width| {
            verify_batch_plain_with(&store, &q, &config, &batch, Some(PlanSource::with_width(width)))
        };
        let (serial, serial_stats) = verify_batch_plain(&store, &q, &config, &batch);
        let (one, one_stats) = at(1);
        prop_assert_eq!(&one, &serial, "width 1");
        prop_assert_eq!(comparable(one_stats), comparable(serial_stats));
        prop_assert_eq!(one_stats.fanouts, 0);
        prop_assert_eq!(serial_stats.fanouts, 0);

        let (outcomes, stats) = at(width);
        prop_assert_eq!(&outcomes, &serial, "width {}", width);
        prop_assert_eq!(comparable(stats), comparable(serial_stats));
        prop_assert_eq!(stats.fanouts, fanned);
    }

    /// Galloping set operations agree with the sorted-merge definitions on
    /// arbitrary sorted unique inputs of arbitrary skew.
    #[test]
    fn gallop_set_ops_match_linear(
        a in proptest::collection::vec(0u32..600, 0..12),
        b in proptest::collection::vec(0u32..600, 0..200),
    ) {
        let (mut a, mut b) = (a, b);
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        let a: Vec<GraphId> = a.into_iter().map(GraphId::new).collect();
        let b: Vec<GraphId> = b.into_iter().map(GraphId::new).collect();
        let naive_inter: Vec<GraphId> =
            a.iter().copied().filter(|x| b.binary_search(x).is_ok()).collect();
        let naive_sub: Vec<GraphId> =
            a.iter().copied().filter(|x| b.binary_search(x).is_err()).collect();
        let mut out = Vec::new();
        intersect_into(&a, &b, &mut out);
        prop_assert_eq!(&out, &naive_inter);
        prop_assert_eq!(intersect_sorted(&a, &b), naive_inter);
        prop_assert_eq!(intersect_sorted(&b, &a), out);
        subtract_into(&a, &b, &mut out);
        prop_assert_eq!(&out, &naive_sub);
        prop_assert_eq!(subtract_sorted(&a, &b), naive_sub);
    }
}

/// The supergraph batch path, and the per-pair `verify_super` over it,
/// agree with the oracle's inverted test.
#[test]
fn supergraph_batch_matches_per_pair() {
    use igq::methods::TrieSupergraphMethod;
    let store: std::sync::Arc<GraphStore> = std::sync::Arc::new(
        vec![
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),
            graph_from(&[0], &[]),
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
        ]
        .into_iter()
        .collect(),
    );
    let m = TrieSupergraphMethod::build(
        &store,
        igq::features::PathConfig::default(),
        MatchConfig::default(),
    );
    let all: Vec<GraphId> = store.ids().collect();
    for q in [
        graph_from(&[0, 1, 0, 2], &[(0, 1), (1, 2), (2, 3)]),
        graph_from(&[2, 2, 2, 0], &[(0, 1), (1, 2), (0, 2)]),
        graph_from(&[9], &[]),
    ] {
        let (batch, stats) = m.verify_super_batch(&q, &all);
        for (&id, out) in all.iter().zip(batch.iter()) {
            let truth = oracle_is_subgraph(store.get(id), &q);
            assert_eq!(out.contains, truth, "query {q:?} candidate {id:?}");
            assert_eq!(m.verify_super(&q, id).contains, truth);
        }
        assert_eq!(
            stats.plan_builds + stats.preverify_rejections,
            all.len() as u64,
            "every candidate is either screened out or planned"
        );
    }
}

/// The per-pair entry meets the VF2 oracle's contract on fixed cases
/// covering the oracle's own semantic unit cases: empty and absent-label
/// patterns, path ⊆ triangle (mono yes, induced no), cycles, repeated
/// labels and multi-component patterns.
#[test]
fn parity_with_legacy_on_fixed_cases() {
    let tri = graph_from(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
    let p3 = graph_from(&[0, 0, 0], &[(0, 1), (1, 2)]);
    let labeled_t = graph_from(
        &[3, 1, 2, 1, 2, 3],
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    );
    let labeled_p = graph_from(&[1, 2, 1], &[(0, 1), (1, 2)]);
    let disconnected = graph_from(&[0, 1, 0, 1], &[(0, 1), (2, 3)]);
    let two_edges = graph_from(&[0, 1, 0, 1, 9], &[(0, 1), (2, 3)]);
    let c4 = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let p4 = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3)]);
    let square = graph_from(&[1, 2, 1, 3], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
    let hexagon = graph_from(
        &[3, 1, 2, 1, 2, 3],
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (1, 4),
            (0, 3),
        ],
    );
    for config in [MatchConfig::default(), MatchConfig::induced()] {
        assert_parity(&p3, &tri, &config);
        assert_parity(&tri, &p3, &config);
        assert_parity(&labeled_p, &labeled_t, &config);
        assert_parity(&disconnected, &labeled_t, &config);
        assert_parity(&disconnected, &two_edges, &config);
        assert_parity(&p4, &c4, &config);
        assert_parity(&c4, &p4, &config);
        assert_parity(&square, &hexagon, &config);
        assert_parity(&graph_from(&[], &[]), &tri, &config);
        assert_parity(&graph_from(&[9], &[]), &tri, &config);
    }
}

/// The contract extends to budget aborts: a 6-clique against a ring of
/// overlapping 5-cliques, at a budget that aborts and one that decides.
#[test]
fn parity_includes_budget_aborts() {
    let mut clique = Vec::new();
    for i in 0..6u32 {
        for j in (i + 1)..6 {
            clique.push((i, j));
        }
    }
    let p = graph_from(&[0; 6], &clique);
    let mut edges = Vec::new();
    for i in 0..12u32 {
        for d in 1..=4u32 {
            let (a, b) = (i, (i + d) % 12);
            edges.push(if a < b { (a, b) } else { (b, a) });
        }
    }
    let t = graph_from(&[0; 12], &edges);
    assert_parity(&p, &t, &MatchConfig::with_budget(10));
    assert_parity(&p, &t, &MatchConfig::with_budget(1000));
}

/// Parity with edge labels, including the unlabeled pattern that means
/// "label 0".
#[test]
fn parity_with_edge_labels() {
    let t = graph_from_el(&[0, 0, 0], &[(0, 1, 1), (1, 2, 2)]);
    for p in [
        graph_from_el(&[0, 0], &[(0, 1, 1)]),
        graph_from_el(&[0, 0], &[(0, 1, 2)]),
        graph_from_el(&[0, 0], &[(0, 1, 3)]),
        graph_from_el(&[0, 0, 0], &[(0, 1, 2), (1, 2, 2)]),
        graph_from(&[0, 0], &[(0, 1)]),
    ] {
        assert_parity(&p, &t, &MatchConfig::default());
    }
}

/// The plain batch path returns the oracle's verdict per candidate with
/// one plan per query.
#[test]
fn batch_verdicts_match_legacy_per_pair() {
    let s: std::sync::Arc<GraphStore> = std::sync::Arc::new(
        vec![
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),
            graph_from(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3)]),
        ]
        .into_iter()
        .collect(),
    );
    let all: Vec<GraphId> = s.ids().collect();
    let config = MatchConfig::default();
    for q in [
        graph_from(&[0, 1], &[(0, 1)]),
        graph_from(&[2, 2], &[(0, 1)]),
        graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
        graph_from(&[9], &[]),
    ] {
        let (outcomes, stats) = igq::methods::verify_batch_plain(&s, &q, &config, &all);
        for (id, out) in all.iter().zip(outcomes.iter()) {
            assert_eq!(
                out.contains,
                oracle_is_subgraph(&q, s.get(*id)),
                "{q:?} vs {id:?}"
            );
            assert!(!out.aborted);
        }
        assert_eq!(stats.plan_builds, 1, "one plan per query");
    }
}
