//! Regression fixture for the matcher's worst case on AIDS-like data.
//!
//! `fixtures/seed105_hard_pairs.gfu` holds (query, dataset graph) pairs,
//! query first, from the benchmark's `aids_uniform_inproc` workload at
//! `--seed 105`: the query is named by its stream and index (indices count
//! the 100 warm-up queries), the graph by its id in the workload's
//! 10 000-graph AIDS dataset, and every graph is a GGSX candidate of its
//! query. Under the label-blind free-degree lookahead, each of the first
//! eight pairs ran past 2·10⁶ states (some of them for minutes, wedging
//! the stream); the ninth is the heaviest pair of both streams under the
//! label-aware lookahead (about 3·10⁵ states).

mod common;

use common::ullmann_oracle;
use igq::graph::{io, Graph};
use igq::iso::semantics::verify_embedding;
use igq::iso::{find_one, MatchConfig, MatchSemantics, Outcome};

const FIXTURE: &str = include_str!("fixtures/seed105_hard_pairs.gfu");

/// Pinned containment verdicts, in fixture order.
const VERDICTS: [(&str, bool); 9] = [
    ("stream 0 query 74 / graph 6934", true),
    ("stream 0 query 850 / graph 6934", true),
    ("stream 0 query 1103 / graph 4108", false),
    ("stream 0 query 1722 / graph 4286", true),
    ("stream 0 query 1942 / graph 6490", false),
    ("stream 0 query 2611 / graph 4482", true),
    ("stream 0 query 2690 / graph 4286", true),
    ("stream 0 query 2848 / graph 6934", true),
    ("stream 0 query 1678 / graph 2135", false),
];

/// The state bound every pair must be decided within.
const MAX_STATES: u64 = 400_000;

/// The fixture's graphs: query, then dataset graph, per pair.
fn fixture() -> Vec<Graph> {
    let store = io::read_store(FIXTURE.as_bytes()).expect("fixture parses");
    let graphs: Vec<Graph> = store.iter().map(|(_, g)| g.clone()).collect();
    assert_eq!(graphs.len(), 2 * VERDICTS.len());
    graphs
}

/// Each pair is decided within [`MAX_STATES`] with its pinned verdict. A
/// budget only cuts the search short, so a run that completes under it is
/// the unbudgeted run; the budget turns a regression into a failure
/// rather than a hang.
#[test]
fn seed105_pairs_are_decided_within_the_state_bound() {
    for (pair, (name, contains)) in fixture().chunks_exact(2).zip(VERDICTS) {
        let (p, t) = (&pair[0], &pair[1]);
        let r = find_one(p, t, &MatchConfig::with_budget(MAX_STATES));
        assert_ne!(
            r.outcome,
            Outcome::Aborted,
            "{name}: not decided in {MAX_STATES} states"
        );
        assert_eq!(r.outcome.is_found(), contains, "{name}");
        if let Some(m) = r.outcome.mapping() {
            assert!(verify_embedding(p, t, m, MatchSemantics::Monomorphism));
        }
    }
}

/// The pinned verdicts agree with the Ullmann oracle, unbudgeted: its
/// bitset refinement decides these pairs at once. (The VF2 oracle keeps
/// the label-blind lookahead these pairs defeat.)
#[test]
fn seed105_verdicts_match_the_ullmann_oracle() {
    for (pair, (name, contains)) in fixture().chunks_exact(2).zip(VERDICTS) {
        let r = ullmann_oracle::find_one(&pair[0], &pair[1], &MatchConfig::default());
        assert_eq!(r.outcome.is_found(), contains, "{name}");
    }
}
