//! Property tests pinning the two posting-list kernels —
//! `FeatureTrie::containing` and `FeatureTrie::covered_by` — and the four
//! call sites routed through them (`Ggsx`/`Grapes` filter, the two probes
//! of `QueryIndex`, `ContainmentIndex`) to the hand-written loops they
//! replaced (`common::filter_oracle`): candidate lists must be the same
//! ids in the same order, so iso-test counts and everything downstream of
//! them are unchanged.

mod common;

use common::filter_oracle::{containment_candidates, OracleGgsx, OracleQueryIndex};
use common::{arb_graph, arb_store};
use igq::core::QueryIndex;
use igq::features::{enumerate_paths, FeatureTrie, LabelSeq, PathConfig, PathFeatures};
use igq::graph::{graph_from, Graph, GraphId, GraphStore, LabelId};
use igq::methods::{ContainmentIndex, Ggsx, GgsxConfig, Grapes, GrapesConfig, SubgraphMethod};
use igq::workload::{DatasetKind, QueryWorkloadSpec, DEFAULT_ALPHA};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const MAX_LEN: usize = 4;

/// Indexes `graph` under `slot` from one enumeration of its paths, as
/// `OracleQueryIndex::insert` does.
fn insert(index: &mut QueryIndex, path_config: PathConfig, slot: usize, graph: Arc<Graph>) {
    let features = enumerate_paths(&graph, &path_config);
    index.insert(slot, graph, &features);
}

fn seq(raws: &[u32]) -> LabelSeq {
    let labels: Vec<LabelId> = raws.iter().map(|&r| LabelId::new(r)).collect();
    LabelSeq::canonical(&labels)
}

/// Ten features over labels {0, 1}, every edge length 0..=4 present, plus
/// `doomed`: held only by members that are later removed.
fn pool() -> (Vec<LabelSeq>, LabelSeq) {
    let pool = [
        &[0][..],
        &[1],
        &[0, 0],
        &[0, 1],
        &[0, 1, 0],
        &[1, 1, 0],
        &[0, 0, 1, 1],
        &[0, 1, 0, 1],
        &[0, 0, 0, 0, 1],
        &[1, 0, 1, 0, 1],
    ];
    (pool.iter().map(|raws| seq(raws)).collect(), seq(&[1, 1, 1]))
}

/// A random feature multiset: each pool feature of length ≤ `depth` with
/// probability `p`, counts in 1..=3 (so equal counts recur).
fn random_features(rng: &mut StdRng, pool: &[LabelSeq], depth: usize, p: f64) -> PathFeatures {
    let mut features = PathFeatures {
        complete_len: depth,
        ..Default::default()
    };
    for s in pool.iter().filter(|s| s.edge_len() <= depth) {
        if rng.gen_bool(p) {
            features.counts.insert(s.clone(), rng.gen_range(1..=3u32));
        }
    }
    features
}

/// A generated posting world: up to 40 slots inserted in shuffled order
/// (out-of-order inserts), a random share removed again (tombstones; lists
/// of ≥ 8 entries that lose over half compact locally), some removed slots
/// re-admitted with fresh features (revival in place), about one member in
/// seven enumerated only to a depth below `MAX_LEN`.
fn world(seed: u64) -> (OracleQueryIndex, Vec<LabelSeq>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pool, doomed) = pool();
    let mut index = OracleQueryIndex::new(PathConfig::default());
    let dummy = Arc::new(graph_from(&[0], &[]));
    let members = rng.gen_range(1..=40usize);
    let mut order: Vec<usize> = (0..members).collect();
    order.shuffle(&mut rng);
    let removed_share = [0.0, 0.3, 0.7][rng.gen_range(0..3usize)];
    let mut removed = Vec::new();
    for &slot in &order {
        let depth = if rng.gen_bool(0.85) {
            MAX_LEN
        } else {
            rng.gen_range(0..MAX_LEN)
        };
        let mut features = random_features(&mut rng, &pool, depth, 0.7);
        let leaves = rng.gen_bool(removed_share);
        if leaves && depth >= doomed.edge_len() {
            features.counts.insert(doomed.clone(), 1);
        }
        index.insert_features(slot, Arc::clone(&dummy), &features);
        if leaves {
            removed.push(slot);
        }
    }
    removed.shuffle(&mut rng);
    for &slot in &removed {
        index.remove(slot);
    }
    removed.retain(|_| rng.gen_bool(0.3));
    for &slot in &removed {
        let features = random_features(&mut rng, &pool, MAX_LEN, 0.5);
        index.insert_features(slot, Arc::clone(&dummy), &features);
    }
    let mut query_pool = pool;
    query_pool.push(doomed);
    query_pool.push(seq(&[9, 9])); // never inserted
    (index, query_pool)
}

/// `containing` against `Ggsx::trie_filter`'s intersection: no truncated
/// pass (`shallow` empty) and a size screen that passes everything (the
/// query is the empty graph), so the oracle returns exactly its
/// intersection of the fully-indexed members.
fn check_containing(index: &OracleQueryIndex, features: &[(LabelSeq, u32)]) {
    // A removed slot keeps `MAX_LEN` here so that its tombstones, not the
    // eligibility predicate, are what excludes it.
    let complete_len: Vec<u8> = index
        .slots
        .iter()
        .map(|s| s.as_ref().map_or(MAX_LEN as u8, |e| e.complete_len))
        .collect();
    let eligible = |id: GraphId| complete_len[id.index()] as usize == MAX_LEN;
    let got = index
        .trie
        .containing(features.iter().map(|(s, c)| (s, *c)), eligible);
    if features.is_empty() {
        // The callers own this case (they know the universe); the loops
        // they ran before fell through to `unwrap_or_default()`.
        assert!(got.is_empty(), "empty feature set produced {got:?}");
        return;
    }
    let store: GraphStore = index.slots.iter().map(|_| graph_from(&[0], &[])).collect();
    let want = OracleGgsx::trie_filter(
        &store,
        &index.trie,
        &complete_len,
        &[],
        MAX_LEN,
        &graph_from(&[], &[]),
        features,
    );
    assert_eq!(got, want, "containing vs oracle for {features:?}");
}

/// `covered_by` against the loop-based `Isuper` candidates.
fn check_covered_by(index: &OracleQueryIndex, qf: &PathFeatures) {
    let ql = qf.complete_len;
    let got = index.trie.covered_by(
        qf.counts.iter().map(|(s, &c)| (s, c)),
        index.slots.len(),
        |slot| {
            let nf = &index.slots[slot].as_ref()?.nf_by_len;
            Some(nf[ql.min(nf.len() - 1)])
        },
    );
    assert_eq!(
        got,
        index.isuper_candidates(qf),
        "covered_by vs oracle for {qf:?}"
    );
}

/// Counts a dense row stores exactly (below 255), at saturation and past
/// it (kept in the overflow postings); 1 twice, as small counts are the
/// common case.
const COUNTS: [u32; 9] = [1, 2, 3, 254, 255, 256, 300, 1_000_000, 1];

/// Required counts of a `containing` probe, above 255 included.
const REQUIRED: [u32; 10] = [1, 2, 3, 254, 255, 256, 257, 300, 1_000_000, 1_000_001];

/// Two tries fed the same inserts and removes; `dense` was densified over
/// `universe` graph ids, `sparse` never is.
struct Twins {
    dense: FeatureTrie,
    sparse: FeatureTrie,
    universe: usize,
}

impl Twins {
    fn insert(&mut self, s: &LabelSeq, id: usize, count: u32) {
        self.dense.insert(s, GraphId::from_index(id), count);
        self.sparse.insert(s, GraphId::from_index(id), count);
    }

    fn remove(&mut self, s: &LabelSeq, id: usize) {
        let id = GraphId::from_index(id);
        assert_eq!(self.dense.remove(s, id), self.sparse.remove(s, id));
    }

    /// Live postings of `s` in the sparse twin.
    fn live(&self, s: &LabelSeq) -> Vec<(GraphId, u32)> {
        let postings = self.sparse.get(s);
        postings
            .iter()
            .filter(|p| p.count > 0)
            .map(|p| (p.graph, p.count))
            .collect()
    }

    /// Every reader of the dense twin against the sparse one, and
    /// `containing` against a scan of `count_in`. `members` bounds every
    /// id ever inserted.
    fn check(&self, pool: &[LabelSeq], members: usize, rng: &mut StdRng) {
        let (dense, sparse) = (&self.dense, &self.sparse);
        assert_eq!(dense.feature_count(), sparse.feature_count());
        assert_eq!(dense.posting_count(), sparse.posting_count());
        let features = |t: &FeatureTrie| {
            let mut all = Vec::new();
            t.for_each_feature(|s, ps| {
                let live: Vec<_> = ps.iter().filter(|p| p.count > 0).copied().collect();
                all.push((s.clone(), live));
            });
            all.sort_by(|a, b| a.0.cmp(&b.0));
            all
        };
        assert_eq!(features(dense), features(sparse));
        for s in pool {
            let live: Vec<(GraphId, u32)> = (dense.get(s).iter())
                .filter(|p| p.count > 0)
                .map(|p| (p.graph, p.count))
                .collect();
            assert_eq!(live, self.live(s), "get {s:?}");
            for id in (0..members).map(GraphId::from_index) {
                assert_eq!(
                    dense.count_in(s, id),
                    sparse.count_in(s, id),
                    "{s:?} {id:?}"
                );
            }
        }
        let is_dense = |s: &LabelSeq| self.live(s).len() * 8 >= self.universe;
        for round in 0..12 {
            // Every third probe takes only lists at or above the density
            // threshold: its seed is a row, unless writes since `densify`
            // moved a list across the threshold.
            let mut probe: Vec<(&LabelSeq, u32)> = Vec::new();
            for s in pool.iter().filter(|s| round % 3 != 0 || is_dense(s)) {
                if rng.gen_bool(0.5) {
                    probe.push((s, REQUIRED[rng.gen_range(0..REQUIRED.len())]));
                }
            }
            let (modulus, skip) = (rng.gen_range(1..5usize), rng.gen_range(0..4usize));
            let eligible = |id: GraphId| modulus == 1 || id.index() % modulus != skip;
            let got = dense.containing(probe.iter().copied(), eligible);
            assert_eq!(
                got,
                sparse.containing(probe.iter().copied(), eligible),
                "{probe:?}"
            );
            let want: Vec<GraphId> = (0..members)
                .map(GraphId::from_index)
                .filter(|&id| {
                    !probe.is_empty()
                        && eligible(id)
                        && probe.iter().all(|&(s, r)| sparse.count_in(s, id) >= r)
                })
                .collect();
            assert_eq!(got, want, "scan {probe:?}");
            let qcounts: Vec<(&LabelSeq, u32)> =
                probe.iter().map(|&(s, r)| (s, r.min(400))).collect();
            let held: Vec<u32> = (0..members)
                .map(|m| {
                    let id = GraphId::from_index(m);
                    pool.iter().filter(|s| sparse.count_in(s, id) > 0).count() as u32
                })
                .collect();
            let required = |m: usize| (m % 5 != 4).then_some(held[m]);
            assert_eq!(
                dense.covered_by(qcounts.iter().copied(), members, required),
                sparse.covered_by(qcounts.iter().copied(), members, required),
                "covered_by {qcounts:?}"
            );
        }
    }
}

/// A densified trie against its sparse twin: lists whose live postings
/// sit one below, at and one above an eighth of the universe, counts
/// around the byte's saturation and far past it,
/// tombstones before `densify`, and inserts (ids past the universe too),
/// growth across 255 and removes after it.
fn dense_twins(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let universe = [8, 16, 20, 24, 30, 64][rng.gen_range(0..6usize)];
    let members = universe + 6;
    let mut twins = Twins {
        dense: FeatureTrie::new(),
        sparse: FeatureTrie::new(),
        universe,
    };
    let (mut pool, doomed) = pool();
    pool.push(doomed);
    let eighth = universe.div_ceil(8);
    for (i, s) in pool.iter().enumerate() {
        let live = match i {
            0 => eighth,
            1 => eighth - 1,
            2 => eighth + 1,
            3 => universe,
            _ => rng.gen_range(0..=universe),
        };
        // `live` kept ids plus a few removed again (tombstones), inserted
        // out of order, the kept ones in one or two parts.
        let mut ids: Vec<usize> = (0..members).collect();
        ids.shuffle(&mut rng);
        let extra = rng.gen_range(0..4usize).min(members - live);
        for (k, &id) in ids[..live + extra].iter().enumerate() {
            let count = COUNTS[rng.gen_range(0..COUNTS.len())];
            if count > 1 && rng.gen_bool(0.3) {
                twins.insert(s, id, count / 2);
                twins.insert(s, id, count - count / 2);
            } else {
                twins.insert(s, id, count);
            }
            if k >= live {
                twins.remove(s, id);
            }
        }
    }
    let want_rows = pool
        .iter()
        .filter(|s| twins.live(s).len() * 8 >= universe)
        .count();
    twins.dense.densify(universe);
    assert_eq!(twins.dense.dense_count(), want_rows, "universe {universe}");
    assert!(want_rows >= 2, "the eighth and the full list are rows");
    twins.check(&pool, members, &mut rng);
    for _ in 0..4 {
        for _ in 0..rng.gen_range(1..40usize) {
            let s = &pool[rng.gen_range(0..pool.len())];
            let id = rng.gen_range(0..members);
            match rng.gen_range(0..4u32) {
                0 => twins.remove(s, id),
                1 if twins.sparse.count_in(s, GraphId::from_index(id)) == 0 => {
                    twins.insert(s, id, 254);
                    twins.insert(s, id, 1);
                }
                _ => twins.insert(s, id, COUNTS[rng.gen_range(0..COUNTS.len())]),
            }
        }
        twins.check(&pool, members, &mut rng);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dense rows ≡ sparse lists under every reader and writer.
    #[test]
    fn dense_rows_equal_their_sparse_twin(seed in any::<u64>()) {
        dense_twins(seed);
    }

    /// Both kernels ≡ the retained loops on generated tries.
    #[test]
    fn kernels_equal_the_oracle_loops(seed in any::<u64>()) {
        let (index, query_pool) = world(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
        for round in 0..8 {
            // Round 0 probes with the empty feature set.
            let p = if round == 0 { 0.0 } else { [0.15, 0.3, 0.6][rng.gen_range(0..3usize)] };
            let depth = if rng.gen_bool(0.8) { MAX_LEN } else { rng.gen_range(0..MAX_LEN) };
            let qf = random_features(&mut rng, &query_pool, depth, p);
            let features: Vec<(LabelSeq, u32)> =
                qf.counts.iter().map(|(s, &c)| (s.clone(), c)).collect();
            check_containing(&index, &features);
            check_covered_by(&index, &qf);
        }
    }

    /// The call sites ≡ the retained loops on small dense graphs under a
    /// tiny enumeration budget, where members and queries are truncated
    /// (`complete_len < max_len`) and the per-member pass carries weight.
    #[test]
    fn call_sites_equal_the_oracle_under_truncation(
        store in arb_store(10, 7, 2),
        queries in proptest::collection::vec(arb_graph(6, 2), 1..6),
        budget in 10u64..400,
    ) {
        let path_config = PathConfig { budget, ..PathConfig::default() };
        let ggsx = Ggsx::build(&store, GgsxConfig { path_budget: budget, ..Default::default() });
        let oracle_ggsx = OracleGgsx::build(&store, path_config);
        let mut index = QueryIndex::new(path_config);
        let mut oracle = OracleQueryIndex::new(path_config);
        // Cache the dataset graphs themselves, evict every third, then
        // refill the first evicted slot.
        let graphs: Vec<Arc<Graph>> = store.iter().map(|(_, g)| Arc::new(g.clone())).collect();
        for (slot, g) in graphs.iter().enumerate() {
            insert(&mut index, path_config, slot, Arc::clone(g));
            oracle.insert(slot, Arc::clone(g));
        }
        for slot in (0..graphs.len()).step_by(3) {
            index.remove(slot);
            oracle.remove(slot);
        }
        insert(&mut index, path_config, 0, Arc::clone(&graphs[graphs.len() - 1]));
        oracle.insert(0, Arc::clone(&graphs[graphs.len() - 1]));
        for q in &queries {
            prop_assert_eq!(ggsx.filter(q).candidates, oracle_ggsx.filter(q), "{:?}", q);
            let qf = enumerate_paths(q, &path_config);
            let (slots, stats) = index.supergraphs_of(q, &qf);
            prop_assert_eq!((slots, stats.tests), oracle.supergraphs_of(q, &qf), "Isub {:?}", q);
            let (slots, stats) = index.subgraphs_of(q, &qf);
            prop_assert_eq!((slots, stats.tests), oracle.subgraphs_of(q, &qf), "Isuper {:?}", q);
        }
    }
}

/// The two list shapes the generator only reaches by chance, built on
/// purpose: a list that is nothing but tombstones, and one that lost over
/// half of ≥ 8 entries and compacted on the spot.
#[test]
fn fully_tombstoned_and_locally_compacted_lists() {
    let mut index = OracleQueryIndex::new(PathConfig::default());
    let dummy = Arc::new(graph_from(&[0], &[]));
    let (common, rare, wide) = (seq(&[0]), seq(&[0, 1]), seq(&[1, 1]));
    for slot in 0..16usize {
        let mut features = PathFeatures {
            complete_len: MAX_LEN,
            ..Default::default()
        };
        features.counts.insert(common.clone(), 1 + slot as u32 % 2);
        if slot < 3 {
            features.counts.insert(rare.clone(), 2);
        }
        if slot < 12 {
            features.counts.insert(wide.clone(), 1);
        }
        index.insert_features(slot, Arc::clone(&dummy), &features);
    }
    for slot in 0..9 {
        index.remove(slot);
    }
    let raw = |s: &LabelSeq| index.trie.get(s).to_vec();
    assert!(raw(&rare).len() == 3 && raw(&rare).iter().all(|p| p.count == 0));
    assert_eq!(raw(&wide).len(), 5, "compacted at the 7th removal of 12");
    assert_eq!(raw(&wide).iter().filter(|p| p.count == 0).count(), 2);
    assert_eq!(raw(&common).len(), 7, "16 entries, 9 removed: compacted");
    for features in [
        vec![(common.clone(), 1)],
        vec![(common.clone(), 2), (wide.clone(), 1)],
        vec![(common.clone(), 1), (rare.clone(), 1)],
        vec![(rare.clone(), 1)],
        vec![],
    ] {
        check_containing(&index, &features);
        let qf = PathFeatures {
            counts: features.into_iter().collect(),
            complete_len: MAX_LEN,
            ..Default::default()
        };
        check_covered_by(&index, &qf);
    }
    let both = [(&common, 1), (&wide, 1)];
    let got = index.trie.containing(both, |_| true);
    let want: Vec<GraphId> = (9..12).map(GraphId::new).collect();
    assert_eq!(got, want);
}

/// The bug `covered_by` closes: `ContainmentIndex::candidates` as PR 20
/// shipped it counts a tombstone (`0 <= qcount`) as a covered feature, so
/// a removed member is still a candidate. Harmless while the index never
/// removes — on tombstone-free tries the two agree (see the fixture test).
#[test]
fn the_containment_loop_counted_tombstones_the_kernel_does_not() {
    let mut trie = FeatureTrie::new();
    let (a, b) = (seq(&[3]), seq(&[3, 4]));
    trie.insert(&a, GraphId::new(0), 1);
    trie.insert(&a, GraphId::new(1), 1);
    trie.insert(&b, GraphId::new(1), 1);
    let nf_by_len = vec![vec![1, 1, 1, 1, 1], vec![1, 2, 2, 2, 2]];
    let qf = PathFeatures {
        counts: [(a.clone(), 1), (b.clone(), 1)].into_iter().collect(),
        complete_len: MAX_LEN,
        ..Default::default()
    };
    let kernel = |trie: &FeatureTrie| {
        trie.covered_by(qf.counts.iter().map(|(s, &c)| (s, c)), 2, |m| {
            Some(nf_by_len[m][MAX_LEN])
        })
    };
    assert_eq!(kernel(&trie), vec![0, 1]);
    assert_eq!(containment_candidates(&trie, &nf_by_len, &qf), vec![0, 1]);
    assert!(trie.remove(&a, GraphId::new(0)));
    assert_eq!(kernel(&trie), vec![1]);
    assert_eq!(containment_candidates(&trie, &nf_by_len, &qf), vec![0, 1]);
}

/// The benchmark's shape: AIDS-like molecules, uni-uni queries of the
/// paper's sizes. The dataset filters (`Ggsx`, `Grapes`, Algorithm 2 over
/// the dataset) and a C=64 query cache churned six slots at a time return
/// the oracle's lists and spend the oracle's iso tests.
#[test]
fn aids_fixture_lists_and_iso_tests_match_the_oracle() {
    const CACHE: usize = 64;
    const WINDOW: usize = 6;
    let store = Arc::new(DatasetKind::Aids.generate(300, 7));
    let queries =
        QueryWorkloadSpec::named(false, false, DEFAULT_ALPHA, 360, 0xF117).generate(&store);
    let path_config = PathConfig::default();

    let ggsx = Ggsx::build(&store, GgsxConfig::default());
    let grapes = Grapes::build(
        &store,
        GrapesConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let oracle_ggsx = OracleGgsx::build(&store, path_config);
    // The oracle's trie is sparse; the filters under test read the same
    // lists with the common ones as rows.
    let mut densified = oracle_ggsx.trie.clone();
    densified.densify(store.len());
    assert!(
        densified.dense_count() > 0,
        "the fixture has common features"
    );
    let containment = ContainmentIndex::build(store.iter().map(|(_, g)| g), path_config);
    let mut member_nf = OracleQueryIndex::new(path_config);
    for (id, g) in store.iter() {
        member_nf.insert(id.index(), Arc::new(g.clone()));
    }
    let nf_by_len: Vec<Vec<u32>> = member_nf
        .slots
        .iter()
        .map(|s| s.as_ref().expect("every member inserted").nf_by_len.clone())
        .collect();

    let mut index = QueryIndex::new(path_config);
    let mut oracle = OracleQueryIndex::new(path_config);
    let mut rng = StdRng::seed_from_u64(0xF11D);
    let (mut flips, mut probes, mut isub_hits, mut isuper_hits) = (0, 0, 0, 0);
    for (i, q) in queries.iter().enumerate() {
        let shared = Arc::new(q.clone());
        if i < CACHE {
            insert(&mut index, path_config, i, Arc::clone(&shared));
            oracle.insert(i, shared);
            continue;
        }
        let qf = enumerate_paths(q, &path_config);
        let base = ggsx.filter(q);
        assert_eq!(base.candidates, oracle_ggsx.filter(q), "Ggsx {q:?}");
        assert!(
            base.context.path_features.is_none(),
            "GGSX verify reads no context"
        );
        let located = grapes.filter(q);
        assert_eq!(located.candidates, base.candidates, "Grapes {q:?}");
        assert!(
            located.context.path_features.is_some(),
            "Grapes verify reads its context"
        );
        assert_eq!(
            containment.candidates(&qf),
            containment_candidates(&member_nf.trie, &nf_by_len, &qf),
            "ContainmentIndex {q:?}"
        );

        let (slots, stats) = index.supergraphs_of(q, &qf);
        isub_hits += slots.len();
        assert_eq!(
            (slots, stats.tests),
            oracle.supergraphs_of(q, &qf),
            "Isub {q:?}"
        );
        let (slots, stats) = index.subgraphs_of(q, &qf);
        isuper_hits += slots.len();
        assert_eq!(
            (slots, stats.tests),
            oracle.subgraphs_of(q, &qf),
            "Isuper {q:?}"
        );
        probes += 1;

        // A flip every WINDOW queries: this query and the five before it
        // replace six randomly chosen residents.
        if (i - CACHE) % WINDOW == WINDOW - 1 {
            // The live probe above ran on resident plans that earlier
            // probes built, across earlier flips that reused their slots:
            // a fresh build over the same residents agrees.
            let residents = (oracle.slots.iter().enumerate())
                .filter_map(|(s, o)| Some((s, Arc::clone(&o.as_ref()?.graph))));
            let (slots, stats) = QueryIndex::build(residents, path_config).subgraphs_of(q, &qf);
            assert_eq!(
                (slots, stats.tests),
                oracle.subgraphs_of(q, &qf),
                "fresh {q:?}"
            );
            let mut victims: Vec<usize> = (0..CACHE).collect();
            victims.shuffle(&mut rng);
            for (&slot, admitted) in victims.iter().zip(&queries[i + 1 - WINDOW..=i]) {
                let admitted = Arc::new(admitted.clone());
                index.remove(slot);
                oracle.remove(slot);
                insert(&mut index, path_config, slot, Arc::clone(&admitted));
                oracle.insert(slot, admitted);
            }
            flips += 1;
        }
    }
    assert!(
        probes >= 290 && flips >= 40,
        "{probes} probes, {flips} flips"
    );
    assert!(
        oracle.trie.tombstone_count() > 0,
        "churn left tombstones to skip"
    );
    assert!(
        isub_hits > 0 && isuper_hits > 0,
        "both probes found cached queries"
    );
}
