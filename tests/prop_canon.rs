//! Property tests pinning `igq_graph::canon::canonical_code` — the
//! orbit-pruned, allocation-free search — to the exhaustive search it
//! replaced (`common::canon_oracle`): the words are persisted, routed on
//! and streamed to followers, so they must stay byte-identical.

mod common;

use common::canon_oracle::oracle_canonical_code;
use common::oracle_are_isomorphic;
use igq::graph::canon::{canonical_code, GraphSignature};
use igq::graph::{graph_from, graph_from_el, Graph};
use igq::workload::{DatasetKind, QueryWorkloadSpec, DEFAULT_ALPHA};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's allocations (growths included), for the
/// warm-scratch property.
struct CountingAllocator;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a bump of a const-initialized, destructor-free thread-local counter,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A random labeled graph of at most 21 vertices (the paper's query
/// sizes): one to four vertex labels, with or without edge labels, built
/// on a random spanning tree (connected) or not (usually disconnected when
/// sparse), sparse to dense. Few labels and low density keep symmetric
/// cases — equal pendants, twin branches — frequent.
fn random_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=21u32);
    let vertex_labels = rng.gen_range(1..=4u32);
    let edge_labels = if rng.gen_bool(0.5) {
        1
    } else {
        rng.gen_range(2..=3u32)
    };
    let density = [0.0, 0.05, 0.2, 0.5][rng.gen_range(0..4usize)];
    let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..vertex_labels)).collect();
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    if rng.gen_bool(0.6) {
        for v in 1..n {
            edges.push((rng.gen_range(0..v), v, rng.gen_range(0..edge_labels)));
        }
    }
    for u in 0..n {
        for v in (u + 1)..n {
            let present = edges.iter().any(|&(a, b, _)| (a, b) == (u, v));
            if !present && rng.gen_bool(density) {
                edges.push((u, v, rng.gen_range(0..edge_labels)));
            }
        }
    }
    graph_from_el(&labels, &edges)
}

/// `g` under a random renaming of its vertices.
fn shuffled(g: &Graph, seed: u64) -> Graph {
    let mut perm: Vec<u32> = (0..g.vertex_count() as u32).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut labels = vec![0; g.vertex_count()];
    for v in g.vertices() {
        labels[perm[v.index()] as usize] = g.label(v).raw();
    }
    let edges: Vec<(u32, u32, u32)> = g
        .labeled_edges()
        .map(|((u, v), l)| (perm[u.index()], perm[v.index()], l.raw()))
        .collect();
    graph_from_el(&labels, &edges)
}

/// Disjoint union (vertex ids of `b` shifted past `a`'s).
fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let shift = a.vertex_count() as u32;
    let labels: Vec<u32> = a
        .labels()
        .iter()
        .chain(b.labels())
        .map(|l| l.raw())
        .collect();
    let edges: Vec<(u32, u32, u32)> = a
        .labeled_edges()
        .map(|((u, v), l)| (u.raw(), v.raw(), l.raw()))
        .chain(
            b.labeled_edges()
                .map(|((u, v), l)| (u.raw() + shift, v.raw() + shift, l.raw())),
        )
        .collect();
    graph_from_el(&labels, &edges)
}

fn cycle(n: u32) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    graph_from(&vec![0; n as usize], &edges)
}

fn star(k: u32) -> Graph {
    let edges: Vec<(u32, u32)> = (1..=k).map(|v| (0, v)).collect();
    graph_from(&vec![0; k as usize + 1], &edges)
}

fn clique(n: u32) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    graph_from(&vec![0; n as usize], &edges)
}

fn k33() -> Graph {
    let edges: Vec<(u32, u32)> = (0..3).flat_map(|i| (3..6).map(move |j| (i, j))).collect();
    graph_from(&[0; 6], &edges)
}

fn petersen() -> Graph {
    let edges: Vec<(u32, u32)> = (0..5)
        .flat_map(|i| [(i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5)])
        .collect();
    graph_from(&[0; 10], &edges)
}

/// The new words equal the oracle's wherever the oracle has words, and a
/// relabeling never changes them.
fn assert_matches_oracle(g: &Graph, name: &str) {
    let new = canonical_code(g);
    if let Some(old) = oracle_canonical_code(g) {
        assert_eq!(
            new.as_ref(),
            Some(&old),
            "{name}: words differ from the oracle's"
        );
    }
    assert!(
        new.is_some(),
        "{name}: symmetric families fit the pruned budget"
    );
    for seed in 0..4 {
        assert_eq!(
            canonical_code(&shuffled(g, seed)),
            new,
            "{name}: relabeling {seed}"
        );
    }
}

#[test]
fn symmetric_families_match_the_oracle() {
    let mut family: Vec<(String, Graph)> = Vec::new();
    for n in 3..=12 {
        family.push((format!("C{n}"), cycle(n)));
    }
    for k in 1..=7 {
        family.push((format!("K1,{k}"), star(k)));
    }
    for n in 1..=7 {
        family.push((format!("K{n}"), clique(n)));
    }
    family.push(("K3,3".to_owned(), k33()));
    family.push(("Petersen".to_owned(), petersen()));
    // Past the oracle's budget: only relabeling invariance is checked.
    family.push(("K9".to_owned(), clique(9)));
    family.push(("K1,9".to_owned(), star(9)));
    let doubled: Vec<(String, Graph)> = family
        .iter()
        .filter(|(_, g)| g.vertex_count() <= 7)
        .map(|(name, g)| (format!("2 x {name}"), disjoint_union(g, g)))
        .collect();
    family.extend(doubled);
    for (name, g) in &family {
        assert_matches_oracle(g, name);
    }
    // Codes separate the 1-WL-indistinguishable members.
    assert_ne!(
        canonical_code(&cycle(6)),
        canonical_code(&disjoint_union(&cycle(3), &cycle(3)))
    );
}

/// The benchmark's query shape: AIDS-like molecules, the paper's query
/// sizes, zipf-zipf and uni-uni streams.
#[test]
fn generated_aids_queries_match_the_oracle() {
    let store = DatasetKind::Aids.generate(400, 7);
    for zipf in [true, false] {
        let queries =
            QueryWorkloadSpec::named(zipf, zipf, DEFAULT_ALPHA, 1500, 0xC0DE).generate(&store);
        let mut compared = 0;
        for q in &queries {
            let new = canonical_code(q);
            assert!(
                new.is_some(),
                "query-sized molecules fit the pruned budget: {q:?}"
            );
            if let Some(old) = oracle_canonical_code(q) {
                assert_eq!(new, Some(old), "{q:?}");
                compared += 1;
            }
        }
        assert!(
            compared * 10 >= queries.len() * 9,
            "oracle gave up on {compared}/1500"
        );
    }
}

/// A warm thread's scratch already fits the graph: the second call
/// allocates the returned code and nothing else.
#[test]
fn a_second_call_grows_no_scratch_buffer() {
    let graphs: Vec<Graph> = (0..64)
        .map(random_graph)
        .chain([clique(9), petersen()])
        .collect();
    for g in &graphs {
        let warm = canonical_code(g);
        let before = ALLOCATIONS.with(Cell::get);
        let again = canonical_code(g);
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(again, warm);
        assert!(
            allocated <= 1,
            "{allocated} allocations on a warm call for {g:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (a) Byte-identical words wherever the old search returned `Some`.
    #[test]
    fn words_equal_the_oracles(seed in any::<u64>()) {
        let g = random_graph(seed);
        if let Some(old) = oracle_canonical_code(&g) {
            prop_assert_eq!(canonical_code(&g), Some(old), "{:?}", g);
        }
    }

    /// (a) again, on two disjoint copies of one random component — every
    /// leaf then has a twin under the copy-swapping automorphism.
    #[test]
    fn words_equal_the_oracles_on_doubled_graphs(seed in any::<u64>()) {
        let half = random_graph(seed);
        if half.vertex_count() > 10 {
            return Ok(());
        }
        let g = disjoint_union(&half, &shuffled(&half, seed));
        if let Some(old) = oracle_canonical_code(&g) {
            prop_assert_eq!(canonical_code(&g), Some(old), "{:?}", g);
        }
    }

    /// (b) A vertex permutation never changes the code — including on
    /// graphs the oracle gives up on.
    #[test]
    fn code_is_permutation_invariant(seed in any::<u64>(), perm_seed in any::<u64>()) {
        let g = random_graph(seed);
        prop_assert_eq!(canonical_code(&g), canonical_code(&shuffled(&g, perm_seed)), "{:?}", g);
    }
}

/// A near-regular graph and a degree-preserving rewiring of it: 1-WL (and
/// so `GraphSignature`) rarely separates the two, while their isomorphism
/// class usually differs.
fn rewired_pair(seed: u64) -> (Graph, Graph) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(6..=12u32);
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    if rng.gen_bool(0.5) {
        // Chords i — i + n/2 make the cycle 3-regular (n even) or nearly so.
        edges.extend((0..n / 2).map(|i| (i, i + n / 2)));
    }
    let a = graph_from(&vec![0; n as usize], &edges);
    let has = |e: &[(u32, u32)], u: u32, v: u32| e.contains(&(u, v)) || e.contains(&(v, u));
    for _ in 0..rng.gen_range(1..=3u32) {
        let (i, j) = (rng.gen_range(0..edges.len()), rng.gen_range(0..edges.len()));
        let ((p, q), (r, s)) = (edges[i], edges[j]);
        if p != s && r != q && !has(&edges, p, s) && !has(&edges, r, q) {
            edges[i] = (p, s);
            edges[j] = (r, q);
        }
    }
    let b = shuffled(&graph_from(&vec![0; n as usize], &edges), seed);
    (a, b)
}

/// (c) Equal code ⇔ isomorphic on pairs with equal `GraphSignature` — the
/// pairs the engine's signature prefilter cannot tell apart.
#[test]
fn equal_codes_iff_isomorphic_on_equal_signatures() {
    let mut rng = StdRng::seed_from_u64(0x150);
    let small = |rng: &mut StdRng| {
        let n = rng.gen_range(2..=6u32);
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .filter(|_| rng.gen_bool(0.4))
            .collect();
        graph_from(&labels, &edges)
    };
    let pairs = (0..600)
        .map(rewired_pair)
        .chain((0..6000).map(|_| (small(&mut rng), small(&mut rng))));
    let (mut isomorphic, mut distinct) = (0, 0);
    for (a, b) in pairs {
        if GraphSignature::of(&a) != GraphSignature::of(&b) {
            continue;
        }
        let (ca, cb) = (canonical_code(&a), canonical_code(&b));
        assert!(ca.is_some() && cb.is_some());
        let iso = oracle_are_isomorphic(&a, &b);
        assert_eq!(ca == cb, iso, "{a:?} vs {b:?}");
        if iso {
            isomorphic += 1;
        } else {
            distinct += 1;
        }
    }
    assert!(
        isomorphic >= 50 && distinct >= 50,
        "both outcomes must be exercised: {isomorphic} isomorphic, {distinct} not"
    );
}
