//! Property test pinning `Graph`'s flat label index (sorted `(label, end)`
//! keys over one label-grouped member array) to a hash-map grouping built
//! here from the vertex labels alone: every label in `0..=max + 1` gets
//! the same sorted group from `vertices_with_label`, `label_groups` yields
//! the groups in ascending label order, and `distinct_label_count`,
//! `label_histogram` and `heap_size_bytes` agree to the exact number.

use igq::graph::fxhash::FxHashMap;
use igq::graph::{graph_from, graph_from_el, Graph, LabelId, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::mem::size_of;

/// Vertex ids by label, each group ascending: the grouping the label index
/// must reproduce.
fn grouping(g: &Graph) -> FxHashMap<LabelId, Vec<VertexId>> {
    let mut groups: FxHashMap<LabelId, Vec<VertexId>> = FxHashMap::default();
    for v in g.vertices() {
        groups.entry(g.label(v)).or_default().push(v);
    }
    groups
}

/// The footprint `heap_size_bytes` must report: every array the graph
/// holds at its element size, the label index as `(label, end)` keys plus
/// one member per vertex, bitset rows up to 64 vertices.
fn expected_heap_bytes(g: &Graph, distinct: usize) -> u64 {
    let (n, m) = (g.vertex_count(), g.edge_count());
    let labels = n * size_of::<LabelId>();
    let offsets = (n + 1) * size_of::<u32>();
    let neighbors = 2 * m * size_of::<VertexId>();
    let edges = m * size_of::<(VertexId, VertexId)>();
    let edge_labels = if g.has_edge_labels() {
        m * size_of::<LabelId>()
    } else {
        0
    };
    let index = distinct * size_of::<(LabelId, u32)>() + n * size_of::<VertexId>();
    let bitset = if n <= 64 { n * size_of::<u64>() } else { 0 };
    (labels + offsets + neighbors + edges + edge_labels + index + bitset) as u64
}

fn check(g: &Graph, what: &str) {
    let groups = grouping(g);
    let max = g.labels().iter().map(|l| l.raw()).max().unwrap_or(0);
    for raw in 0..=max + 1 {
        let l = LabelId::new(raw);
        let want = groups.get(&l).map_or(&[][..], |vs| &vs[..]);
        assert_eq!(g.vertices_with_label(l), want, "{what}: label {raw}");
    }
    let listed: Vec<(LabelId, Vec<VertexId>)> =
        g.label_groups().map(|(l, vs)| (l, vs.to_vec())).collect();
    let mut want: Vec<(LabelId, Vec<VertexId>)> = groups.clone().into_iter().collect();
    want.sort_unstable_by_key(|&(l, _)| l);
    assert_eq!(listed, want, "{what}: label_groups, ascending by label");
    assert_eq!(g.distinct_label_count(), groups.len(), "{what}");
    let histogram: FxHashMap<LabelId, u32> =
        groups.iter().map(|(&l, vs)| (l, vs.len() as u32)).collect();
    assert_eq!(g.label_histogram(), histogram, "{what}");
    assert_eq!(
        g.heap_size_bytes(),
        expected_heap_bytes(g, groups.len()),
        "{what}: heap_size_bytes"
    );
}

/// A random graph: `n` vertices with labels drawn from a gapped alphabet
/// (so absent labels sit between present ones), each vertex joined to up
/// to three random others, and edge labels on a third of the graphs.
fn random_graph(rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(0..=100u32);
    let alphabet: Vec<u32> = (0..rng.gen_range(1..=8u32))
        .map(|i| i * 7 + rng.gen_range(0..5u32))
        .collect();
    let labels: Vec<u32> = (0..n)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect();
    let mut edges = Vec::new();
    for u in 0..n {
        for _ in 0..rng.gen_range(0..=3u32) {
            let v = rng.gen_range(0..n);
            if v != u {
                edges.push((u, v, rng.gen_range(0..3u32)));
            }
        }
    }
    if rng.gen_bool(1.0 / 3.0) {
        // Keep one label per unordered pair so no edge conflicts.
        edges.sort_unstable_by_key(|&(u, v, _)| (u.min(v), u.max(v)));
        edges.dedup_by_key(|&mut (u, v, _)| (u.min(v), u.max(v)));
        graph_from_el(&labels, &edges)
    } else {
        let plain: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        graph_from(&labels, &plain)
    }
}

#[test]
fn label_index_matches_a_hash_grouping_on_edge_cases() {
    let ring = |n: u32| -> Vec<(u32, u32)> { (0..n).map(|i| (i, (i + 1) % n)).collect() };
    let cases: Vec<(&str, Graph)> = vec![
        ("empty", graph_from(&[], &[])),
        ("one vertex", graph_from(&[4], &[])),
        ("one label", graph_from(&[2; 10], &ring(10))),
        ("64 vertices", graph_from(&[1; 64], &ring(64))),
        (
            "65 vertices",
            graph_from(&(0..65).map(|i| i % 3).collect::<Vec<_>>(), &ring(65)),
        ),
        ("label gaps", graph_from(&[9, 0, 500, 9, 0, 41], &ring(6))),
        ("descending labels", graph_from(&[5, 4, 3, 2, 1, 0], &[])),
        (
            "edge labels",
            graph_from_el(&[3, 1, 3], &[(0, 1, 2), (1, 2, 5)]),
        ),
    ];
    for (what, g) in &cases {
        check(g, what);
    }
}

#[test]
fn label_index_matches_a_hash_grouping_on_random_graphs() {
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        check(&g, &format!("seed {seed}"));
    }
}
