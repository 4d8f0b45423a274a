//! The canonical-labelling search `igq_graph::canon` shipped through PR 18,
//! kept verbatim as the test oracle for its orbit-pruned replacement: it
//! visits every leaf of the individualization tree (one per automorphism)
//! and allocates per vertex per refinement round, so it is slow and gives
//! up on symmetric graphs — but wherever it returns `Some`, the library's
//! [`igq::graph::canon::canonical_code`] must return byte-identical words
//! (persisted checkpoints, WAL groups and follower streams carry them).

use igq::graph::canon::CanonicalCode;
use igq::graph::Graph;

/// Vertex-count cap for [`oracle_canonical_code`]; beyond it the search space is
/// not worth exploring for a cache fast path (queries are ≤ ~25 vertices).
const MAX_CANON_VERTICES: usize = 128;

/// Leaf budget for the individualization search: highly symmetric graphs
/// (near-cliques of one label) explode combinatorially, so the search gives
/// up — soundly — rather than stall the query path.
const MAX_CANON_LEAVES: u64 = 4096;

/// Computes the canonical code of `g` by color refinement with
/// individualization backtracking (a small-scale version of the canonical
/// labeling at the heart of nauty-family tools).
///
/// Returns `None` when `g` exceeds `MAX_CANON_VERTICES` (128) or the search
/// exceeds its leaf budget — callers fall back to the signature + exact
/// isomorphism-test path, so a `None` is a missed optimization, never an
/// error.
pub fn oracle_canonical_code(g: &Graph) -> Option<CanonicalCode> {
    let n = g.vertex_count();
    if n > MAX_CANON_VERTICES {
        return None;
    }
    if n == 0 {
        return Some(CanonicalCode::from_words(vec![0, 0]));
    }
    // Seed colors: dense ids of the sorted (label, degree) pairs.
    let mut seed_keys: Vec<(u32, u32)> = g
        .vertices()
        .map(|v| (g.label(v).raw(), g.degree(v) as u32))
        .collect();
    let mut sorted = seed_keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let mut colors: Vec<u32> = seed_keys
        .drain(..)
        .map(|k| sorted.binary_search(&k).expect("own key") as u32)
        .collect();
    refine(g, &mut colors);

    let mut leaves = 0u64;
    let mut best: Option<Vec<u64>> = None;
    if search(g, colors, &mut leaves, &mut best) {
        return None; // budget exhausted
    }
    best.map(CanonicalCode::from_words)
}

/// Refines `colors` to the coarsest stable (equitable) partition. Color
/// ids are dense and isomorphism-invariant: they are ranks of sorted
/// (old color, sorted neighborhood profile) keys.
fn refine(g: &Graph, colors: &mut Vec<u32>) {
    let n = g.vertex_count();
    loop {
        let mut keys: Vec<(u32, Vec<(u32, u32)>)> = Vec::with_capacity(n);
        for v in g.vertices() {
            let mut profile: Vec<(u32, u32)> = g
                .neighbors(v)
                .iter()
                .map(|&w| (g.edge_label_unchecked(v, w).raw(), colors[w.index()]))
                .collect();
            profile.sort_unstable();
            keys.push((colors[v.index()], profile));
        }
        let mut sorted: Vec<&(u32, Vec<(u32, u32)>)> = keys.iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        let next: Vec<u32> = keys
            .iter()
            .map(|k| sorted.binary_search(&k).expect("own key") as u32)
            .collect();
        if next == *colors {
            return;
        }
        *colors = next;
    }
}

/// Depth-first individualization. Returns `true` when the leaf budget was
/// exhausted (the caller must discard `best`).
fn search(g: &Graph, colors: Vec<u32>, leaves: &mut u64, best: &mut Option<Vec<u64>>) -> bool {
    // Locate the smallest-id color class with more than one member.
    let n = g.vertex_count();
    let mut class_size = vec![0u32; n];
    for &c in &colors {
        class_size[c as usize] += 1;
    }
    let target = (0..n).find(|&c| class_size[c] > 1);
    let Some(target) = target else {
        // Discrete partition: colors form a bijection vertex -> position.
        *leaves += 1;
        if *leaves > MAX_CANON_LEAVES {
            return true;
        }
        let code = leaf_code(g, &colors);
        match best {
            Some(b) if *b <= code => {}
            _ => *best = Some(code),
        }
        return false;
    };

    for v in g.vertices() {
        if colors[v.index()] as usize != target {
            continue;
        }
        // Individualize v ahead of its classmates: double every color
        // (order-preserving), then put v strictly first within its class.
        let mut child: Vec<u32> = colors.iter().map(|&c| c * 2 + 1).collect();
        child[v.index()] -= 1;
        refine(g, &mut child);
        if search(g, child, leaves, best) {
            return true;
        }
    }
    false
}

/// Serializes the graph under the discrete coloring (color = position).
fn leaf_code(g: &Graph, colors: &[u32]) -> Vec<u64> {
    let n = g.vertex_count();
    let mut code = Vec::with_capacity(2 + n + g.edge_count());
    code.push(n as u64);
    code.push(g.edge_count() as u64);
    // Vertex labels by canonical position.
    let mut labels = vec![0u64; n];
    for v in g.vertices() {
        labels[colors[v.index()] as usize] = g.label(v).raw() as u64;
    }
    code.extend_from_slice(&labels);
    // Edges as (min position, max position, edge label), sorted.
    let mut edges: Vec<(u32, u32, u32)> = g
        .labeled_edges()
        .map(|((u, v), l)| {
            let (a, b) = (colors[u.index()], colors[v.index()]);
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            (a, b, l.raw())
        })
        .collect();
    edges.sort_unstable();
    // Pack (a, b, label): positions need ≤ 8 bits (n ≤ 128), labels 32.
    code.extend(
        edges
            .into_iter()
            .map(|(a, b, l)| ((a as u64) << 44) | ((b as u64) << 32) | l as u64),
    );
    code
}
