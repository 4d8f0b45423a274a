//! The dataset every build's width test runs on: AIDS-like molecules with
//! dense graphs spliced in at the first, a middle and the last id, so that
//! the parallel builds' windows turn over many times among them and a
//! small enumeration budget
//! truncates the dense ones (`complete_len` below the configured depth)
//! while most molecules stay complete.

use crate::batch::available_cores;
use igq_graph::{graph_from, Graph, GraphStore};
use igq_workload::DatasetKind;
use std::sync::Arc;

/// Widths each build is compared at against width 1: a few fixed ones, so
/// a one-core machine still runs the multi-worker path, and the machine's.
pub(crate) fn widths() -> [usize; 3] {
    [2, 5, available_cores()]
}

/// Complete graph on `n` vertices with labels cycling through `labels`.
fn dense(n: u32, labels: u32) -> Graph {
    let vertex_labels: Vec<u32> = (0..n).map(|v| v % labels).collect();
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    graph_from(&vertex_labels, &edges)
}

/// AIDS-like molecules in the fixture, many times the widest window
/// compared ([`crate::par::AHEAD_PER_WORKER`] × 5 workers).
const MOLECULES: usize = 500;

/// [`MOLECULES`] AIDS-like graphs (seed 7) with three dense graphs spliced
/// in at ids 0, `MOLECULES / 2` and the last.
pub(crate) fn store() -> Arc<GraphStore> {
    let molecules = MOLECULES;
    let mut graphs: Vec<Graph> = DatasetKind::Aids
        .generate(molecules, 7)
        .iter()
        .map(|(_, g)| g.clone())
        .collect();
    graphs.insert(0, dense(9, 1));
    graphs.insert(molecules / 2, dense(8, 2));
    graphs.push(dense(10, 3));
    Arc::new(graphs.into_iter().collect())
}
