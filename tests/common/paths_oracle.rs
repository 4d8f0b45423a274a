//! The level-by-level path enumerator `igq_features::paths` used before the
//! single-walk interning enumerator, kept verbatim as the test oracle for
//! it. It re-walks levels 1..ℓ−1 for every level ℓ and allocates and
//! hashes a `LabelSeq` per path occurrence, so it is slow — but its
//! `PathFeatures` (counts, locations, `complete_len`, and the *iteration
//! order* of both maps, which reaches checkpoint bytes through
//! `QueryIndex::insert`) are what the library must reproduce.
//!
//! The one addition is the visit total, returned next to the features:
//! with an unlimited budget and `max_len = ℓ` it is V(ℓ), the cumulative
//! cost of levels 1..=ℓ that the budget is compared against.

use igq::features::{LabelSeq, PathConfig, PathFeatures};
use igq::graph::fxhash::FxHashMap;
use igq::graph::{Graph, LabelId, VertexId};

/// One iterative-deepening level: enumerate directed simple paths of length
/// exactly `level`, recording counts/locations into level-local maps.
struct LevelRun<'a> {
    graph: &'a Graph,
    level: usize,
    want_locations: bool,
    budget: u64,
    visits: &'a mut u64,
    tripped: bool,
    directed: FxHashMap<LabelSeq, u32>,
    loc_pairs: FxHashMap<LabelSeq, Vec<VertexId>>,
    on_path: Vec<bool>,
    label_stack: Vec<LabelId>,
}

impl<'a> LevelRun<'a> {
    fn dfs(&mut self, start: VertexId, v: VertexId, depth: usize) {
        if self.tripped {
            return;
        }
        if depth == self.level {
            let seq = LabelSeq::canonical(&self.label_stack);
            if self.want_locations {
                let entry = self.loc_pairs.entry(seq.clone()).or_default();
                entry.push(start);
                entry.push(v);
            }
            *self.directed.entry(seq).or_insert(0) += 1;
            return;
        }
        for &w in self.graph.neighbors(v) {
            if self.on_path[w.index()] {
                continue;
            }
            if *self.visits >= self.budget {
                self.tripped = true;
                return;
            }
            *self.visits += 1;
            self.on_path[w.index()] = true;
            self.label_stack.push(self.graph.label(w));
            self.dfs(start, w, depth + 1);
            self.label_stack.pop();
            self.on_path[w.index()] = false;
        }
    }
}

/// The oracle's path features of `g` under `config`, with endpoint
/// locations when `want_locations`, and the DFS edge visits it made.
pub fn oracle_paths(g: &Graph, config: &PathConfig, want_locations: bool) -> (PathFeatures, u64) {
    let mut counts: FxHashMap<LabelSeq, u32> = FxHashMap::default();
    let mut locations: FxHashMap<LabelSeq, Vec<VertexId>> = FxHashMap::default();
    let mut complete_len = 0usize;
    let mut visits = 0u64;

    if config.include_vertices {
        for v in g.vertices() {
            let seq = LabelSeq::single(g.label(v));
            *counts.entry(seq.clone()).or_insert(0) += 1;
            if want_locations {
                locations.entry(seq).or_default().push(v);
            }
        }
    }

    for level in 1..=config.max_len {
        let mut run = LevelRun {
            graph: g,
            level,
            want_locations,
            budget: config.budget,
            visits: &mut visits,
            tripped: false,
            directed: FxHashMap::default(),
            loc_pairs: FxHashMap::default(),
            on_path: vec![false; g.vertex_count()],
            label_stack: Vec::with_capacity(level + 1),
        };
        for v in g.vertices() {
            run.on_path[v.index()] = true;
            run.label_stack.push(g.label(v));
            run.dfs(v, v, 0);
            run.label_stack.pop();
            run.on_path[v.index()] = false;
            if run.tripped {
                break;
            }
        }
        if run.tripped {
            // Discard the partial level: shorter levels stay exhaustive.
            break;
        }
        for (seq, directed) in run.directed {
            debug_assert!(directed % 2 == 0, "each undirected path is seen twice");
            counts.insert(seq, directed / 2);
        }
        for (seq, pairs) in run.loc_pairs {
            locations.entry(seq).or_default().extend(pairs);
        }
        complete_len = level;
    }

    for locs in locations.values_mut() {
        locs.sort_unstable();
        locs.dedup();
    }

    (
        PathFeatures {
            counts,
            locations,
            complete_len,
        },
        visits,
    )
}
