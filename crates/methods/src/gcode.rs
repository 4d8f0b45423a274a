//! gCode-style vertex-signature filtering (clean-room analogue of Zou et
//! al., "A novel spectral coding in a large graph database", EDBT 2008 —
//! \[53\] in the paper's related work).
//!
//! Unlike the feature-indexing methods (GGSX, Grapes, CT-Index), gCode does
//! not enumerate substructures. It computes a *signature per vertex*
//! reflecting that vertex's neighborhood, combines them into a per-graph
//! code, and filters by signature dominance. The original uses spectral
//! codes (eigenvalues of neighborhood matrices); our analogue uses label
//! spectra — bucketed neighbor-label counts and length-2 walk counts —
//! which preserve the property that matters for correctness: **any
//! monomorphism image dominates the pattern vertex's signature**, so
//! dominance filtering has no false negatives.
//!
//! Concretely, vertex `v`'s signature holds, per label bucket `b`:
//!
//! * `nbr[b]` — number of neighbors of `v` whose label hashes to `b`;
//! * `walk2[b]` — number of length-2 walks `v–x–w` (`w ≠ v`) whose endpoint
//!   label hashes to `b`.
//!
//! If `φ` embeds query `q` into graph `G`, each neighbor (resp. length-2
//! walk) of `u` maps injectively to a neighbor (resp. walk) of `φ(u)` with
//! the same label, hence the same bucket — so `sig(u) ≤ sig(φ(u))`
//! componentwise. Counts saturate at `u16::MAX`; saturation is monotone, so
//! dominance still cannot produce false negatives.
//!
//! Filtering runs in three stages, each sound on its own:
//!
//! 1. **graph-level dominance** — the query's vertex-label histogram (and
//!    vertex/edge counts) must be dominated by the graph's;
//! 2. **per-vertex dominance** — every query vertex needs at least one
//!    same-label data vertex with ≥ degree and a dominating signature;
//! 3. **injectivity (optional)** — a maximum bipartite matching between
//!    query vertices and compatible data vertices must cover all query
//!    vertices (an embedding *is* such a matching, so a deficient matching
//!    proves non-containment). Stage 3 is the `matching` config toggle and
//!    is ablated in the benchmark suite.

use crate::batch::available_cores;
use crate::method::{Filtered, QueryContext, SubgraphMethod, VerifyOutcome};
use crate::par::map_in_order;
use igq_graph::fxhash::FxHashMap;
use igq_graph::{Graph, GraphId, GraphStore, LabelId, VertexId};
use igq_iso::MatchConfig;
use std::sync::Arc;

/// gCode configuration.
#[derive(Debug, Clone, Copy)]
pub struct GCodeConfig {
    /// Number of label buckets per signature half (default 8). More buckets
    /// mean finer spectra — stronger pruning, larger index.
    pub label_buckets: usize,
    /// Whether stage 3 (bipartite-matching injectivity check) runs. Costs
    /// more per graph but prunes candidates pure dominance cannot.
    pub matching: bool,
    /// Verification engine configuration.
    pub match_config: MatchConfig,
}

impl Default for GCodeConfig {
    fn default() -> Self {
        GCodeConfig {
            label_buckets: 8,
            matching: true,
            match_config: MatchConfig::default(),
        }
    }
}

/// Per-graph code: label histogram plus flat per-vertex signatures.
#[derive(Debug, Clone)]
struct GraphCode {
    /// `label -> multiplicity`, for the stage-1 screen.
    label_hist: FxHashMap<LabelId, u32>,
    /// Flat `vertex_count × (2 · buckets)` signature matrix; vertex `v`'s
    /// signature is `sigs[v·stride .. (v+1)·stride]` with the neighbor
    /// spectrum first and the walk-2 spectrum second.
    sigs: Box<[u16]>,
}

/// The gCode index.
pub struct GCode {
    store: Arc<GraphStore>,
    config: GCodeConfig,
    codes: Vec<GraphCode>,
}

#[inline]
fn bucket(label: LabelId, buckets: usize) -> usize {
    igq_graph::fxhash::hash_u64(label.raw() as u64) as usize % buckets
}

/// Computes the flat signature matrix of `g`.
fn vertex_signatures(g: &Graph, buckets: usize) -> Box<[u16]> {
    let stride = 2 * buckets;
    let mut sigs = vec![0u16; g.vertex_count() * stride];
    for v in g.vertices() {
        let base = v.index() * stride;
        for &x in g.neighbors(v) {
            let nb = bucket(g.label(x), buckets);
            sigs[base + nb] = sigs[base + nb].saturating_add(1);
            for &w in g.neighbors(x) {
                if w != v {
                    let wb = bucket(g.label(w), buckets);
                    sigs[base + buckets + wb] = sigs[base + buckets + wb].saturating_add(1);
                }
            }
        }
    }
    sigs.into_boxed_slice()
}

impl GCode {
    /// Builds the gCode index over `store` on every core.
    pub fn build(store: &Arc<GraphStore>, config: GCodeConfig) -> GCode {
        GCode::build_at(store, config, available_cores())
    }

    /// [`GCode::build`] on `width` workers; the index is the same at any
    /// width.
    pub(crate) fn build_at(store: &Arc<GraphStore>, config: GCodeConfig, width: usize) -> GCode {
        assert!(config.label_buckets > 0, "label_buckets must be positive");
        let mut codes = Vec::with_capacity(store.len());
        map_in_order(
            store.len(),
            width,
            |i| {
                let g = store.get(GraphId::from_index(i));
                GraphCode {
                    label_hist: g.label_histogram(),
                    sigs: vertex_signatures(g, config.label_buckets),
                }
            },
            |_, code| codes.push(code),
        );
        GCode {
            store: Arc::clone(store),
            config,
            codes,
        }
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &GCodeConfig {
        &self.config
    }

    /// Stage 1: query histogram/count dominance.
    fn graph_screen(&self, q: &Graph, q_hist: &FxHashMap<LabelId, u32>, id: GraphId) -> bool {
        let g = self.store.get(id);
        if g.vertex_count() < q.vertex_count() || g.edge_count() < q.edge_count() {
            return false;
        }
        let hist = &self.codes[id.index()].label_hist;
        q_hist
            .iter()
            .all(|(l, &c)| hist.get(l).copied().unwrap_or(0) >= c)
    }

    /// Stages 2 and 3 for one graph: per-vertex compatibility lists, then
    /// (optionally) a query-side-perfect bipartite matching.
    fn vertex_screen(&self, q: &Graph, q_sigs: &[u16], id: GraphId) -> bool {
        let g = self.store.get(id);
        let stride = 2 * self.config.label_buckets;
        let g_sigs = &self.codes[id.index()].sigs;

        let mut candidates: Vec<Vec<VertexId>> = Vec::with_capacity(q.vertex_count());
        for u in q.vertices() {
            let u_sig = &q_sigs[u.index() * stride..(u.index() + 1) * stride];
            let u_deg = q.degree(u);
            let mut c: Vec<VertexId> = Vec::new();
            for &v in g.vertices_with_label(q.label(u)) {
                if g.degree(v) < u_deg {
                    continue;
                }
                let v_sig = &g_sigs[v.index() * stride..(v.index() + 1) * stride];
                if u_sig.iter().zip(v_sig).all(|(a, b)| a <= b) {
                    c.push(v);
                }
            }
            if c.is_empty() {
                return false;
            }
            candidates.push(c);
        }

        if !self.config.matching {
            return true;
        }
        perfect_matching_exists(&candidates, g.vertex_count())
    }
}

/// Kuhn's augmenting-path algorithm: true iff a matching covers every
/// query vertex (`candidates[u]` lists the data vertices `u` may map to).
fn perfect_matching_exists(candidates: &[Vec<VertexId>], data_vertices: usize) -> bool {
    // matched[v] = query vertex currently matched to data vertex v.
    let mut matched: Vec<Option<usize>> = vec![None; data_vertices];

    fn try_augment(
        u: usize,
        candidates: &[Vec<VertexId>],
        matched: &mut [Option<usize>],
        visited: &mut [bool],
    ) -> bool {
        for &v in &candidates[u] {
            let vi = v.index();
            if visited[vi] {
                continue;
            }
            visited[vi] = true;
            if matched[vi].is_none()
                || try_augment(matched[vi].unwrap(), candidates, matched, visited)
            {
                matched[vi] = Some(u);
                return true;
            }
        }
        false
    }

    let mut visited = vec![false; data_vertices];
    for u in 0..candidates.len() {
        visited.iter_mut().for_each(|x| *x = false);
        if !try_augment(u, candidates, &mut matched, &mut visited) {
            return false;
        }
    }
    true
}

impl SubgraphMethod for GCode {
    fn name(&self) -> String {
        if self.config.matching {
            "gCode".to_owned()
        } else {
            "gCode(nm)".to_owned()
        }
    }

    fn store(&self) -> &GraphStore {
        &self.store
    }

    fn filter(&self, q: &Graph) -> Filtered {
        let q_hist = q.label_histogram();
        let q_sigs = vertex_signatures(q, self.config.label_buckets);
        let candidates: Vec<GraphId> = self
            .store
            .ids()
            .filter(|&id| {
                self.graph_screen(q, &q_hist, id)
                    && (q.vertex_count() == 0 || self.vertex_screen(q, &q_sigs, id))
            })
            .collect();
        Filtered::new(candidates)
    }

    /// Plan-amortized batch verification (see [`crate::batch`]).
    fn verify_batch_with_plans(
        &self,
        q: &Graph,
        _context: &QueryContext,
        candidates: &[GraphId],
        plans: Option<crate::batch::PlanSource<'_>>,
    ) -> (Vec<VerifyOutcome>, crate::batch::VerifyBatchStats) {
        crate::batch::verify_batch_plain_with(
            &self.store,
            q,
            &self.config.match_config,
            candidates,
            plans,
        )
    }

    fn index_size_bytes(&self) -> u64 {
        self.codes
            .iter()
            .map(|c| {
                (c.sigs.len() * std::mem::size_of::<u16>()) as u64 + c.label_hist.len() as u64 * 12
            })
            .sum()
    }

    fn match_config(&self) -> MatchConfig {
        self.config.match_config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveMethod;
    use igq_graph::graph_from;

    fn store() -> Arc<GraphStore> {
        Arc::new(
            vec![
                graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),            // g0
                graph_from(&[0, 1], &[(0, 1)]),                       // g1
                graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),    // g2
                graph_from(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3)]), // g3
            ]
            .into_iter()
            .collect(),
        )
    }

    fn ids(raw: &[u32]) -> Vec<GraphId> {
        raw.iter().map(|&r| GraphId::new(r)).collect()
    }

    #[test]
    fn label_histogram_screen_prunes() {
        let m = GCode::build(&store(), GCodeConfig::default());
        // Two 0-labels required: g1 (one 0) and g2 (none) must be pruned.
        let q = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let f = m.filter(&q);
        assert_eq!(f.candidates, ids(&[0]));
    }

    #[test]
    fn neighbor_spectrum_prunes_degree_shapes() {
        // Query: a 1-vertex with two 0-neighbors. g3 has labels {0,1,2,0}
        // but its 1-vertex has one 0-neighbor and one 2-neighbor, so vertex
        // dominance on the neighbor spectrum must reject it.
        let m = GCode::build(&store(), GCodeConfig::default());
        let q = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        assert!(!m.filter(&q).candidates.contains(&GraphId::new(3)));
    }

    #[test]
    fn matching_stage_enforces_injectivity() {
        // Data: one 0-vertex adjacent to two 1s, plus an isolated 0.
        // Query: two *distinct* 0-vertices, each with one 1-neighbor.
        // Histograms match and every query vertex has a compatible data
        // vertex, but both query 0s can only map to the same data vertex.
        let data = graph_from(&[0, 0, 1, 1], &[(0, 2), (0, 3)]);
        let query = graph_from(&[0, 0, 1, 1], &[(0, 2), (1, 3)]);
        let s: Arc<GraphStore> = Arc::new(vec![data].into_iter().collect());

        let with = GCode::build(&s, GCodeConfig::default());
        assert!(
            with.filter(&query).candidates.is_empty(),
            "matching must prune"
        );

        let without = GCode::build(
            &s,
            GCodeConfig {
                matching: false,
                ..Default::default()
            },
        );
        assert_eq!(
            without.filter(&query).candidates,
            ids(&[0]),
            "dominance alone passes"
        );

        // And the ground truth agrees with the matching variant here.
        let naive = NaiveMethod::build(&s);
        assert!(naive.query(&query).0.is_empty());
    }

    #[test]
    fn no_matching_candidates_are_superset() {
        let s = store();
        let strict = GCode::build(&s, GCodeConfig::default());
        let loose = GCode::build(
            &s,
            GCodeConfig {
                matching: false,
                ..Default::default()
            },
        );
        for q in [
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2], &[(0, 1)]),
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
        ] {
            let a = strict.filter(&q).candidates;
            let b = loose.filter(&q).candidates;
            for id in &a {
                assert!(b.contains(id), "matching=true must only remove candidates");
            }
        }
    }

    #[test]
    fn query_answers_match_naive() {
        let s = store();
        let gcode = GCode::build(&s, GCodeConfig::default());
        let naive = NaiveMethod::build(&s);
        for q in [
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2], &[(0, 1)]),
            graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
            graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),
            graph_from(&[9], &[]),
            graph_from(&[], &[]),
        ] {
            let (a, ta) = gcode.query(&q);
            let (b, tb) = naive.query(&q);
            assert_eq!(a, b, "answers differ for {q:?}");
            assert!(ta <= tb, "gcode must never verify more than naive");
        }
    }

    #[test]
    fn vertex_dominance_prunes_shape_mismatch() {
        // Query path 0-1-2: its middle vertex (label 1) has degree 2. In
        // the star 1-0-2 (center label 0) the label-1 vertex is a leaf of
        // degree 1, so stage 2's degree screen rejects the star even though
        // the label histograms are identical.
        let path = graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let star = graph_from(&[0, 1, 2], &[(0, 1), (0, 2)]);
        let s: Arc<GraphStore> = Arc::new(vec![star].into_iter().collect());
        let m = GCode::build(&s, GCodeConfig::default());
        assert!(m.filter(&path).candidates.is_empty());
    }

    #[test]
    fn signature_totals_count_neighbors_and_walks() {
        // Path a-b-c: bucket sums are collision-independent (every bucket
        // folds into the total), so assert the totals: Σnbr = degree and
        // Σwalk2 = number of length-2 walks avoiding the start vertex.
        let g = graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let b = GCodeConfig::default().label_buckets;
        let sigs = vertex_signatures(&g, b);
        let totals = |v: usize| {
            let s = &sigs[v * 2 * b..(v + 1) * 2 * b];
            let nbr: u32 = s[..b].iter().map(|&x| x as u32).sum();
            let walk: u32 = s[b..].iter().map(|&x| x as u32).sum();
            (nbr, walk)
        };
        assert_eq!(totals(0), (1, 1)); // 0-1, walk 0-1-2
        assert_eq!(totals(1), (2, 0)); // walks from 1 all return to 1
        assert_eq!(totals(2), (1, 1)); // 2-1, walk 2-1-0
    }

    #[test]
    fn walk2_spectrum_prunes_beyond_neighbor_spectrum() {
        // Data (a tree): A(a)–B(b), A–C(c), B–C2(c), C–B2(b).
        // Query: triangle a-b-c.
        //
        // Data's only degree-2 b-vertex, B, matches the query's b-vertex on
        // label, degree, *and* neighbor spectrum ({a, c} both ways), yet B's
        // length-2 walks reach only {c} while the query's b reaches {a, c}.
        // Only the walk-2 half of the signature can reject it — and it must,
        // under any bucket collision, because a missing bucket count can
        // never be compensated (folding labels only merges requirements).
        let data = graph_from(&[0, 1, 2, 2, 1], &[(0, 1), (0, 2), (1, 3), (2, 4)]);
        let triangle = graph_from(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
        let s: Arc<GraphStore> = Arc::new(vec![data].into_iter().collect());
        let m = GCode::build(&s, GCodeConfig::default());
        assert!(m.filter(&triangle).candidates.is_empty());
        assert!(NaiveMethod::build(&s).query(&triangle).0.is_empty());
    }

    #[test]
    fn saturation_keeps_dominance_sound() {
        // In K(300,300) every left vertex has 300·299 = 89,700 length-2
        // walks to other left vertices — past u16::MAX, so the walk-2
        // spectrum saturates. Dominance must still admit the graph for a
        // small bipartite query (saturation is monotone, never a false
        // negative).
        let side = 300u32;
        let mut labels = vec![0u32; side as usize];
        labels.extend(std::iter::repeat_n(1, side as usize));
        let mut edges = Vec::with_capacity((side * side) as usize);
        for l in 0..side {
            for r in 0..side {
                edges.push((l, side + r));
            }
        }
        let data = graph_from(&labels, &edges);

        // Check the saturation actually happened.
        let b = GCodeConfig::default().label_buckets;
        let sigs = vertex_signatures(&data, b);
        assert!(
            sigs[b..2 * b].contains(&u16::MAX),
            "left vertex walk-2 bucket should saturate"
        );

        // K(2,2) query: all spectra tiny; the saturated data must dominate.
        let q = graph_from(&[0, 0, 1, 1], &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        let s: Arc<GraphStore> = Arc::new(vec![data].into_iter().collect());
        let m = GCode::build(&s, GCodeConfig::default());
        assert_eq!(m.filter(&q).candidates, ids(&[0]));
    }

    #[test]
    fn empty_query_matches_everything() {
        let m = GCode::build(&store(), GCodeConfig::default());
        let q = graph_from(&[], &[]);
        assert_eq!(m.filter(&q).candidates.len(), 4);
    }

    #[test]
    fn bucket_count_is_configurable_and_sound() {
        let s = store();
        let naive = NaiveMethod::build(&s);
        for buckets in [1, 2, 4, 16, 64] {
            let m = GCode::build(
                &s,
                GCodeConfig {
                    label_buckets: buckets,
                    ..Default::default()
                },
            );
            for q in [
                graph_from(&[0, 1], &[(0, 1)]),
                graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
            ] {
                assert_eq!(m.query(&q).0, naive.query(&q).0, "buckets={buckets}");
            }
        }
    }

    #[test]
    fn index_size_scales_with_buckets() {
        let s = store();
        let small = GCode::build(
            &s,
            GCodeConfig {
                label_buckets: 4,
                ..Default::default()
            },
        );
        let big = GCode::build(
            &s,
            GCodeConfig {
                label_buckets: 32,
                ..Default::default()
            },
        );
        assert!(big.index_size_bytes() > small.index_size_bytes());
    }

    #[test]
    fn perfect_matching_basics() {
        let v = |i: u32| VertexId::new(i);
        // Two query vertices, one shared candidate: no perfect matching.
        assert!(!perfect_matching_exists(&[vec![v(0)], vec![v(0)]], 1));
        // Distinct candidates: fine.
        assert!(perfect_matching_exists(&[vec![v(0)], vec![v(1)]], 2));
        // Augmenting path case: u0 -> {a}, u1 -> {a, b} ⇒ u0=a, u1=b.
        assert!(perfect_matching_exists(&[vec![v(0)], vec![v(0), v(1)]], 2));
        // Order-sensitive augmenting: u0 -> {a, b}, u1 -> {a} forces a swap.
        assert!(perfect_matching_exists(&[vec![v(0), v(1)], vec![v(0)]], 2));
        // Empty query side is vacuously matched.
        assert!(perfect_matching_exists(&[], 3));
    }

    /// Every graph's code is the serial build's at any width, over many
    /// windows.
    #[test]
    fn build_is_bit_identical_at_any_width() {
        let s = crate::build_fixture::store();
        let serial = GCode::build_at(&s, GCodeConfig::default(), 1);
        for width in crate::build_fixture::widths() {
            let built = GCode::build_at(&s, GCodeConfig::default(), width);
            assert_eq!(
                format!("{:?}", built.codes),
                format!("{:?}", serial.codes),
                "width {width}"
            );
        }
    }
}
