//! Dataset synthesizers matching the paper's Table 1.
//!
//! The paper evaluates on three real datasets (AIDS, PDBS, PPI) and one
//! synthetic one. The raw files are not redistributable here, so each
//! synthesizer reproduces the corresponding dataset's *shape* — graph
//! count, label-universe size, node/edge moments, and density regime.
//! The `table1` section of `REPRODUCTION.md` compares the synthesized
//! shapes with the paper's. All generators are deterministic in their
//! seed.

mod aids;
mod pdbs;
mod ppi;
mod synthetic;

pub use aids::{
    aids_like, aids_like_bonds, aids_like_skewed, AIDS_BOND_TYPES, AIDS_LABELS, AIDS_LABEL_ALPHA,
};
pub use pdbs::pdbs_like;
pub use ppi::ppi_like;
pub use synthetic::synthetic_like;

use crate::zipf::Zipf;
use igq_graph::{Graph, GraphBuilder, GraphStore, LabelId, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which of the paper's four datasets to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// NCI AIDS antiviral screen: 40,000 small sparse molecule graphs.
    Aids,
    /// PDBS: 600 large sparse DNA/RNA/protein graphs.
    Pdbs,
    /// PPI: 20 large dense protein-interaction networks.
    Ppi,
    /// The FG-index-style synthetic generator: 1,000 dense graphs.
    Synthetic,
}

impl DatasetKind {
    /// All four datasets in the paper's order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Aids,
        DatasetKind::Pdbs,
        DatasetKind::Ppi,
        DatasetKind::Synthetic,
    ];

    /// The paper's graph count for this dataset.
    pub fn paper_graph_count(self) -> usize {
        match self {
            DatasetKind::Aids => 40_000,
            DatasetKind::Pdbs => 600,
            DatasetKind::Ppi => 20,
            DatasetKind::Synthetic => 1_000,
        }
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Aids => "AIDS",
            DatasetKind::Pdbs => "PDBS",
            DatasetKind::Ppi => "PPI",
            DatasetKind::Synthetic => "Synthetic",
        }
    }

    /// Generates the dataset with `graph_count` graphs.
    pub fn generate(self, graph_count: usize, seed: u64) -> GraphStore {
        match self {
            DatasetKind::Aids => aids_like(graph_count, seed),
            DatasetKind::Pdbs => pdbs_like(graph_count, seed),
            DatasetKind::Ppi => ppi_like(graph_count, seed),
            DatasetKind::Synthetic => synthetic_like(graph_count, seed),
        }
    }

    /// Generates the dataset scaled to `scale` of the paper's graph count
    /// (at least one graph).
    pub fn generate_scaled(self, scale: f64, seed: u64) -> GraphStore {
        let count = ((self.paper_graph_count() as f64 * scale).round() as usize).max(1);
        self.generate(count, seed)
    }
}

/// Label assignment model.
pub(crate) enum LabelModel {
    /// Zipf-skewed labels (molecules: a few elements dominate).
    Skewed { universe: u32, alpha: f64 },
    /// Uniform labels.
    Uniform { universe: u32 },
}

impl LabelModel {
    fn sample(&self, rng: &mut StdRng, zipf: &Option<Zipf>) -> LabelId {
        match self {
            LabelModel::Skewed { .. } => {
                LabelId::new(zipf.as_ref().expect("zipf for skewed labels").sample(rng) as u32)
            }
            LabelModel::Uniform { universe } => LabelId::new(rng.gen_range(0..*universe)),
        }
    }

    fn zipf(&self) -> Option<Zipf> {
        match self {
            LabelModel::Skewed { universe, alpha } => Some(Zipf::new(*universe as usize, *alpha)),
            LabelModel::Uniform { .. } => None,
        }
    }
}

/// Normal sample via Box–Muller, clamped to `[lo, hi]`.
pub(crate) fn sample_normal_clamped(
    rng: &mut StdRng,
    mean: f64,
    std_dev: f64,
    lo: usize,
    hi: usize,
) -> usize {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let x = mean + std_dev * z;
    (x.round() as i64).clamp(lo as i64, hi as i64) as usize
}

/// Log-normal sample (parameterized by the target linear mean/std),
/// clamped to `[lo, hi]`.
pub(crate) fn sample_lognormal_clamped(
    rng: &mut StdRng,
    mean: f64,
    std_dev: f64,
    lo: usize,
    hi: usize,
) -> usize {
    let cv2 = (std_dev / mean).powi(2);
    let sigma2 = (1.0 + cv2).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let x = (mu + sigma2.sqrt() * z).exp();
    (x.round() as i64).clamp(lo as i64, hi as i64) as usize
}

/// Parameters for one synthesized graph.
pub(crate) struct GraphShape {
    pub nodes: usize,
    pub edges: usize,
    pub labels: LabelModel,
    /// Extra edges attach preferentially to high-degree vertices
    /// (protein-interaction style hubs) instead of uniformly.
    pub preferential: bool,
    /// Edge-label universe size; `0` produces unlabeled edges. Labels are
    /// Zipf(1.8)-skewed toward `0` (chemistry: single bonds dominate).
    pub edge_label_universe: u32,
}

/// Builds one random connected-ish labeled graph: a uniform random
/// spanning tree plus extra edges up to the target count.
pub(crate) fn random_graph(rng: &mut StdRng, shape: &GraphShape) -> Graph {
    let n = shape.nodes.max(1);
    let zipf = shape.labels.zipf();
    // Edge labels draw from a *forked* stream so that an edge-labeled
    // variant keeps byte-identical topology to its unlabeled twin (same
    // seed ⇒ same structure, labels layered on top).
    let mut label_rng = StdRng::seed_from_u64(rng.gen());
    let edge_zipf =
        (shape.edge_label_universe > 0).then(|| Zipf::new(shape.edge_label_universe as usize, 1.8));
    let mut b = GraphBuilder::with_capacity(n, shape.edges);
    for _ in 0..n {
        let l = shape.labels.sample(rng, &zipf);
        b.add_vertex(l);
    }
    let edge_label = move |label_rng: &mut StdRng| match &edge_zipf {
        Some(z) => LabelId::new(z.sample(label_rng) as u32),
        None => LabelId::new(0),
    };
    // Random attachment tree: vertex i links to a uniform earlier vertex.
    let mut degree = vec![0u32; n];
    for i in 1..n as u32 {
        let j = rng.gen_range(0..i);
        let l = edge_label(&mut label_rng);
        b.add_edge_labeled(VertexId::new(i), VertexId::new(j), l)
            .expect("valid tree edge");
        degree[i as usize] += 1;
        degree[j as usize] += 1;
    }
    // Extra edges to reach the target count.
    let max_edges = n * (n - 1) / 2;
    let target = shape.edges.clamp(n.saturating_sub(1), max_edges);
    let mut added = n.saturating_sub(1);
    let mut attempts = 0usize;
    let attempt_cap = target.saturating_mul(20) + 100;
    // Preferential attachment samples endpoints proportional to degree+1
    // via a growing endpoint pool; uniform samples ids directly.
    let mut pool: Vec<u32> = if shape.preferential {
        let mut p = Vec::with_capacity(4 * n);
        for (i, &d) in degree.iter().enumerate() {
            for _ in 0..(d + 1) {
                p.push(i as u32);
            }
        }
        p
    } else {
        Vec::new()
    };
    while added < target && attempts < attempt_cap {
        attempts += 1;
        let (u, v) = if shape.preferential {
            (
                pool[rng.gen_range(0..pool.len())],
                pool[rng.gen_range(0..pool.len())],
            )
        } else {
            (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32))
        };
        if u == v {
            continue;
        }
        let (u, v) = (VertexId::new(u), VertexId::new(v));
        if b.has_edge(u, v) {
            continue;
        }
        let l = edge_label(&mut label_rng);
        b.add_edge_labeled(u, v, l).expect("valid extra edge");
        if shape.preferential {
            pool.push(u.raw());
            pool.push(v.raw());
        }
        added += 1;
    }
    b.build()
}

/// Deterministic per-graph RNG stream: one master seed, one stream per
/// graph index, so scaling the graph count leaves earlier graphs identical.
pub(crate) fn graph_rng(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::stats::DatasetStats;

    #[test]
    fn all_kinds_generate() {
        for kind in DatasetKind::ALL {
            let store = kind.generate(3, 42);
            assert_eq!(store.len(), 3, "{}", kind.name());
            assert!(store.iter().all(|(_, g)| g.vertex_count() > 0));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetKind::Aids.generate(5, 7);
        let b = DatasetKind::Aids.generate(5, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetKind::Aids.generate(5, 7);
        let b = DatasetKind::Aids.generate(5, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn prefix_stability_under_scaling() {
        let small = DatasetKind::Pdbs.generate(3, 11);
        let large = DatasetKind::Pdbs.generate(6, 11);
        for i in 0..3 {
            assert_eq!(
                small.get(igq_graph::GraphId::new(i)),
                large.get(igq_graph::GraphId::new(i))
            );
        }
    }

    #[test]
    fn scaled_generation_counts() {
        let store = DatasetKind::Ppi.generate_scaled(0.5, 1);
        assert_eq!(store.len(), 10);
        let tiny = DatasetKind::Ppi.generate_scaled(0.0001, 1);
        assert_eq!(tiny.len(), 1);
    }

    #[test]
    fn random_graph_hits_edge_target() {
        let mut rng = graph_rng(3, 0);
        let g = random_graph(
            &mut rng,
            &GraphShape {
                nodes: 100,
                edges: 300,
                labels: LabelModel::Uniform { universe: 5 },
                preferential: false,
                edge_label_universe: 0,
            },
        );
        assert_eq!(g.vertex_count(), 100);
        assert_eq!(g.edge_count(), 300);
        assert!(g.is_connected());
    }

    #[test]
    fn preferential_graphs_grow_hubs() {
        let mut rng = graph_rng(5, 0);
        let shape = |pref| GraphShape {
            nodes: 300,
            edges: 1500,
            labels: LabelModel::Uniform { universe: 5 },
            preferential: pref,
            edge_label_universe: 0,
        };
        let pa = random_graph(&mut rng, &shape(true));
        let mut rng = graph_rng(5, 0);
        let er = random_graph(&mut rng, &shape(false));
        assert!(
            pa.max_degree() > er.max_degree(),
            "pa {} vs er {}",
            pa.max_degree(),
            er.max_degree()
        );
    }

    #[test]
    fn normal_clamping() {
        let mut rng = graph_rng(1, 0);
        for _ in 0..100 {
            let x = sample_normal_clamped(&mut rng, 50.0, 100.0, 10, 60);
            assert!((10..=60).contains(&x));
        }
    }

    #[test]
    fn lognormal_mean_is_roughly_right() {
        let mut rng = graph_rng(2, 0);
        let xs: Vec<f64> = (0..4000)
            .map(|_| sample_lognormal_clamped(&mut rng, 300.0, 150.0, 1, 100_000) as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 300.0).abs() < 30.0, "mean {mean}");
    }

    #[test]
    fn dataset_stats_exist_for_every_kind() {
        for kind in DatasetKind::ALL {
            let store = kind.generate(2, 9);
            let stats = DatasetStats::of(&store);
            assert!(stats.avg_degree > 0.0);
        }
    }
}
