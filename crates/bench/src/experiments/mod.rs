//! One module per experiment family; each returns [`crate::report::Report`]s
//! that the `src/bin` wrappers print and archive.

pub mod breakdown;
pub mod cache_sweep;
pub mod extensions;
pub mod groups;
pub mod index_sizes;
pub mod policy_ablation;
pub mod speedups;
pub mod supergraph_demo;
pub mod table1;
pub mod zipf_sweep;

use crate::cli::ExpOptions;
use igq_graph::{Graph, GraphStore};
use igq_workload::{DatasetKind, QueryWorkloadSpec};
use std::sync::Arc;

/// Scaled dataset + workload materialization shared by the experiments.
pub struct Setup {
    /// The synthesized dataset.
    pub store: Arc<GraphStore>,
    /// The query stream.
    pub queries: Vec<Graph>,
    /// Queries used to warm the iGQ index (excluded from measurement).
    pub warmup: usize,
    /// Scaled cache capacity `C`.
    pub cache_capacity: usize,
    /// Scaled window `W`.
    pub window: usize,
}

/// Scales a paper quantity, flooring at `min`.
pub fn scaled(paper: usize, scale: f64, min: usize) -> usize {
    ((paper as f64 * scale).round() as usize).max(min)
}

/// Materializes a dataset and workload at the requested scale.
///
/// `paper_queries`, `paper_cache`, `paper_window` are the figure's
/// paper-scale parameters; everything scales together so cache-hit dynamics
/// are preserved at reduced scale.
pub fn setup(
    kind: DatasetKind,
    opts: &ExpOptions,
    spec: &QueryWorkloadSpec,
    paper_cache: usize,
    paper_window: usize,
) -> Setup {
    let store = Arc::new(kind.generate_scaled(opts.scale, opts.seed));
    let mut spec = spec.clone();
    spec.count = scaled(spec.count, opts.scale, 40);
    spec.seed = opts.seed ^ 0xBEEF;
    let queries = spec.generate(&store);
    let window = scaled(paper_window, opts.scale, 5);
    let cache_capacity = scaled(paper_cache, opts.scale, window.max(10));
    Setup {
        store,
        queries,
        warmup: window,
        cache_capacity,
        window,
    }
}

/// Standard iGQ config for a [`Setup`].
pub fn igq_config(s: &Setup) -> igq_core::IgqConfig {
    igq_core::IgqConfig::builder()
        .cache_capacity(s.cache_capacity)
        .window(s.window)
        .build()
        .expect("setup scales W <= C")
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_workload::DEFAULT_ALPHA;

    #[test]
    fn scaled_floors() {
        assert_eq!(scaled(3000, 0.1, 40), 300);
        assert_eq!(scaled(100, 0.001, 5), 5);
    }

    #[test]
    fn setup_produces_consistent_sizes() {
        let opts = ExpOptions {
            scale: 0.01,
            ..Default::default()
        };
        let spec = QueryWorkloadSpec::named(true, true, DEFAULT_ALPHA, 3000, 1);
        let s = setup(DatasetKind::Aids, &opts, &spec, 500, 100);
        assert_eq!(s.store.len(), 400);
        assert_eq!(s.queries.len(), 40);
        assert!(s.window <= s.cache_capacity);
        assert_eq!(s.warmup, s.window);
    }
}
