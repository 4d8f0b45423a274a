//! CT-Index (Klein, Kriege, Mutzel, ICDE 2011) — tree+cycle fingerprints.
//!
//! CT-Index reduces every graph to the canonical string forms of its
//! subtrees (≤ 6 edges) and simple cycles (≤ 8 edges) — the two feature
//! families with linear-time canonical forms — and hashes them into a
//! fixed-width bitmap per graph. Filtering is pure bit arithmetic: `q` can
//! only be contained in `G` if `bits(q) & bits(G) == bits(q)`. Verification
//! uses VF2.
//!
//! Deviation from the original: we keep one bitmap *per feature size*
//! instead of one global bitmap. Functionally this is the
//! same filter (a union of per-size subset tests), but it lets a graph whose
//! feature enumeration was budget-truncated at size `k` remain comparable on
//! sizes `≤ k` — preserving the no-false-negative contract on inputs too
//! dense to enumerate exhaustively. Bucket width is scaled so the default
//! footprint (13 buckets × 512 bits ≈ 832 B/graph) is comparable to the
//! original's 4096-bit default.

use crate::method::{Filtered, QueryContext, SubgraphMethod, VerifyOutcome};
use igq_features::{
    enumerate_cycles, enumerate_trees, CycleConfig, CycleFeatures, Fingerprint, TreeConfig,
    TreeFeatures,
};
use igq_graph::{Graph, GraphId, GraphStore};
use igq_iso::MatchConfig;
use std::sync::Arc;

/// CT-Index configuration.
#[derive(Debug, Clone, Copy)]
pub struct CtIndexConfig {
    /// Maximum subtree size in edges (paper default: 6).
    pub max_tree_edges: usize,
    /// Maximum cycle length in edges (paper default: 8).
    pub max_cycle_len: usize,
    /// Bits per per-size bucket (power of two; default 512).
    pub bits_per_bucket: u32,
    /// Subtree enumeration budget per graph.
    pub tree_budget: u64,
    /// Cycle enumeration budget per graph.
    pub cycle_budget: u64,
    /// Verification engine configuration.
    pub match_config: MatchConfig,
}

impl Default for CtIndexConfig {
    fn default() -> Self {
        CtIndexConfig {
            max_tree_edges: TreeConfig::default().max_edges,
            max_cycle_len: CycleConfig::default().max_len,
            bits_per_bucket: 512,
            tree_budget: TreeConfig::default().budget,
            cycle_budget: CycleConfig::default().budget,
            match_config: MatchConfig::default(),
        }
    }
}

impl CtIndexConfig {
    /// The "next larger" configuration of Figure 18 (trees ≤ 7, cycles ≤ 9,
    /// doubled bitmap width).
    pub fn larger() -> Self {
        CtIndexConfig {
            max_tree_edges: 7,
            max_cycle_len: 9,
            bits_per_bucket: 1024,
            ..Default::default()
        }
    }

    fn tree_config(&self) -> TreeConfig {
        TreeConfig {
            max_edges: self.max_tree_edges,
            budget: self.tree_budget,
        }
    }

    fn cycle_config(&self) -> CycleConfig {
        CycleConfig {
            max_len: self.max_cycle_len,
            budget: self.cycle_budget,
        }
    }
}

/// Per-graph fingerprint record.
struct GraphPrint {
    trees: Vec<Fingerprint>,
    cycles: Vec<Fingerprint>,
    tree_complete: u8,
    cycle_complete: u8,
}

/// The CT-Index.
pub struct CtIndex {
    store: Arc<GraphStore>,
    config: CtIndexConfig,
    prints: Vec<GraphPrint>,
}

impl CtIndex {
    /// Builds the index over `store`.
    pub fn build(store: &Arc<GraphStore>, config: CtIndexConfig) -> CtIndex {
        let prints = store
            .iter()
            .map(|(_, g)| {
                let trees = enumerate_trees(g, &config.tree_config());
                let cycles = enumerate_cycles(g, &config.cycle_config());
                Self::make_print(&config, &trees, &cycles)
            })
            .collect();
        CtIndex {
            store: Arc::clone(store),
            config,
            prints,
        }
    }

    fn make_print(
        config: &CtIndexConfig,
        trees: &TreeFeatures,
        cycles: &CycleFeatures,
    ) -> GraphPrint {
        let mut tree_fps = Vec::with_capacity(config.max_tree_edges + 1);
        for bucket in &trees.by_size {
            let mut fp = Fingerprint::new(config.bits_per_bucket);
            for feat in bucket {
                fp.add_feature(feat);
            }
            tree_fps.push(fp);
        }
        let mut cycle_fps = Vec::with_capacity(config.max_cycle_len + 1);
        for bucket in &cycles.by_len {
            let mut fp = Fingerprint::new(config.bits_per_bucket);
            for feat in bucket {
                fp.add_feature(feat);
            }
            cycle_fps.push(fp);
        }
        GraphPrint {
            trees: tree_fps,
            cycles: cycle_fps,
            tree_complete: trees.complete_edges as u8,
            cycle_complete: cycles.complete_len as u8,
        }
    }

    fn passes(&self, qp: &GraphPrint, gp: &GraphPrint) -> bool {
        let tree_limit = qp.tree_complete.min(gp.tree_complete) as usize;
        for s in 0..=tree_limit {
            if !qp.trees[s].is_subset_of(&gp.trees[s]) {
                return false;
            }
        }
        let cycle_limit = qp.cycle_complete.min(gp.cycle_complete) as usize;
        for l in 3..=cycle_limit {
            if !qp.cycles[l].is_subset_of(&gp.cycles[l]) {
                return false;
            }
        }
        true
    }
}

impl SubgraphMethod for CtIndex {
    fn name(&self) -> String {
        "CT-Index".to_owned()
    }

    fn store(&self) -> &GraphStore {
        &self.store
    }

    fn filter(&self, q: &Graph) -> Filtered {
        let trees = enumerate_trees(q, &self.config.tree_config());
        let cycles = enumerate_cycles(q, &self.config.cycle_config());
        let qp = Self::make_print(&self.config, &trees, &cycles);
        let candidates = self
            .store
            .iter()
            .filter(|(id, g)| {
                g.vertex_count() >= q.vertex_count()
                    && g.edge_count() >= q.edge_count()
                    && self.passes(&qp, &self.prints[id.index()])
            })
            .map(|(id, _)| id)
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
        self.prints
            .iter()
            .map(|p| {
                let t: u64 = p.trees.iter().map(|f| f.heap_size_bytes()).sum();
                let c: u64 = p.cycles.iter().map(|f| f.heap_size_bytes()).sum();
                t + c + 2
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
                graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
                graph_from(&[0, 1], &[(0, 1)]),
                graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),
                graph_from(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            ]
            .into_iter()
            .collect(),
        )
    }

    #[test]
    fn answers_match_naive() {
        let s = store();
        let ct = CtIndex::build(&s, CtIndexConfig::default());
        let naive = NaiveMethod::build(&s);
        for q in [
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            graph_from(&[7], &[]),
        ] {
            assert_eq!(ct.query(&q).0, naive.query(&q).0, "query {q:?}");
        }
    }

    #[test]
    fn cycle_features_prune_acyclic_graphs() {
        let s = store();
        let ct = CtIndex::build(&s, CtIndexConfig::default());
        // C4 query: only g3 contains a 4-cycle; g0/g1 are trees (also too
        // small) and g2's triangle lacks the 0/1 labels.
        let q = graph_from(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let f = ct.filter(&q);
        assert_eq!(f.candidates, vec![GraphId::new(3)]);
    }

    #[test]
    fn tree_features_prune_label_mismatches() {
        let s = store();
        let ct = CtIndex::build(&s, CtIndexConfig::default());
        let q = graph_from(&[2, 2], &[(0, 1)]);
        let f = ct.filter(&q);
        assert_eq!(f.candidates, vec![GraphId::new(2)]);
    }

    #[test]
    fn no_false_negatives_on_fixed_suite() {
        let s = store();
        let ct = CtIndex::build(&s, CtIndexConfig::default());
        let naive = NaiveMethod::build(&s);
        for q in [
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[1, 0], &[(0, 1)]),
        ] {
            let (truth, _) = naive.query(&q);
            let f = ct.filter(&q);
            for id in truth {
                assert!(f.candidates.contains(&id), "lost answer {id:?} for {q:?}");
            }
        }
    }

    #[test]
    fn larger_config_grows_index() {
        let s = store();
        let small = CtIndex::build(&s, CtIndexConfig::default());
        let large = CtIndex::build(&s, CtIndexConfig::larger());
        assert!(large.index_size_bytes() > small.index_size_bytes());
    }

    #[test]
    fn budget_truncation_keeps_answers() {
        // Dense K8 with tiny budgets: enumeration truncates, filter must
        // still admit the true answer.
        let mut edges = Vec::new();
        for i in 0..8u32 {
            for j in (i + 1)..8u32 {
                edges.push((i, j));
            }
        }
        let s: Arc<GraphStore> = Arc::new(vec![graph_from(&[0; 8], &edges)].into_iter().collect());
        let config = CtIndexConfig {
            tree_budget: 30,
            cycle_budget: 30,
            ..Default::default()
        };
        let ct = CtIndex::build(&s, config);
        let q = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]); // C4
        let (answers, _) = ct.query(&q);
        assert_eq!(answers, vec![GraphId::new(0)]);
    }
}
