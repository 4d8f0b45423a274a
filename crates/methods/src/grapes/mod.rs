//! Grapes (Giugno et al., PLoS One 2013) — location-aware path indexing
//! with multi-core parallelism.
//!
//! Grapes indexes the same path features as GGSX but additionally records
//! *where* each feature occurs (the paper's "location information"). At
//! query time, after the trie-based count filter, Grapes gathers — per
//! candidate — the vertices hosting the query's features, restricts the
//! candidate graph to the connected components those vertices induce, and
//! runs verification only against components large enough to host the
//! query. On large sparse graphs (PDBS) this shrinks the effective
//! verification targets dramatically, which is exactly why Grapes wins
//! there in the paper's Figures 2–3.
//!
//! Parallelism mirrors the original: index construction distributes graphs
//! across `threads` workers (the original builds per-thread tries and
//! merges; we enumerate graphs in parallel, a few per worker ahead of one
//! trie, and insert their features into it in id order, so the index is
//! identical to the serial build's at any `threads`; its common features
//! become dense rows, as in GGSX), and the
//! verification stage processes candidates from a shared work queue. `Grapes(1)` and
//! `Grapes(6)` in the experiments are this type with `threads` = 1 / 6.

mod components;

pub use components::components_within;

use crate::batch::{acquire_plan, verify_candidates, VerifyBatchStats};
use crate::ggsx::{build_path_trie, Ggsx};
use crate::method::{Filtered, QueryContext, SubgraphMethod, VerifyOutcome};
use igq_features::{enumerate_paths_with_locations, LabelSeq, PathConfig};
use igq_graph::fxhash::FxHashMap;
use igq_graph::{Graph, GraphId, GraphStore, VertexId};
use igq_iso::plan::{MatchPlan, MatchScratch};
use igq_iso::MatchConfig;
use std::sync::Arc;

/// Grapes configuration.
#[derive(Debug, Clone, Copy)]
pub struct GrapesConfig {
    /// Maximum indexed path length in edges (paper default: 4).
    pub max_path_len: usize,
    /// Per-graph enumeration budget.
    pub path_budget: u64,
    /// Worker threads for index build and batch verification.
    pub threads: usize,
    /// Verification engine configuration.
    pub match_config: MatchConfig,
}

impl Default for GrapesConfig {
    fn default() -> Self {
        let p = PathConfig::default();
        GrapesConfig {
            max_path_len: p.max_len,
            path_budget: p.budget,
            threads: 1,
            match_config: MatchConfig::default(),
        }
    }
}

impl GrapesConfig {
    /// The paper's `Grapes(6)` configuration.
    pub fn six_threads() -> Self {
        GrapesConfig {
            threads: 6,
            ..Default::default()
        }
    }

    fn path_config(&self) -> PathConfig {
        PathConfig {
            max_len: self.max_path_len,
            include_vertices: true,
            budget: self.path_budget,
        }
    }
}

/// The Grapes index.
pub struct Grapes {
    store: Arc<GraphStore>,
    config: GrapesConfig,
    trie: igq_features::FeatureTrie,
    complete_len: Vec<u8>,
    shallow: Vec<GraphId>,
    /// Per graph: feature → sorted endpoint vertices.
    locations: Vec<FxHashMap<LabelSeq, Vec<VertexId>>>,
}

impl Grapes {
    /// Builds the index over `store`, enumerating on `config.threads`
    /// workers.
    pub fn build(store: &Arc<GraphStore>, config: GrapesConfig) -> Grapes {
        let path_config = config.path_config();
        let mut locations = Vec::with_capacity(store.len());
        let (trie, complete_len, shallow) = build_path_trie(
            store,
            config.max_path_len,
            config.threads,
            |g| enumerate_paths_with_locations(g, &path_config),
            |features| locations.push(features.locations),
        );
        Grapes {
            store: Arc::clone(store),
            config,
            trie,
            complete_len,
            shallow,
            locations,
        }
    }

    /// Vertices of `candidate` hosting any of the query's features
    /// (sorted, deduplicated).
    fn candidate_vertices(
        &self,
        features: &[(LabelSeq, u32)],
        candidate: GraphId,
    ) -> Vec<VertexId> {
        let locs = &self.locations[candidate.index()];
        let mut vertices: Vec<VertexId> = Vec::new();
        for (seq, _) in features {
            if let Some(vs) = locs.get(seq) {
                vertices.extend_from_slice(vs);
            }
        }
        vertices.sort_unstable();
        vertices.dedup();
        vertices
    }

    /// Plan-amortized component search of one screened candidate: the
    /// shared query-side `plan` is target-independent, so one plan serves
    /// the whole candidate graph *and* every induced component, with
    /// `scratch` reused throughout. Query connectivity is decided once per
    /// batch by the caller.
    #[allow(clippy::too_many_arguments)]
    fn planned_component_search(
        &self,
        q: &Graph,
        q_connected: bool,
        features: &[(LabelSeq, u32)],
        plan: &MatchPlan,
        candidate: GraphId,
        scratch: &mut MatchScratch,
        stats: &mut VerifyBatchStats,
    ) -> VerifyOutcome {
        let g = self.store.get(candidate);
        // Component-restricted verification is sound only for connected
        // queries (the embedding image of a connected query lies in one
        // component of the feature-located vertex set — every image vertex
        // hosts the query's single-vertex features).
        if !q_connected || features.is_empty() {
            return crate::batch::matches_adaptive(plan, q, g, scratch, stats);
        }
        let vertices = self.candidate_vertices(features, candidate);
        if vertices.len() < q.vertex_count() {
            return VerifyOutcome::REJECTED;
        }
        let mut states = 0u64;
        let mut aborted = false;
        for comp in components_within(g, &vertices) {
            if comp.len() < q.vertex_count() {
                continue;
            }
            let (sub, _mapping) = g.induced_subgraph(&comp);
            if sub.edge_count() < q.edge_count() {
                continue;
            }
            let out = crate::batch::matches_adaptive(plan, q, &sub, scratch, stats);
            states += out.states;
            if out.contains {
                return VerifyOutcome { states, ..out };
            }
            aborted |= out.aborted;
        }
        VerifyOutcome {
            contains: false,
            aborted,
            states,
        }
    }

    /// Shared body of `filter`/`filter_with_features`: trie filtering from
    /// an already-extracted query feature set.
    fn filter_from(&self, q: &Graph, qf: &igq_features::PathFeatures) -> Filtered {
        let features: Vec<(LabelSeq, u32)> = qf
            .counts
            .iter()
            .filter(|(s, _)| s.edge_len() <= self.config.max_path_len)
            .map(|(s, &c)| (s.clone(), c))
            .collect();
        let candidates = Ggsx::trie_filter(
            &self.store,
            &self.trie,
            &self.complete_len,
            &self.shallow,
            self.config.max_path_len,
            q,
            qf,
        );
        Filtered {
            candidates,
            context: QueryContext {
                path_features: Some(features),
            },
        }
    }
}

impl SubgraphMethod for Grapes {
    fn name(&self) -> String {
        format!("Grapes({})", self.config.threads)
    }

    fn store(&self) -> &GraphStore {
        &self.store
    }

    fn filter(&self, q: &Graph) -> Filtered {
        let qf = igq_features::enumerate_paths(q, &self.config.path_config());
        self.filter_from(q, &qf)
    }

    /// Reuses an externally extracted feature set (the iGQ engine's
    /// single-pass extraction); features beyond this index's depth are
    /// dropped, as in [`Ggsx::filter_with_features`].
    fn filter_with_features(
        &self,
        q: &Graph,
        features: Option<&igq_features::PathFeatures>,
    ) -> Filtered {
        match features {
            Some(qf) => self.filter_from(q, qf),
            None => self.filter(q),
        }
    }

    /// A one-candidate batch: the same screen, plan and component search
    /// as [`Self::verify_batch_with_plans`].
    fn verify(&self, q: &Graph, context: &QueryContext, candidate: GraphId) -> VerifyOutcome {
        self.verify_batch_with_plans(q, context, &[candidate], None)
            .0[0]
    }

    /// Plan-amortized batch verification: one [`MatchPlan`] + query
    /// profile built per query and shared by every candidate (and every
    /// worker thread — the plan is target-independent). `Grapes(k)`
    /// verifies on `k` workers claiming candidates from one shared queue,
    /// as the original system's parallel verification stage does, through
    /// the helper every method shares (`batch::verify_candidates`). With
    /// the engine's `plans` it verifies on the smaller of `k` and
    /// [`PlanSource::width`](crate::batch::PlanSource::width), the width
    /// rule every method follows.
    /// Candidates are screened against their whole store profile (sound
    /// for the component path too: an embedding into a component is one
    /// into the graph), then searched only inside the located
    /// *components*.
    fn verify_batch_with_plans(
        &self,
        q: &Graph,
        context: &QueryContext,
        candidates: &[GraphId],
        plans: Option<crate::batch::PlanSource<'_>>,
    ) -> (Vec<VerifyOutcome>, VerifyBatchStats) {
        if candidates.is_empty() {
            return (Vec::new(), VerifyBatchStats::default());
        }
        let owned_features;
        let features: &[(LabelSeq, u32)] = match &context.path_features {
            Some(f) => f,
            None => {
                // Called without a filter context (e.g. by iGQ on a pruned
                // set): enumerate the query's features once per batch.
                let qf = igq_features::enumerate_paths(q, &self.config.path_config());
                owned_features = qf
                    .counts
                    .iter()
                    .map(|(s, &c)| (s.clone(), c))
                    .collect::<Vec<_>>();
                &owned_features
            }
        };
        let mut stats = VerifyBatchStats::default();
        let plan = acquire_plan(
            &self.store,
            q,
            &self.config.match_config,
            candidates,
            &mut stats,
        );
        let q_connected = q.is_connected();
        let k = self.config.threads;
        let outcomes = verify_candidates(
            &self.store,
            q,
            candidates,
            plans.map_or(k, |p| p.width.min(k)),
            &mut stats,
            |id, scratch, stats| {
                self.planned_component_search(q, q_connected, features, &plan, id, scratch, stats)
            },
        );
        (outcomes, stats)
    }

    fn index_size_bytes(&self) -> u64 {
        let loc_bytes: u64 = self
            .locations
            .iter()
            .flat_map(|m| m.iter())
            .map(|(k, v)| k.heap_size_bytes() + (v.len() * 4) as u64 + 16)
            .sum();
        self.trie.heap_size_bytes() + loc_bytes + self.complete_len.len() as u64
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
                // g3: two far-apart regions — a 0-1 edge and a 2-triangle —
                // exercising component-restricted verification.
                graph_from(
                    &[0, 1, 9, 9, 2, 2, 2],
                    &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)],
                ),
            ]
            .into_iter()
            .collect(),
        )
    }

    #[test]
    fn answers_match_naive_single_thread() {
        let s = store();
        let grapes = Grapes::build(&s, GrapesConfig::default());
        let naive = NaiveMethod::build(&s);
        for q in [
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),
            graph_from(&[2, 2], &[(0, 1)]),
            graph_from(&[1, 0], &[(0, 1)]),
        ] {
            assert_eq!(grapes.query(&q).0, naive.query(&q).0, "query {q:?}");
        }
    }

    #[test]
    fn answers_match_naive_six_threads() {
        let s = store();
        let grapes = Grapes::build(&s, GrapesConfig::six_threads());
        let naive = NaiveMethod::build(&s);
        for q in [
            graph_from(&[0, 1], &[(0, 1)]),
            graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]),
        ] {
            assert_eq!(grapes.query(&q).0, naive.query(&q).0, "query {q:?}");
        }
    }

    #[test]
    fn verify_batch_parallel_matches_sequential() {
        let s = store();
        let g1 = Grapes::build(&s, GrapesConfig::default());
        let g6 = Grapes::build(&s, GrapesConfig::six_threads());
        let q = graph_from(&[2, 2], &[(0, 1)]);
        let f1 = g1.filter(&q);
        let f6 = g6.filter(&q);
        assert_eq!(f1.candidates, f6.candidates);
        let r1: Vec<bool> = g1
            .verify_batch(&q, &f1.context, &f1.candidates)
            .iter()
            .map(|o| o.contains)
            .collect();
        let r6: Vec<bool> = g6
            .verify_batch(&q, &f6.context, &f6.candidates)
            .iter()
            .map(|o| o.contains)
            .collect();
        assert_eq!(r1, r6);
    }

    #[test]
    fn parallel_worker_scratch_warms_across_batches() {
        let s = store();
        let g6 = Grapes::build(&s, GrapesConfig::six_threads());
        let q = graph_from(&[2, 2], &[(0, 1)]);
        let f = g6.filter(&q);
        assert!(
            f.candidates.len() >= 2,
            "parallel path needs >= 2 candidates"
        );
        let (_, _warm) = g6.verify_batch_with(&q, &f.context, &f.candidates);
        let (_, steady) = g6.verify_batch_with(&q, &f.context, &f.candidates);
        assert_eq!(
            steady.scratch_allocs, 0,
            "worker scratch pool stays warm across batches"
        );
        // Empty batches skip setup entirely.
        let (outcomes, stats) = g6.verify_batch_with(&q, &f.context, &[]);
        assert!(outcomes.is_empty());
        assert_eq!(stats, VerifyBatchStats::default());
    }

    /// Under the engine's width rule Grapes(k) verifies on `min(k,
    /// width)` workers: width 1 never fans out, and changes no outcome.
    #[test]
    fn engine_width_caps_the_paper_width() {
        let s = store();
        let g6 = Grapes::build(&s, GrapesConfig::six_threads());
        let q = graph_from(&[2, 2], &[(0, 1)]);
        let f = g6.filter(&q);
        assert!(f.candidates.len() >= 2, "a fan-out needs >= 2 candidates");
        let (at_k, k_stats) = g6.verify_batch_with(&q, &f.context, &f.candidates);
        assert_eq!(k_stats.fanouts, 1, "a direct call keeps k");
        let serial = Some(crate::batch::PlanSource::with_width(1));
        let (at_1, stats) = g6.verify_batch_with_plans(&q, &f.context, &f.candidates, serial);
        assert_eq!(stats.fanouts, 0);
        assert_eq!(at_1, at_k);
    }

    /// The trie, depths, shallow list and per-graph locations (in
    /// iteration order) are the serial build's at any `threads`, over
    /// many windows, on molecules and on dense graphs a small budget
    /// truncates; and the serial build's trie is the one a plain loop of
    /// `FeatureTrie::insert` over each graph's map builds, densified over
    /// the store's ids.
    #[test]
    fn build_is_bit_identical_at_any_width() {
        let s = crate::build_fixture::store();
        let small_budget = GrapesConfig {
            path_budget: 2_000,
            ..Default::default()
        };
        for config in [GrapesConfig::default(), small_budget] {
            let serial = Grapes::build(
                &s,
                GrapesConfig {
                    threads: 1,
                    ..config
                },
            );
            let mut reference = igq_features::FeatureTrie::new();
            for (id, g) in s.iter() {
                let features = enumerate_paths_with_locations(g, &config.path_config());
                for (seq, count) in &features.counts {
                    reference.insert(seq, id, *count);
                }
            }
            reference.densify(s.len());
            assert!(reference.dense_count() > 0, "common features are rows");
            assert_eq!(format!("{:?}", serial.trie), format!("{reference:?}"));
            for threads in crate::build_fixture::widths() {
                let built = Grapes::build(&s, GrapesConfig { threads, ..config });
                assert_eq!(
                    format!("{:?}", built.trie),
                    format!("{:?}", serial.trie),
                    "threads {threads}"
                );
                assert_eq!(built.complete_len, serial.complete_len);
                assert_eq!(built.shallow, serial.shallow);
                assert_eq!(
                    format!("{:?}", built.locations),
                    format!("{:?}", serial.locations)
                );
                assert_eq!(built.index_size_bytes(), serial.index_size_bytes());
            }
        }
        assert!(!Grapes::build(&s, small_budget).shallow.is_empty());
    }

    #[test]
    fn component_restriction_still_finds_embedded_query() {
        let s = store();
        let grapes = Grapes::build(&s, GrapesConfig::default());
        // The 2-triangle lives in the tail component of g3.
        let q = graph_from(&[2, 2, 2], &[(0, 1), (1, 2), (0, 2)]);
        let f = grapes.filter(&q);
        assert!(f.candidates.contains(&GraphId::new(3)));
        let out = grapes.verify(&q, &f.context, GraphId::new(3));
        assert!(out.contains);
    }

    #[test]
    fn verify_without_context_recomputes_features() {
        let s = store();
        let grapes = Grapes::build(&s, GrapesConfig::default());
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let out = grapes.verify(&q, &QueryContext::default(), GraphId::new(0));
        assert!(out.contains);
    }

    #[test]
    fn location_index_grows_size_accounting() {
        let s = store();
        let grapes = Grapes::build(&s, GrapesConfig::default());
        let ggsx = crate::ggsx::Ggsx::build(&s, crate::ggsx::GgsxConfig::default());
        assert!(grapes.index_size_bytes() > ggsx.index_size_bytes());
    }

    #[test]
    fn disconnected_query_falls_back_to_whole_graph() {
        let s = store();
        let grapes = Grapes::build(&s, GrapesConfig::default());
        let naive = NaiveMethod::build(&s);
        // Disconnected query: 0-1 edge plus isolated 9.
        let q = graph_from(&[0, 1, 9], &[(0, 1)]);
        assert_eq!(grapes.query(&q).0, naive.query(&q).0);
    }
}

/// The parallel index build at its edges: a store with no graphs, and more
/// workers than graphs.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::grapes::{Grapes, GrapesConfig};
        use crate::method::SubgraphMethod;
        use igq_graph::{graph_from, GraphStore};
        use std::sync::Arc;

        #[test]
        fn empty_store() {
            let s = Arc::new(GraphStore::new());
            let grapes = Grapes::build(
                &s,
                GrapesConfig {
                    threads: 4,
                    ..Default::default()
                },
            );
            assert!(grapes.locations.is_empty());
            assert!(grapes.complete_len.is_empty());
            assert!(grapes.shallow.is_empty());
            let q = graph_from(&[0, 1], &[(0, 1)]);
            assert!(grapes.query(&q).0.is_empty());
        }

        #[test]
        fn more_threads_than_graphs() {
            let s: Arc<GraphStore> = Arc::new(
                vec![
                    graph_from(&[0, 1], &[(0, 1)]),
                    graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
                ]
                .into_iter()
                .collect(),
            );
            let serial = Grapes::build(&s, GrapesConfig::default());
            let wide = Grapes::build(
                &s,
                GrapesConfig {
                    threads: 16,
                    ..Default::default()
                },
            );
            assert_eq!(wide.locations.len(), 2);
            assert_eq!(
                format!("{:?}", wide.locations),
                format!("{:?}", serial.locations)
            );
            assert_eq!(format!("{:?}", wide.trie), format!("{:?}", serial.trie));
            assert_eq!(wide.complete_len, serial.complete_len);
        }
    }
}
