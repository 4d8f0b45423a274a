//! VF2 subgraph-isomorphism engine (Cordella, Foggia, Sansone, Vento,
//! IEEE TPAMI 2004), specialized for undirected vertex-labeled graphs.
//!
//! The search interleaves a *static matching order* over pattern vertices
//! (rarest-label, highest-degree seed; then connectivity-first expansion,
//! which keeps the partial mapping connected and candidate sets small) with
//! the classic VF2 feasibility rules:
//!
//! * label equality;
//! * consistency — every already-mapped pattern neighbor must map to a
//!   target neighbor of the candidate (and, under induced semantics,
//!   non-adjacency must be preserved too);
//! * degree and 1-lookahead pruning — a candidate target vertex must have
//!   at least as many unmapped neighbors as the pattern vertex has
//!   not-yet-ordered neighbors.
//!
//! The engine finds the *first* embedding and stops (the experiments, like
//! the altered Grapes build the paper used, only need a containment
//! verdict), but [`count_embeddings`] is provided for tests and analysis.
//!
//! This per-pair engine is the library's former matcher, kept verbatim as
//! a test oracle, and every suite's ground truth is computed here, so the
//! production matcher is never checked against itself.
//!
//! It deliberately keeps the *label-blind* lookahead above. The
//! production matcher (`igq_iso::find_one`, a `MatchPlan::for_target` plan
//! run by `find_with_plan`) visits candidates in this engine's order but
//! requires, per label ℓ, enough free ℓ-labeled neighbors — a strictly
//! stronger test that only skips subtrees holding no embedding. Keeping
//! the weaker test here keeps the oracle independent of that pruning
//! argument: were the label-aware test wrong, the two would disagree. The
//! contract (`common::assert_oracle_contract`) is therefore: the same
//! outcome and mapping whenever this oracle completes, never more
//! explored states, and agreement with the unbudgeted oracle whenever the
//! production run completes under a budget.

use igq::graph::{Graph, VertexId};
use igq::iso::semantics::{MatchConfig, MatchResult, MatchSemantics, Outcome};

const UNMAPPED: u32 = u32::MAX;

/// Static per-pattern-vertex matching plan.
struct PlanEntry {
    /// Pattern vertex matched at this depth.
    vertex: VertexId,
    /// Already-ordered pattern neighbors (checked for edge consistency).
    backward: Vec<VertexId>,
    /// Number of pattern neighbors ordered *after* this depth (lookahead).
    forward_degree: u32,
}

/// Builds the matching order. Seeds each connected component at its
/// (rarest target label, then max degree) vertex and grows
/// connectivity-first, preferring vertices with many already-ordered
/// neighbors (most constrained first).
fn build_plan(pattern: &Graph, target: &Graph) -> Vec<PlanEntry> {
    let n = pattern.vertex_count();
    let mut ordered = vec![false; n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);

    // Rarity of each pattern vertex's label in the *target*.
    let rarity = |v: VertexId| target.vertices_with_label(pattern.label(v)).len();

    while order.len() < n {
        // Seed: unordered vertex with rarest label, tie-break max degree.
        let seed = pattern
            .vertices()
            .filter(|&v| !ordered[v.index()])
            .min_by_key(|&v| (rarity(v), usize::MAX - pattern.degree(v)))
            .expect("unordered vertex must exist");
        ordered[seed.index()] = true;
        order.push(seed);

        // Grow the component: most already-ordered neighbors first, then
        // rarest label, then max degree.
        loop {
            let next = pattern
                .vertices()
                .filter(|&v| !ordered[v.index()])
                .filter(|&v| pattern.neighbors(v).iter().any(|&w| ordered[w.index()]))
                .max_by_key(|&v| {
                    let back = pattern
                        .neighbors(v)
                        .iter()
                        .filter(|&&w| ordered[w.index()])
                        .count();
                    (back, usize::MAX - rarity(v), pattern.degree(v))
                });
            match next {
                Some(v) => {
                    ordered[v.index()] = true;
                    order.push(v);
                }
                None => break, // component exhausted; outer loop reseeds
            }
        }
    }

    let mut position = vec![0usize; n];
    for (pos, &v) in order.iter().enumerate() {
        position[v.index()] = pos;
    }
    order
        .iter()
        .enumerate()
        .map(|(pos, &v)| {
            let backward: Vec<VertexId> = pattern
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| position[w.index()] < pos)
                .collect();
            let forward_degree = (pattern.degree(v) - backward.len()) as u32;
            PlanEntry {
                vertex: v,
                backward,
                forward_degree,
            }
        })
        .collect()
}

struct Searcher<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    plan: Vec<PlanEntry>,
    config: MatchConfig,
    /// pattern vertex index -> target vertex raw id (UNMAPPED sentinel).
    mapping: Vec<u32>,
    used: Vec<bool>,
    states: u64,
    budget_hit: bool,
    /// When counting, the number of embeddings found so far and the cap.
    found_count: u64,
    count_limit: u64,
    /// Edge labels participate in feasibility only when either side carries
    /// them (unlabeled graphs stay on the cheap adjacency-only path).
    check_edge_labels: bool,
}

impl<'a> Searcher<'a> {
    fn new(pattern: &'a Graph, target: &'a Graph, config: MatchConfig) -> Self {
        Searcher {
            plan: build_plan(pattern, target),
            mapping: vec![UNMAPPED; pattern.vertex_count()],
            used: vec![false; target.vertex_count()],
            states: 0,
            budget_hit: false,
            found_count: 0,
            count_limit: 1,
            check_edge_labels: pattern.has_edge_labels() || target.has_edge_labels(),
            pattern,
            target,
            config,
        }
    }

    /// Number of `t`'s neighbors not yet used by the mapping.
    #[inline]
    fn free_degree(&self, t: VertexId) -> u32 {
        self.target
            .neighbors(t)
            .iter()
            .filter(|&&w| !self.used[w.index()])
            .count() as u32
    }

    /// VF2 feasibility of extending the mapping with `p -> t`.
    fn feasible(&self, depth: usize, t: VertexId) -> bool {
        let entry = &self.plan[depth];
        let p = entry.vertex;
        if self.used[t.index()] || self.pattern.label(p) != self.target.label(t) {
            return false;
        }
        if self.target.degree(t) < self.pattern.degree(p) {
            return false;
        }
        // Consistency over already-mapped neighbors (edge labels must agree
        // when present; unlabeled sides report the default label 0).
        for &bp in &entry.backward {
            let bt = VertexId::new(self.mapping[bp.index()]);
            if !self.target.has_edge(bt, t) {
                return false;
            }
            if self.check_edge_labels
                && self.pattern.edge_label_unchecked(bp, p)
                    != self.target.edge_label_unchecked(bt, t)
            {
                return false;
            }
        }
        if self.config.semantics == MatchSemantics::Induced {
            // Mapped pattern *non*-neighbors must land on non-neighbors.
            for d in 0..depth {
                let q = self.plan[d].vertex;
                if self.pattern.has_edge(q, p) {
                    continue; // covered by backward check
                }
                let qt = VertexId::new(self.mapping[q.index()]);
                if self.target.has_edge(qt, t) {
                    return false;
                }
            }
        }
        // 1-lookahead: enough free target neighbors for the pattern's
        // still-unordered neighbors.
        if self.free_degree(t) < entry.forward_degree {
            return false;
        }
        true
    }

    /// Recursive extension. Returns `true` to stop the search (embedding
    /// found and limit reached, or budget exhausted).
    fn extend(&mut self, depth: usize) -> bool {
        if depth == self.plan.len() {
            self.found_count += 1;
            return self.found_count >= self.count_limit;
        }
        let entry = &self.plan[depth];
        let p = entry.vertex;

        // Candidate generation: prefer the neighbor slice of an
        // already-mapped pattern neighbor (smallest image neighborhood);
        // fall back to the label class for component seeds.
        let candidates: Vec<VertexId> = if let Some(&bp) = entry
            .backward
            .iter()
            .min_by_key(|&&bp| self.target.degree(VertexId::new(self.mapping[bp.index()])))
        {
            let bt = VertexId::new(self.mapping[bp.index()]);
            self.target.neighbors(bt).to_vec()
        } else {
            self.target
                .vertices_with_label(self.pattern.label(p))
                .to_vec()
        };

        for t in candidates {
            if self.config.budget.exhausted(self.states) {
                self.budget_hit = true;
                return true;
            }
            self.states += 1;
            if !self.feasible(depth, t) {
                continue;
            }
            self.mapping[p.index()] = t.raw();
            self.used[t.index()] = true;
            if self.extend(depth + 1) {
                return true;
            }
            self.mapping[p.index()] = UNMAPPED;
            self.used[t.index()] = false;
        }
        false
    }

    fn into_result(self) -> MatchResult {
        if self.budget_hit {
            return MatchResult::new(Outcome::Aborted, self.states);
        }
        if self.found_count > 0 {
            let mapping = self.mapping.iter().map(|&r| VertexId::new(r)).collect();
            MatchResult::new(Outcome::Found(mapping), self.states)
        } else {
            MatchResult::new(Outcome::NotFound, self.states)
        }
    }
}

/// Finds one embedding of `pattern` in `target` (or proves none exists, or
/// aborts on budget exhaustion).
pub fn find_one(pattern: &Graph, target: &Graph, config: &MatchConfig) -> MatchResult {
    if pattern.is_empty() {
        return MatchResult::new(Outcome::Found(Vec::new()), 0);
    }
    if pattern.vertex_count() > target.vertex_count() || pattern.edge_count() > target.edge_count()
    {
        return MatchResult::new(Outcome::NotFound, 0);
    }
    let mut s = Searcher::new(pattern, target, *config);
    s.extend(0);
    s.into_result()
}

/// Counts embeddings up to `limit` (each distinct injective mapping counts
/// once). Returns `(count, states, aborted)`.
pub fn count_embeddings(
    pattern: &Graph,
    target: &Graph,
    limit: u64,
    config: &MatchConfig,
) -> (u64, u64, bool) {
    if pattern.is_empty() {
        return (1, 0, false);
    }
    if pattern.vertex_count() > target.vertex_count() {
        return (0, 0, false);
    }
    let mut s = Searcher::new(pattern, target, *config);
    s.count_limit = limit;
    s.extend(0);
    // The final embedding leaves the mapping populated but we only need the
    // count here; budget status still matters.
    let aborted = s.budget_hit;
    (s.found_count, s.states, aborted)
}
