//! The matcher: VF2 split into a query-side [`MatchPlan`] built **once
//! per query** plus a reusable [`MatchScratch`] workspace, so the
//! steady-state verification loop — one query against a whole batch of
//! candidates — performs **zero heap allocations** per candidate.
//!
//! * [`MatchPlan::build`] orders the pattern once, using any label-rarity
//!   statistic the caller supplies — typically the candidate batch's
//!   aggregated label counts or the store-level frequency table
//!   ([`igq_graph::GraphStore::label_frequency`]), making the plan
//!   target-independent and shareable across every candidate of a batch.
//!   [`MatchPlan::for_target`] ranks by the target's own label index
//!   instead: the classic per-pair VF2 ordering (rarest-label seed,
//!   connectivity-first growth), which `tests/prop_hotpath.rs` pins to the
//!   per-pair VF2 engine kept there as an oracle: the same verdict and
//!   first embedding, in no more explored states.
//! * Per-entry pattern facts (label, degree, backward edges *as plan
//!   positions* with their pattern edge labels, induced non-neighbors,
//!   forward-neighbor label runs) are flattened into the plan, so the
//!   inner search loop never touches the pattern graph again.
//! * The 1-lookahead is label-aware: a candidate `t` for pattern vertex
//!   `u` needs, for every label `ℓ`, at least as many *unused* target
//!   neighbors labeled `ℓ` as `u` has `ℓ`-labeled neighbors ordered after
//!   it (its forward label runs `(ℓ, c)`). Any embedding extending
//!   `u → t` maps those forward neighbors injectively onto such vertices,
//!   so a rejected `t` roots a subtree without an embedding: the DFS order
//!   and the first embedding found are those of the label-blind
//!   free-degree lookahead, with dead subtrees skipped.
//! * [`MatchScratch`] holds the mapping array, the lookahead's per-run
//!   counters and a stamped `used` array with a generation counter:
//!   starting the next candidate is one generation bump, not an
//!   `O(|target|)` clear, and buffers only ever grow
//!   ([`MatchScratch::alloc_events`] counts those growths — flat in
//!   steady state).
//! * Candidate sets are borrowed directly from the target's neighbor /
//!   label-class slices; nothing is cloned during the search.
//!
//! [`matches_with_plan`] returns the verdict without materializing an
//! embedding (the batch-verification hot path needs only containment);
//! [`find_with_plan`] additionally reconstructs the mapping. [`find_one`]
//! is the per-pair entry — a target-ordered plan on the thread's scratch —
//! for one-off tests: `is_subgraph`, a method's single-candidate `verify`,
//! the engine's duplicate check.

use crate::budget::Budget;
use crate::semantics::{MatchConfig, MatchResult, MatchSemantics, Outcome};
use igq_graph::{Graph, LabelId, VertexId};
use std::cell::RefCell;

/// The three-way result of a containment-only match (an [`Outcome`]
/// without the embedding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// An embedding exists.
    Found,
    /// The search space was exhausted: no embedding.
    NotFound,
    /// The state budget ran out first; the answer is unknown.
    Aborted,
}

impl Verdict {
    /// True only for [`Verdict::Found`].
    #[inline]
    pub fn is_found(self) -> bool {
        matches!(self, Verdict::Found)
    }

    /// True only for [`Verdict::Aborted`].
    #[inline]
    pub fn is_aborted(self) -> bool {
        matches!(self, Verdict::Aborted)
    }
}

/// One matching step: the pattern vertex matched at this depth plus every
/// pattern-side fact the feasibility rules need, flattened so the search
/// never consults the pattern graph.
#[derive(Debug, Clone)]
struct PlanEntry {
    /// Pattern vertex id (for label-class seeding and mapping output).
    vertex: VertexId,
    /// The vertex's label.
    label: LabelId,
    /// The vertex's pattern degree.
    degree: u32,
    /// Range into [`MatchPlan::forward`] (lookahead).
    fwd_start: u32,
    fwd_len: u32,
    /// Range into [`MatchPlan::backward`].
    back_start: u32,
    back_len: u32,
    /// Range into [`MatchPlan::nonadj`] (induced semantics only).
    nonadj_start: u32,
    nonadj_len: u32,
}

/// A backward constraint: an already-ordered pattern neighbor, addressed
/// by its *plan position*, with the connecting pattern edge's label.
#[derive(Debug, Clone, Copy)]
struct BackRef {
    pos: u32,
    edge_label: LabelId,
}

/// A query-side matching plan, target-independent and immutable: build it
/// once per query, share it (`&MatchPlan` is `Send + Sync`) across every
/// candidate — and across verification worker threads.
#[derive(Debug, Clone)]
pub struct MatchPlan {
    entries: Vec<PlanEntry>,
    backward: Vec<BackRef>,
    /// Forward-neighbor label runs `(ℓ, c)` per entry: `c` pattern
    /// neighbors labeled `ℓ` are ordered after the entry, one run per
    /// distinct label, sorted by label.
    forward: Vec<(LabelId, u32)>,
    /// Earlier plan positions non-adjacent to each entry's vertex
    /// (feasibility material for induced semantics; empty otherwise).
    nonadj: Vec<u32>,
    pattern_vertices: u32,
    pattern_edges: u32,
    pattern_has_edge_labels: bool,
    config: MatchConfig,
}

impl MatchPlan {
    /// Builds the plan for `pattern` under `config`, ordering vertices by
    /// the caller-supplied label `rarity` statistic (smaller = rarer =
    /// earlier). The heuristic is VF2's: per connected component,
    /// seed at the (rarest label, max degree) vertex, then grow
    /// connectivity-first preferring (most ordered neighbors, rarest
    /// label, max degree).
    pub fn build(
        pattern: &Graph,
        config: &MatchConfig,
        rarity: &mut dyn FnMut(LabelId) -> u64,
    ) -> MatchPlan {
        let n = pattern.vertex_count();
        // Rarity per pattern vertex, memoized per vertex so the statistic
        // is consulted exactly |V(pattern)| times.
        let vertex_rarity: Vec<u64> = pattern
            .vertices()
            .map(|v| rarity(pattern.label(v)))
            .collect();
        let mut ordered = vec![false; n];
        let mut order: Vec<VertexId> = Vec::with_capacity(n);

        while order.len() < n {
            // Seed: unordered vertex with rarest label, tie-break max
            // degree (`min_by_key` keeps the first minimum).
            let seed = pattern
                .vertices()
                .filter(|&v| !ordered[v.index()])
                .min_by_key(|&v| {
                    (
                        vertex_rarity[v.index()],
                        u64::MAX - pattern.degree(v) as u64,
                    )
                })
                .expect("unordered vertex must exist");
            ordered[seed.index()] = true;
            order.push(seed);

            // Grow the component: most already-ordered neighbors first,
            // then rarest label, then max degree (`max_by_key` keeps the
            // last maximum).
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
                        (
                            back as u64,
                            u64::MAX - vertex_rarity[v.index()],
                            pattern.degree(v) as u64,
                        )
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

        let mut position = vec![0u32; n];
        for (pos, &v) in order.iter().enumerate() {
            position[v.index()] = pos as u32;
        }

        // Every pattern edge is backward for one endpoint and forward for
        // the other, so neither buffer outgrows its first allocation.
        let mut entries = Vec::with_capacity(n);
        let mut backward: Vec<BackRef> = Vec::with_capacity(pattern.edge_count());
        let mut forward: Vec<(LabelId, u32)> = Vec::with_capacity(pattern.edge_count());
        let mut nonadj: Vec<u32> = Vec::new();
        for (pos, &v) in order.iter().enumerate() {
            // Backward neighbors in ascending pattern-vertex order (the
            // sorted neighbor slice), so candidate-source selection
            // tie-breaks on the lowest pattern vertex; forward neighbors
            // as unit runs of their labels.
            let back_start = backward.len() as u32;
            let fwd_start = forward.len();
            for &w in pattern.neighbors(v) {
                let w_pos = position[w.index()];
                if (w_pos as usize) < pos {
                    backward.push(BackRef {
                        pos: w_pos,
                        edge_label: pattern.edge_label_unchecked(w, v),
                    });
                } else {
                    forward.push((pattern.label(w), 1));
                }
            }
            let back_len = backward.len() as u32 - back_start;
            // Sort the entry's unit runs by label and merge them in place.
            forward[fwd_start..].sort_unstable();
            let mut fwd_end = fwd_start;
            for i in fwd_start..forward.len() {
                if fwd_end > fwd_start && forward[fwd_end - 1].0 == forward[i].0 {
                    forward[fwd_end - 1].1 += 1;
                } else {
                    forward[fwd_end] = forward[i];
                    fwd_end += 1;
                }
            }
            forward.truncate(fwd_end);
            let nonadj_start = nonadj.len() as u32;
            if config.semantics == MatchSemantics::Induced {
                // Earlier positions not adjacent to `v` in the pattern, in
                // plan order.
                for (d, &q) in order.iter().enumerate().take(pos) {
                    if !pattern.has_edge(q, v) {
                        nonadj.push(d as u32);
                    }
                }
            }
            let nonadj_len = nonadj.len() as u32 - nonadj_start;
            entries.push(PlanEntry {
                vertex: v,
                label: pattern.label(v),
                degree: pattern.degree(v) as u32,
                fwd_start: fwd_start as u32,
                fwd_len: (fwd_end - fwd_start) as u32,
                back_start,
                back_len,
                nonadj_start,
                nonadj_len,
            });
        }

        MatchPlan {
            entries,
            backward,
            forward,
            nonadj,
            pattern_vertices: n as u32,
            pattern_edges: pattern.edge_count() as u32,
            pattern_has_edge_labels: pattern.has_edge_labels(),
            config: *config,
        }
    }

    /// Builds a plan with the *target's* label index as the rarity
    /// statistic — the per-pair ordering. Used where the target is fixed
    /// and known: [`find_one`], supergraph verification, and large batch
    /// targets.
    pub fn for_target(pattern: &Graph, target: &Graph, config: &MatchConfig) -> MatchPlan {
        MatchPlan::build(pattern, config, &mut |l| {
            target.vertices_with_label(l).len() as u64
        })
    }

    /// Number of pattern vertices.
    #[inline]
    pub fn pattern_vertex_count(&self) -> usize {
        self.pattern_vertices as usize
    }

    /// The configuration the plan was built under.
    #[inline]
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// Approximate heap footprint of the plan's buffers, in bytes.
    pub fn heap_size_bytes(&self) -> u64 {
        (self.entries.capacity() * std::mem::size_of::<PlanEntry>()
            + self.backward.capacity() * std::mem::size_of::<BackRef>()
            + self.forward.capacity() * std::mem::size_of::<(LabelId, u32)>()
            + self.nonadj.capacity() * std::mem::size_of::<u32>()) as u64
    }

    #[inline]
    fn back_refs(&self, e: &PlanEntry) -> &[BackRef] {
        &self.backward[e.back_start as usize..(e.back_start + e.back_len) as usize]
    }

    #[inline]
    fn forward_runs(&self, e: &PlanEntry) -> &[(LabelId, u32)] {
        &self.forward[e.fwd_start as usize..(e.fwd_start + e.fwd_len) as usize]
    }

    #[inline]
    fn nonadj_of(&self, e: &PlanEntry) -> &[u32] {
        &self.nonadj[e.nonadj_start as usize..(e.nonadj_start + e.nonadj_len) as usize]
    }
}

/// The reusable per-thread search workspace: the position-indexed mapping
/// array, the lookahead's run counters and the generation-stamped `used`
/// array. Buffers grow to the largest pattern/target seen and are then
/// reused allocation-free; [`MatchScratch::alloc_events`] counts the
/// growths.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// `mapping[plan position] = raw target vertex id` for mapped depths.
    mapping: Vec<u32>,
    /// Per forward run, the `ℓ`-neighbors still needed during one
    /// lookahead (an entry has fewer runs than the pattern has vertices).
    run_need: Vec<u32>,
    /// `used_stamp[target vertex] == generation` iff the vertex is
    /// currently used by the mapping.
    used_stamp: Vec<u32>,
    generation: u32,
    alloc_events: u64,
}

impl MatchScratch {
    /// A fresh, empty workspace (no allocation until first use).
    pub fn new() -> MatchScratch {
        MatchScratch::default()
    }

    /// Number of buffer allocations/growths since construction. Flat in
    /// steady state: after the workspace has seen the largest query and
    /// target of a workload, every further match is allocation-free.
    #[inline]
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Grows the buffers (counting growths) to fit any match of a
    /// `pattern_vertices`-vertex pattern into a target of at most
    /// `target_vertices` vertices.
    pub fn reserve(&mut self, pattern_vertices: usize, target_vertices: usize) {
        if self.mapping.len() < pattern_vertices {
            // The two pattern-sized buffers grow together: one event.
            self.mapping.resize(pattern_vertices, 0);
            self.run_need.resize(pattern_vertices, 0);
            self.alloc_events += 1;
        }
        if self.used_stamp.len() < target_vertices {
            self.used_stamp.resize(target_vertices, 0);
            self.alloc_events += 1;
        }
    }

    /// Prepares for one match: ensures capacity (counting growths) and
    /// opens a fresh `used` generation (O(1) — no clearing).
    fn begin(&mut self, pattern_vertices: usize, target_vertices: usize) {
        self.reserve(pattern_vertices, target_vertices);
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped after ~4B matches: old stamps could collide with the
            // restarted counter, so pay one full clear.
            self.used_stamp.fill(0);
            self.generation = 1;
        }
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<MatchScratch> = RefCell::new(MatchScratch::new());
}

/// Runs `f` with this thread's shared [`MatchScratch`]. The workspace
/// persists for the thread's lifetime, so steady-state callers (batch
/// verification loops, worker threads) reuse warm buffers across queries
/// without threading a scratch through every call site. Reentrant: when
/// the thread's workspace is already borrowed further up the stack, `f`
/// gets a fresh one instead.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut MatchScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut MatchScratch::new()),
    })
}

/// The recursive search, generic over whether an embedding is materialized.
struct Run<'a> {
    plan: &'a MatchPlan,
    target: &'a Graph,
    budget: Budget,
    check_edge_labels: bool,
    states: u64,
    budget_hit: bool,
    found: bool,
}

impl<'a> Run<'a> {
    /// VF2 feasibility of extending the mapping with `entry.vertex -> t`.
    fn feasible(&self, scratch: &mut MatchScratch, depth: usize, t: VertexId) -> bool {
        let entry = &self.plan.entries[depth];
        if scratch.used_stamp[t.index()] == scratch.generation
            || entry.label != self.target.label(t)
        {
            return false;
        }
        if (self.target.degree(t) as u32) < entry.degree {
            return false;
        }
        // Consistency over already-mapped neighbors (edge labels must
        // agree when present; unlabeled sides report the default label 0).
        for br in self.plan.back_refs(entry) {
            let bt = VertexId::new(scratch.mapping[br.pos as usize]);
            if !self.target.has_edge(bt, t) {
                return false;
            }
            if self.check_edge_labels && br.edge_label != self.target.edge_label_unchecked(bt, t) {
                return false;
            }
        }
        if self.plan.config.semantics == MatchSemantics::Induced {
            // Mapped pattern *non*-neighbors must land on non-neighbors.
            for &d in self.plan.nonadj_of(entry) {
                let qt = VertexId::new(scratch.mapping[d as usize]);
                if self.target.has_edge(qt, t) {
                    return false;
                }
            }
        }
        // Label-aware 1-lookahead: for every forward run (ℓ, c), `t` needs
        // c unused neighbors labeled ℓ to host the pattern's still-unordered
        // ℓ-neighbors. One pass over `t`'s neighbors, stopping once every
        // run is covered. (This implies the label-blind free-degree test.)
        let runs = self.plan.forward_runs(entry);
        if runs.is_empty() {
            return true;
        }
        let need = &mut scratch.run_need[..runs.len()];
        for (n, &(_, c)) in need.iter_mut().zip(runs) {
            *n = c;
        }
        let mut uncovered = runs.len();
        for &w in self.target.neighbors(t) {
            if scratch.used_stamp[w.index()] == scratch.generation {
                continue;
            }
            let label = self.target.label(w);
            if let Some(i) = runs.iter().position(|&(l, _)| l == label) {
                if need[i] > 0 {
                    need[i] -= 1;
                    if need[i] == 0 {
                        uncovered -= 1;
                        if uncovered == 0 {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Recursive extension. Returns `true` to stop the search (embedding
    /// found or budget exhausted).
    fn extend(&mut self, scratch: &mut MatchScratch, depth: usize) -> bool {
        if depth == self.plan.entries.len() {
            self.found = true;
            return true;
        }
        let entry = &self.plan.entries[depth];

        // Candidate generation: prefer the neighbor slice of an
        // already-mapped pattern neighbor (smallest image neighborhood);
        // fall back to the label class for component seeds. The slices are
        // borrowed straight from the target — nothing is cloned.
        let target = self.target;
        let candidates: &[VertexId] = if let Some(br) = self
            .plan
            .back_refs(entry)
            .iter()
            .min_by_key(|br| target.degree(VertexId::new(scratch.mapping[br.pos as usize])))
        {
            target.neighbors(VertexId::new(scratch.mapping[br.pos as usize]))
        } else {
            target.vertices_with_label(entry.label)
        };

        for &t in candidates {
            if self.budget.exhausted(self.states) {
                self.budget_hit = true;
                return true;
            }
            self.states += 1;
            if !self.feasible(scratch, depth, t) {
                continue;
            }
            scratch.mapping[depth] = t.raw();
            scratch.used_stamp[t.index()] = scratch.generation;
            if self.extend(scratch, depth + 1) {
                return true;
            }
            scratch.used_stamp[t.index()] = 0;
        }
        false
    }
}

/// Shared driver behind [`matches_with_plan`] and [`find_with_plan`].
fn run_search(plan: &MatchPlan, target: &Graph, scratch: &mut MatchScratch) -> (Verdict, u64) {
    if plan.pattern_vertices == 0 {
        return (Verdict::Found, 0);
    }
    if plan.pattern_vertices as usize > target.vertex_count()
        || plan.pattern_edges as usize > target.edge_count()
    {
        return (Verdict::NotFound, 0);
    }
    scratch.begin(plan.pattern_vertices as usize, target.vertex_count());
    let mut run = Run {
        plan,
        target,
        budget: plan.config.budget,
        check_edge_labels: plan.pattern_has_edge_labels || target.has_edge_labels(),
        states: 0,
        budget_hit: false,
        found: false,
    };
    run.extend(scratch, 0);
    let verdict = if run.budget_hit {
        Verdict::Aborted
    } else if run.found {
        Verdict::Found
    } else {
        Verdict::NotFound
    };
    (verdict, run.states)
}

/// Decides containment of the plan's pattern in `target` without
/// materializing an embedding — the zero-allocation batch-verification
/// entry point. Returns the verdict and the number of explored states.
pub fn matches_with_plan(
    plan: &MatchPlan,
    target: &Graph,
    scratch: &mut MatchScratch,
) -> (Verdict, u64) {
    run_search(plan, target, scratch)
}

/// Like [`matches_with_plan`], but reconstructs the embedding on success.
pub fn find_with_plan(plan: &MatchPlan, target: &Graph, scratch: &mut MatchScratch) -> MatchResult {
    let (verdict, states) = run_search(plan, target, scratch);
    let outcome = match verdict {
        Verdict::Aborted => Outcome::Aborted,
        Verdict::NotFound => Outcome::NotFound,
        Verdict::Found => {
            // `scratch.mapping` is plan-position-indexed; re-key by
            // pattern vertex.
            let mut mapping = vec![VertexId::new(u32::MAX); plan.pattern_vertex_count()];
            for (pos, e) in plan.entries.iter().enumerate() {
                mapping[e.vertex.index()] = VertexId::new(scratch.mapping[pos]);
            }
            Outcome::Found(mapping)
        }
    };
    MatchResult { outcome, states }
}

/// The per-pair entry: plans `pattern` against `target`'s own label index
/// ([`MatchPlan::for_target`]) and searches with [`find_with_plan`] on the
/// thread's scratch ([`with_thread_scratch`], so it is safe to call from
/// inside a batch). Finds one embedding, proves none exists, or aborts
/// when `config`'s budget runs out.
pub fn find_one(pattern: &Graph, target: &Graph, config: &MatchConfig) -> MatchResult {
    let plan = MatchPlan::for_target(pattern, target, config);
    with_thread_scratch(|scratch| find_with_plan(&plan, target, scratch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::verify_embedding;
    use igq_graph::{graph_from, graph_from_el};

    fn cfg() -> MatchConfig {
        MatchConfig::default()
    }

    #[test]
    fn empty_pattern_matches_anything() {
        let t = graph_from(&[0, 1], &[(0, 1)]);
        let r = find_one(&graph_from(&[], &[]), &t, &cfg());
        assert!(r.outcome.is_found());
    }

    #[test]
    fn single_vertex_label_match() {
        let t = graph_from(&[3, 5], &[(0, 1)]);
        assert!(find_one(&graph_from(&[5], &[]), &t, &cfg())
            .outcome
            .is_found());
        assert!(find_one(&graph_from(&[9], &[]), &t, &cfg())
            .outcome
            .is_not_found());
    }

    #[test]
    fn path_in_triangle_mono() {
        let p = graph_from(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let tri = graph_from(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let r = find_one(&p, &tri, &cfg());
        let m = r
            .outcome
            .mapping()
            .expect("path embeds in triangle")
            .to_vec();
        assert!(verify_embedding(&p, &tri, &m, MatchSemantics::Monomorphism));
    }

    #[test]
    fn path_in_triangle_induced_fails() {
        // Induced P3 needs the endpoints non-adjacent: impossible in K3.
        let p = graph_from(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let tri = graph_from(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        assert!(find_one(&p, &tri, &MatchConfig::induced())
            .outcome
            .is_not_found());
    }

    #[test]
    fn labels_constrain_matching() {
        let p = graph_from(&[1, 2], &[(0, 1)]);
        let yes = graph_from(&[2, 1, 0], &[(0, 1), (1, 2)]);
        let no = graph_from(&[1, 1, 2], &[(0, 1)]); // 2 is isolated
        assert!(find_one(&p, &yes, &cfg()).outcome.is_found());
        assert!(find_one(&p, &no, &cfg()).outcome.is_not_found());
    }

    #[test]
    fn pattern_larger_than_target_short_circuits() {
        let p = graph_from(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let t = graph_from(&[0, 0], &[(0, 1)]);
        let r = find_one(&p, &t, &cfg());
        assert!(r.outcome.is_not_found());
        assert_eq!(r.states, 0);
    }

    #[test]
    fn disconnected_pattern() {
        // Two independent labeled edges; target must host both disjointly.
        let p = graph_from(&[0, 1, 0, 1], &[(0, 1), (2, 3)]);
        let yes = graph_from(&[0, 1, 0, 1, 9], &[(0, 1), (2, 3)]);
        let no = graph_from(&[0, 1, 9], &[(0, 1)]); // only one 0-1 edge
        let r = find_one(&p, &yes, &cfg());
        let m = r
            .outcome
            .mapping()
            .expect("two disjoint edges exist")
            .to_vec();
        assert!(verify_embedding(&p, &yes, &m, MatchSemantics::Monomorphism));
        assert!(find_one(&p, &no, &cfg()).outcome.is_not_found());
    }

    #[test]
    fn cycle_needs_cycle() {
        let c4 = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let p4 = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3)]);
        assert!(find_one(&p4, &c4, &cfg()).outcome.is_found());
        assert!(find_one(&c4, &p4, &cfg()).outcome.is_not_found());
    }

    #[test]
    fn budget_aborts_and_reports() {
        // A 6-clique against a ring of overlapping 5-cliques (no 6-clique):
        // a tiny budget runs out long before the search fails.
        let mut clique = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                clique.push((i, j));
            }
        }
        let p = graph_from(&[0; 6], &clique);
        let mut edges = Vec::new();
        for i in 0..12u32 {
            for d in 1..=4u32 {
                let (a, b) = (i, (i + d) % 12);
                edges.push(if a < b { (a, b) } else { (b, a) });
            }
        }
        let t = graph_from(&[0; 12], &edges);
        let r = find_one(&p, &t, &MatchConfig::with_budget(10));
        assert_eq!(r.outcome, Outcome::Aborted);
        assert!(r.states <= 11);
    }

    #[test]
    fn forward_runs_group_later_neighbors_by_label() {
        // A star whose 0-labeled centre seeds (rarity = label value): its
        // leaves, labeled 2, 1, 2, are all ordered after it.
        let p = graph_from(&[0, 2, 1, 2], &[(0, 1), (0, 2), (0, 3)]);
        let plan = MatchPlan::build(&p, &cfg(), &mut |l| l.raw() as u64);
        assert_eq!(plan.entries[0].vertex.index(), 0);
        assert_eq!(
            plan.forward_runs(&plan.entries[0]),
            &[(LabelId::new(1), 1), (LabelId::new(2), 2)]
        );
        assert!(plan.entries[1..]
            .iter()
            .all(|e| plan.forward_runs(e).is_empty()));
    }

    #[test]
    fn lookahead_counts_free_neighbors_per_label() {
        // Pattern: a 0-centre with a 1- and a 2-neighbor. Target centre 0
        // has two free neighbors but both labeled 1, so the label-blind
        // lookahead would descend into it; centre 3 hosts the pattern.
        let p = graph_from(&[0, 1, 2], &[(0, 1), (0, 2)]);
        let t = graph_from(&[0, 1, 1, 0, 1, 2, 2, 2], &[(0, 1), (0, 2), (3, 4), (3, 5)]);
        let r = find_one(&p, &t, &cfg());
        let m: Vec<usize> = r
            .outcome
            .mapping()
            .expect("centre 3 hosts the pattern")
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(m, [3, 4, 5]);
        // 2 seed candidates, then 2 + 1 below centre 3; nothing below
        // centre 0 (the label-blind lookahead spends 2 states there).
        assert_eq!(r.states, 5);
    }

    #[test]
    fn edge_labels_constrain_matching() {
        // Target: path with a single(1) and a double(2) bond.
        let t = graph_from_el(&[0, 0, 0], &[(0, 1, 1), (1, 2, 2)]);
        let single = graph_from_el(&[0, 0], &[(0, 1, 1)]);
        let double = graph_from_el(&[0, 0], &[(0, 1, 2)]);
        let triple = graph_from_el(&[0, 0], &[(0, 1, 3)]);
        assert!(find_one(&single, &t, &cfg()).outcome.is_found());
        assert!(find_one(&double, &t, &cfg()).outcome.is_found());
        assert!(find_one(&triple, &t, &cfg()).outcome.is_not_found());
        // A double-double path needs two label-2 edges; the target has one.
        let dd = graph_from_el(&[0, 0, 0], &[(0, 1, 2), (1, 2, 2)]);
        assert!(find_one(&dd, &t, &cfg()).outcome.is_not_found());
    }

    #[test]
    fn unlabeled_pattern_defaults_to_label_zero() {
        // An unlabeled pattern edge means "label 0": it must not match a
        // target edge labeled 5, but matches a target edge labeled 0.
        let p = graph_from(&[0, 0], &[(0, 1)]);
        let t5 = graph_from_el(&[0, 0], &[(0, 1, 5)]);
        let t0 = graph_from(&[0, 0], &[(0, 1)]);
        assert!(find_one(&p, &t5, &cfg()).outcome.is_not_found());
        assert!(find_one(&p, &t0, &cfg()).outcome.is_found());
    }

    #[test]
    fn edge_labeled_mapping_is_verified() {
        let p = graph_from_el(&[1, 2], &[(0, 1, 4)]);
        let t = graph_from_el(&[2, 1, 2], &[(0, 1, 3), (1, 2, 4)]);
        let r = find_one(&p, &t, &cfg());
        let m = r.outcome.mapping().expect("label-4 edge exists").to_vec();
        assert!(verify_embedding(&p, &t, &m, MatchSemantics::Monomorphism));
        assert_eq!(
            m[1].index(),
            2,
            "pattern's 2 must map to the 4-labeled edge's end"
        );
    }

    #[test]
    fn found_mapping_is_always_valid() {
        // Query-sized fixed case with mixed labels and repeated labels.
        let p = graph_from(&[1, 2, 1, 3], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let t = graph_from(
            &[3, 1, 2, 1, 2, 3],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (1, 4),
                (0, 3),
            ],
        );
        let r = find_one(&p, &t, &cfg());
        if let Some(m) = r.outcome.mapping() {
            assert!(verify_embedding(&p, &t, m, MatchSemantics::Monomorphism));
        }
    }

    #[test]
    fn per_pair_entry_is_reentrant_inside_thread_scratch() {
        // A one-off test made while the thread's workspace is borrowed
        // (e.g. from inside a batch loop) runs on a fresh one.
        let p = graph_from(&[0, 1], &[(0, 1)]);
        let t = graph_from(&[1, 0, 1], &[(0, 1), (1, 2)]);
        let plan = MatchPlan::for_target(&p, &t, &cfg());
        let (outer, inner) = with_thread_scratch(|s| {
            let inner = find_one(&p, &t, &cfg());
            (find_with_plan(&plan, &t, s), inner)
        });
        assert!(inner.outcome.is_found());
        assert_eq!(outer, inner);
    }

    #[test]
    fn store_level_rarity_still_decides_correctly() {
        // A deliberately misleading rarity statistic must not change the
        // verdict — only the exploration order.
        let p = graph_from(&[1, 2], &[(0, 1)]);
        let t = graph_from(&[2, 1, 0], &[(0, 1), (1, 2)]);
        for misleading in [0u64, 7, 1_000_000] {
            let plan = MatchPlan::build(&p, &MatchConfig::default(), &mut |_| misleading);
            let mut scratch = MatchScratch::new();
            let r = find_with_plan(&plan, &t, &mut scratch);
            let m = r.outcome.mapping().expect("1-2 edge exists").to_vec();
            assert!(verify_embedding(&p, &t, &m, MatchSemantics::Monomorphism));
        }
    }

    #[test]
    fn scratch_reuse_across_many_targets_is_clean() {
        // Alternating targets of different sizes through one scratch must
        // agree with fresh-scratch runs, and stop allocating once warm.
        let p = graph_from(&[0, 1], &[(0, 1)]);
        let targets = [
            graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
            graph_from(&[1, 0], &[(0, 1)]),
            graph_from(&[0; 6], &(0..5).map(|i| (i, i + 1)).collect::<Vec<_>>()),
            graph_from(&[2, 2], &[(0, 1)]),
        ];
        let mut shared = MatchScratch::new();
        for _ in 0..3 {
            for t in &targets {
                let plan = MatchPlan::for_target(&p, t, &MatchConfig::default());
                let mut fresh = MatchScratch::new();
                assert_eq!(
                    find_with_plan(&plan, t, &mut shared),
                    find_with_plan(&plan, t, &mut fresh)
                );
            }
        }
        let warm = shared.alloc_events();
        for t in &targets {
            let plan = MatchPlan::for_target(&p, t, &MatchConfig::default());
            let _ = matches_with_plan(&plan, t, &mut shared);
        }
        assert_eq!(
            shared.alloc_events(),
            warm,
            "warm scratch never reallocates"
        );
    }

    #[test]
    fn thread_scratch_is_shared_within_a_thread() {
        let p = graph_from(&[0], &[]);
        let t = graph_from(&[0, 0], &[(0, 1)]);
        let plan = MatchPlan::for_target(&p, &t, &MatchConfig::default());
        let first = with_thread_scratch(|s| {
            let _ = matches_with_plan(&plan, &t, s);
            s.alloc_events()
        });
        let second = with_thread_scratch(|s| {
            let _ = matches_with_plan(&plan, &t, s);
            s.alloc_events()
        });
        assert_eq!(first, second, "second call reuses the warm buffers");
    }

    #[test]
    fn generation_wrap_clears_stamps() {
        let p = graph_from(&[0, 0], &[(0, 1)]);
        let t = graph_from(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let plan = MatchPlan::for_target(&p, &t, &MatchConfig::default());
        let mut scratch = MatchScratch::new();
        let baseline = matches_with_plan(&plan, &t, &mut scratch);
        // Force the wrap: the next begin() sees generation 0 and clears.
        scratch.generation = u32::MAX;
        assert_eq!(matches_with_plan(&plan, &t, &mut scratch), baseline);
        assert_eq!(matches_with_plan(&plan, &t, &mut scratch), baseline);
    }
}
