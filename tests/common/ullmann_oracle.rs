//! Ullmann's subgraph-isomorphism algorithm (J. ACM 1976) — reference \[39\]
//! of the paper and the ancestor of most practical matchers.
//!
//! The algorithm maintains a boolean candidate matrix `M[i][j]` ("pattern
//! vertex i may map to target vertex j"), repeatedly *refines* it (a
//! candidate survives only if each of its pattern neighbors retains a
//! candidate among the target vertex's neighbors), and backtracks row by
//! row. We store rows as `u64` bitsets; refinement short-circuits via
//! neighbor scans rather than materializing target adjacency bitsets, which
//! keeps memory at `O(n_p · n_t / 64)` even for PDBS-sized targets.
//!
//! Kept as the second independent oracle `tests/prop_iso.rs` holds the
//! production matcher (and the VF2 oracle) to: VF2 wins on nearly all of
//! our workloads, mirroring why the literature (and the paper's chosen
//! methods) standardized on VF2.

use igq::graph::{Graph, VertexId};
use igq::iso::semantics::{MatchConfig, MatchResult, MatchSemantics, Outcome};

/// Row-major bit matrix, one row per pattern vertex.
#[derive(Clone)]
struct BitMatrix {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        BitMatrix {
            words_per_row,
            bits: vec![0; rows * words_per_row],
        }
    }

    #[inline]
    fn get(&self, r: usize, c: usize) -> bool {
        self.bits[r * self.words_per_row + c / 64] >> (c % 64) & 1 == 1
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize) {
        self.bits[r * self.words_per_row + c / 64] |= 1 << (c % 64);
    }

    #[inline]
    fn clear(&mut self, r: usize, c: usize) {
        self.bits[r * self.words_per_row + c / 64] &= !(1 << (c % 64));
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    fn row_is_empty(&self, r: usize) -> bool {
        self.row(r).iter().all(|&w| w == 0)
    }

    /// Keeps only column `c` set in row `r`.
    fn isolate(&mut self, r: usize, c: usize) {
        let start = r * self.words_per_row;
        for w in &mut self.bits[start..start + self.words_per_row] {
            *w = 0;
        }
        self.set(r, c);
    }

    /// Clears column `c` in every row except `keep_row`.
    fn clear_column_except(&mut self, c: usize, keep_row: usize, rows: usize) {
        for r in 0..rows {
            if r != keep_row {
                self.clear(r, c);
            }
        }
    }

    /// Iterates set column indexes of row `r`.
    fn ones(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(r).iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

struct Ullmann<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    config: MatchConfig,
    states: u64,
    budget_hit: bool,
    assignment: Vec<u32>,
    /// Edge labels participate only when either side carries them.
    check_edge_labels: bool,
}

impl<'a> Ullmann<'a> {
    /// Initial candidate matrix from labels and degrees.
    fn seed_matrix(&self) -> BitMatrix {
        let np = self.pattern.vertex_count();
        let nt = self.target.vertex_count();
        let mut m = BitMatrix::new(np, nt);
        for p in self.pattern.vertices() {
            for &t in self.target.vertices_with_label(self.pattern.label(p)) {
                if self.target.degree(t) >= self.pattern.degree(p) {
                    m.set(p.index(), t.index());
                }
            }
        }
        m
    }

    /// Ullmann's refinement to fixpoint. Returns `false` if a row empties.
    fn refine(&self, m: &mut BitMatrix) -> bool {
        let np = self.pattern.vertex_count();
        loop {
            let mut changed = false;
            for i in 0..np {
                let pi = VertexId::from_index(i);
                let cols: Vec<usize> = m.ones(i).collect();
                for j in cols {
                    let tj = VertexId::from_index(j);
                    let ok = self.pattern.neighbors(pi).iter().all(|&k| {
                        self.target
                            .neighbors(tj)
                            .iter()
                            .any(|&y| m.get(k.index(), y.index()))
                    });
                    if !ok {
                        m.clear(i, j);
                        changed = true;
                    }
                }
                if m.row_is_empty(i) {
                    return false;
                }
            }
            if !changed {
                return true;
            }
        }
    }

    /// Consistency of `row -> col` with rows already assigned (mono: mapped
    /// pattern edges must be target edges; induced: and vice versa).
    fn consistent(&self, row: usize, col: usize) -> bool {
        let p = VertexId::from_index(row);
        let t = VertexId::from_index(col);
        for prev in 0..row {
            let q = VertexId::from_index(prev);
            let qt = VertexId::new(self.assignment[prev]);
            if qt == t {
                return false; // injectivity
            }
            let pe = self.pattern.has_edge(q, p);
            let te = self.target.has_edge(qt, t);
            match self.config.semantics {
                MatchSemantics::Monomorphism => {
                    if pe && !te {
                        return false;
                    }
                }
                MatchSemantics::Induced => {
                    if pe != te {
                        return false;
                    }
                }
            }
            // Mapped pattern edges must also agree on edge labels.
            if pe
                && te
                && self.check_edge_labels
                && self.pattern.edge_label_unchecked(q, p)
                    != self.target.edge_label_unchecked(qt, t)
            {
                return false;
            }
        }
        true
    }

    fn search(&mut self, row: usize, m: &BitMatrix) -> bool {
        let np = self.pattern.vertex_count();
        if row == np {
            return true;
        }
        let candidates: Vec<usize> = m.ones(row).collect();
        for col in candidates {
            if self.config.budget.exhausted(self.states) {
                self.budget_hit = true;
                return false;
            }
            self.states += 1;
            if !self.consistent(row, col) {
                continue;
            }
            let mut next = m.clone();
            next.isolate(row, col);
            next.clear_column_except(col, row, np);
            if !self.refine(&mut next) {
                continue;
            }
            self.assignment[row] = col as u32;
            if self.search(row + 1, &next) {
                return true;
            }
            if self.budget_hit {
                return false;
            }
        }
        false
    }
}

/// Finds one embedding of `pattern` in `target` with Ullmann's algorithm.
pub fn find_one(pattern: &Graph, target: &Graph, config: &MatchConfig) -> MatchResult {
    if pattern.is_empty() {
        return MatchResult::new(Outcome::Found(Vec::new()), 0);
    }
    if pattern.vertex_count() > target.vertex_count() || pattern.edge_count() > target.edge_count()
    {
        return MatchResult::new(Outcome::NotFound, 0);
    }
    let mut u = Ullmann {
        pattern,
        target,
        config: *config,
        states: 0,
        budget_hit: false,
        assignment: vec![0; pattern.vertex_count()],
        check_edge_labels: pattern.has_edge_labels() || target.has_edge_labels(),
    };
    let mut m = u.seed_matrix();
    if !u.refine(&mut m) {
        return MatchResult::new(Outcome::NotFound, 0);
    }
    let found = u.search(0, &m);
    if u.budget_hit {
        MatchResult::new(Outcome::Aborted, u.states)
    } else if found {
        let mapping = u.assignment.iter().map(|&c| VertexId::new(c)).collect();
        MatchResult::new(Outcome::Found(mapping), u.states)
    } else {
        MatchResult::new(Outcome::NotFound, u.states)
    }
}
