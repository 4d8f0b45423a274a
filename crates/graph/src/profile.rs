//! Precomputed per-graph statistics for plan seeding and cheap
//! pre-verify rejection.
//!
//! The verification stage of every filter-then-verify method pays an
//! NP-complete subgraph-isomorphism test per surviving candidate. Two
//! necessary conditions for `q ⊆ G` are decidable in linear time from
//! statistics that never change for a stored graph:
//!
//! * **label-count dominance** — every vertex label must occur in `G` at
//!   least as often as in `q`;
//! * **degree-sequence dominance** — with both degree sequences sorted
//!   descending, the `i`-th largest degree of `G` must be at least the
//!   `i`-th largest degree of `q` (the embedding maps each query vertex to
//!   a distinct target vertex of no smaller degree).
//!
//! [`GraphProfile`] precomputes both (plus the maximum degree) once per
//! graph; [`crate::GraphStore`] keeps one profile per stored graph so the
//! query hot path performs the screen without touching the graph itself.
//! Both conditions are *necessary*: a failed screen proves non-containment
//! (no false negatives are ever introduced), a passed screen decides
//! nothing.

use crate::{Graph, LabelId};

/// Precomputed statistics of one graph: its label histogram (sorted by
/// label for merge joins), its descending degree sequence, and its maximum
/// degree. Built once per stored graph by [`crate::GraphStore`]; build one
/// for a query graph with [`GraphProfile::of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphProfile {
    /// `(label, multiplicity)` pairs sorted ascending by label.
    label_counts: Box<[(LabelId, u32)]>,
    /// Vertex degrees sorted descending.
    degree_desc: Box<[u32]>,
}

impl GraphProfile {
    /// Computes the profile of `g` (`O(|V| log |V|)`).
    pub fn of(g: &Graph) -> GraphProfile {
        // `label_groups` yields labels in ascending order already.
        let label_counts: Box<[(LabelId, u32)]> = g
            .label_groups()
            .map(|(l, vs)| (l, vs.len() as u32))
            .collect();
        let mut degree_desc: Vec<u32> = g.vertices().map(|v| g.degree(v) as u32).collect();
        degree_desc.sort_unstable_by(|a, b| b.cmp(a));
        GraphProfile {
            label_counts,
            degree_desc: degree_desc.into_boxed_slice(),
        }
    }

    /// The `(label, multiplicity)` histogram, sorted ascending by label.
    #[inline]
    pub fn label_counts(&self) -> &[(LabelId, u32)] {
        &self.label_counts
    }

    /// Vertex degrees sorted descending.
    #[inline]
    pub fn degree_desc(&self) -> &[u32] {
        &self.degree_desc
    }

    /// Maximum vertex degree (0 for the empty graph).
    #[inline]
    pub fn max_degree(&self) -> u32 {
        self.degree_desc.first().copied().unwrap_or(0)
    }

    /// Reads one word of every 64-byte line of both arrays the screen
    /// reads and discards it: the profile half of verification's
    /// touch-ahead. Like [`Graph::touch`], only profiles of graphs with at
    /// most 64 vertices are touched.
    pub fn touch(&self) {
        if self.degree_desc.len() > crate::graph::BITSET_MAX_VERTICES {
            return;
        }
        crate::graph::touch_lines(&self.label_counts);
        crate::graph::touch_lines(&self.degree_desc);
    }

    /// Approximate heap footprint of this profile, in bytes.
    pub fn heap_size_bytes(&self) -> u64 {
        (std::mem::size_of_val(&*self.label_counts) + std::mem::size_of_val(&*self.degree_desc))
            as u64
    }

    /// The pre-verify screen: `false` **proves** that no graph with
    /// profile `pattern` embeds in a graph with profile `self`
    /// (label-count or degree-sequence dominance is violated); `true`
    /// decides nothing. Sound for monomorphism and induced semantics
    /// alike — an induced embedding is in particular a monomorphism.
    pub fn may_contain(&self, pattern: &GraphProfile) -> bool {
        if pattern.degree_desc.len() > self.degree_desc.len() {
            return false;
        }
        // Degree dominance: the i-th largest target degree must cover the
        // i-th largest pattern degree.
        for (pd, td) in pattern.degree_desc.iter().zip(self.degree_desc.iter()) {
            if td < pd {
                return false;
            }
        }
        // Label-count dominance via merge join over the sorted histograms.
        let mut t = self.label_counts.iter();
        let mut current = t.next();
        for &(l, need) in pattern.label_counts.iter() {
            loop {
                match current {
                    Some(&(tl, _)) if tl < l => current = t.next(),
                    Some(&(tl, have)) if tl == l => {
                        if have < need {
                            return false;
                        }
                        break;
                    }
                    // Target histogram exhausted or jumped past `l`: the
                    // pattern label is absent from the target.
                    _ => return false,
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_from;

    #[test]
    fn profile_reports_sorted_stats() {
        // Star: center degree 3, leaves degree 1; labels 0,1,1,2.
        let g = graph_from(&[0, 1, 1, 2], &[(0, 1), (0, 2), (0, 3)]);
        let p = GraphProfile::of(&g);
        assert_eq!(p.degree_desc(), &[3, 1, 1, 1]);
        assert_eq!(p.max_degree(), 3);
        let labels: Vec<(u32, u32)> = p
            .label_counts()
            .iter()
            .map(|&(l, c)| (l.raw(), c))
            .collect();
        assert_eq!(labels, vec![(0, 1), (1, 2), (2, 1)]);
    }

    #[test]
    fn may_contain_accepts_true_containments() {
        let q = graph_from(&[0, 1], &[(0, 1)]);
        let g = graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]);
        assert!(GraphProfile::of(&g).may_contain(&GraphProfile::of(&q)));
        // Every graph may contain itself.
        let p = GraphProfile::of(&g);
        assert!(p.may_contain(&p));
    }

    #[test]
    fn may_contain_rejects_label_count_violations() {
        // Query needs two 0-labels; target has one.
        let q = graph_from(&[0, 0], &[(0, 1)]);
        let g = graph_from(&[0, 1, 1], &[(0, 1), (1, 2)]);
        assert!(!GraphProfile::of(&g).may_contain(&GraphProfile::of(&q)));
        // Query label absent entirely.
        let q9 = graph_from(&[9], &[]);
        assert!(!GraphProfile::of(&g).may_contain(&GraphProfile::of(&q9)));
    }

    #[test]
    fn may_contain_rejects_degree_violations() {
        // Star K1,3 cannot embed in a path (max degree 2), even though
        // label counts allow it.
        let star = graph_from(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        let path = graph_from(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        assert!(!GraphProfile::of(&path).may_contain(&GraphProfile::of(&star)));
        // Two degree-2 vertices needed, target has one.
        let p3 = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3)]);
        let tri_plus = graph_from(&[0; 4], &[(0, 1), (1, 2), (0, 2)]);
        assert!(!GraphProfile::of(&tri_plus).may_contain(&GraphProfile::of(&p3)));
    }

    #[test]
    fn may_contain_rejects_larger_patterns() {
        let small = graph_from(&[0, 0], &[(0, 1)]);
        let big = graph_from(&[0, 0, 0], &[(0, 1), (1, 2)]);
        assert!(!GraphProfile::of(&small).may_contain(&GraphProfile::of(&big)));
    }

    #[test]
    fn empty_pattern_always_passes() {
        let empty = graph_from(&[], &[]);
        let g = graph_from(&[0], &[]);
        assert!(GraphProfile::of(&g).may_contain(&GraphProfile::of(&empty)));
        assert!(GraphProfile::of(&empty).may_contain(&GraphProfile::of(&empty)));
    }
}
