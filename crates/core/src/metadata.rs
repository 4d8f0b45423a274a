//! Per-cached-query metadata and the utility function (paper Section 5.1).
//!
//! The replacement policy scores each cached query `g` by
//!
//! ```text
//! U(g) = H(g)/M(g) · R(g)/H(g) · C(g)/R(g) = C(g)/M(g)
//! ```
//!
//! where `H` = hits, `M` = queries processed since insertion, `R` = iso
//! tests alleviated, and `C` = estimated cost of the alleviated tests.
//! Although the product telescopes to `C/M`, all four counters are tracked:
//! the factors are reported by the harness (and exercised by the
//! `ablation_replacement` reproduction against LRU/random policies).
//!
//! `C` accumulates astronomically large per-test costs, so it is held as a
//! [`LogValue`] and utilities compare in log space.

use igq_iso::LogValue;

/// Metadata counters for one cached query graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphMeta {
    /// `H(g)`: times this graph was found to be a sub/supergraph of an
    /// incoming query.
    pub hits: u64,
    /// `M(g)`: queries processed since this graph entered the index.
    pub queries_seen: u64,
    /// `R(g)`: candidate-set entries removed thanks to this graph.
    pub removed: u64,
    /// `C(g)`: total estimated cost of the alleviated iso tests (log space).
    pub cost_alleviated: LogValue,
    /// Query-clock value at the most recent hit (for the LRU baseline in
    /// the replacement ablation; the paper's policy ignores it).
    pub last_hit_at: u64,
}

impl GraphMeta {
    /// Fresh metadata for a newly inserted graph.
    pub fn new() -> GraphMeta {
        GraphMeta::default()
    }

    /// Records a hit that pruned `removed` candidates of estimated total
    /// cost `cost` (log space).
    pub fn record_hit(&mut self, removed: u64, cost: LogValue) {
        self.hits += 1;
        self.removed += removed;
        self.cost_alleviated = self.cost_alleviated.add(cost);
        self.last_hit_at = self.queries_seen;
    }

    /// Advances the per-query clock.
    pub fn tick(&mut self) {
        self.queries_seen += 1;
    }

    /// Popularity `P(g) = H(g)/M(g)` (0 when no queries seen).
    pub fn popularity(&self) -> f64 {
        if self.queries_seen == 0 {
            0.0
        } else {
            self.hits as f64 / self.queries_seen as f64
        }
    }

    /// `ln U(g) = ln C(g) − ln M(g)`. Graphs that never pruned anything
    /// have `U = 0` (`ln U = −∞`) and are evicted first; brand-new graphs
    /// (`M = 0`) treat `M` as 1.
    pub fn utility_ln(&self) -> f64 {
        let m = self.queries_seen.max(1) as f64;
        self.cost_alleviated.ln() - m.ln()
    }
}

/// Selects the `k` lowest-utility slots among `metas` (ties broken by slot
/// index for determinism). Returns sorted slot indexes.
pub fn lowest_utility_slots(metas: &[GraphMeta], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..metas.len()).collect();
    order.sort_by(|&a, &b| {
        metas[a]
            .utility_ln()
            .partial_cmp(&metas[b].utility_ln())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut out: Vec<usize> = order.into_iter().take(k).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_meta_has_zero_utility() {
        let m = GraphMeta::new();
        assert_eq!(m.utility_ln(), f64::NEG_INFINITY);
        assert_eq!(m.popularity(), 0.0);
    }

    #[test]
    fn hits_and_cost_raise_utility() {
        let mut a = GraphMeta::new();
        let mut b = GraphMeta::new();
        for _ in 0..10 {
            a.tick();
            b.tick();
        }
        a.record_hit(5, LogValue::from_linear(1e12));
        b.record_hit(5, LogValue::from_linear(1e6));
        assert!(a.utility_ln() > b.utility_ln());
    }

    #[test]
    fn utility_decays_with_age() {
        let mut young = GraphMeta::new();
        young.record_hit(1, LogValue::from_linear(100.0));
        young.tick();
        let mut old = GraphMeta::new();
        old.record_hit(1, LogValue::from_linear(100.0));
        for _ in 0..100 {
            old.tick();
        }
        assert!(young.utility_ln() > old.utility_ln());
    }

    #[test]
    fn popularity_is_hit_rate() {
        let mut m = GraphMeta::new();
        for _ in 0..4 {
            m.tick();
        }
        m.record_hit(1, LogValue::from_linear(1.0));
        assert_eq!(m.popularity(), 0.25);
    }

    #[test]
    fn lowest_utility_selection() {
        let mut metas = vec![GraphMeta::new(), GraphMeta::new(), GraphMeta::new()];
        for m in metas.iter_mut() {
            m.tick();
        }
        metas[0].record_hit(3, LogValue::from_linear(1e9)); // high utility
        metas[2].record_hit(1, LogValue::from_linear(10.0)); // low utility
                                                             // metas[1] never hit: lowest.
        assert_eq!(lowest_utility_slots(&metas, 2), vec![1, 2]);
        assert_eq!(lowest_utility_slots(&metas, 0), Vec::<usize>::new());
    }

    #[test]
    fn tie_break_is_deterministic() {
        let metas = vec![GraphMeta::new(); 4];
        assert_eq!(lowest_utility_slots(&metas, 2), vec![0, 1]);
    }
}
