//! Pluggable cache-replacement policies.
//!
//! The paper's policy (Section 5.1) evicts by *utility* `U(g) = C(g)/M(g)`
//! and explicitly argues it "differs fundamentally from standard
//! replacement policies" because different cached graphs alleviate
//! different amounts of isomorphism work. To let that claim be measured
//! rather than assumed, the cache accepts any [`ReplacementPolicy`]:
//! classic baselines (LRU-style recency, FIFO age, popularity-only LFU,
//! deterministic pseudo-random) are provided for the
//! `ablation_replacement` reproduction (`crates/bench`).

use crate::metadata::GraphMeta;

/// Which eviction rule the query cache applies at window maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// The paper's utility policy: evict smallest `U(g) = C(g)/M(g)`.
    #[default]
    Utility,
    /// Least-recently-*hit*: evict the entry whose last hit is oldest
    /// (entries never hit are oldest of all). The closest analogue of LRU
    /// in this setting, where a "use" is a sub/supergraph hit.
    Lru,
    /// First-in-first-out: evict the longest-resident entries
    /// (largest `M(g)`), ignoring usefulness entirely.
    Fifo,
    /// Popularity only (LFU-style): evict the smallest hit *rate*
    /// `H(g)/M(g)`, ignoring how much work each hit saved.
    Lfu,
    /// Deterministic pseudo-random eviction (hash of slot index and a
    /// round counter), the classic do-nothing baseline.
    Random,
}

impl ReplacementPolicy {
    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ReplacementPolicy::Utility => "utility",
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::Lfu => "lfu",
            ReplacementPolicy::Random => "random",
        }
    }

    /// Selects `k` victim slots among `metas` under this policy; `round`
    /// seeds the pseudo-random policy so successive maintenances differ.
    /// Returned slots are sorted ascending.
    pub fn victims(&self, metas: &[GraphMeta], k: usize, round: u64) -> Vec<usize> {
        let k = k.min(metas.len());
        let mut order: Vec<usize> = (0..metas.len()).collect();
        match self {
            ReplacementPolicy::Utility => {
                return crate::metadata::lowest_utility_slots(metas, k);
            }
            ReplacementPolicy::Lru => {
                // "Age since last hit" = queries_seen − last_hit_at.
                order.sort_by(|&a, &b| {
                    let age = |m: &GraphMeta| m.queries_seen.saturating_sub(m.last_hit_at);
                    age(&metas[b]).cmp(&age(&metas[a])).then(a.cmp(&b))
                });
            }
            ReplacementPolicy::Fifo => {
                order.sort_by(|&a, &b| {
                    metas[b]
                        .queries_seen
                        .cmp(&metas[a].queries_seen)
                        .then(a.cmp(&b))
                });
            }
            ReplacementPolicy::Lfu => {
                order.sort_by(|&a, &b| {
                    metas[a]
                        .popularity()
                        .partial_cmp(&metas[b].popularity())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
            }
            ReplacementPolicy::Random => {
                order.sort_by_key(|&i| igq_graph::fxhash::hash_u64((i as u64) << 32 | round));
            }
        }
        let mut out: Vec<usize> = order.into_iter().take(k).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_iso::LogValue;

    fn metas() -> Vec<GraphMeta> {
        // Slot 0: old, hit long ago, low value.
        // Slot 1: old, recently hit, high value.
        // Slot 2: fresh, never hit.
        let mut m0 = GraphMeta::new();
        for _ in 0..100 {
            m0.tick();
        }
        m0.record_hit(1, LogValue::from_linear(10.0));
        // Manually age the hit: pretend it happened at query 5.
        m0.last_hit_at = 5;

        let mut m1 = GraphMeta::new();
        for _ in 0..100 {
            m1.tick();
        }
        m1.record_hit(20, LogValue::from_linear(1e9));
        m1.last_hit_at = 99;

        let mut m2 = GraphMeta::new();
        m2.tick();
        vec![m0, m1, m2]
    }

    #[test]
    fn utility_evicts_never_hit_first() {
        let v = ReplacementPolicy::Utility.victims(&metas(), 1, 0);
        assert_eq!(v, vec![2]);
    }

    #[test]
    fn lru_evicts_stalest_hit() {
        let v = ReplacementPolicy::Lru.victims(&metas(), 1, 0);
        // Slot 0's last hit is 95 queries old; slot 2 is 1 query old with
        // no hit (age 1); slot 1 hit recently. Slot 0 goes.
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn fifo_evicts_longest_resident() {
        let v = ReplacementPolicy::Fifo.victims(&metas(), 2, 0);
        assert_eq!(v, vec![0, 1]);
    }

    #[test]
    fn lfu_ranks_by_hit_rate() {
        let v = ReplacementPolicy::Lfu.victims(&metas(), 1, 0);
        assert_eq!(v, vec![2]); // zero popularity
    }

    #[test]
    fn random_is_deterministic_per_round_but_varies_across_rounds() {
        let m = metas();
        let a = ReplacementPolicy::Random.victims(&m, 2, 1);
        let b = ReplacementPolicy::Random.victims(&m, 2, 1);
        assert_eq!(a, b);
        let seen: std::collections::HashSet<Vec<usize>> = (0..16)
            .map(|r| ReplacementPolicy::Random.victims(&m, 2, r))
            .collect();
        assert!(seen.len() > 1, "rounds should vary victims");
    }

    #[test]
    fn victims_never_exceed_population() {
        let m = metas();
        for p in [
            ReplacementPolicy::Utility,
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Lfu,
            ReplacementPolicy::Random,
        ] {
            assert_eq!(p.victims(&m, 99, 0).len(), 3, "{}", p.name());
            assert!(p.victims(&m, 0, 0).is_empty());
        }
    }
}
