//! A bounded, striped cache of [`MatchPlan`]s keyed by canonical code.
//!
//! iGQ's premise is that query streams have locality: the same and
//! near-same queries recur. PR 5 made each verification cheap by building
//! one plan per query; this module makes *repeated* queries cheaper still
//! by not rebuilding the plan at all. The key is the query's
//! [`CanonicalCode`] — equal codes mean isomorphic graphs, and the plan
//! of an isomorphic pattern is interchangeable (the plan orders pattern
//! vertices; any isomorph has the same label/degree structure) — which
//! the engine already computes once per query for the exact-repeat fast
//! path, so a cache probe costs one hash lookup.
//!
//! Each cached plan carries the **rarity snapshot** it was ordered by:
//! the label-frequency values, restricted to the pattern's own labels,
//! that seeded the exploration order. Rarity only steers exploration —
//! it never changes a verdict — so a stale plan is still *sound*; it is
//! merely possibly slower. A lookup therefore re-plans only when the
//! current statistic has drifted past [`RARITY_DRIFT_FACTOR`] on some
//! pattern label, keeping plans pinned while the dataset's label mix is
//! stable and refreshing them when it shifts.
//!
//! The cache is internally synchronized (stripe mutexes plus atomic
//! counters): probes and verification threads share one `&PlanCache`.
//! Capacity is bounded per stripe with FIFO replacement, and the engine
//! additionally evicts a query's plans when the query cache evicts the
//! entry with that code — cached plans die with their windows.

use crate::plan::MatchPlan;
use crate::semantics::MatchConfig;
use igq_graph::canon::CanonicalCode;
use igq_graph::fxhash::FxHashMap;
use igq_graph::{Graph, LabelId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Staleness threshold: a cached plan is rebuilt when, for some pattern
/// label, the current rarity statistic and the snapshot differ by more
/// than this factor (with +1 smoothing so zeros compare sanely).
pub const RARITY_DRIFT_FACTOR: u64 = 4;

/// Stripes the cache is split into. Lookups hash the code to a stripe, so
/// concurrent probe/verify threads rarely contend on one mutex.
const STRIPES: usize = 16;

/// A plan plus the configuration and rarity snapshot it was built
/// against. One code maps to a small set of these (at most
/// [`PLANS_PER_CODE`]): the index probes plan under the default
/// configuration while verification uses the method's, and the two must
/// not thrash each other.
struct CachedPlan {
    plan: Arc<MatchPlan>,
    /// `(label, rarity-at-build)` over the pattern's distinct labels,
    /// sorted by label.
    snapshot: Box<[(LabelId, u64)]>,
}

/// Distinct configurations cached per canonical code.
const PLANS_PER_CODE: usize = 4;

#[derive(Default)]
struct Stripe {
    plans: FxHashMap<CanonicalCode, Vec<CachedPlan>>,
    /// Insertion order of codes, for FIFO replacement.
    order: VecDeque<CanonicalCode>,
    /// Cached plans in this stripe (entries across all code vectors).
    len: usize,
}

/// Aggregate cache counters (relaxed atomics, snapshot semantics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered by a fresh cached plan.
    pub hits: u64,
    /// Lookups that built (or rebuilt) a plan — cold keys, staleness
    /// rebuilds, and configuration mismatches alike.
    pub misses: u64,
    /// Plans dropped: capacity replacement plus explicit key eviction.
    pub evictions: u64,
}

/// A bounded, striped, internally synchronized map from canonical code to
/// [`Arc<MatchPlan>`]; see the module docs.
pub struct PlanCache {
    stripes: Box<[Mutex<Stripe>]>,
    capacity_per_stripe: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &(self.capacity_per_stripe * self.stripes.len()))
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanCache {
    /// A cache bounded at (roughly) `capacity` plans, split over a fixed
    /// stripe count. A zero capacity disables insertion: every lookup
    /// builds and nothing is retained.
    pub fn new(capacity: usize) -> PlanCache {
        let stripes = (0..STRIPES)
            .map(|_| Mutex::new(Stripe::default()))
            .collect();
        PlanCache {
            stripes,
            capacity_per_stripe: capacity.div_ceil(STRIPES),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stripe(&self, key: &CanonicalCode) -> &Mutex<Stripe> {
        // FxHash-style mix of the first/last code words; codes are
        // high-entropy, so any word mix spreads stripes evenly.
        let words = key.words();
        let h = words
            .first()
            .copied()
            .unwrap_or(0)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ words.last().copied().unwrap_or(0);
        &self.stripes[(h >> 32) as usize % self.stripes.len()]
    }

    /// Returns the cached plan for `key` under `config` — or builds one
    /// from `pattern` with the caller's `rarity` statistic, caches it,
    /// and returns it. The boolean is `true` on a (fresh) cache hit.
    ///
    /// A cached plan is used only when its configuration matches and its
    /// rarity snapshot is within [`RARITY_DRIFT_FACTOR`] of the current
    /// statistic on every pattern label; otherwise it is rebuilt in place
    /// (counted as a miss). `pattern` must be a graph with canonical code
    /// `key` — isomorphs are interchangeable.
    pub fn get_or_build(
        &self,
        key: &CanonicalCode,
        pattern: &Graph,
        config: &MatchConfig,
        rarity: &mut dyn FnMut(LabelId) -> u64,
    ) -> (Arc<MatchPlan>, bool) {
        // The current statistic over the pattern's labels: both the
        // freshness check and (on miss) the stored snapshot.
        let mut current: Vec<(LabelId, u64)> = pattern
            .label_groups()
            .map(|(l, _)| (l, rarity(l)))
            .collect();
        current.sort_unstable_by_key(|&(l, _)| l);

        {
            let stripe = self.stripe(key).lock().expect("plan cache stripe");
            if let Some(plans) = stripe.plans.get(key) {
                if let Some(hit) = plans
                    .iter()
                    .find(|p| p.plan.config() == config && fresh(&p.snapshot, &current))
                {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (Arc::clone(&hit.plan), true);
                }
            }
        }

        // Build outside the stripe lock; a racing builder of the same key
        // costs one redundant build, never a wrong plan.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(MatchPlan::build(pattern, config, &mut |l| rarity(l)));
        if self.capacity_per_stripe == 0 {
            return (plan, false);
        }
        let cached = CachedPlan {
            plan: Arc::clone(&plan),
            snapshot: current.into_boxed_slice(),
        };
        let mut evicted = 0u64;
        {
            let mut stripe = self.stripe(key).lock().expect("plan cache stripe");
            let stripe = &mut *stripe;
            match stripe.plans.get_mut(key) {
                Some(plans) => {
                    if let Some(slot) = plans.iter_mut().find(|p| p.plan.config() == config) {
                        // Staleness rebuild: replace in place.
                        *slot = cached;
                        evicted += 1;
                    } else {
                        if plans.len() == PLANS_PER_CODE {
                            plans.remove(0);
                            stripe.len -= 1;
                            evicted += 1;
                        }
                        plans.push(cached);
                        stripe.len += 1;
                    }
                }
                None => {
                    stripe.plans.insert(key.clone(), vec![cached]);
                    stripe.order.push_back(key.clone());
                    stripe.len += 1;
                }
            }
            while stripe.len > self.capacity_per_stripe {
                let Some(victim) = stripe.order.pop_front() else {
                    break;
                };
                if let Some(dropped) = stripe.plans.remove(&victim) {
                    stripe.len -= dropped.len();
                    evicted += dropped.len() as u64;
                }
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        (plan, false)
    }

    /// Drops every plan cached under `key` (the engine calls this when
    /// the query cache evicts the resident with that canonical code), and
    /// returns how many plans died.
    pub fn evict_key(&self, key: &CanonicalCode) -> u64 {
        let dropped = {
            let mut stripe = self.stripe(key).lock().expect("plan cache stripe");
            match stripe.plans.remove(key) {
                Some(plans) => {
                    stripe.len -= plans.len();
                    stripe.order.retain(|c| c != key);
                    plans.len() as u64
                }
                None => 0,
            }
        };
        if dropped > 0 {
            self.evictions.fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }

    /// Cached plans across all stripes.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("plan cache stripe").len)
            .sum()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Approximate heap footprint of the cached plans, their keys, and
    /// their rarity snapshots, in bytes.
    pub fn heap_size_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for stripe in self.stripes.iter() {
            let stripe = stripe.lock().expect("plan cache stripe");
            for (key, plans) in stripe.plans.iter() {
                bytes += std::mem::size_of_val(key.words()) as u64;
                for p in plans {
                    bytes += p.plan.heap_size_bytes();
                    bytes += std::mem::size_of_val(&*p.snapshot) as u64;
                }
            }
            bytes += (stripe.order.len() * std::mem::size_of::<CanonicalCode>()) as u64;
        }
        bytes
    }
}

/// True when every snapshot label's current rarity is within
/// [`RARITY_DRIFT_FACTOR`] of its value at build time.
fn fresh(snapshot: &[(LabelId, u64)], current: &[(LabelId, u64)]) -> bool {
    debug_assert_eq!(snapshot.len(), current.len());
    snapshot
        .iter()
        .zip(current.iter())
        .all(|(&(sl, old), &(cl, new))| {
            debug_assert_eq!(sl, cl);
            let (lo, hi) = if old < new { (old, new) } else { (new, old) };
            hi < (lo + 1) * RARITY_DRIFT_FACTOR
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::canon::canonical_code;
    use igq_graph::graph_from;

    fn keyed(labels: &[u32], edges: &[(u32, u32)]) -> (CanonicalCode, igq_graph::Graph) {
        let g = graph_from(labels, edges);
        (canonical_code(&g).expect("small graph canonicalizes"), g)
    }

    #[test]
    fn second_lookup_hits_and_shares_the_plan() {
        let cache = PlanCache::new(64);
        let (key, g) = keyed(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let config = MatchConfig::default();
        let (first, hit1) = cache.get_or_build(&key, &g, &config, &mut |_| 7);
        let (second, hit2) = cache.get_or_build(&key, &g, &config, &mut |_| 7);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn rarity_drift_rebuilds() {
        let cache = PlanCache::new(64);
        let (key, g) = keyed(&[0, 1], &[(0, 1)]);
        let config = MatchConfig::default();
        let _ = cache.get_or_build(&key, &g, &config, &mut |_| 1);
        // Within the drift factor: still a hit.
        let (_, hit) = cache.get_or_build(&key, &g, &config, &mut |_| 3);
        assert!(hit);
        // Far past it: rebuilt.
        let (_, hit) = cache.get_or_build(&key, &g, &config, &mut |_| 1000);
        assert!(!hit);
        // The rebuilt snapshot is now current.
        let (_, hit) = cache.get_or_build(&key, &g, &config, &mut |_| 1000);
        assert!(hit);
    }

    #[test]
    fn configs_cache_independently() {
        let cache = PlanCache::new(64);
        let (key, g) = keyed(&[0, 1], &[(0, 1)]);
        let mono = MatchConfig::default();
        let induced = MatchConfig::induced();
        let _ = cache.get_or_build(&key, &g, &mono, &mut |_| 1);
        let (_, hit) = cache.get_or_build(&key, &g, &induced, &mut |_| 1);
        assert!(!hit, "different config is a different plan");
        let (plan, hit) = cache.get_or_build(&key, &g, &induced, &mut |_| 1);
        assert!(hit);
        assert_eq!(plan.config(), &induced);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn evict_key_drops_all_configs() {
        let cache = PlanCache::new(64);
        let (key, g) = keyed(&[0, 1], &[(0, 1)]);
        let _ = cache.get_or_build(&key, &g, &MatchConfig::default(), &mut |_| 1);
        let _ = cache.get_or_build(&key, &g, &MatchConfig::induced(), &mut |_| 1);
        assert_eq!(cache.evict_key(&key), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.evict_key(&key), 0, "idempotent");
    }

    #[test]
    fn capacity_is_bounded() {
        let cache = PlanCache::new(16);
        let config = MatchConfig::default();
        // 64 distinct keys (paths of distinct label pairs) through a
        // 16-plan cache: retained size stays bounded, evictions happen.
        for a in 0..8u32 {
            for b in 8..16u32 {
                let (key, g) = keyed(&[a, b], &[(0, 1)]);
                let _ = cache.get_or_build(&key, &g, &config, &mut |_| 1);
            }
        }
        assert!(cache.len() <= 16, "len {} over capacity", cache.len());
        assert!(cache.stats().evictions > 0);
        assert!(cache.heap_size_bytes() > 0);
    }

    #[test]
    fn zero_capacity_builds_without_caching() {
        let cache = PlanCache::new(0);
        let (key, g) = keyed(&[0, 1], &[(0, 1)]);
        let (_, hit) = cache.get_or_build(&key, &g, &MatchConfig::default(), &mut |_| 1);
        assert!(!hit);
        let (_, hit) = cache.get_or_build(&key, &g, &MatchConfig::default(), &mut |_| 1);
        assert!(!hit);
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_plan_is_the_built_plan() {
        // The cached Arc and a fresh build under the same statistic are
        // interchangeable: same config, same entry order ⇒ same search.
        let cache = PlanCache::new(8);
        let (key, g) = keyed(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let config = MatchConfig::default();
        let (cached, _) = cache.get_or_build(&key, &g, &config, &mut |l| l.raw() as u64);
        let fresh = MatchPlan::build(&g, &config, &mut |l| l.raw() as u64);
        assert_eq!(format!("{cached:?}"), format!("{fresh:?}"));
    }
}
