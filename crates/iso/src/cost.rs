//! The paper's subgraph-isomorphism cost model (Section 5.1).
//!
//! iGQ's replacement policy wants to keep cached queries that shield the
//! system from the *most expensive* iso tests, so it needs a per-test cost
//! estimate. The paper extends the VF asymptotic analysis of Cordella et
//! al. (ICIAP 1999) to subgraph isomorphism: for a query `g′` with `n`
//! vertices tested against a stored graph `Gi` with `Ni ≥ n` vertices over
//! a label universe of size `L`,
//!
//! ```text
//! c(g′, Gi) = Ni · Ni! / (L^(n+1) · (Ni − n)!)
//! ```
//!
//! `Ni!` overflows everything for PDBS/PPI-sized graphs, so the value is
//! produced directly in natural-log space.
//!
//! The function holds no memo. A cost depends only on `(n, Ni)`, so its
//! caller keeps one row per query size, indexed by `Ni` (the engine's
//! per-query cost row in `igq_core`).

use crate::logmath::{ln_factorial, LogValue};

/// `ln c(g′, Gi)` per the formula above.
///
/// * `n` — query vertex count
/// * `ni` — stored-graph vertex count
/// * `labels` — label universe size `L` (≥ 1)
///
/// When `ni < n` the test is trivially impossible and the cost is zero.
pub fn iso_cost_ln(n: usize, ni: usize, labels: usize) -> LogValue {
    if ni < n || ni == 0 {
        return LogValue::ZERO;
    }
    let l = labels.max(1) as f64;
    let ln = (ni as f64).ln() + ln_factorial(ni as u64)
        - ln_factorial((ni - n) as u64)
        - (n as f64 + 1.0) * l.ln();
    LogValue::from_ln(ln)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_case_matches_direct_evaluation() {
        // n=2, Ni=4, L=2: c = 4 * 4! / (2^3 * 2!) = 96 / 16 = 6
        let c = iso_cost_ln(2, 4, 2);
        assert!((c.linear() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn impossible_test_costs_zero() {
        assert!(iso_cost_ln(5, 4, 2).is_zero());
        assert!(iso_cost_ln(1, 0, 2).is_zero());
    }

    #[test]
    fn cost_grows_with_target_size() {
        let small = iso_cost_ln(8, 50, 10);
        let large = iso_cost_ln(8, 5_000, 10);
        assert!(large > small);
    }

    #[test]
    fn cost_handles_pdbs_scale_without_overflow() {
        let c = iso_cost_ln(21, 16_431, 10);
        assert!(c.ln().is_finite());
        assert!(c.ln() > 0.0);
    }

    #[test]
    fn more_labels_means_cheaper_tests() {
        // Larger L shrinks the candidate space per level, shrinking cost.
        let few = iso_cost_ln(8, 100, 2);
        let many = iso_cost_ln(8, 100, 60);
        assert!(many < few);
    }

    #[test]
    fn zero_label_universe_clamps_to_one() {
        assert!(!iso_cost_ln(2, 4, 0).is_zero());
        assert_eq!(iso_cost_ln(2, 4, 0), iso_cost_ln(2, 4, 1));
    }
}
