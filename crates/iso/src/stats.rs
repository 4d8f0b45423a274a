//! Mergeable counters for isomorphism work.
//!
//! The paper's headline metric is the *number of subgraph isomorphism
//! tests*; the wall-clock figures additionally reflect how hard each test
//! was. `IsoStats` tracks both and merges across threads and phases.

/// Counters for isomorphism-engine work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsoStats {
    /// Iso tests started.
    pub tests: u64,
    /// Tests that found an embedding.
    pub matches: u64,
    /// Tests that exhausted their state budget.
    pub aborted: u64,
    /// Total search states explored across all tests.
    pub states: u64,
    /// Matching plans built for these tests (a plan built once and
    /// reused by later tests counts once).
    pub plan_builds: u64,
}

impl IsoStats {
    /// Zeroed counters.
    pub fn new() -> IsoStats {
        IsoStats::default()
    }

    /// Records one engine invocation.
    pub fn record(&mut self, result: &crate::semantics::MatchResult) {
        self.tests += 1;
        self.states += result.states;
        match &result.outcome {
            crate::Outcome::Found(_) => self.matches += 1,
            crate::Outcome::Aborted => self.aborted += 1,
            crate::Outcome::NotFound => {}
        }
    }

    /// Folds one containment-only test (the plan-amortized matcher's
    /// verdict, which carries no embedding).
    pub fn record_verdict(&mut self, verdict: crate::plan::Verdict, states: u64) {
        self.tests += 1;
        self.states += states;
        match verdict {
            crate::plan::Verdict::Found => self.matches += 1,
            crate::plan::Verdict::Aborted => self.aborted += 1,
            crate::plan::Verdict::NotFound => {}
        }
    }

    /// Accumulates another set of counters.
    pub fn merge(&mut self, other: &IsoStats) {
        self.tests += other.tests;
        self.matches += other.matches;
        self.aborted += other.aborted;
        self.states += other.states;
        self.plan_builds += other.plan_builds;
    }

    /// Average states per test (0.0 when no tests ran).
    pub fn avg_states(&self) -> f64 {
        if self.tests == 0 {
            0.0
        } else {
            self.states as f64 / self.tests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{MatchResult, Outcome};

    #[test]
    fn record_classifies_outcomes() {
        let mut s = IsoStats::new();
        s.record(&MatchResult {
            outcome: Outcome::Found(vec![]),
            states: 5,
        });
        s.record(&MatchResult {
            outcome: Outcome::NotFound,
            states: 3,
        });
        s.record(&MatchResult {
            outcome: Outcome::Aborted,
            states: 100,
        });
        assert_eq!(s.tests, 3);
        assert_eq!(s.matches, 1);
        assert_eq!(s.aborted, 1);
        assert_eq!(s.states, 108);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = IsoStats {
            tests: 1,
            matches: 1,
            aborted: 0,
            states: 10,
            plan_builds: 1,
        };
        let b = IsoStats {
            tests: 2,
            matches: 0,
            aborted: 1,
            states: 20,
            plan_builds: 0,
        };
        a.merge(&b);
        assert_eq!(
            a,
            IsoStats {
                tests: 3,
                matches: 1,
                aborted: 1,
                states: 30,
                plan_builds: 1,
            }
        );
    }

    #[test]
    fn avg_states() {
        let s = IsoStats {
            tests: 4,
            states: 10,
            ..IsoStats::default()
        };
        assert_eq!(s.avg_states(), 2.5);
        assert_eq!(IsoStats::new().avg_states(), 0.0);
    }
}
