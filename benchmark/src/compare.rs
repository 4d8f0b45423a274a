//! Results files, and the `compare A.json B.json` verdicts over them.

use crate::metrics::{Contract, Gate};
use crate::stats::quartiles;
use serde_json::{json, Map, Value};

pub const SCHEMA: &str = "igq-benchmark/1";

/// One end-to-end metric of one workload: the median of its runs and
/// their quartiles (equal to the median for a single run).
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Measured {
    pub fn of_runs(runs: &[f64]) -> Measured {
        let (q1, value, q3) = quartiles(runs);
        Measured { value, q1, q3 }
    }

    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }

    pub fn to_json(&self, unit: &str, runs: &[f64]) -> Value {
        json!({
            "value": self.value,
            "unit": unit,
            "q1": self.q1,
            "q3": self.q3,
            "runs": runs.to_vec(),
        })
    }

    fn from_json(v: &Value) -> Option<Measured> {
        let value = v["value"].as_f64()?;
        Some(Measured {
            value,
            q1: v["q1"].as_f64().unwrap_or(value),
            q3: v["q3"].as_f64().unwrap_or(value),
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the metric's bound.
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the two medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's value B is worse (negative when B is better).
pub fn worsening(gate: &Gate, a: f64, b: f64) -> f64 {
    if gate.lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn verdict(gate: &Gate, a: &Measured, b: &Measured) -> Verdict {
    if a.spread().max(b.spread()) > gate.bound {
        Verdict::Unresolved
    } else if worsening(gate, a.value, b.value) > gate.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn workloads(doc: &Value) -> Vec<(&str, &Value)> {
    doc["workloads"]
        .as_array()
        .map(|list| {
            list.iter()
                .filter_map(|w| Some((w["name"].as_str()?, w)))
                .collect()
        })
        .unwrap_or_default()
}

/// Compares two results documents. `Err` when they cannot be compared at
/// all; otherwise the printed table and whether anything regressed.
pub fn compare(a: &Value, b: &Value, contract: &Contract) -> Result<(String, bool), String> {
    for doc in [a, b] {
        if doc["schema"] != SCHEMA {
            return Err(format!("not an {SCHEMA} results file"));
        }
    }
    let cores = |doc: &Value| doc["fingerprint"]["nproc"].as_u64();
    match (cores(a), cores(b)) {
        (Some(x), Some(y)) if x == y => {}
        (x, y) => {
            return Err(format!(
                "core counts differ (A: {x:?}, B: {y:?}): numbers from another core count are stale, not evidence"
            ))
        }
    }

    let mut table = format!(
        "{:<24} {:<20} {:>14} {:>14} {:>16} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "B/A (base A)", "bound"
    );
    let mut regressed = false;
    let mut row = |workload: &str, metric: &str, a: f64, b: f64, bound: f64, v: Verdict| {
        regressed |= v == Verdict::Regressed;
        let ratio = if a == 0.0 {
            "-".to_owned()
        } else {
            format!("{:.4}", b / a)
        };
        table.push_str(&format!(
            "{workload:<24} {metric:<20} {a:>14.4} {b:>14.4} {ratio:>16} {bound:>6.2}  {}\n",
            v.name()
        ));
    };
    let b_workloads = workloads(b);
    for (name, wa) in workloads(a) {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        for gate in &contract.end_to_end {
            let (Some(ma), Some(mb)) = (
                Measured::from_json(&wa["end_to_end"][gate.name.as_str()]),
                Measured::from_json(&wb["end_to_end"][gate.name.as_str()]),
            ) else {
                continue;
            };
            row(
                name,
                &gate.name,
                ma.value,
                mb.value,
                gate.bound,
                verdict(gate, &ma, &mb),
            );
        }
        // Absolute gate: any failed operation in B is a regression.
        let share = |w: &Value| w["failed_share"].as_f64().unwrap_or(1.0);
        let v = if share(wb) > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        row(name, "failed_share", share(wa), share(wb), 0.0, v);
    }
    Ok((table, regressed))
}

/// The results document of one `run`.
pub fn results_document(fingerprint: Value, workloads: Vec<Value>) -> Value {
    let mut doc = Map::new();
    doc.insert("schema".into(), json!(SCHEMA));
    doc.insert("fingerprint".into(), fingerprint);
    doc.insert("workloads".into(), Value::Array(workloads));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(lower_is_better: bool, bound: f64) -> Gate {
        Gate {
            name: "m".into(),
            unit: "u".into(),
            lower_is_better,
            bound,
        }
    }

    fn exact(value: f64) -> Measured {
        Measured::of_runs(&[value])
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        let lower = gate(true, 0.10);
        assert_eq!(verdict(&lower, &exact(100.0), &exact(109.0)), Verdict::Ok);
        assert_eq!(
            verdict(&lower, &exact(100.0), &exact(111.0)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&lower, &exact(100.0), &exact(50.0)), Verdict::Ok);
        let higher = gate(false, 0.07);
        assert_eq!(verdict(&higher, &exact(1000.0), &exact(940.0)), Verdict::Ok);
        assert_eq!(
            verdict(&higher, &exact(1000.0), &exact(920.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&higher, &exact(1000.0), &exact(2000.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let g = gate(true, 0.10);
        let noisy = Measured::of_runs(&[80.0, 100.0, 120.0]);
        assert!(noisy.spread() > 0.10);
        assert_eq!(verdict(&g, &noisy, &exact(100.0)), Verdict::Unresolved);
        assert_eq!(verdict(&g, &exact(100.0), &noisy), Verdict::Unresolved);
        let steady = Measured::of_runs(&[99.0, 100.0, 101.0]);
        assert_eq!(verdict(&g, &steady, &exact(100.0)), Verdict::Ok);
    }

    fn doc(nproc: u64, qps: f64, failed_share: f64) -> Value {
        results_document(
            json!({ "nproc": nproc }),
            vec![json!({
                "name": "aids_zipf_inproc",
                "failed_share": failed_share,
                "end_to_end": json!({ "qps": exact(qps).to_json("queries/s", &[qps]) }),
            })],
        )
    }

    #[test]
    fn compare_refuses_files_from_different_core_counts() {
        let contract = Contract::load();
        let err = compare(&doc(1, 100.0, 0.0), &doc(2, 100.0, 0.0), &contract).unwrap_err();
        assert!(err.contains("core counts differ"), "{err}");
        assert!(compare(&json!({}), &doc(2, 1.0, 0.0), &contract).is_err());
    }

    #[test]
    fn compare_flags_regressions_and_failures() {
        let contract = Contract::load();
        let (table, regressed) =
            compare(&doc(2, 1000.0, 0.0), &doc(2, 1001.0, 0.0), &contract).unwrap();
        assert!(!regressed, "{table}");
        assert!(table.contains("qps") && table.contains("failed_share"));
        let (table, regressed) =
            compare(&doc(2, 1000.0, 0.0), &doc(2, 500.0, 0.0), &contract).unwrap();
        assert!(regressed && table.contains("regressed"), "{table}");
        let (_, regressed) =
            compare(&doc(2, 1000.0, 0.0), &doc(2, 1000.0, 0.01), &contract).unwrap();
        assert!(
            regressed,
            "a failed operation is a regression whatever the speed"
        );
    }
}
