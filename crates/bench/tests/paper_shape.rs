//! The paper's figures at a tiny size: every figure in `FIGURES` runs on
//! small explicit datasets and streams, and its report is checked on
//! counts only — iso tests, candidates, answers and bytes, never
//! wall-clock time. The claims asserted here are the ones REPRODUCTION.md
//! marks as pinned by this file.

use igq_bench::experiments::fragments;
use igq_bench::{ExpOptions, Report, Session, FIGURES};
use igq_workload::DatasetKind;
use serde_json::Value;
use std::sync::OnceLock;

const OPTS: ExpOptions = ExpOptions {
    scale: 0.001,
    seed: 0x1609_2016,
    threads: 2,
};

/// Every figure's report, computed once: 10 graphs of 10 edges per
/// dataset (30 for AIDS), 10 queries per stream (150 for the policy
/// ablation, which draws its own 200-graph AIDS store).
fn reports() -> &'static [Report] {
    static REPORTS: OnceLock<Vec<Report>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let mut session = Session::new(OPTS).with_queries(10);
        for kind in DatasetKind::ALL {
            // More AIDS graphs than the cache holds queries, as in Fig. 18.
            let graphs = if kind == DatasetKind::Aids { 30 } else { 10 };
            session = session.with_dataset(kind, fragments(kind, graphs, OPTS.seed));
        }
        FIGURES.iter().map(|f| session.run(f)).collect()
    })
}

fn report(id: &str) -> &'static Report {
    reports().iter().find(|r| r.id == id).expect("figure ran")
}

fn data(id: &str) -> &'static [Value] {
    report(id).json.as_array().expect("array payload")
}

fn num(v: &Value, field: &str) -> f64 {
    v[field]
        .as_f64()
        .unwrap_or_else(|| panic!("{field} in {v}"))
}

/// `field` of every entry of `id` whose `key` is `value` (any, if empty).
fn column(id: &str, key: &str, value: &str, field: &str) -> Vec<f64> {
    let entries = data(id)
        .iter()
        .filter(|v| value.is_empty() || v[key] == value);
    entries.map(|v| num(v, field)).collect()
}

#[test]
fn every_report_header_carries_scale_and_seed() {
    let header = format!("scale={} seed={:#x} ", OPTS.scale, OPTS.seed);
    assert_eq!(reports().len(), FIGURES.len());
    for r in reports() {
        assert!(r.lines[0].starts_with(&header), "{}: {}", r.id, r.lines[0]);
    }
}

#[test]
fn every_grid_cell_answers_like_its_baseline_with_no_more_tests() {
    let mut cells = 0;
    for r in reports() {
        for cell in r.json.as_array().into_iter().flatten() {
            if cell.get("igq_iso_tests").is_some() {
                cells += 1;
                let ok = cell["baseline_answers"] == cell["igq_answers"]
                    && num(cell, "igq_iso_tests") <= num(cell, "baseline_iso_tests")
                    && num(cell, "iso_speedup") >= 1.0
                    && cell["groups"] != Value::Object(Default::default());
                assert!(ok, "{}: {cell}", r.id);
            }
        }
    }
    // Figs. 7/8 (two views each) 4x4, 9/15 3x3, 10/11/16/17 3, 14 3x4, gCode 5.
    assert_eq!(cells, 4 * 16 + 2 * 9 + 4 * 3 + 12 + 5);
}

#[test]
fn supergraph_demo_answers_like_its_baseline_with_no_more_tests() {
    let json = &report("supergraph_speedup").json;
    assert_eq!(json["base_answers"], json["igq_answers"]);
    assert!(num(json, "igq_tests") <= num(json, "base_tests"), "{json}");
}

#[test]
fn fig02_fig03_answers_are_method_independent() {
    for id in ["fig02_candidates_aids", "fig03_candidates_pdbs"] {
        let answers = column(id, "", "", "avg_answers");
        assert_eq!(answers, [answers[0]; 4], "{id}");
        let candidates = column(id, "", "", "avg_candidates");
        assert!(candidates.iter().all(|&c| c >= answers[0]), "{id}");
    }
}

#[test]
fn fig18_orders_index_sizes() {
    let bytes = |index: &str, config: &str| {
        let entries = data("fig18_index_sizes").iter();
        let mut entries = entries.filter(|v| v["index"] == index);
        let entry = entries.find(|v| v["config"].as_str().expect("config").contains(config));
        num(entry.expect("entry"), "bytes")
    };
    for index in ["GGSX", "Grapes", "CT-Index"] {
        assert!(bytes(index, "larger") > bytes(index, "default"), "{index}");
    }
    assert!(bytes("Grapes", "default") > bytes("GGSX", "default"));
    assert!(bytes("iGQ", "C=") < bytes("GGSX", "default"));
}

#[test]
fn every_policy_beats_or_ties_the_baseline() {
    let tests = column("ablation_replacement", "", "", "iso_tests");
    let baseline = column("ablation_replacement", "", "", "baseline_tests");
    assert_eq!(tests.len(), 5);
    assert!(
        tests.iter().zip(&baseline).all(|(t, b)| t <= b),
        "{tests:?}"
    );
    // Only evictions tell the policies apart: the stream must churn the
    // cache, or this test checks no replacement policy at all.
    assert!(tests.iter().any(|t| *t != tests[0]), "{tests:?}");
}

#[test]
fn table1_reports_every_dataset() {
    let json = &report("table1").json;
    for (kind, graphs) in DatasetKind::ALL.into_iter().zip([30.0, 10.0, 10.0, 10.0]) {
        assert_eq!(num(&json[kind.name()], "graph_count"), graphs, "{kind:?}");
    }
}

#[test]
fn reproduced_claims_hold() {
    // Figs. 7/8: zipf-zipf gains more than uni-uni, for every method.
    for id in ["fig07_iso_speedup_aids", "fig08_iso_speedup_pdbs"] {
        let uni = column(id, "workload", "uni-uni", "iso_speedup");
        let zipf = column(id, "workload", "zipf-zipf", "iso_speedup");
        assert_eq!(uni.len(), 4);
        assert!(
            uni.iter().zip(&zipf).all(|(u, z)| z > u),
            "{id}: {uni:?} vs {zipf:?}"
        );
    }
    // gCode lineup: iGQ saves tests whatever method it wraps.
    let speedups = column("ext_gcode_lineup", "", "", "iso_speedup");
    assert!(
        speedups.len() == 5 && speedups.iter().all(|&s| s > 1.0),
        "{speedups:?}"
    );
    // Edge labels: bonds shrink answer sets; iGQ never tests more.
    let answers = column("ext_edge_labels", "", "", "avg_answers");
    assert!(answers[1] < answers[0], "plain vs bonds {answers:?}");
    let speedups = column("ext_edge_labels", "", "", "igq_iso_speedup");
    assert!(speedups.iter().all(|&s| s >= 1.0), "{speedups:?}");
}
