//! The metric names and units the benchmark prints, and the contract
//! (`BENCHMARK.json`) that fixes their direction and bounds.

use serde_json::Value;
use std::collections::BTreeMap;

/// Metric values by name, as measured.
pub type Values = BTreeMap<&'static str, f64>;

/// `(name, unit)` of every end-to-end metric, in reporting order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("qps", "queries/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("iso_tests_per_query", "tests"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric; the prefix is the module.
pub const PER_LAYER: [(&str, &str); 71] = [
    ("graph.canonical_code_us", "us"),
    ("features.enumerate_paths_us", "us"),
    ("features.paths_per_query", "count"),
    ("iso.plan_build_us", "us"),
    ("iso.match_us_per_candidate", "us"),
    ("iso.states_per_match", "count"),
    ("iso.found_share", "ratio"),
    ("methods.base_qps", "queries/s"),
    ("methods.base_iso_tests_per_query", "tests"),
    ("methods.index_build_s", "s"),
    ("methods.filter_us_per_query", "us"),
    ("methods.filter_calls", "count"),
    ("methods.verify_us_per_query", "us"),
    ("methods.verify_us_per_candidate", "us"),
    ("methods.verify_calls", "count"),
    ("methods.candidates_per_query", "count"),
    ("methods.answer_share", "ratio"),
    ("core.engine.self_us_per_query", "us"),
    ("core.engine.self_share", "ratio"),
    ("core.engine.exact_hit_share", "ratio"),
    ("core.engine.empty_shortcut_share", "ratio"),
    ("core.engine.pruned_share", "ratio"),
    ("core.engine.pruned_by_isub_per_query", "count"),
    ("core.engine.pruned_by_isuper_per_query", "count"),
    ("core.engine.igq_iso_tests_per_query", "tests"),
    ("core.engine.plan_cache_hit_share", "ratio"),
    ("core.engine.flip_count", "count"),
    ("core.engine.maintenance_s", "s"),
    ("core.engine.stage_unattributed_share", "ratio"),
    ("core.engine.index_bytes", "bytes"),
    ("core.engine.cached_queries", "count"),
    ("paper.time_speedup", "ratio"),
    ("paper.iso_test_speedup", "ratio"),
    ("core.isub.probe_us", "us"),
    ("core.isub.hits_per_probe", "count"),
    ("core.isub.build_s", "s"),
    ("core.isub.heap_bytes", "bytes"),
    ("core.isuper.probe_us", "us"),
    ("core.isuper.hits_per_probe", "count"),
    ("core.isuper.build_s", "s"),
    ("core.isuper.heap_bytes", "bytes"),
    ("core.persist.append_wal_calls", "count"),
    ("core.persist.append_wal_us", "us"),
    ("core.persist.wal_bytes_per_flip", "bytes"),
    ("core.persist.save_checkpoint_calls", "count"),
    ("core.persist.save_checkpoint_ms", "ms"),
    ("core.persist.checkpoint_bytes", "bytes"),
    ("core.persist.bytes_per_cached_query", "bytes"),
    ("core.persist.busy_share", "ratio"),
    ("core.persist.restart_open_s", "s"),
    ("core.persist.restart_replayed_windows", "count"),
    ("core.replicate.groups_applied", "count"),
    ("core.replicate.apply_us_per_group", "us"),
    ("core.replicate.bytes_per_group", "bytes"),
    ("core.replicate.follower_busy_share", "ratio"),
    ("core.replicate.lag_windows_max", "count"),
    ("server.wire_overhead_us", "us"),
    ("server.protocol.encode_request_us", "us"),
    ("server.protocol.decode_reply_us", "us"),
    ("server.protocol.request_bytes", "bytes"),
    ("server.protocol.reply_bytes", "bytes"),
    ("server.requests_rejected", "count"),
    ("server.ladder.inproc_qps", "queries/s"),
    ("server.ladder.inproc_wal_qps", "queries/s"),
    ("server.ladder.inproc_shards2_qps", "queries/s"),
    ("server.ladder.tcp_qps", "queries/s"),
    ("server.ladder.tcp_batched_qps", "queries/s"),
    ("server.batcher.batches_coalesced", "count"),
    ("server.ladder.follower_read_qps", "queries/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// The contract as committed at the root of the repo.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub struct Contract {
    pub run_seconds: u64,
    pub end_to_end: Vec<Gate>,
}

impl Contract {
    pub fn load() -> Contract {
        let doc: Value =
            serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let end_to_end = doc["end_to_end"]
            .as_array()
            .expect("end_to_end is a list")
            .iter()
            .map(|m| Gate {
                name: m["name"].as_str().expect("name").to_owned(),
                unit: m["unit"].as_str().expect("unit").to_owned(),
                lower_is_better: m["better"] == "lower",
                bound: m["bound"].as_f64().expect("bound"),
            })
            .collect();
        Contract {
            run_seconds: doc["run_seconds"].as_u64().expect("run_seconds"),
            end_to_end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_owned(),
                    m["unit"].as_str().unwrap().to_owned(),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn the_contract_lists_exactly_what_the_benchmark_prints() {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        let names: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn the_contract_stays_inside_the_drivers_limits() {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let contract = Contract::load();
        assert!((1..=60).contains(&contract.run_seconds));
        assert!(contract
            .end_to_end
            .iter()
            .all(|g| g.bound > 0.0 && g.bound <= 0.25));
        let setup = contract
            .end_to_end
            .iter()
            .find(|g| g.name == "setup_s")
            .unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        assert!(contract.end_to_end.iter().all(|g| g.bound <= setup.bound));
        for w in doc["workloads"].as_array().unwrap() {
            let why = w["why"].as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
        }
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}
