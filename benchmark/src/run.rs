//! One benchmark run of one workload: either the end-to-end metrics with
//! tracing off, or the per-layer metrics from a traced pass.

use crate::drive::{engine_config, round, start, Env, Res, Round};
use crate::layers;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::oracle::Oracle;
use crate::stats::{median, percentile};
use crate::trace::dump_jsonl;
use crate::workloads::{make_inputs, Path, Workload};
use std::time::Instant;

/// Full set-ups per end-to-end run; `setup_s` is their median. A cheap
/// set-up is repeated more often, until [`SETUP_BUDGET_S`] is spent, so
/// that its median is as steady as an expensive one's.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 3.0;

/// What one run reports, in the shape the last output line needs.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in reporting order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn new(
        attempted: u64,
        failed: u64,
        values: &Values,
        table: &[(&'static str, &'static str)],
    ) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics: table
                .iter()
                .map(|&(name, unit)| {
                    let value = *values
                        .get(name)
                        .unwrap_or_else(|| panic!("metric {name} was not measured"));
                    (name, value, unit)
                })
                .collect(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one JSON object the driver reads.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Client-observed latency percentile of one round, in microseconds.
fn latency_us(round: &Round, p: f64) -> Res<f64> {
    let mut sorted: Vec<u64> = round.shots.iter().map(|s| s.latency_ns).collect();
    sorted.sort_unstable();
    percentile(&sorted, p)
        .map(|ns| ns as f64 / 1e3)
        .ok_or_else(|| format!("p{p} needs more than {} samples", sorted.len()))
}

/// The mean over the streams of each stream's median over its rounds:
/// the median sets aside a round another process disturbed, the mean
/// uses every stream's draw of the query distribution.
fn across_streams(per_stream: &[Vec<f64>]) -> f64 {
    per_stream.iter().map(|rounds| median(rounds)).sum::<f64>() / per_stream.len() as f64
}

/// End-to-end metrics, tracing off. Sets up several times, answers the
/// oracle, then runs one round per stream, and further rounds while fewer
/// than `seconds` have passed. `iso_tests_per_query` is taken over the
/// first round of every stream, so that it does not depend on how many
/// rounds fit.
pub fn end_to_end(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Res<Outcome> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut inputs = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(inputs.take());
        let t = Instant::now();
        let made = make_inputs(w, seed);
        let live = start(env, w, &made, setup_s.len() % w.streams)?;
        setup_s.push(t.elapsed().as_secs_f64());
        live.discard()?;
        inputs = Some(made);
    }
    let inputs = inputs.expect("at least one set-up ran");
    let oracle = Oracle::build(&inputs, threads_available().min(2));

    let mut qps = vec![Vec::new(); w.streams];
    let (mut p50, mut p99) = (qps.clone(), qps.clone());
    let (mut iso_tests, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let phase = Instant::now();
    let mut rounds = 0;
    while rounds < w.streams || phase.elapsed().as_secs_f64() < seconds {
        let stream = rounds % w.streams;
        let r = round(env, w, &inputs, &oracle, stream, w.measured, false)?;
        qps[stream].push(w.measured as f64 / r.wall_s);
        p50[stream].push(latency_us(&r, 50.0)?);
        p99[stream].push(latency_us(&r, 99.0)?);
        if rounds < w.streams {
            iso_tests += r.shots.iter().map(|s| s.iso_tests).sum::<u64>();
        }
        attempted += r.attempted;
        failed += r.failed;
        rounds += 1;
    }
    eprintln!(
        "{}: {} set-ups; {rounds} rounds over {} streams of N={} in {:.1}s; latency_p99_us rests on {} samples per round",
        w.name,
        setup_s.len(),
        w.streams,
        w.measured,
        phase.elapsed().as_secs_f64(),
        w.measured
    );

    let mut values = Values::new();
    values.insert("setup_s", median(&setup_s));
    values.insert("qps", across_streams(&qps));
    values.insert("latency_p50_us", across_streams(&p50));
    values.insert("latency_p99_us", across_streams(&p99));
    values.insert(
        "iso_tests_per_query",
        iso_tests as f64 / (w.streams * w.measured) as f64,
    );
    values.insert("peak_rss_mb", peak_rss_mb()?);
    Ok(Outcome::new(attempted, failed, &values, &END_TO_END))
}

/// Per-layer metrics of stream 0: the base pass (which is also the
/// oracle), an untraced pass over all `N` queries, a traced pass on a
/// fresh engine over the first `N/3`, then the direct calls.
pub fn per_layer(
    env: &Env,
    w: &Workload,
    seed: u64,
    spans_out: Option<&std::path::Path>,
) -> Res<Outcome> {
    let w = &Workload { streams: 1, ..*w };
    let inputs = make_inputs(w, seed);
    // The base pass runs with the workload's own client count.
    let oracle = Oracle::build(&inputs, w.clients);
    let prefix = w.traced_prefix();

    let untraced = round(env, w, &inputs, &oracle, 0, w.measured, false)?;
    let traced = round(env, w, &inputs, &oracle, 0, prefix, true)?;
    let spans = env.tracer.take();
    if let Some(path) = spans_out {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        dump_jsonl(&spans, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    }

    let mut values = Values::new();
    layers::from_traced_round(w, &traced, &spans, &mut values);
    values.insert(
        "trace.overhead_share",
        traced.prefix_wall_s / untraced.prefix_wall_s - 1.0,
    );

    let (base_s, base_tests) = oracle.base_pass(0, w.measured);
    let base_wall_s = base_s / w.clients as f64;
    let igq_tests: u64 = untraced.shots.iter().map(|s| s.iso_tests).sum();
    let n = w.measured as f64;
    values.insert("methods.base_qps", n / base_wall_s);
    values.insert("methods.base_iso_tests_per_query", base_tests as f64 / n);
    values.insert("methods.index_build_s", inputs.index_build_s);
    values.insert("paper.time_speedup", base_wall_s / untraced.wall_s);
    values.insert(
        "paper.iso_test_speedup",
        base_tests as f64 / igq_tests.max(1) as f64,
    );

    let sample = layers::sample(&inputs.streams[0].measured, prefix);
    layers::direct_calls(&inputs, &sample, &mut values);
    layers::query_indexes(
        &traced.layers.entries,
        engine_config(w).path_config,
        &sample,
        &mut values,
    );
    layers::protocol(&oracle, &sample, &mut values)?;
    let mut failed = untraced.failed + traced.failed;
    if w.path == Path::TcpDurable {
        failed += layers::ladder(env, w, &inputs, &oracle, &mut values)?;
    } else {
        values.extend(layers::ladder_names().map(|name| (name, 0.0)));
    }
    Ok(Outcome::new(
        untraced.attempted + traced.attempted,
        failed,
        &values,
        &PER_LAYER,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// Every workload's code path at smoke size, both modes: every listed
    /// metric is measured, every check passes, nothing is left behind.
    #[test]
    fn smoke_runs_measure_every_listed_metric_and_fail_nothing() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".run")
            .join(format!("test-{}", std::process::id()));
        for w in WORKLOADS {
            let w = w.smoke();
            let env = Env::new(dir.join(w.name)).unwrap();
            let e2e = end_to_end(&env, &w, 5, 0.0).unwrap();
            assert_eq!(e2e.failed, 0, "{}", w.name);
            assert_eq!(e2e.metrics.len(), END_TO_END.len());
            assert!(e2e.metrics.iter().all(|(_, v, _)| *v > 0.0), "{}", w.name);

            let layers = per_layer(&env, &w, 5, None).unwrap();
            assert_eq!(layers.failed, 0, "{}", w.name);
            assert_eq!(layers.metrics.len(), PER_LAYER.len());
            assert!(layers.metrics.iter().all(|(_, v, _)| v.is_finite()));
            let value = |name: &str| layers.metrics.iter().find(|m| m.0 == name).unwrap().1;
            assert!(value("methods.filter_calls") > 0.0);
            assert!(value("trace.spans") > 0.0);
            if w.path != Path::InProcess {
                assert_eq!(
                    value("core.persist.append_wal_calls"),
                    value("core.engine.flip_count"),
                    "one WAL append per flip on {}",
                    w.name
                );
            }
            let line = e2e.to_json_line();
            let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
            assert_eq!(doc["correct"], serde_json::Value::Bool(true));
            assert!(doc["metrics"]["setup_s"]["value"].as_f64().unwrap() > 0.0);
        }
        assert!(!dir.join(WORKLOADS[0].name).exists(), "stores are removed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
