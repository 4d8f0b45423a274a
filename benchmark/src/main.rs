//! The repo's single benchmark: one query stream followed from socket to
//! answer, with the end-to-end metrics a caller sees and a number for
//! every layer the query crosses. See `benchmark/README.md`.
//!
//! ```text
//! igq-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--smoke] [--repeat K] [--out FILE] [--trace-out FILE]
//! igq-benchmark compare A.json B.json
//! ```
//!
//! `run --workload W --trace T` measures in this process and ends its
//! standard output with one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). Any other `run` starts one such process per workload and
//! trace mode, so that every number comes from the same code path and
//! `peak_rss_mb` belongs to one workload, and merges their last lines
//! into a results file.

mod compare;
mod drive;
mod layers;
mod metrics;
mod oracle;
mod run;
mod stats;
mod trace;
mod workloads;
mod wrappers;

use compare::Measured;
use metrics::Contract;
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage:
  igq-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                    [--smoke] [--repeat K] [--out FILE] [--trace-out FILE]
  igq-benchmark compare A.json B.json";

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("not a whole number: {s}"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => parsed.seed = parse_u64(value()?)?,
            "--seconds" => {
                let s = value()?;
                let seconds: f64 = s.parse().map_err(|_| format!("not a number: {s}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => parsed.smoke = true,
            "--repeat" => parsed.repeat = parse_u64(value()?)?.clamp(1, 100) as usize,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(parsed)
}

/// The benchmark's own directory in the checkout the process runs in
/// (the working directory is the checkout's root), else where it was
/// built.
fn benchmark_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Measures one workload in one trace mode in this process.
fn run_here(w: Workload, args: &RunArgs, trace: bool) -> Result<ExitCode, String> {
    let w = if args.smoke { w.smoke() } else { w };
    // A smoke run stops after one round per stream.
    let seconds = match (args.smoke, args.seconds) {
        (true, _) => 0.0,
        (false, Some(s)) => s,
        (false, None) => Contract::load().run_seconds as f64,
    };
    let run_dir = benchmark_dir()
        .join(".run")
        .join(format!("pid-{}", std::process::id()));
    let env = drive::Env::new(run_dir)?;
    let outcome = if trace {
        run::per_layer(&env, &w, args.seed, args.trace_out.as_deref())?
    } else {
        run::end_to_end(&env, &w, args.seed, seconds)?
    };
    drop(env);
    for (name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        let note = if *name == "latency_p99_us" {
            format!("  (n={} per round)", w.measured)
        } else {
            String::new()
        };
        println!("{:<24} {name:<42} {value:>16.4} {unit}{note}", w.name);
    }
    println!(
        "{:<24} {:<42} {:>16.6} ratio  ({} of {})",
        w.name,
        "failed_share",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.to_json_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs `run --workload W --trace T` as a process of its own and parses
/// the JSON object on its last output line.
fn run_child(w: &Workload, args: &RunArgs, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "run",
        "--workload",
        w.name,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &args.seed.to_string()]);
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(path)) = (trace, &args.trace_out) {
        // One spans file per workload.
        let per_workload = if args.workload.is_some() {
            path.clone()
        } else {
            path.with_extension(format!("{}.jsonl", w.name))
        };
        cmd.arg("--trace-out").arg(per_workload);
    }
    // `output` waits for the child to end.
    let output = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let doc: Value = serde_json::from_str(last)
        .map_err(|_| format!("{} (trace {}) printed no result", w.name, u8::from(trace)))?;
    if !output.status.success() {
        eprintln!("{}: answers were wrong or a check failed", w.name);
    }
    Ok(doc)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Where the numbers were taken: a results file from another core count
/// or compiler is stale, not evidence.
fn fingerprint(args: &RunArgs, run_seconds: f64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a git repository names a commit.
    let git_commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, usize::from),
        "cpu_model": cpu_model,
        "rustc": env!("IGQ_BENCH_RUSTC"),
        "git_commit": git_commit,
        "seed": args.seed,
        "smoke": args.smoke,
        "run_seconds": run_seconds,
        "repeat": args.repeat,
    })
}

fn sizes(w: &Workload) -> Value {
    json!({
        "graphs": w.graphs,
        "streams": w.streams,
        "measured_per_stream": w.measured,
        "warmup_per_stream": w.window,
        "cache": w.cache,
        "window": w.window,
        "clients": w.clients,
        "zipf": w.zipf,
    })
}

fn metric_value(doc: &Value, name: &str) -> Result<f64, String> {
    doc["metrics"][name]["value"]
        .as_f64()
        .ok_or_else(|| format!("{name} is missing from a run's result"))
}

/// Every workload asked for, in both trace modes, each in a process of
/// its own; writes the results file.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let contract = Contract::load();
    let selected: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    let mut documents = Vec::new();
    for w in &selected {
        let (mut attempted, mut failed) = (0, 0);
        let mut tally = |doc: &Value| {
            attempted += doc["attempted"].as_u64().unwrap_or(0);
            failed += doc["failed"].as_u64().unwrap_or(0);
        };
        let mut runs: Vec<Value> = Vec::new();
        for _ in 0..args.repeat {
            let doc = run_child(w, args, false)?;
            tally(&doc);
            runs.push(doc);
        }
        let mut end_to_end = Map::new();
        for gate in &contract.end_to_end {
            let values = runs
                .iter()
                .map(|doc| metric_value(doc, &gate.name))
                .collect::<Result<Vec<f64>, String>>()?;
            let measured = Measured::of_runs(&values);
            end_to_end.insert(gate.name.clone(), measured.to_json(&gate.unit, &values));
        }
        let traced = run_child(w, args, true)?;
        tally(&traced);
        all_correct &= failed == 0;
        let sized = if args.smoke { w.smoke() } else { *w };
        documents.push(json!({
            "name": w.name,
            "sizes": sizes(&sized),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed as f64 / attempted.max(1) as f64,
            "latency_p99_samples_per_round": sized.measured,
            "end_to_end": Value::Object(end_to_end),
            "per_layer": traced["metrics"].clone(),
        }));
    }
    let run_seconds = args.seconds.unwrap_or(contract.run_seconds as f64);
    let doc = compare::results_document(fingerprint(args, run_seconds), documents);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| benchmark_dir().join(".run").join("results.json"));
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare::compare(&load(a)?, &load(b)?, &Contract::load())?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run(rest).and_then(|parsed| match (parsed.workload, parsed.trace) {
                (Some(w), Some(trace)) => run_here(w, &parsed, trace),
                _ => run_all(&parsed),
            })
        }
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        _ => Err("expected `run` or `compare`".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
