//! Subcommand implementations for the `igq` CLI.

use igq_core::{CacheStore, DirStore, IgqConfig, IgqEngine, IgqSuperEngine};
use igq_features::PathConfig;
use igq_graph::stats::DatasetStats;
use igq_graph::{io, GraphStore};
use igq_iso::MatchConfig;
use igq_methods::{
    CtIndex, CtIndexConfig, GCode, GCodeConfig, Ggsx, GgsxConfig, Grapes, GrapesConfig,
    SubgraphMethod, TrieSupergraphMethod,
};
use igq_workload::DatasetKind;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::sync::Arc;
use std::time::Instant;

type CmdResult = Result<(), String>;

/// Parses `--flag value` pairs plus positional arguments.
fn parse_flags(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let takes_value = it.peek().map(|v| !v.starts_with("--")).unwrap_or(false);
            if takes_value {
                flags.insert(name.to_owned(), it.next().expect("peeked").clone());
            } else {
                flags.insert(name.to_owned(), String::from("true"));
            }
        } else {
            positional.push(a.clone());
        }
    }
    (flags, positional)
}

fn load_store(path: &str) -> Result<GraphStore, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    io::read_store(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// `igq generate`: synthesize a dataset and write it as GFU text.
pub fn generate(args: &[String]) -> CmdResult {
    let (flags, _) = parse_flags(args);
    let kind = match flags.get("kind").map(String::as_str) {
        Some("aids") => DatasetKind::Aids,
        Some("pdbs") => DatasetKind::Pdbs,
        Some("ppi") => DatasetKind::Ppi,
        Some("synthetic") => DatasetKind::Synthetic,
        other => {
            return Err(format!(
                "--kind must be aids|pdbs|ppi|synthetic, got {other:?}"
            ))
        }
    };
    let count: usize = flags
        .get("count")
        .ok_or("--count is required")?
        .parse()
        .map_err(|_| "--count expects an integer")?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--seed expects a u64")?
        .unwrap_or(42);
    let out = flags.get("out").ok_or("--out is required")?;

    let t = Instant::now();
    let store = kind.generate(count, seed);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    io::write_store(&mut w, &store).map_err(|e| e.to_string())?;
    println!(
        "wrote {} {} graphs ({} vertices, {} edges) to {out} in {:.2?}",
        store.len(),
        kind.name(),
        store.total_vertices(),
        store.total_edges(),
        t.elapsed()
    );
    Ok(())
}

/// `igq stats`: Table 1-style dataset summary.
pub fn stats(args: &[String]) -> CmdResult {
    let (_, positional) = parse_flags(args);
    let path = positional.first().ok_or("usage: igq stats <dataset.gfu>")?;
    let store = load_store(path)?;
    let s = DatasetStats::of(&store);
    println!("{}", s.table_row(path));
    Ok(())
}

fn build_method(name: &str, store: &Arc<GraphStore>) -> Result<Box<dyn SubgraphMethod>, String> {
    let match_config = MatchConfig::with_budget(200_000_000);
    Ok(match name {
        "ggsx" => Box::new(Ggsx::build(
            store,
            GgsxConfig {
                match_config,
                ..Default::default()
            },
        )),
        "grapes" => Box::new(Grapes::build(
            store,
            GrapesConfig {
                threads: 1,
                match_config,
                ..Default::default()
            },
        )),
        "grapes6" => Box::new(Grapes::build(
            store,
            GrapesConfig {
                threads: 6,
                match_config,
                ..Default::default()
            },
        )),
        "ctindex" => Box::new(CtIndex::build(
            store,
            CtIndexConfig {
                match_config,
                ..Default::default()
            },
        )),
        "gcode" => Box::new(GCode::build(
            store,
            GCodeConfig {
                match_config,
                ..Default::default()
            },
        )),
        other => return Err(format!("unknown method {other:?}")),
    })
}

/// `igq save`: run a workload like `igq query` and persist the resulting
/// engine state (checkpoint + WAL) into `--store-dir`.
pub fn save(args: &[String]) -> CmdResult {
    let (flags, _) = parse_flags(args);
    if !flags.contains_key("store-dir") {
        return Err("save requires --store-dir <dir>".into());
    }
    query(args)
}

/// `igq load`: warm-restart an engine from `--store-dir` and report what
/// was recovered; with `--queries` it also runs the workload warm
/// (equivalent to `igq query --store-dir`).
pub fn load(args: &[String]) -> CmdResult {
    let (flags, _) = parse_flags(args);
    if !flags.contains_key("store-dir") {
        return Err("load requires --store-dir <dir>".into());
    }
    if flags.contains_key("queries") {
        return query(args);
    }
    let dataset_path = flags.get("dataset").ok_or("--dataset is required")?;
    let dir = flags.get("store-dir").expect("checked above");
    let store = Arc::new(load_store(dataset_path)?);
    let method = build_method(
        flags.get("method").map(String::as_str).unwrap_or("ggsx"),
        &store,
    )?;
    let config = engine_config(&flags)?;
    let t = Instant::now();
    let disk: Arc<dyn CacheStore> =
        Arc::new(DirStore::open(dir).map_err(|e| format!("cannot open store {dir}: {e}"))?);
    let engine = IgqEngine::open(method, config, disk)
        .map_err(|e| format!("cannot recover engine from {dir}: {e}"))?;
    let s = engine.stats();
    println!(
        "recovered {} cached queries from {dir} in {:.2?} ({} WAL windows replayed)",
        engine.cached_queries(),
        t.elapsed(),
        s.recovery_replayed_windows
    );
    engine
        .self_check()
        .map_err(|e| format!("recovered engine failed self-check: {e}"))?;
    println!("self-check passed");
    Ok(())
}

/// Builds the iGQ engine config from the shared CLI flags (`--cache`,
/// `--window`, `--shards`). `save`/`load`
/// must be run with the same values (the store's config fingerprint
/// covers cache geometry, and a store written with one shard count only
/// reopens with the same `--shards`).
fn engine_config(flags: &HashMap<String, String>) -> Result<IgqConfig, String> {
    let cache: usize = flags
        .get("cache")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--cache expects an integer")?
        .unwrap_or(500);
    let window: usize = flags
        .get("window")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--window expects an integer")?
        .unwrap_or(100);
    let shards: usize = match flags.get("shards") {
        None => 1,
        Some(s) => match s.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err("--shards expects an integer ≥ 1".into()),
        },
    };
    IgqConfig::builder()
        .cache_capacity(cache)
        .window(window)
        .shards(shards)
        .build()
        .map_err(|e| format!("invalid iGQ configuration: {e}"))
}

/// Prints what a store-attached engine recovered at open.
fn report_recovery(durable: bool, cached: usize, stats: &igq_core::EngineStats) {
    if durable {
        println!(
            "store: recovered {cached} cached queries ({} WAL windows replayed)",
            stats.recovery_replayed_windows
        );
    }
}

/// Final checkpoint for `--store-dir` runs (captures the pending window
/// too, so nothing processed this session is lost).
fn persist_final<E: igq_core::QueryEngine>(engine: &E, store_dir: Option<&String>) -> CmdResult {
    let Some(dir) = store_dir else { return Ok(()) };
    engine
        .checkpoint()
        .map_err(|e| format!("final checkpoint failed: {e}"))?;
    let s = engine.stats();
    println!(
        "store: checkpoint written to {dir} ({} WAL appends this run, {:.2?} checkpointing)",
        s.wal_appends, s.checkpoint_time
    );
    Ok(())
}

/// `igq query`: run a query file against a dataset.
pub fn query(args: &[String]) -> CmdResult {
    let (flags, _) = parse_flags(args);
    let dataset_path = flags.get("dataset").ok_or("--dataset is required")?;
    let queries_path = flags.get("queries").ok_or("--queries is required")?;
    let method_name = flags.get("method").map(String::as_str).unwrap_or("ggsx");
    let use_igq = !flags.contains_key("no-igq");
    let verbose = flags.contains_key("verbose");
    let supergraph = flags.contains_key("supergraph");
    let store_dir = flags.get("store-dir");

    let store = Arc::new(load_store(dataset_path)?);
    let queries = load_store(queries_path)?;
    println!(
        "dataset: {} graphs; queries: {}; method: {method_name}; iGQ: {}",
        store.len(),
        queries.len(),
        if use_igq { "on" } else { "off" }
    );

    let t_index = Instant::now();
    let config = engine_config(&flags)?;
    // Durable mode: the engine is recovered from (and keeps updating) a
    // checkpoint + WAL store on disk.
    let disk: Option<Arc<dyn CacheStore>> = match store_dir {
        Some(dir) => Some(Arc::new(
            DirStore::open(dir).map_err(|e| format!("cannot open store {dir}: {e}"))?,
        )),
        None => None,
    };
    let mut total_answers = 0usize;
    let mut total_tests = 0u64;
    let t_queries;

    if supergraph {
        let method =
            TrieSupergraphMethod::build(&store, PathConfig::default(), MatchConfig::default());
        println!("index built in {:.2?}", t_index.elapsed());
        t_queries = Instant::now();
        if use_igq {
            let engine = match &disk {
                Some(d) => IgqSuperEngine::open(method, config, Arc::clone(d))
                    .map_err(|e| format!("cannot recover engine: {e}"))?,
                None => IgqSuperEngine::new(method, config)
                    .map_err(|e| format!("invalid iGQ configuration: {e}"))?,
            };
            report_recovery(disk.is_some(), engine.cached_queries(), &engine.stats());
            for (qid, q) in queries.iter() {
                let out = engine.query(q);
                total_answers += out.answers.len();
                total_tests += out.db_iso_tests;
                if verbose {
                    println!(
                        "q{qid}: {} contained graphs, {} tests",
                        out.answers.len(),
                        out.db_iso_tests
                    );
                }
            }
            persist_final(&engine, store_dir)?;
        } else {
            for (qid, q) in queries.iter() {
                let (answers, tests) = method.query_super(q);
                total_answers += answers.len();
                total_tests += tests;
                if verbose {
                    println!("q{qid}: {} contained graphs, {tests} tests", answers.len());
                }
            }
        }
    } else {
        let method = build_method(method_name, &store)?;
        println!(
            "index built in {:.2?} ({:.2} MB)",
            t_index.elapsed(),
            method.index_size_bytes() as f64 / 1048576.0
        );
        t_queries = Instant::now();
        if use_igq {
            let engine = match &disk {
                Some(d) => IgqEngine::open(method, config, Arc::clone(d))
                    .map_err(|e| format!("cannot recover engine: {e}"))?,
                None => IgqEngine::new(method, config)
                    .map_err(|e| format!("invalid iGQ configuration: {e}"))?,
            };
            report_recovery(disk.is_some(), engine.cached_queries(), &engine.stats());
            for (qid, q) in queries.iter() {
                let out = engine.query(q);
                total_answers += out.answers.len();
                total_tests += out.db_iso_tests;
                if verbose {
                    println!(
                        "q{qid}: {} answers, {} tests ({:?})",
                        out.answers.len(),
                        out.db_iso_tests,
                        out.resolution
                    );
                }
            }
            let s = engine.stats();
            println!(
                "iGQ: {} exact hits, {} empty shortcuts, {} cached, pruned {}+{}",
                s.exact_hits,
                s.empty_shortcuts,
                engine.cached_queries(),
                s.pruned_by_isub,
                s.pruned_by_isuper
            );
            persist_final(&engine, store_dir)?;
        } else {
            for (qid, q) in queries.iter() {
                let (answers, tests) = method.query(q);
                total_answers += answers.len();
                total_tests += tests;
                if verbose {
                    println!("q{qid}: {} answers, {tests} tests", answers.len());
                }
            }
        }
    }

    println!(
        "{} queries in {:.2?}: {} total answers, {} iso tests",
        queries.len(),
        t_queries.elapsed(),
        total_answers,
        total_tests
    );
    Ok(())
}

/// `igq client`: drive a running `igq-server` over TCP. Runs a GFU query
/// file (one `query` frame each, or one `batch` frame with `--batch`),
/// optionally fetches the serving stats, and optionally asks the server
/// to shut down.
pub fn client(args: &[String]) -> CmdResult {
    let (flags, _) = parse_flags(args);
    let addr = flags.get("addr").ok_or("--addr is required")?;
    let verbose = flags.contains_key("verbose");
    let deadline_ms: Option<u64> = flags
        .get("deadline-ms")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--deadline-ms expects a u64")?;
    let max_lag: Option<u64> = flags
        .get("max-lag")
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "--max-lag expects a u64")?;

    let mut c = igq_server::Client::connect(addr.as_str(), "igq-cli")
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    if flags.contains_key("replica") {
        // The connection becomes a one-way push stream, so --replica runs
        // alone: subscribe, print the bootstrap, then tail deltas until
        // the stream goes idle (first heartbeat) or --follow-count is hit.
        let follow_count: Option<u64> = flags
            .get("follow-count")
            .map(|s| s.parse())
            .transpose()
            .map_err(|_| "--follow-count expects a u64")?;
        let from_seq: Option<u64> = flags
            .get("from-seq")
            .map(|s| s.parse())
            .transpose()
            .map_err(|_| "--from-seq expects a u64")?;
        let (start, mut sub) = c
            .subscribe(from_seq)
            .map_err(|e| format!("subscribe failed: {e}"))?;
        match &start {
            igq_server::SubscribeStart::Live { resume_from } => {
                println!("subscribed live, resuming after flip {resume_from}");
            }
            igq_server::SubscribeStart::Snapshot { seq, checkpoint } => {
                println!(
                    "subscribed with snapshot: flip {seq}, {} checkpoint bytes",
                    checkpoint.len()
                );
            }
        }
        let mut deltas = 0u64;
        loop {
            match sub
                .next_event()
                .map_err(|e| format!("replication stream failed: {e}"))?
            {
                igq_server::ReplicaEvent::Delta { seq, bytes } => {
                    deltas += 1;
                    println!("delta: flip {seq}, {} bytes", bytes.len());
                    if follow_count.is_some_and(|n| deltas >= n) {
                        break;
                    }
                }
                igq_server::ReplicaEvent::Heartbeat { seq } => {
                    if follow_count.is_none() {
                        println!("caught up at flip {seq} ({deltas} deltas)");
                        break;
                    }
                }
                igq_server::ReplicaEvent::Closed => {
                    println!("stream closed by server ({deltas} deltas)");
                    break;
                }
            }
        }
        return Ok(());
    }

    if let Some(queries_path) = flags.get("queries") {
        let queries = load_store(queries_path)?;
        let graphs: Vec<_> = queries.iter().map(|(_, q)| q.clone()).collect();
        let t = Instant::now();
        let mut total_answers = 0usize;
        let mut total_tests = 0u64;
        let mut overloaded = 0usize;
        let mut report = |qid: usize, r: &igq_server::WireResult| {
            total_answers += r.answers.len();
            total_tests += r.db_iso_tests;
            if verbose {
                println!(
                    "q{qid}: {} answers, {} tests, {}us{}{}",
                    r.answers.len(),
                    r.db_iso_tests,
                    r.elapsed_us,
                    if r.batched_with > 1 {
                        format!(", batched with {}", r.batched_with - 1)
                    } else {
                        String::new()
                    },
                    if r.deadline_exceeded {
                        ", DEADLINE EXCEEDED"
                    } else {
                        ""
                    },
                );
            }
        };
        let mut retries = 0u64;
        if flags.contains_key("batch") {
            match c
                .query_batch_opts(&graphs, deadline_ms, max_lag)
                .map_err(|e| format!("batch failed: {e}"))?
            {
                igq_server::BatchVerdict::Answered(results) => {
                    for (qid, r) in results.iter().enumerate() {
                        report(qid, r);
                    }
                }
                igq_server::BatchVerdict::Overloaded { .. } => overloaded = graphs.len(),
            }
        } else if flags.contains_key("retry") {
            // Jittered exponential backoff around sheds and torn
            // connections; the server's retry_after_ms hint is a floor.
            let mut rc = igq_server::ReconnectingClient::new(
                addr.as_str(),
                "igq-cli-retry",
                std::time::Duration::from_secs(30),
                igq_server::RetryPolicy::default(),
            );
            for (qid, q) in graphs.iter().enumerate() {
                match rc
                    .query_opts(q, deadline_ms, false, max_lag)
                    .map_err(|e| format!("query {qid} failed: {e}"))?
                {
                    igq_server::QueryVerdict::Answered(r) => report(qid, &r),
                    igq_server::QueryVerdict::Overloaded { retry_after_ms, .. } => {
                        overloaded += 1;
                        if verbose {
                            println!(
                                "q{qid}: still overloaded after retries ({retry_after_ms}ms hint)"
                            );
                        }
                    }
                }
            }
            retries = rc.retries();
        } else {
            for (qid, q) in graphs.iter().enumerate() {
                match c
                    .query_opts(q, deadline_ms, false, max_lag)
                    .map_err(|e| format!("query {qid} failed: {e}"))?
                {
                    igq_server::QueryVerdict::Answered(r) => report(qid, &r),
                    igq_server::QueryVerdict::Overloaded { retry_after_ms, .. } => {
                        overloaded += 1;
                        if verbose {
                            println!("q{qid}: overloaded (retry after {retry_after_ms}ms)");
                        }
                    }
                }
            }
        }
        println!(
            "{} queries in {:.2?}: {} total answers, {} iso tests, {} shed by admission control",
            graphs.len(),
            t.elapsed(),
            total_answers,
            total_tests,
            overloaded
        );
        if retries > 0 {
            println!("({retries} retries slept through under backoff)");
        }
    }

    if flags.contains_key("stats") {
        let s = c.stats().map_err(|e| format!("stats failed: {e}"))?;
        println!(
            "server stats: {} queries, {} served, {} rejected overloaded, {} batches coalesced",
            s.queries, s.requests_served, s.requests_rejected_overload, s.batches_coalesced
        );
        println!(
            "              {} exact hits, {} empty shortcuts, {} iso tests, {} cached",
            s.exact_hits, s.empty_shortcuts, s.db_iso_tests, s.cached_queries
        );
        println!(
            "  replication: {}, flip {}, replication lag {}, {} groups published, {} applied",
            if s.follower { "follower" } else { "primary" },
            s.last_applied_seq,
            s.replication_lag,
            s.replica_groups_published,
            s.replica_groups_applied
        );
        println!(
            "        codec: {} WAL bytes appended, {} checkpoint bytes written",
            s.wal_bytes_appended, s.checkpoint_bytes_written
        );
        println!(
            "       health: epoch {}, {}{}",
            s.epoch,
            if s.degraded {
                format!("DEGRADED ({})", s.degraded_reason)
            } else {
                "healthy".to_owned()
            },
            if s.wal_quarantined_groups > 0 {
                format!(", {} WAL groups quarantined", s.wal_quarantined_groups)
            } else {
                String::new()
            }
        );
        // Counters from a newer server reach the operator instead of
        // being silently dropped.
        for (name, value) in &s.extra {
            println!("        extra: {name} = {value}");
        }
    }

    if flags.contains_key("shutdown") {
        c.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
        println!("server acknowledged shutdown");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let (flags, pos) = parse_flags(&s(&["--kind", "aids", "file.gfu", "--verbose"]));
        assert_eq!(flags.get("kind").unwrap(), "aids");
        assert_eq!(flags.get("verbose").unwrap(), "true");
        assert_eq!(pos, vec!["file.gfu"]);
    }

    #[test]
    fn generate_stats_query_roundtrip() {
        let dir = std::env::temp_dir().join("igq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("db.gfu");
        let qf = dir.join("q.gfu");
        generate(&s(&[
            "--kind",
            "aids",
            "--count",
            "30",
            "--seed",
            "7",
            "--out",
            db.to_str().unwrap(),
        ]))
        .unwrap();
        // Queries: reuse a few dataset graphs' fragments via generate again.
        generate(&s(&[
            "--kind",
            "aids",
            "--count",
            "3",
            "--seed",
            "7",
            "--out",
            qf.to_str().unwrap(),
        ]))
        .unwrap();
        stats(&s(&[db.to_str().unwrap()])).unwrap();
        query(&s(&[
            "--dataset",
            db.to_str().unwrap(),
            "--queries",
            qf.to_str().unwrap(),
            "--method",
            "ggsx",
            "--cache",
            "10",
            "--window",
            "2",
        ]))
        .unwrap();
        query(&s(&[
            "--dataset",
            db.to_str().unwrap(),
            "--queries",
            qf.to_str().unwrap(),
            "--no-igq",
        ]))
        .unwrap();
        query(&s(&[
            "--dataset",
            db.to_str().unwrap(),
            "--queries",
            qf.to_str().unwrap(),
            "--shards",
            "4",
            "--cache",
            "10",
            "--window",
            "2",
        ]))
        .unwrap();
        assert!(
            query(&s(&[
                "--dataset",
                db.to_str().unwrap(),
                "--queries",
                qf.to_str().unwrap(),
                "--shards",
                "0",
            ]))
            .is_err(),
            "--shards 0 must be rejected, not silently clamped"
        );
        query(&s(&[
            "--dataset",
            db.to_str().unwrap(),
            "--queries",
            qf.to_str().unwrap(),
            "--supergraph",
        ]))
        .unwrap();
    }

    #[test]
    fn save_then_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("igq_cli_persist_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("db.gfu");
        let qf = dir.join("q.gfu");
        let sd = dir.join("state");
        generate(&s(&[
            "--kind",
            "aids",
            "--count",
            "40",
            "--seed",
            "3",
            "--out",
            db.to_str().unwrap(),
        ]))
        .unwrap();
        generate(&s(&[
            "--kind",
            "aids",
            "--count",
            "5",
            "--seed",
            "3",
            "--out",
            qf.to_str().unwrap(),
        ]))
        .unwrap();
        let base = [
            "--dataset",
            db.to_str().unwrap(),
            "--cache",
            "16",
            "--window",
            "4",
            "--store-dir",
            sd.to_str().unwrap(),
        ];
        // save → kill (process state gone) → load (summary) → load+query.
        let mut save_args = base.to_vec();
        save_args.extend(["--queries", qf.to_str().unwrap()]);
        save(&s(&save_args)).unwrap();
        load(&s(&base)).unwrap();
        load(&s(&save_args)).unwrap();
        // Both subcommands demand a store directory.
        assert!(save(&s(&["--dataset", db.to_str().unwrap()])).is_err());
        assert!(load(&s(&["--dataset", db.to_str().unwrap()])).is_err());
        // A mismatched geometry is rejected, not silently cold-started.
        let mut wrong = base.to_vec();
        wrong[3] = "32"; // different --cache
        assert!(load(&s(&wrong)).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_method_errors() {
        let store = Arc::new(DatasetKind::Aids.generate(2, 1));
        assert!(build_method("nope", &store).is_err());
    }
}
