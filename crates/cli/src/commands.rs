//! Subcommand implementations for the `igq` CLI.

use igq_core::{CacheStore, DirStore, IgqConfig, IgqEngine, IgqSuperEngine, QueryEngine};
use igq_features::PathConfig;
use igq_graph::stats::DatasetStats;
use igq_graph::{io as gfu, GraphStore};
use igq_iso::MatchConfig;
use igq_methods::{MethodKind, SubgraphMethod, TrieSupergraphMethod};
use igq_server::{BuildFollower, FailoverPolicy, Follower, Server, ServerConfig};
use igq_workload::DatasetKind;
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a subcommand failed. Only a usage error is the command line's
/// fault, so only it is followed by the usage text.
#[derive(Debug)]
pub enum CliError {
    /// An unknown subcommand, a bad or missing flag, or a missing or
    /// unexpected positional argument.
    Usage(String),
    /// A well-formed command that failed while running (a missing file, a
    /// damaged store, a refused connection, ...).
    Runtime(String),
    /// The command's output could not be written.
    Output(io::Error),
}

impl CliError {
    /// True when the output's reader went away (`igq query ... | head`),
    /// which is not a failure.
    pub fn is_closed_pipe(&self) -> bool {
        matches!(self, CliError::Output(e) if e.kind() == io::ErrorKind::BrokenPipe)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Runtime(message)
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(message) | CliError::Runtime(message) => f.write_str(message),
            CliError::Output(e) => write!(f, "cannot write output: {e}"),
        }
    }
}

type CmdResult = Result<(), CliError>;

/// `writeln!` to a command's output, a failed write being
/// [`CliError::Output`]: only writes to the output can end a command
/// quietly on a closed pipe, never a file or socket error.
macro_rules! emit {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(CliError::Output)
    };
}

/// The output of a run that must finish its work after its reader has
/// gone away: a store-attached `igq query`/`save` still runs its
/// remaining queries and writes its final checkpoint. From the first
/// `BrokenPipe` on, writes are dropped; the error is kept in `closed` for
/// the end of the run.
struct FinishOnClosedPipe<'a> {
    out: &'a mut dyn Write,
    closed: Option<io::Error>,
}

impl FinishOnClosedPipe<'_> {
    fn absorb(&mut self, result: io::Result<()>) -> io::Result<()> {
        match result {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = Some(e);
                Ok(())
            }
            other => other,
        }
    }
}

impl Write for FinishOnClosedPipe<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed.is_none() {
            let written = self.out.write_all(buf);
            self.absorb(written)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed.is_some() {
            return Ok(());
        }
        let flushed = self.out.flush();
        self.absorb(flushed)
    }
}

fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

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

/// `--key`'s value; its absence is a usage error.
fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a String, CliError> {
    flags
        .get(key)
        .ok_or_else(|| usage(format!("--{key} is required")))
}

/// `--key`'s value as a number, `None` when the flag is absent.
fn num<T: FromStr>(flags: &HashMap<String, String>, key: &str) -> Result<Option<T>, CliError> {
    flags
        .get(key)
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| usage(format!("--{key} expects a non-negative integer")))
}

/// `--method`'s base method, `ggsx` when the flag is absent.
fn method_kind(flags: &HashMap<String, String>) -> Result<MethodKind, CliError> {
    flags
        .get("method")
        .map_or("ggsx", String::as_str)
        .parse()
        .map_err(CliError::Usage)
}

fn load_store(path: &str) -> Result<GraphStore, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    gfu::read_store(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// `igq generate`: synthesize a dataset and write it as GFU text.
pub fn generate(args: &[String], out: &mut dyn Write) -> CmdResult {
    let (flags, _) = parse_flags(args);
    let kind = match flags.get("kind").map(String::as_str) {
        Some("aids") => DatasetKind::Aids,
        Some("pdbs") => DatasetKind::Pdbs,
        Some("ppi") => DatasetKind::Ppi,
        Some("synthetic") => DatasetKind::Synthetic,
        other => {
            return Err(usage(format!(
                "--kind must be aids|pdbs|ppi|synthetic, got {other:?}"
            )))
        }
    };
    let count: usize = num(&flags, "count")?.ok_or_else(|| usage("--count is required"))?;
    let seed: u64 = num(&flags, "seed")?.unwrap_or(42);
    let path = required(&flags, "out")?;

    let t = Instant::now();
    let store = kind.generate(count, seed);
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = BufWriter::new(file);
    gfu::write_store(&mut w, &store).map_err(|e| e.to_string())?;
    emit!(
        out,
        "wrote {} {} graphs ({} vertices, {} edges) to {path} in {:.2?}",
        store.len(),
        kind.name(),
        store.total_vertices(),
        store.total_edges(),
        t.elapsed()
    )?;
    Ok(())
}

/// `igq stats`: Table 1-style dataset summary.
pub fn stats(args: &[String], out: &mut dyn Write) -> CmdResult {
    let (_, positional) = parse_flags(args);
    let path = positional
        .first()
        .ok_or_else(|| usage("igq stats expects a <dataset.gfu> argument"))?;
    let store = load_store(path)?;
    let s = DatasetStats::of(&store);
    emit!(out, "{}", s.table_row(path))?;
    Ok(())
}

/// Builds a `--method` base method; `grapes6` runs Grapes with 6 threads.
fn build_method(kind: MethodKind, store: &Arc<GraphStore>) -> Box<dyn SubgraphMethod> {
    kind.build(store, 6)
}

/// `igq save`: run a workload like `igq query` and persist the resulting
/// engine state (checkpoint + WAL) into `--store-dir`.
pub fn save(args: &[String], out: &mut dyn Write) -> CmdResult {
    let (flags, _) = parse_flags(args);
    if !flags.contains_key("store-dir") {
        return Err(usage("save requires --store-dir <dir>"));
    }
    query(args, out)
}

/// `igq load`: warm-restart an engine from `--store-dir` and report what
/// was recovered; with `--queries` it also runs the workload warm
/// (equivalent to `igq query --store-dir`).
pub fn load(args: &[String], out: &mut dyn Write) -> CmdResult {
    let (flags, _) = parse_flags(args);
    if !flags.contains_key("store-dir") {
        return Err(usage("load requires --store-dir <dir>"));
    }
    if flags.contains_key("queries") {
        return query(args, out);
    }
    let dataset_path = required(&flags, "dataset")?;
    let dir = flags.get("store-dir").expect("checked above");
    let kind = method_kind(&flags)?;
    let store = Arc::new(load_store(dataset_path)?);
    let method = build_method(kind, &store);
    let config = engine_config(&flags)?;
    let t = Instant::now();
    let disk: Arc<dyn CacheStore> =
        Arc::new(DirStore::open(dir).map_err(|e| format!("cannot open store {dir}: {e}"))?);
    let engine = IgqEngine::open(method, config, disk)
        .map_err(|e| format!("cannot recover engine from {dir}: {e}"))?;
    let s = engine.stats();
    emit!(
        out,
        "recovered {} cached queries from {dir} in {:.2?} ({} WAL windows replayed)",
        engine.cached_queries(),
        t.elapsed(),
        s.recovery_replayed_windows
    )?;
    engine
        .self_check()
        .map_err(|e| format!("recovered engine failed self-check: {e}"))?;
    emit!(out, "self-check passed")?;
    Ok(())
}

/// Builds the iGQ engine config from the shared CLI flags (`--cache`,
/// `--window`). `save`/`load` must be run with the same values (the
/// store's config fingerprint covers cache geometry).
fn engine_config(flags: &HashMap<String, String>) -> Result<IgqConfig, CliError> {
    IgqConfig::builder()
        .cache_capacity(num(flags, "cache")?.unwrap_or(500))
        .window(num(flags, "window")?.unwrap_or(100))
        .build()
        .map_err(|e| usage(format!("invalid iGQ configuration: {e}")))
}

/// Prints what a store-attached engine recovered at open.
fn report_recovery(
    out: &mut dyn Write,
    durable: bool,
    cached: usize,
    stats: &igq_core::EngineStats,
) -> CmdResult {
    if durable {
        emit!(
            out,
            "store: recovered {cached} cached queries ({} WAL windows replayed)",
            stats.recovery_replayed_windows
        )?;
    }
    Ok(())
}

/// Final checkpoint for `--store-dir` runs (captures the pending window
/// too, so nothing processed this session is lost).
fn persist_final<E: igq_core::QueryEngine>(
    out: &mut dyn Write,
    engine: &E,
    store_dir: Option<&String>,
) -> CmdResult {
    let Some(dir) = store_dir else { return Ok(()) };
    engine
        .checkpoint()
        .map_err(|e| format!("final checkpoint failed: {e}"))?;
    let s = engine.stats();
    emit!(
        out,
        "store: checkpoint written to {dir} ({} WAL appends this run, {:.2?} checkpointing)",
        s.wal_appends,
        s.checkpoint_time
    )?;
    Ok(())
}

/// `igq query`: run a query file against a dataset. With `--store-dir`,
/// a closed output does not stop the run before its final checkpoint:
/// the run finishes unheard and then reports the closed pipe.
pub fn query(args: &[String], out: &mut dyn Write) -> CmdResult {
    let (flags, _) = parse_flags(args);
    if !flags.contains_key("store-dir") {
        return run_queries(&flags, out);
    }
    let mut out = FinishOnClosedPipe { out, closed: None };
    run_queries(&flags, &mut out)?;
    out.closed.map_or(Ok(()), |e| Err(CliError::Output(e)))
}

/// The body of [`query`].
fn run_queries(flags: &HashMap<String, String>, out: &mut dyn Write) -> CmdResult {
    let dataset_path = required(flags, "dataset")?;
    let queries_path = required(flags, "queries")?;
    let method_name = flags.get("method").map(String::as_str).unwrap_or("ggsx");
    let use_igq = !flags.contains_key("no-igq");
    let verbose = flags.contains_key("verbose");
    let supergraph = flags.contains_key("supergraph");
    let store_dir = flags.get("store-dir");

    let store = Arc::new(load_store(dataset_path)?);
    let queries = load_store(queries_path)?;
    emit!(
        out,
        "dataset: {} graphs; queries: {}; method: {method_name}; iGQ: {}",
        store.len(),
        queries.len(),
        if use_igq { "on" } else { "off" }
    )?;

    let t_index = Instant::now();
    let config = engine_config(flags)?;
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
        emit!(out, "index built in {:.2?}", t_index.elapsed())?;
        t_queries = Instant::now();
        if use_igq {
            let engine = match &disk {
                Some(d) => IgqSuperEngine::open(method, config, Arc::clone(d))
                    .map_err(|e| format!("cannot recover engine: {e}"))?,
                None => IgqSuperEngine::new(method, config)
                    .map_err(|e| format!("invalid iGQ configuration: {e}"))?,
            };
            report_recovery(
                out,
                disk.is_some(),
                engine.cached_queries(),
                &engine.stats(),
            )?;
            for (qid, q) in queries.iter() {
                let outcome = engine.query(q);
                total_answers += outcome.answers.len();
                total_tests += outcome.db_iso_tests;
                if verbose {
                    emit!(
                        out,
                        "q{qid}: {} contained graphs, {} tests",
                        outcome.answers.len(),
                        outcome.db_iso_tests
                    )?;
                }
            }
            persist_final(out, &engine, store_dir)?;
        } else {
            for (qid, q) in queries.iter() {
                let (answers, tests) = method.query_super(q);
                total_answers += answers.len();
                total_tests += tests;
                if verbose {
                    emit!(
                        out,
                        "q{qid}: {} contained graphs, {tests} tests",
                        answers.len()
                    )?;
                }
            }
        }
    } else {
        let method = build_method(method_kind(flags)?, &store);
        emit!(
            out,
            "index built in {:.2?} ({:.2} MB)",
            t_index.elapsed(),
            method.index_size_bytes() as f64 / 1048576.0
        )?;
        t_queries = Instant::now();
        if use_igq {
            let engine = match &disk {
                Some(d) => IgqEngine::open(method, config, Arc::clone(d))
                    .map_err(|e| format!("cannot recover engine: {e}"))?,
                None => IgqEngine::new(method, config)
                    .map_err(|e| format!("invalid iGQ configuration: {e}"))?,
            };
            report_recovery(
                out,
                disk.is_some(),
                engine.cached_queries(),
                &engine.stats(),
            )?;
            for (qid, q) in queries.iter() {
                let outcome = engine.query(q);
                total_answers += outcome.answers.len();
                total_tests += outcome.db_iso_tests;
                if verbose {
                    emit!(
                        out,
                        "q{qid}: {} answers, {} tests ({:?})",
                        outcome.answers.len(),
                        outcome.db_iso_tests,
                        outcome.resolution
                    )?;
                }
            }
            let s = engine.stats();
            emit!(
                out,
                "iGQ: {} exact hits, {} empty shortcuts, {} cached, pruned {}+{}",
                s.exact_hits,
                s.empty_shortcuts,
                engine.cached_queries(),
                s.pruned_by_isub,
                s.pruned_by_isuper
            )?;
            persist_final(out, &engine, store_dir)?;
        } else {
            for (qid, q) in queries.iter() {
                let (answers, tests) = method.query(q);
                total_answers += answers.len();
                total_tests += tests;
                if verbose {
                    emit!(out, "q{qid}: {} answers, {tests} tests", answers.len())?;
                }
            }
        }
    }

    emit!(
        out,
        "{} queries in {:.2?}: {} total answers, {} iso tests",
        queries.len(),
        t_queries.elapsed(),
        total_answers,
        total_tests
    )?;
    Ok(())
}

/// `igq client`: drive a running `igq serve` over TCP. Runs a GFU query
/// file (one `query` frame each, or one `batch` frame with `--batch`),
/// optionally fetches the serving stats, and optionally asks the server
/// to shut down.
pub fn client(args: &[String], out: &mut dyn Write) -> CmdResult {
    let (flags, _) = parse_flags(args);
    let addr = required(&flags, "addr")?;
    let verbose = flags.contains_key("verbose");
    let deadline_ms: Option<u64> = num(&flags, "deadline-ms")?;
    let max_lag: Option<u64> = num(&flags, "max-lag")?;

    let mut c = igq_server::Client::connect(addr.as_str(), "igq-cli")
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    if flags.contains_key("replica") {
        // The connection becomes a one-way push stream, so --replica runs
        // alone: subscribe, print the bootstrap, then tail deltas until
        // the stream goes idle (first heartbeat) or --follow-count is hit.
        let follow_count: Option<u64> = num(&flags, "follow-count")?;
        let from_seq: Option<u64> = num(&flags, "from-seq")?;
        let (start, mut sub) = c
            .subscribe(from_seq)
            .map_err(|e| format!("subscribe failed: {e}"))?;
        match &start {
            igq_server::SubscribeStart::Live { resume_from } => {
                emit!(out, "subscribed live, resuming after flip {resume_from}")?;
            }
            igq_server::SubscribeStart::Snapshot { seq, checkpoint } => {
                emit!(
                    out,
                    "subscribed with snapshot: flip {seq}, {} checkpoint bytes",
                    checkpoint.len()
                )?;
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
                    emit!(out, "delta: flip {seq}, {} bytes", bytes.len())?;
                    if follow_count.is_some_and(|n| deltas >= n) {
                        break;
                    }
                }
                igq_server::ReplicaEvent::Heartbeat { seq } => {
                    if follow_count.is_none() {
                        emit!(out, "caught up at flip {seq} ({deltas} deltas)")?;
                        break;
                    }
                }
                igq_server::ReplicaEvent::Closed => {
                    emit!(out, "stream closed by server ({deltas} deltas)")?;
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
        let mut report = |out: &mut dyn Write, qid: usize, r: &igq_server::WireResult| {
            total_answers += r.answers.len();
            total_tests += r.db_iso_tests;
            if verbose {
                emit!(
                    out,
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
                )?;
            }
            Ok::<(), CliError>(())
        };
        if flags.contains_key("batch") {
            match c
                .query_batch_opts(&graphs, deadline_ms, max_lag)
                .map_err(|e| format!("batch failed: {e}"))?
            {
                igq_server::BatchVerdict::Answered(results) => {
                    for (qid, r) in results.iter().enumerate() {
                        report(out, qid, r)?;
                    }
                }
                igq_server::BatchVerdict::Overloaded { .. } => overloaded = graphs.len(),
            }
        } else {
            for (qid, q) in graphs.iter().enumerate() {
                match c
                    .query_opts(q, deadline_ms, false, max_lag)
                    .map_err(|e| format!("query {qid} failed: {e}"))?
                {
                    igq_server::QueryVerdict::Answered(r) => report(out, qid, &r)?,
                    igq_server::QueryVerdict::Overloaded { retry_after_ms, .. } => {
                        overloaded += 1;
                        if verbose {
                            emit!(out, "q{qid}: overloaded (retry after {retry_after_ms}ms)")?;
                        }
                    }
                }
            }
        }
        emit!(
            out,
            "{} queries in {:.2?}: {} total answers, {} iso tests, {} shed by admission control",
            graphs.len(),
            t.elapsed(),
            total_answers,
            total_tests,
            overloaded
        )?;
    }

    if flags.contains_key("stats") {
        let s = c.stats().map_err(|e| format!("stats failed: {e}"))?;
        emit!(
            out,
            "server stats: {} queries, {} served, {} rejected overloaded, {} batches coalesced",
            s.queries,
            s.requests_served,
            s.requests_rejected_overload,
            s.batches_coalesced
        )?;
        emit!(
            out,
            "              {} exact hits, {} empty shortcuts, {} iso tests, {} cached",
            s.exact_hits,
            s.empty_shortcuts,
            s.db_iso_tests,
            s.cached_queries
        )?;
        emit!(
            out,
            "  replication: {}, flip {}, replication lag {}, {} groups published, {} applied",
            if s.follower { "follower" } else { "primary" },
            s.last_applied_seq,
            s.replication_lag,
            s.replica_groups_published,
            s.replica_groups_applied
        )?;
        emit!(
            out,
            "        codec: {} WAL bytes appended, {} checkpoint bytes written",
            s.wal_bytes_appended,
            s.checkpoint_bytes_written
        )?;
        emit!(
            out,
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
        )?;
        // Counters from a newer server reach the operator instead of
        // being silently dropped.
        for (name, value) in &s.extra {
            emit!(out, "        extra: {name} = {value}")?;
        }
    }

    if flags.contains_key("shutdown") {
        c.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
        emit!(out, "server acknowledged shutdown")?;
    }
    Ok(())
}

const SERVE_USAGE: &str = "\
igq serve: TCP serving front end for the iGQ engine

usage:
  igq serve --dataset <data.gfu> [options]

options:
  --listen <addr>          bind address (default 127.0.0.1:7461)
  --method <name>          ggsx|grapes|grapes6|ctindex|gcode (default ggsx)
  --cache <N>              query-cache capacity (default 500)
  --window <W>             maintenance window size (default 100)
  --batch-window-us <U>    micro-batching window in microseconds; 0 = off
                           (default 0)
  --batch-max <N>          cap on one coalesced batch (default 64)
  --max-connections <N>    bounded connection pool (default 64)
  --io-timeout-ms <T>      per-socket read/write timeout, at least 1
                           (default 30000)
  --follower-of <addrs>    serve as a read replica; <addrs> is a
                           comma-separated upstream list walked round-robin
                           on failure (same --dataset and engine flags)
  --heartbeat-timeout-ms <T>
                           declare the stream hung after T ms of silence,
                           at least 1 (default 2000)
  --promote-on-timeout     promote to a writable primary when every
                           upstream stays dark (default: keep retrying)
  --promote-rounds <N>     full passes over the upstream list before
                           promotion triggers (default 2)
";

/// `igq serve`'s listener settings plus, with `--follower-of`, the
/// upstream list and failover policy.
type ServeConfig = (ServerConfig, Option<(Vec<String>, FailoverPolicy)>);

fn serve_config(flags: &HashMap<String, String>) -> Result<ServeConfig, CliError> {
    let d = ServerConfig::default();
    let server = ServerConfig {
        addr: flags
            .get("listen")
            .map_or("127.0.0.1:7461", String::as_str)
            .to_owned(),
        max_connections: num(flags, "max-connections")?.unwrap_or(d.max_connections),
        batch_window: Duration::from_micros(num(flags, "batch-window-us")?.unwrap_or(0)),
        batch_max: num(flags, "batch-max")?.unwrap_or(d.batch_max),
        io_timeout: Duration::from_millis(num(flags, "io-timeout-ms")?.unwrap_or(30_000)),
        ..d
    };
    let Some(spec) = flags.get("follower-of") else {
        return Ok((server, None));
    };
    let upstreams: Vec<String> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    if upstreams.is_empty() {
        return Err(usage("--follower-of expects at least one address"));
    }
    let d = FailoverPolicy::default();
    let policy = FailoverPolicy {
        heartbeat_timeout: num(flags, "heartbeat-timeout-ms")?
            .map_or(d.heartbeat_timeout, Duration::from_millis),
        promote_on_timeout: flags.contains_key("promote-on-timeout"),
        rounds_before_promote: num(flags, "promote-rounds")?.unwrap_or(d.rounds_before_promote),
    };
    Ok((server, Some((upstreams, policy))))
}

/// `igq serve`: load a dataset, build a method and an iGQ engine (or
/// follow a primary's), and serve it over TCP until a client sends a
/// `shutdown` frame. Prints `listening on <addr>` on stdout once bound.
pub fn serve(args: &[String], out: &mut dyn Write) -> CmdResult {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        write!(out, "{SERVE_USAGE}").map_err(CliError::Output)?;
        return Ok(());
    }
    let (flags, positional) = parse_flags(args);
    if let Some(a) = positional.first() {
        return Err(usage(format!(
            "unexpected positional argument {a:?} (see igq serve --help)"
        )));
    }
    let dataset = required(&flags, "dataset")?;
    let method_name = flags.get("method").map_or("ggsx", String::as_str);
    let kind = method_kind(&flags)?;
    let engine_config = engine_config(&flags)?;
    let (server_config, follow) = serve_config(&flags)?;

    let t = Instant::now();
    let store = Arc::new(load_store(dataset)?);
    eprintln!(
        "loaded {} graphs ({} vertices) from {dataset} in {:.2?}",
        store.len(),
        store.total_vertices(),
        t.elapsed()
    );
    let (engine, follower): (Arc<dyn QueryEngine>, Option<Follower>) = match follow {
        None => {
            let t = Instant::now();
            let method = build_method(kind, &store);
            eprintln!("built {method_name} index in {:.2?}", t.elapsed());
            let engine = IgqEngine::new(method, engine_config)
                .map_err(|e| format!("invalid engine configuration: {e}"))?;
            (Arc::new(engine), None)
        }
        Some((upstreams, policy)) => {
            // The snapshot carries only iGQ state; the dataset and base
            // method are built locally, once, at the first bootstrap.
            let build: BuildFollower = Arc::new(move |snapshot: &[u8]| {
                let engine =
                    IgqEngine::open_follower(build_method(kind, &store), engine_config, snapshot)
                        .map_err(|e| format!("snapshot rejected: {e}"))?;
                Ok(Arc::new(engine) as Arc<dyn QueryEngine>)
            });
            let primary = upstreams.join(",");
            let t = Instant::now();
            let follower = Follower::connect_with_policy(
                &upstreams,
                "igq-server-replica",
                build,
                server_config.io_timeout,
                policy,
            )
            .map_err(|e| format!("cannot follow {primary}: {e}"))?;
            eprintln!("bootstrapped replica of {primary} in {:.2?}", t.elapsed());
            (follower.engine(), Some(follower))
        }
    };

    let addr = server_config.addr.clone();
    let server =
        Server::spawn(engine, server_config).map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    // Parseable by harnesses (the CI smoke greps this line for the port).
    emit!(out, "listening on {}", server.local_addr())?;
    server.wait();
    if let Some(f) = follower {
        f.shutdown();
    }
    eprintln!("shutdown complete");
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
        generate(
            &s(&[
                "--kind",
                "aids",
                "--count",
                "30",
                "--seed",
                "7",
                "--out",
                db.to_str().unwrap(),
            ]),
            &mut io::sink(),
        )
        .unwrap();
        // Queries: reuse a few dataset graphs' fragments via generate again.
        generate(
            &s(&[
                "--kind",
                "aids",
                "--count",
                "3",
                "--seed",
                "7",
                "--out",
                qf.to_str().unwrap(),
            ]),
            &mut io::sink(),
        )
        .unwrap();
        stats(&s(&[db.to_str().unwrap()]), &mut io::sink()).unwrap();
        query(
            &s(&[
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
            ]),
            &mut io::sink(),
        )
        .unwrap();
        query(
            &s(&[
                "--dataset",
                db.to_str().unwrap(),
                "--queries",
                qf.to_str().unwrap(),
                "--no-igq",
            ]),
            &mut io::sink(),
        )
        .unwrap();
        query(
            &s(&[
                "--dataset",
                db.to_str().unwrap(),
                "--queries",
                qf.to_str().unwrap(),
                "--supergraph",
            ]),
            &mut io::sink(),
        )
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
        generate(
            &s(&[
                "--kind",
                "aids",
                "--count",
                "40",
                "--seed",
                "3",
                "--out",
                db.to_str().unwrap(),
            ]),
            &mut io::sink(),
        )
        .unwrap();
        generate(
            &s(&[
                "--kind",
                "aids",
                "--count",
                "5",
                "--seed",
                "3",
                "--out",
                qf.to_str().unwrap(),
            ]),
            &mut io::sink(),
        )
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
        save(&s(&save_args), &mut io::sink()).unwrap();
        load(&s(&base), &mut io::sink()).unwrap();
        load(&s(&save_args), &mut io::sink()).unwrap();
        // Both subcommands demand a store directory.
        let no_store = s(&["--dataset", db.to_str().unwrap()]);
        assert!(matches!(
            save(&no_store, &mut io::sink()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            load(&no_store, &mut io::sink()),
            Err(CliError::Usage(_))
        ));
        // A mismatched geometry is rejected, not silently cold-started;
        // the command line itself was fine.
        let mut wrong = base.to_vec();
        wrong[3] = "32"; // different --cache
        assert!(matches!(
            load(&s(&wrong), &mut io::sink()),
            Err(CliError::Runtime(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The message of a usage error; panics on success or a runtime error.
    fn usage_message<T: fmt::Debug>(result: Result<T, CliError>) -> String {
        match result {
            Err(CliError::Usage(message)) => message,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_method_errors() {
        assert!("nope".parse::<MethodKind>().is_err());
        let err = usage_message(serve(
            &s(&["--dataset", "absent.gfu", "--method", "nope"]),
            &mut io::sink(),
        ));
        assert!(err.contains("unknown method \"nope\""), "{err}");
    }

    /// Bad or missing flags and arguments are usage errors; a well-formed
    /// command that fails while running is not.
    #[test]
    fn usage_errors_are_told_apart_from_runtime_errors() {
        let err = usage_message(query(&s(&["--queries", "q.gfu"]), &mut io::sink()));
        assert_eq!(err, "--dataset is required");
        let err = usage_message(generate(
            &s(&["--kind", "aids", "--count", "x"]),
            &mut io::sink(),
        ));
        assert_eq!(err, "--count expects a non-negative integer");
        let err = usage_message(stats(&s(&[]), &mut io::sink()));
        assert!(err.contains("<dataset.gfu>"), "{err}");
        let err = usage_message(engine_config(&parse_flags(&s(&["--cache", "0"])).0));
        assert!(err.starts_with("invalid iGQ configuration"), "{err}");
        match stats(&s(&["absent.gfu"]), &mut io::sink()) {
            Err(CliError::Runtime(err)) => {
                assert!(err.starts_with("cannot open absent.gfu"), "{err}")
            }
            other => panic!("expected a runtime error, got {other:?}"),
        }
    }

    /// A stdout whose reader has gone away: every write fails with
    /// `BrokenPipe`, as under `igq ... | head -1` once `head` exits.
    #[derive(Default)]
    struct ClosedPipe {
        writes: usize,
    }

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A closed pipe stops a command at its first line with an error that
    /// `main` turns into a quiet exit 0, instead of `println!`'s panic.
    #[test]
    fn a_closed_pipe_stops_the_command_quietly() {
        let dir = std::env::temp_dir().join(format!("igq_cli_pipe_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("db.gfu");
        let db = db.to_str().unwrap();
        generate(
            &s(&["--kind", "aids", "--count", "12", "--out", db]),
            &mut io::sink(),
        )
        .unwrap();
        let mut pipe = ClosedPipe::default();
        let args = ["--dataset", db, "--queries", db, "--verbose"];
        let err = query(&s(&args), &mut pipe).unwrap_err();
        assert!(err.is_closed_pipe(), "{err}");
        assert_eq!(pipe.writes, 1, "the command stops at its first line");
        let err = stats(&s(&[db]), &mut ClosedPipe::default()).unwrap_err();
        assert!(err.is_closed_pipe(), "{err}");
        // Only a vanished reader is quiet: other write errors still fail.
        assert!(!CliError::Output(io::ErrorKind::WriteZero.into()).is_closed_pipe());
        assert!(!CliError::Runtime("broken pipe".into()).is_closed_pipe());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store-attached run whose reader has gone away (`igq save ... |
    /// head -1`) still runs every query and writes its final checkpoint,
    /// and only then reports the closed pipe: its store recovers what the
    /// same run with its output read does.
    #[test]
    fn a_closed_pipe_does_not_cut_a_store_attached_run_short() {
        let dir = std::env::temp_dir().join(format!("igq_cli_pipe_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (db, qf) = (path("db.gfu"), path("q.gfu"));
        for (out, count, seed) in [(&db, "40", "3"), (&qf, "12", "5")] {
            let args = [
                "--kind", "aids", "--count", count, "--seed", seed, "--out", out,
            ];
            generate(&s(&args), &mut io::sink()).unwrap();
        }
        let config = ["--dataset", &db, "--cache", "16", "--window", "4"];
        let run = |store: &str, out: &mut dyn Write| {
            let mut args = config.to_vec();
            args.extend(["--queries", &qf, "--store-dir", store, "--verbose"]);
            save(&s(&args), out)
        };
        let recovered = |store: &str| {
            let mut args = config.to_vec();
            args.extend(["--store-dir", store]);
            let mut text = Vec::new();
            load(&s(&args), &mut text).unwrap();
            let text = String::from_utf8(text).unwrap();
            let count = text.split_whitespace().nth(1).map(str::parse::<usize>);
            count.expect("a recovery line").unwrap()
        };
        let (heard, unheard) = (path("heard"), path("unheard"));
        run(&heard, &mut io::sink()).unwrap();
        let mut pipe = ClosedPipe::default();
        let err = run(&unheard, &mut pipe).unwrap_err();
        assert!(err.is_closed_pipe(), "{err}");
        assert_eq!(pipe.writes, 1, "nothing is written after the pipe closed");
        let cached = recovered(&heard);
        assert!(cached > 0);
        assert_eq!(recovered(&unheard), cached);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn serve_config_of(args: &str) -> Result<ServeConfig, CliError> {
        let args: Vec<&str> = args.split_whitespace().collect();
        serve_config(&parse_flags(&s(&args)).0)
    }

    #[test]
    fn serve_flags_land_in_configs_with_defaults_when_absent() {
        let (server, follow) = serve_config_of("").unwrap();
        assert_eq!(server.addr, "127.0.0.1:7461");
        assert_eq!(server.max_connections, 64);
        assert_eq!(server.batch_window, Duration::ZERO);
        assert_eq!(server.batch_max, 64);
        assert_eq!(server.io_timeout, Duration::from_secs(30));
        assert!(follow.is_none());
        let engine = engine_config(&HashMap::new()).unwrap();
        assert_eq!((engine.cache_capacity, engine.window), (500, 100));

        let (_, follow) = serve_config_of("--follower-of a:1").unwrap();
        let (upstreams, policy) = follow.unwrap();
        assert_eq!(upstreams, ["a:1"]);
        assert_eq!(policy.heartbeat_timeout, Duration::from_secs(2));
        assert!(!policy.promote_on_timeout);
        assert_eq!(policy.rounds_before_promote, 2);

        let (server, follow) = serve_config_of(
            "--listen 0.0.0.0:9 --max-connections 3 --batch-window-us 250 --batch-max 7 \
             --io-timeout-ms 1500 --follower-of a:1,,b:2, --heartbeat-timeout-ms 900 \
             --promote-on-timeout --promote-rounds 4",
        )
        .unwrap();
        assert_eq!(server.addr, "0.0.0.0:9");
        assert_eq!(server.max_connections, 3);
        assert_eq!(server.batch_window, Duration::from_micros(250));
        assert_eq!(server.batch_max, 7);
        assert_eq!(server.io_timeout, Duration::from_millis(1500));
        let (upstreams, policy) = follow.unwrap();
        assert_eq!(upstreams, ["a:1", "b:2"]);
        assert_eq!(policy.heartbeat_timeout, Duration::from_millis(900));
        assert!(policy.promote_on_timeout);
        assert_eq!(policy.rounds_before_promote, 4);
    }

    #[test]
    fn serve_rejects_bad_arguments() {
        let err = usage_message(serve(
            &s(&["--dataset", "absent.gfu", "extra"]),
            &mut io::sink(),
        ));
        assert!(
            err.contains("unexpected positional argument \"extra\""),
            "{err}"
        );
        let err = usage_message(serve_config_of("--follower-of ,"));
        assert!(err.contains("expects at least one address"), "{err}");
        let err = usage_message(serve_config_of("--batch-max many"));
        assert!(err.contains("--batch-max expects"), "{err}");
    }

    /// Zero socket timeouts reach the library's typed refusals instead of
    /// serving with no bound.
    #[test]
    fn serve_rejects_zero_timeouts() {
        let dir = std::env::temp_dir().join(format!("igq_cli_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("db.gfu");
        let db = db.to_str().unwrap();
        generate(
            &s(&["--kind", "aids", "--count", "5", "--out", db]),
            &mut io::sink(),
        )
        .unwrap();
        let listen = ["--dataset", db, "--listen", "127.0.0.1:0"];
        let err = serve(
            &s(&[&listen[..], &["--io-timeout-ms", "0"]].concat()),
            &mut io::sink(),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("io_timeout must be at least 1 ms"), "{err}");
        let follow = [
            "--follower-of",
            "127.0.0.1:1",
            "--heartbeat-timeout-ms",
            "0",
        ];
        let err = serve(&s(&[&listen[..], &follow].concat()), &mut io::sink())
            .unwrap_err()
            .to_string();
        assert!(err.contains("heartbeat_timeout must be non-zero"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
