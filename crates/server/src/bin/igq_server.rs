//! The `igq-server` binary: load a GFU dataset, build a filtering method
//! and an iGQ engine, and serve it over TCP until a client sends a
//! `shutdown` frame.
//!
//! ```text
//! igq-server --dataset data.gfu [--listen 127.0.0.1:7461] [--method ggsx]
//!            [--cache 500] [--window 100]
//!            [--shards 1] [--batch-window-us 0] [--batch-max 64]
//!            [--max-connections 64]
//!            [--follower-of <addr>[,<addr>...]]
//!            [--heartbeat-timeout-ms 2000] [--promote-on-timeout]
//!            [--promote-rounds 2]
//! ```
//!
//! With `--follower-of`, the server comes up as a **read replica**: it
//! subscribes to the primary at `<addr>`, bootstraps from its snapshot,
//! applies the pushed delta stream, and serves read-only queries (writes
//! never happen — a follower engine admits nothing into its cache). Both
//! servers must load the same dataset file and engine configuration; the
//! snapshot's embedded fingerprints enforce this at bootstrap.
//!
//! `--follower-of` accepts a comma-separated upstream list. A silent
//! primary hang (no delta, no heartbeat for `--heartbeat-timeout-ms`) is
//! treated like a disconnect, and the follower walks the list
//! round-robin. With `--promote-on-timeout`, once every upstream has
//! stayed unreachable for `--promote-rounds` full passes the follower
//! promotes itself to a writable primary under a new failover epoch —
//! stragglers from the deposed primary are fenced by that epoch.
//!
//! Drive it with `igq client …` (see the CLI) or any line-framed JSON
//! speaker; the protocol is documented in `igq_server::protocol`.

use igq_core::{IgqConfig, IgqEngine, QueryEngine};
use igq_graph::{io, GraphStore};
use igq_iso::MatchConfig;
use igq_methods::{
    CtIndex, CtIndexConfig, GCode, GCodeConfig, Ggsx, GgsxConfig, Grapes, GrapesConfig,
    SubgraphMethod,
};
use igq_server::{BuildFollower, FailoverPolicy, Follower, Server, ServerConfig};
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("igq-server: {e}");
        std::process::exit(1);
    }
}

const USAGE: &str = "\
igq-server: TCP serving front end for the iGQ engine

usage:
  igq-server --dataset <data.gfu> [options]

options:
  --listen <addr>          bind address (default 127.0.0.1:7461)
  --method <name>          ggsx|grapes|grapes6|ctindex|gcode (default ggsx)
  --cache <N>              query-cache capacity (default 500)
  --window <W>             maintenance window size (default 100)
  --shards <N>             shard cache + indexes N ways (default 1)
  --batch-window-us <U>    micro-batching window in microseconds; 0 = off
                           (default 0)
  --batch-max <N>          cap on one coalesced batch (default 64)
  --max-connections <N>    bounded connection pool (default 64)
  --io-timeout-ms <T>      per-socket read/write timeout (default 30000)
  --follower-of <addrs>    serve as a read replica; <addrs> is a
                           comma-separated upstream list walked round-robin
                           on failure (same --dataset and engine flags)
  --heartbeat-timeout-ms <T>
                           declare the stream hung after T ms of silence
                           (default 2000)
  --promote-on-timeout     promote to a writable primary when every
                           upstream stays dark (default: keep retrying)
  --promote-rounds <N>     full passes over the upstream list before
                           promotion triggers (default 2)
";

fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let dataset = flags.get("dataset").ok_or("--dataset is required")?;

    let t = Instant::now();
    let file = File::open(dataset).map_err(|e| format!("cannot open {dataset}: {e}"))?;
    let store: Arc<GraphStore> = Arc::new(
        io::read_store(BufReader::new(file)).map_err(|e| format!("cannot parse {dataset}: {e}"))?,
    );
    eprintln!(
        "loaded {} graphs ({} vertices) from {dataset} in {:.2?}",
        store.len(),
        store.total_vertices(),
        t.elapsed()
    );

    let method_name = flags.get("method").map(String::as_str).unwrap_or("ggsx");
    let t = Instant::now();
    let method = build_method(method_name, &store)?;
    eprintln!("built {method_name} index in {:.2?}", t.elapsed());

    let engine_config = engine_config(&flags)?;
    let server_config = server_config(&flags)?;

    let (engine, follower): (Arc<dyn QueryEngine>, Option<Follower>) =
        match flags.get("follower-of") {
            None => {
                let engine = IgqEngine::new(method, engine_config)
                    .map_err(|e| format!("invalid engine configuration: {e}"))?;
                (Arc::new(engine), None)
            }
            Some(primary) => {
                // The snapshot carries only iGQ state; the dataset and
                // base method are rebuilt locally, once per (re)bootstrap.
                let method_name = method_name.to_owned();
                let store = Arc::clone(&store);
                let build: BuildFollower = Arc::new(move |snapshot: &[u8]| {
                    let method = build_method(&method_name, &store)?;
                    let engine = IgqEngine::open_follower(method, engine_config, snapshot)
                        .map_err(|e| format!("snapshot rejected: {e}"))?;
                    Ok(Arc::new(engine) as Arc<dyn QueryEngine>)
                });
                drop(method); // the builder closure makes its own
                let upstreams: Vec<String> = primary
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if upstreams.is_empty() {
                    return Err("--follower-of expects at least one address".into());
                }
                let policy = failover_policy(&flags)?;
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

    let server = Server::spawn(engine, server_config).map_err(|e| format!("cannot bind: {e}"))?;
    // Parseable by harnesses (the CI smoke greps this line for the port).
    println!("listening on {}", server.local_addr());
    server.wait();
    if let Some(f) = follower {
        f.shutdown();
    }
    eprintln!("shutdown complete");
    Ok(())
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected positional argument {a:?} (see --help)"));
        };
        // Peek-then-next without an `expect`: a racing iterator state can
        // only mean "no value", never a panic on the parse path.
        match it.peek() {
            Some(v) if !v.starts_with("--") => {
                let value = it.next().cloned().unwrap_or_default();
                flags.insert(name.to_owned(), value);
            }
            _ => {
                flags.insert(name.to_owned(), String::from("true"));
            }
        }
    }
    Ok(flags)
}

fn parse_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("--{key} expects a number")),
    }
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

fn engine_config(flags: &HashMap<String, String>) -> Result<IgqConfig, String> {
    IgqConfig::builder()
        .cache_capacity(parse_num(flags, "cache", 500)?)
        .window(parse_num(flags, "window", 100)?)
        .shards(parse_num(flags, "shards", 1)?)
        .build()
        .map_err(|e| format!("invalid iGQ configuration: {e}"))
}

fn failover_policy(flags: &HashMap<String, String>) -> Result<FailoverPolicy, String> {
    let mut policy = FailoverPolicy::default();
    policy.heartbeat_timeout = Duration::from_millis(parse_num(
        flags,
        "heartbeat-timeout-ms",
        policy.heartbeat_timeout.as_millis() as u64,
    )?);
    policy.promote_on_timeout = flags.contains_key("promote-on-timeout");
    policy.rounds_before_promote =
        parse_num(flags, "promote-rounds", policy.rounds_before_promote)?;
    Ok(policy)
}

fn server_config(flags: &HashMap<String, String>) -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        addr: flags
            .get("listen")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7461".to_owned()),
        ..ServerConfig::default()
    };
    config.max_connections = parse_num(flags, "max-connections", config.max_connections)?;
    config.batch_window = Duration::from_micros(parse_num(flags, "batch-window-us", 0u64)?);
    config.batch_max = parse_num(flags, "batch-max", config.batch_max)?;
    config.io_timeout = Duration::from_millis(parse_num(flags, "io-timeout-ms", 30_000u64)?);
    Ok(config)
}
