//! Starts a workload's serving stack, drives one query stream through it
//! in a closed loop, checks every answer, and takes the stack down.
//!
//! [`start`] is everything that counts as set-up after the inputs exist:
//! engine, store, server, connections, follower, warm-up queries.
//! [`measure`] is the measured phase plus the checks that follow it.

use crate::oracle::Oracle;
use crate::trace::{Tracer, NONE};
use crate::workloads::{Inputs, Path, Workload};
use crate::wrappers::{MethodCounts, Probe, TimedStore};
use igq_core::{
    CacheStore, DirStore, EngineStats, IgqConfig, IgqEngine, QueryEngine, Subscription,
};
use igq_graph::{Graph, GraphId};
use igq_methods::Ggsx;
use igq_server::{Client, QueryVerdict, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub type Method = Probe<Ggsx>;
pub type Engine = IgqEngine<Method>;
pub type Store = TimedStore<DirStore>;
pub type Res<T> = Result<T, String>;

pub const SPAN_QUERY: &str = "core.engine.query";
pub const SPAN_CLIENT: &str = "server.client.query";
pub const SPAN_APPLY: &str = "core.replicate.apply";

/// The follower and the reopened engine answer every 50th measured query.
const SAMPLE_EVERY: usize = 50;
/// The follower's lag behind the primary is sampled this often.
const LAG_EVERY: usize = 1_000;
/// A restart may replay at most one checkpoint cadence of flips.
const MAX_REPLAYED_WINDOWS: u64 = 8;

/// What outlives a single stack: the span sink and the directory that
/// holds every store this process creates.
pub struct Env {
    pub tracer: Arc<Tracer>,
    run_dir: PathBuf,
    next_dir: AtomicUsize,
}

impl Env {
    /// `run_dir` is created now and removed when the `Env` drops.
    pub fn new(run_dir: PathBuf) -> Res<Env> {
        std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
        Ok(Env {
            tracer: Arc::new(Tracer::new()),
            run_dir,
            next_dir: AtomicUsize::new(0),
        })
    }

    pub fn fresh_dir(&self) -> PathBuf {
        self.run_dir
            .join(format!("store-{}", self.next_dir.fetch_add(1, Relaxed)))
    }

    pub fn method(&self, inputs: &Inputs) -> Method {
        Probe::new(Arc::clone(&inputs.method), Arc::clone(&self.tracer))
    }

    pub fn open_store(&self, dir: &std::path::Path) -> Res<Arc<Store>> {
        let store = DirStore::open(dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
        Ok(Arc::new(TimedStore::new(store, Arc::clone(&self.tracer))))
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.run_dir);
        // The shared parent goes too once the last process has left it.
        if let Some(parent) = self.run_dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The engine configuration of a workload: `C`, `W`, and otherwise the
/// `igq-server` defaults (`Incremental`, checkpoint every 8 flips).
pub fn engine_config(w: &Workload) -> IgqConfig {
    IgqConfig::builder()
        .cache_capacity(w.cache)
        .window(w.window)
        .build()
        .expect("every workload has 1 <= W <= C")
}

/// What the follower thread did, and the follower itself.
pub struct FollowerReport {
    pub engine: Engine,
    pub groups: u64,
    pub bytes: u64,
    pub apply_ns: u64,
    pub errors: u64,
}

struct FollowerThread {
    handle: JoinHandle<FollowerReport>,
    applied_seq: Arc<AtomicU64>,
}

/// A started, warmed-up serving stack.
pub struct Live {
    engine: Arc<Engine>,
    method_counts: Arc<MethodCounts>,
    store: Option<Arc<Store>>,
    dir: Option<PathBuf>,
    server: Option<Server>,
    clients: Vec<Client>,
    follower: Option<FollowerThread>,
}

/// Builds the stack of `w` and sends it the warm-up queries of `stream`.
pub fn start(env: &Env, w: &Workload, inputs: &Inputs, stream: usize) -> Res<Live> {
    let config = engine_config(w);
    let method = env.method(inputs);
    let method_counts = Arc::clone(&method.counts);
    let (engine, store, dir) = match w.path {
        Path::InProcess => {
            let engine = Engine::new(method, config).map_err(|e| e.to_string())?;
            (engine, None, None)
        }
        Path::TcpDurable | Path::ChurnReplicated => {
            let dir = env.fresh_dir();
            let store = env.open_store(&dir)?;
            let engine = Engine::open(method, config, Arc::clone(&store) as Arc<dyn CacheStore>)
                .map_err(|e| e.to_string())?;
            (engine, Some(store), Some(dir))
        }
    };
    let mut live = Live {
        engine: Arc::new(engine),
        method_counts,
        store,
        dir,
        server: None,
        clients: Vec::new(),
        follower: None,
    };
    let warmup = &inputs.streams[stream].warmup;
    if w.path == Path::TcpDurable {
        let engine = Arc::clone(&live.engine) as Arc<dyn QueryEngine>;
        let server = Server::spawn(engine, ServerConfig::default()).map_err(|e| e.to_string())?;
        for _ in 0..w.clients {
            let client =
                Client::connect(server.local_addr(), "igq-benchmark").map_err(|e| e.to_string())?;
            live.clients.push(client);
        }
        live.server = Some(server);
        for q in warmup {
            ask_wire(&mut live.clients[0], q)?;
        }
    } else {
        for q in warmup {
            live.engine.query(q);
        }
    }
    live.engine.sync_maintenance();
    if w.path == Path::ChurnReplicated {
        live.follower = Some(start_follower(env, &live.engine, inputs, config)?);
    }
    Ok(live)
}

fn start_follower(
    env: &Env,
    primary: &Engine,
    inputs: &Inputs,
    config: IgqConfig,
) -> Res<FollowerThread> {
    let Subscription::Snapshot {
        checkpoint, feed, ..
    } = primary.subscribe_replication(None)
    else {
        return Err("a first subscriber must be given a snapshot".into());
    };
    let follower = Engine::open_follower(env.method(inputs), config, &checkpoint)
        .map_err(|e| format!("follower: {e}"))?;
    let applied_seq = Arc::new(AtomicU64::new(follower.stats().last_applied_seq));
    let (applied, tracer) = (Arc::clone(&applied_seq), Arc::clone(&env.tracer));
    let handle = std::thread::Builder::new()
        .name("bench-follower".into())
        .spawn(move || {
            let (mut groups, mut bytes, mut apply_ns, mut errors) = (0, 0, 0, 0);
            // Ends when the primary drops and the feed disconnects.
            while let Some(group) = feed.recv() {
                let _span = tracer.root(SPAN_APPLY, NONE);
                let t = Instant::now();
                match follower.apply_replica_delta(&group.bytes) {
                    Ok(seq) => applied.store(seq, Relaxed),
                    Err(_) => errors += 1,
                }
                apply_ns += t.elapsed().as_nanos() as u64;
                groups += 1;
                bytes += group.bytes.len() as u64;
            }
            FollowerReport {
                engine: follower,
                groups,
                bytes,
                apply_ns,
                errors,
            }
        })
        .map_err(|e| e.to_string())?;
    Ok(FollowerThread {
        handle,
        applied_seq,
    })
}

impl Live {
    /// Takes the stack down without measuring (set-up timing only).
    pub fn discard(self) -> Res<()> {
        let Live {
            engine,
            server,
            clients,
            follower,
            dir,
            ..
        } = self;
        drop(clients);
        if let Some(server) = server {
            server.shutdown();
        }
        drop(engine);
        if let Some(f) = follower {
            f.handle.join().map_err(|_| "follower thread panicked")?;
        }
        remove_dir(dir)
    }
}

fn remove_dir(dir: Option<PathBuf>) -> Res<()> {
    match dir {
        Some(dir) => std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display())),
        None => Ok(()),
    }
}

/// One answer as the client saw it.
struct Reply {
    answers: Vec<GraphId>,
    iso_tests: u64,
    engine_ns: u64,
}

fn ask_wire(client: &mut Client, q: &Graph) -> Res<Reply> {
    match client.query(q).map_err(|e| e.to_string())? {
        QueryVerdict::Answered(r) => Ok(Reply {
            answers: r.answers,
            iso_tests: r.db_iso_tests,
            engine_ns: r.elapsed_us * 1_000,
        }),
        QueryVerdict::Overloaded { .. } => Err("refused: overloaded".into()),
    }
}

fn ask_engine(engine: &Engine, q: &Graph) -> Reply {
    let out = engine.query(q);
    Reply {
        engine_ns: out.total_time().as_nanos() as u64,
        answers: out.answers,
        iso_tests: out.db_iso_tests,
    }
}

/// Where a closed-loop client sends its queries.
pub enum Caller<'a> {
    Engine(&'a Engine),
    Wire(Client),
}

/// One measured query's result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shot {
    pub latency_ns: u64,
    pub engine_ns: u64,
    pub iso_tests: u64,
    pub ok: bool,
}

/// Closed loop, zero think time: client `c` of `callers.len()` sends
/// queries `c, c + clients, ...` of `queries`, each only after its
/// previous answer arrived, and is checked against the oracle's answer
/// for query `i` of `stream`. Returns the shots in stream order and the
/// time at which the first `prefix` queries were all answered.
pub fn closed_loop(
    callers: Vec<Caller<'_>>,
    queries: &[Graph],
    prefix: usize,
    tracer: &Tracer,
    (oracle, stream): (&Oracle, usize),
    tick: &(dyn Fn() + Sync),
) -> (Vec<Shot>, f64) {
    let clients = callers.len();
    let span_name = match callers.first() {
        Some(Caller::Wire(_)) => SPAN_CLIENT,
        _ => SPAN_QUERY,
    };
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Shot>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(c, mut caller)| {
                scope.spawn(move || {
                    let mut shots = Vec::with_capacity(queries.len() / clients + 1);
                    let mut prefix_done = 0.0;
                    for i in (c..queries.len()).step_by(clients) {
                        let q = &queries[i];
                        let t = Instant::now();
                        let reply = {
                            let _span = tracer.root(span_name, i as u32);
                            match &mut caller {
                                Caller::Engine(engine) => Ok(ask_engine(engine, q)),
                                Caller::Wire(client) => ask_wire(client, q),
                            }
                        };
                        let latency_ns = t.elapsed().as_nanos() as u64;
                        shots.push(match reply {
                            Ok(r) => Shot {
                                latency_ns,
                                engine_ns: r.engine_ns,
                                iso_tests: r.iso_tests,
                                ok: oracle.expect(stream, i).answers == r.answers,
                            },
                            Err(_) => Shot {
                                latency_ns,
                                ..Shot::default()
                            },
                        });
                        if i < prefix {
                            prefix_done = t0.elapsed().as_secs_f64();
                        }
                        if (i + 1) % LAG_EVERY == 0 {
                            tick();
                        }
                    }
                    (shots, prefix_done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let prefix_wall = per_client.iter().map(|p| p.1).fold(0.0, f64::max);
    let mut shots = vec![Shot::default(); queries.len()];
    for (c, (client_shots, _)) in per_client.into_iter().enumerate() {
        for (k, shot) in client_shots.into_iter().enumerate() {
            shots[c + k * clients] = shot;
        }
    }
    (shots, prefix_wall)
}

/// What one measured pass over one stream produced.
pub struct Round {
    /// Wall-clock of the measured phase, final `sync_maintenance` included.
    pub wall_s: f64,
    /// Wall-clock at which the traced prefix was fully answered.
    pub prefix_wall_s: f64,
    pub shots: Vec<Shot>,
    pub attempted: u64,
    pub failed: u64,
    /// Engine counters after the warm-up and after the measured phase.
    pub before: EngineStats,
    pub after: EngineStats,
    pub layers: LayerData,
}

/// Counts and timings taken around the layers while the round ran.
#[derive(Default)]
pub struct LayerData {
    pub candidates_verified: u64,
    pub answers_verified: u64,
    pub index_bytes: u64,
    pub cached_queries: u64,
    pub append_wal_calls: u64,
    pub wal_bytes: u64,
    pub save_checkpoint_calls: u64,
    pub checkpoint_bytes: u64,
    pub restart_open_s: f64,
    pub restart_replayed_windows: u64,
    pub follower_groups: u64,
    pub follower_bytes: u64,
    pub follower_apply_ns: u64,
    pub lag_windows_max: u64,
    /// The cache contents at the end of the measured phase.
    pub entries: Vec<(Graph, Vec<GraphId>)>,
}

/// A failed check: counted as one attempt and one failure.
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn require(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Drives the first `n` measured queries of `stream` through `live`,
/// checks every answer against `oracle`, then checks and dismantles the
/// stack. Spans are recorded during the measured phase iff `traced`.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    env: &Env,
    w: &Workload,
    live: Live,
    inputs: &Inputs,
    oracle: &Oracle,
    stream: usize,
    n: usize,
    traced: bool,
) -> Res<Round> {
    let Live {
        engine,
        method_counts,
        store,
        dir,
        server,
        clients,
        follower,
    } = live;
    let queries = &inputs.streams[stream].measured[..n];
    let before = engine.stats();
    let lag_max = AtomicU64::new(0);
    let tick = || {
        if let Some(f) = &follower {
            let lag = engine
                .stats()
                .last_applied_seq
                .saturating_sub(f.applied_seq.load(Relaxed));
            lag_max.fetch_max(lag, Relaxed);
        }
    };
    let callers: Vec<Caller<'_>> = if clients.is_empty() {
        (0..w.clients).map(|_| Caller::Engine(&engine)).collect()
    } else {
        clients.into_iter().map(Caller::Wire).collect()
    };
    if traced {
        // Four spans per query is the most any path records.
        env.tracer.enable(4 * n + 1024);
    }
    let t0 = Instant::now();
    let (shots, prefix_wall_s) = closed_loop(
        callers,
        queries,
        w.traced_prefix(),
        &env.tracer,
        (oracle, stream),
        &tick,
    );
    engine.sync_maintenance();
    let wall_s = t0.elapsed().as_secs_f64();
    env.tracer.disable();

    let after = engine.stats();
    let mut checks = Checks {
        attempted: n as u64,
        failed: shots.iter().filter(|s| !s.ok).count() as u64,
    };
    let mut layers = LayerData {
        candidates_verified: method_counts.candidates_verified.load(Relaxed),
        answers_verified: method_counts.answers.load(Relaxed),
        index_bytes: engine.igq_index_size_bytes(),
        cached_queries: engine.cached_queries() as u64,
        lag_windows_max: lag_max.load(Relaxed),
        ..LayerData::default()
    };
    if let Some(store) = &store {
        layers.append_wal_calls = store.counts.append_wal_calls.load(Relaxed);
        layers.wal_bytes = store.counts.wal_bytes.load(Relaxed);
        layers.save_checkpoint_calls = store.counts.save_checkpoint_calls.load(Relaxed);
        layers.checkpoint_bytes = store.counts.checkpoint_bytes.load(Relaxed);
    }
    if traced {
        layers.entries = engine.export_entries();
    }

    if let Some(server) = server {
        server.shutdown();
    }
    if w.path == Path::ChurnReplicated {
        checks.require(engine.checkpoint().is_ok(), "final checkpoint");
    }
    checks.require(engine.self_check().is_ok(), "primary self_check");
    drop(store);
    let engine = Arc::try_unwrap(engine).map_err(|_| "the engine is still shared")?;
    drop(engine);

    if let Some(f) = follower {
        let dir = dir.as_deref().expect("a replicated workload has a store");
        let report = f.handle.join().map_err(|_| "follower thread panicked")?;
        layers.follower_groups = report.groups;
        layers.follower_bytes = report.bytes;
        layers.follower_apply_ns = report.apply_ns;
        checks.require(report.errors == 0, "every delta group applies");
        checks.require(
            report.engine.stats().last_applied_seq == after.last_applied_seq,
            "the follower applied every flip",
        );
        let sample = || (0..n).step_by(SAMPLE_EVERY);
        let agrees =
            |e: &Engine, i: usize| e.query(&queries[i]).answers == oracle.expect(stream, i).answers;
        for i in sample() {
            checks.require(agrees(&report.engine, i), "follower answer");
        }
        checks.require(report.engine.self_check().is_ok(), "follower self_check");
        drop(report);

        let t = Instant::now();
        let reopened = Engine::open(
            env.method(inputs),
            engine_config(w),
            env.open_store(dir)? as Arc<dyn CacheStore>,
        )
        .map_err(|e| format!("reopen: {e}"))?;
        layers.restart_open_s = t.elapsed().as_secs_f64();
        layers.restart_replayed_windows = reopened.stats().recovery_replayed_windows;
        checks.require(
            layers.restart_replayed_windows <= MAX_REPLAYED_WINDOWS,
            "restart replays at most 8 windows",
        );
        for i in sample() {
            checks.require(agrees(&reopened, i), "reopened engine answer");
        }
        checks.require(reopened.self_check().is_ok(), "reopened self_check");
    }
    remove_dir(dir)?;

    Ok(Round {
        wall_s,
        prefix_wall_s,
        shots,
        attempted: checks.attempted,
        failed: checks.failed,
        before,
        after,
        layers,
    })
}

/// A fresh stack on `stream`, warmed up, measured over its first `n`
/// queries, checked and dismantled.
pub fn round(
    env: &Env,
    w: &Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    stream: usize,
    n: usize,
    traced: bool,
) -> Res<Round> {
    let live = start(env, w, inputs, stream)?;
    measure(env, w, live, inputs, oracle, stream, n, traced)
}
