//! Per-layer metrics: each layer measured from outside, either by calling
//! its public entry points directly on sampled queries, or from the spans
//! and counts the wrappers took inside a running engine.

use crate::drive::{closed_loop, engine_config, Caller, Engine, Env, Res, Round, SPAN_APPLY};
use crate::metrics::Values;
use crate::oracle::Oracle;
use crate::stats::median;
use crate::trace::{totals_by_name, NameTotals, Span};
use crate::workloads::{Inputs, Path, Workload};
use crate::wrappers::{SPAN_APPEND_WAL, SPAN_FILTER, SPAN_SAVE_CHECKPOINT, SPAN_VERIFY};
use igq_core::{
    CacheStore, IgqConfig, IsubIndex, IsuperIndex, QueryEngine, Resolution, Subscription,
};
use igq_features::{enumerate_paths, PathConfig};
use igq_graph::canon::canonical_code;
use igq_graph::{Graph, GraphId};
use igq_iso::{find_with_plan, with_thread_scratch, MatchPlan};
use igq_methods::{batch_label_rarity, SubgraphMethod};
use igq_server::protocol::{read_frame, write_frame};
use igq_server::{
    Client, Reply, Request, Server, ServerConfig, WireResult, DEFAULT_MAX_FRAME_BYTES,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sampled queries for the direct calls.
const SAMPLE: usize = 200;
/// Candidates matched per sampled query.
const CANDIDATES_PER_QUERY: usize = 32;
/// Queries each rung of the serving ladder answers.
const LADDER_QUERIES: usize = 3_000;
/// The micro-batcher's window on the `tcp_batched` rung.
const BATCH_WINDOW: Duration = Duration::from_micros(500);

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn timed<T>(total_ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = black_box(f());
    *total_ns += t.elapsed().as_nanos() as u64;
    out
}

/// Every `len / SAMPLE`-th of the first `len` measured queries.
pub fn sample(queries: &[Graph], len: usize) -> Vec<(usize, &Graph)> {
    let step = (len / SAMPLE).max(1);
    queries[..len].iter().enumerate().step_by(step).collect()
}

/// `graph`, `features` and `iso`, called directly per sampled query.
pub fn direct_calls(inputs: &Inputs, sample: &[(usize, &Graph)], out: &mut Values) {
    let method = &*inputs.method;
    let config = method.match_config();
    let n = sample.len() as f64;
    let (mut canon_ns, mut paths_ns, mut plan_ns, mut match_ns) = (0, 0, 0, 0);
    let (mut paths, mut pairs, mut states, mut found) = (0u64, 0u64, 0u64, 0u64);
    for &(_, q) in sample {
        timed(&mut canon_ns, || canonical_code(q));
        paths +=
            timed(&mut paths_ns, || enumerate_paths(q, &PathConfig::default())).total_occurrences();

        let candidates = method.filter(q).candidates;
        let rarity = batch_label_rarity(&inputs.store, &candidates);
        let plan = timed(&mut plan_ns, || {
            MatchPlan::build(q, &config, &mut |l| rarity(l))
        });
        let step = (candidates.len() / CANDIDATES_PER_QUERY).max(1);
        for &id in candidates.iter().step_by(step).take(CANDIDATES_PER_QUERY) {
            let target = inputs.store.get(id);
            let result = timed(&mut match_ns, || {
                with_thread_scratch(|scratch| find_with_plan(&plan, target, scratch))
            });
            pairs += 1;
            states += result.states;
            found += u64::from(result.outcome.is_found());
        }
    }
    out.insert("graph.canonical_code_us", us(canon_ns) / n);
    out.insert("features.enumerate_paths_us", us(paths_ns) / n);
    out.insert("features.paths_per_query", paths as f64 / n);
    out.insert("iso.plan_build_us", us(plan_ns) / n);
    out.insert(
        "iso.match_us_per_candidate",
        ratio(us(match_ns), pairs as f64),
    );
    out.insert("iso.states_per_match", ratio(states as f64, pairs as f64));
    out.insert("iso.found_share", ratio(found as f64, pairs as f64));
}

/// `Isub` and `Isuper`, rebuilt outside the engine from its cache
/// contents and probed with the sampled queries.
pub fn query_indexes(
    entries: &[(Graph, Vec<GraphId>)],
    path_config: PathConfig,
    sample: &[(usize, &Graph)],
    out: &mut Values,
) {
    let slots = || {
        entries
            .iter()
            .enumerate()
            .map(|(slot, (g, _))| (slot, Arc::new(g.clone())))
    };
    let n = sample.len() as f64;
    let features: Vec<_> = sample
        .iter()
        .map(|(_, q)| enumerate_paths(q, &path_config))
        .collect();

    let (mut build_ns, mut probe_ns, mut hits) = (0, 0, 0usize);
    let isub = timed(&mut build_ns, || IsubIndex::build(slots(), path_config));
    for ((_, q), qf) in sample.iter().zip(&features) {
        hits += timed(&mut probe_ns, || isub.supergraphs_of(q, qf)).0.len();
    }
    out.insert("core.isub.probe_us", us(probe_ns) / n);
    out.insert("core.isub.hits_per_probe", hits as f64 / n);
    out.insert("core.isub.build_s", build_ns as f64 / 1e9);
    out.insert("core.isub.heap_bytes", isub.heap_size_bytes() as f64);

    let (mut build_ns, mut probe_ns, mut hits) = (0, 0, 0usize);
    let isuper = timed(&mut build_ns, || IsuperIndex::build(slots(), path_config));
    for ((_, q), qf) in sample.iter().zip(&features) {
        hits += timed(&mut probe_ns, || isuper.subgraphs_of(q, qf)).0.len();
    }
    out.insert("core.isuper.probe_us", us(probe_ns) / n);
    out.insert("core.isuper.hits_per_probe", hits as f64 / n);
    out.insert("core.isuper.build_s", build_ns as f64 / 1e9);
    out.insert("core.isuper.heap_bytes", isuper.heap_size_bytes() as f64);
}

/// The wire codec on in-memory buffers: what a client pays to encode one
/// `query` frame and to decode its `result` frame.
pub fn protocol(oracle: &Oracle, sample: &[(usize, &Graph)], out: &mut Values) -> Res<()> {
    let n = sample.len() as f64;
    let (mut encode_ns, mut decode_ns) = (0, 0);
    let (mut request_bytes, mut reply_bytes) = (0usize, 0usize);
    let (mut request, mut reply) = (Vec::new(), Vec::new());
    for &(i, q) in sample {
        request.clear();
        timed(&mut encode_ns, || {
            let frame = Request::Query {
                id: i as u64,
                graph: q.clone(),
                deadline_ms: None,
                skip_admission: false,
                max_lag: None,
            };
            write_frame(&mut request, &frame)
        })
        .map_err(|e| e.to_string())?;
        request_bytes += request.len();

        let expected = oracle.expect(0, i);
        let frame = Reply::Result {
            id: i as u64,
            result: WireResult {
                answers: expected.answers.clone(),
                resolution: Resolution::Verified,
                db_iso_tests: expected.iso_tests,
                elapsed_us: expected.time_ns / 1_000,
                deadline_exceeded: false,
                batched_with: 1,
            },
        };
        reply.clear();
        write_frame(&mut reply, &frame).map_err(|e| e.to_string())?;
        reply_bytes += reply.len();
        let decoded = timed(&mut decode_ns, || {
            read_frame(
                &mut reply.as_slice(),
                DEFAULT_MAX_FRAME_BYTES,
                Reply::from_value,
            )
        })
        .map_err(|e| e.to_string())?;
        if decoded != Some(frame) {
            return Err("a reply frame did not survive its round trip".into());
        }
    }
    out.insert("server.protocol.encode_request_us", us(encode_ns) / n);
    out.insert("server.protocol.decode_reply_us", us(decode_ns) / n);
    out.insert("server.protocol.request_bytes", request_bytes as f64 / n);
    out.insert("server.protocol.reply_bytes", reply_bytes as f64 / n);
    Ok(())
}

/// Everything read off one traced round: the wrappers' spans and counts,
/// the engine's own counters over the same queries, and the follower's
/// and the restart's timings.
pub fn from_traced_round(w: &Workload, round: &Round, spans: &[Span], out: &mut Values) {
    let n = round.shots.len() as f64;
    let totals = totals_by_name(spans);
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let layers = &round.layers;

    let (filter, verify) = (of(SPAN_FILTER), of(SPAN_VERIFY));
    let verified = layers.candidates_verified as f64;
    out.insert("methods.filter_us_per_query", us(filter.total_ns) / n);
    out.insert("methods.filter_calls", filter.count as f64);
    out.insert("methods.verify_us_per_query", us(verify.total_ns) / n);
    out.insert(
        "methods.verify_us_per_candidate",
        ratio(us(verify.total_ns), verified),
    );
    out.insert("methods.verify_calls", verify.count as f64);
    out.insert("methods.candidates_per_query", verified / n);
    out.insert(
        "methods.answer_share",
        ratio(layers.answers_verified as f64, verified),
    );

    // The engine's span is what the engine itself observed per query; on
    // the TCP path that is the only view of it a client gets.
    let persist = totals
        .iter()
        .filter(|(name, _)| name.starts_with("core.persist."))
        .fold(NameTotals::default(), |acc, (_, t)| NameTotals {
            count: acc.count + t.count,
            total_ns: acc.total_ns + t.total_ns,
            self_ns: acc.self_ns + t.self_ns,
        });
    let engine_ns: u64 = round.shots.iter().map(|s| s.engine_ns).sum();
    let self_ns = engine_ns.saturating_sub(filter.total_ns + verify.total_ns + persist.total_ns);
    out.insert("core.engine.self_us_per_query", us(self_ns) / n);
    out.insert(
        "core.engine.self_share",
        ratio(self_ns as f64, engine_ns as f64),
    );

    let (a, b) = (&round.after, &round.before);
    let d = |f: fn(&igq_core::EngineStats) -> u64| (f(a) - f(b)) as f64;
    let secs = |f: fn(&igq_core::EngineStats) -> Duration| (f(a) - f(b)).as_secs_f64();
    let before = d(|s| s.candidates_before);
    out.insert("core.engine.exact_hit_share", d(|s| s.exact_hits) / n);
    out.insert(
        "core.engine.empty_shortcut_share",
        d(|s| s.empty_shortcuts) / n,
    );
    out.insert(
        "core.engine.pruned_share",
        ratio(before - d(|s| s.candidates_after), before),
    );
    out.insert(
        "core.engine.pruned_by_isub_per_query",
        d(|s| s.pruned_by_isub) / n,
    );
    out.insert(
        "core.engine.pruned_by_isuper_per_query",
        d(|s| s.pruned_by_isuper) / n,
    );
    out.insert(
        "core.engine.igq_iso_tests_per_query",
        d(|s| s.igq_iso_tests) / n,
    );
    let plan_hits = d(|s| s.plan_cache_hits);
    out.insert(
        "core.engine.plan_cache_hit_share",
        ratio(plan_hits, plan_hits + d(|s| s.plan_cache_misses)),
    );
    out.insert("core.engine.flip_count", d(|s| s.maintenances));
    out.insert("core.engine.maintenance_s", secs(|s| s.maintenance_time));
    let wall = secs(|s| s.wall_time);
    let staged = secs(|s| s.filter_time) + secs(|s| s.igq_time) + secs(|s| s.verify_time);
    out.insert(
        "core.engine.stage_unattributed_share",
        ratio(wall - staged, wall),
    );
    out.insert("core.engine.index_bytes", layers.index_bytes as f64);
    out.insert("core.engine.cached_queries", layers.cached_queries as f64);

    let (append, checkpoint) = (of(SPAN_APPEND_WAL), of(SPAN_SAVE_CHECKPOINT));
    let appends = layers.append_wal_calls as f64;
    out.insert("core.persist.append_wal_calls", appends);
    out.insert(
        "core.persist.append_wal_us",
        ratio(us(append.total_ns), appends),
    );
    out.insert(
        "core.persist.wal_bytes_per_flip",
        ratio(layers.wal_bytes as f64, appends),
    );
    out.insert(
        "core.persist.save_checkpoint_calls",
        layers.save_checkpoint_calls as f64,
    );
    out.insert(
        "core.persist.save_checkpoint_ms",
        ratio(checkpoint.total_ns as f64 / 1e6, checkpoint.count as f64),
    );
    out.insert(
        "core.persist.checkpoint_bytes",
        layers.checkpoint_bytes as f64,
    );
    out.insert(
        "core.persist.bytes_per_cached_query",
        ratio(layers.checkpoint_bytes as f64, layers.cached_queries as f64),
    );
    out.insert(
        "core.persist.busy_share",
        ratio(persist.total_ns as f64 / 1e9, round.wall_s),
    );
    out.insert("core.persist.restart_open_s", layers.restart_open_s);
    out.insert(
        "core.persist.restart_replayed_windows",
        layers.restart_replayed_windows as f64,
    );

    let groups = layers.follower_groups as f64;
    out.insert("core.replicate.groups_applied", groups);
    out.insert(
        "core.replicate.apply_us_per_group",
        ratio(us(of(SPAN_APPLY).total_ns), groups),
    );
    out.insert(
        "core.replicate.bytes_per_group",
        ratio(layers.follower_bytes as f64, groups),
    );
    out.insert(
        "core.replicate.follower_busy_share",
        ratio(layers.follower_apply_ns as f64 / 1e9, round.wall_s),
    );
    out.insert(
        "core.replicate.lag_windows_max",
        layers.lag_windows_max as f64,
    );

    let wire: Vec<f64> = match w.path {
        Path::TcpDurable => round
            .shots
            .iter()
            .map(|s| us(s.latency_ns.saturating_sub(s.engine_ns)))
            .collect(),
        _ => Vec::new(),
    };
    out.insert(
        "server.wire_overhead_us",
        if wire.is_empty() { 0.0 } else { median(&wire) },
    );
    out.insert(
        "server.requests_rejected",
        d(|s| s.requests_rejected_overload),
    );
    out.insert("trace.spans", spans.len() as f64);
}

/// One rung of the serving ladder.
#[derive(Clone, Copy)]
struct Rung {
    name: &'static str,
    durable: bool,
    shards: usize,
    tcp: bool,
    batched: bool,
    follower_read: bool,
}

const fn rung(name: &'static str, durable: bool, shards: usize, tcp: bool) -> Rung {
    Rung {
        name,
        durable,
        shards,
        tcp,
        batched: false,
        follower_read: false,
    }
}

const RUNGS: [Rung; 6] = [
    rung("server.ladder.inproc_qps", false, 1, false),
    rung("server.ladder.inproc_wal_qps", true, 1, false),
    rung("server.ladder.inproc_shards2_qps", false, 2, false),
    rung("server.ladder.tcp_qps", true, 1, true),
    Rung {
        batched: true,
        ..rung("server.ladder.tcp_batched_qps", true, 1, true)
    },
    Rung {
        follower_read: true,
        ..rung("server.ladder.follower_read_qps", false, 1, true)
    },
];

/// Names of the ladder's metrics, for the workloads that skip it.
pub fn ladder_names() -> impl Iterator<Item = &'static str> {
    RUNGS
        .iter()
        .map(|r| r.name)
        .chain(["server.batcher.batches_coalesced"])
}

/// The ROADMAP's serving ladder: the same queries and client count up
/// one rung at a time, so what a rung costs is one subtraction. Returns
/// the number of wrong answers seen on the way.
pub fn ladder(
    env: &Env,
    w: &Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    out: &mut Values,
) -> Res<u64> {
    let stream = &inputs.streams[0];
    let queries = &stream.measured[..LADDER_QUERIES.min(w.traced_prefix())];
    let mut failed = 0;
    for rung in RUNGS {
        let config = IgqConfig {
            shards: rung.shards,
            ..engine_config(w)
        };
        let dir = env.fresh_dir();
        let engine = if rung.durable {
            let store = env.open_store(&dir)? as Arc<dyn CacheStore>;
            Engine::open(env.method(inputs), config, store).map_err(|e| e.to_string())?
        } else {
            Engine::new(env.method(inputs), config).map_err(|e| e.to_string())?
        };
        for q in &stream.warmup {
            engine.query(q);
        }
        // A follower serves reads from the state its primary had after
        // answering these same queries.
        let engine = if rung.follower_read {
            for q in queries {
                engine.query(q);
            }
            let Subscription::Snapshot { checkpoint, .. } = engine.subscribe_replication(None)
            else {
                return Err("a first subscriber must be given a snapshot".into());
            };
            Engine::open_follower(env.method(inputs), config, &checkpoint)
                .map_err(|e| e.to_string())?
        } else {
            engine
        };
        let engine = Arc::new(engine);
        let before = engine.stats();

        let server = if rung.tcp {
            let config = ServerConfig {
                batch_window: if rung.batched {
                    BATCH_WINDOW
                } else {
                    Duration::ZERO
                },
                ..ServerConfig::default()
            };
            let serving = Arc::clone(&engine) as Arc<dyn QueryEngine>;
            Some(Server::spawn(serving, config).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let callers = (0..w.clients)
            .map(|_| match &server {
                Some(server) => Client::connect(server.local_addr(), "igq-benchmark-ladder")
                    .map(Caller::Wire)
                    .map_err(|e| e.to_string()),
                None => Ok(Caller::Engine(&engine)),
            })
            .collect::<Res<Vec<_>>>()?;

        let t = Instant::now();
        let (shots, _) = closed_loop(callers, queries, 0, &env.tracer, (oracle, 0), &|| ());
        engine.sync_maintenance();
        let wall = t.elapsed().as_secs_f64();

        failed += shots.iter().filter(|s| !s.ok).count() as u64;
        out.insert(rung.name, queries.len() as f64 / wall);
        if rung.batched {
            let coalesced = engine.stats().batches_coalesced - before.batches_coalesced;
            out.insert("server.batcher.batches_coalesced", coalesced as f64);
        }
        if let Some(server) = server {
            server.shutdown();
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(failed)
}
