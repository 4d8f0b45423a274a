//! The four workloads: their sizes, and how their inputs are made from
//! the seed.
//!
//! The dataset is a fixture (one fixed AIDS-like database per workload);
//! `--seed` drives the query streams. A Zipf stream's cost is decided by
//! which few dataset graphs are hot, so re-drawing the database per seed
//! would swing every metric by ±40% and no bound could hold; re-drawing
//! only the traffic keeps the spread between seeds a few percent while a
//! second seed still sends queries the first one never did.

use igq_graph::{Graph, GraphStore};
use igq_methods::{Ggsx, GgsxConfig};
use igq_workload::{DatasetKind, QueryWorkloadSpec, DEFAULT_ALPHA};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the fixed dataset (the workspace's canonical dataset seed) and
/// the default `--seed`.
pub const DEFAULT_SEED: u64 = 0x1609_2016;

/// How queries reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `IgqEngine::query` on an engine without a store.
    InProcess,
    /// `igq_server::Client` connections to a `Server` over a `DirStore`.
    TcpDurable,
    /// In-process over a `DirStore`, with a follower applying the
    /// replication feed on a second thread and a restart at the end.
    ChurnReplicated,
}

/// One workload's sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    /// AIDS-like dataset graphs.
    pub graphs: usize,
    /// `true`: zipf-zipf (α = 1.4) stream; `false`: uni-uni.
    pub zipf: bool,
    /// Independent query streams per run, each served by a fresh engine;
    /// their per-stream results are combined, which averages out what
    /// one stream's draw of the Zipf tail happens to cost.
    pub streams: usize,
    /// Measured queries per stream (`N`).
    pub measured: usize,
    /// Cache capacity `C`.
    pub cache: usize,
    /// Window `W`; also the number of warm-up queries per stream.
    pub window: usize,
    /// Closed-loop clients (threads or connections), never above `nproc`.
    pub clients: usize,
}

/// The workloads at full size, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "aids_zipf_inproc",
        path: Path::InProcess,
        graphs: 10_000,
        zipf: true,
        streams: 4,
        measured: 3_000,
        cache: 500,
        window: 100,
        clients: 1,
    },
    Workload {
        name: "aids_uniform_inproc",
        path: Path::InProcess,
        graphs: 10_000,
        zipf: false,
        streams: 2,
        measured: 3_000,
        cache: 500,
        window: 100,
        clients: 1,
    },
    Workload {
        name: "aids_hot_tcp_durable",
        path: Path::TcpDurable,
        graphs: 4_000,
        zipf: true,
        streams: 3,
        measured: 10_000,
        cache: 500,
        window: 100,
        clients: 2,
    },
    Workload {
        name: "aids_churn_replicated",
        path: Path::ChurnReplicated,
        graphs: 1_000,
        zipf: false,
        streams: 3,
        measured: 6_000,
        cache: 200,
        window: 10,
        clients: 1,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same code path at about 1% of the work, for `--smoke`. `N`
    /// stays at 1 000 so that p99 keeps ten samples beyond it.
    pub fn smoke(self) -> Workload {
        let churn = self.path == Path::ChurnReplicated;
        Workload {
            graphs: if churn { 100 } else { 200 },
            streams: 1,
            measured: 1_000,
            cache: if churn { 20 } else { 50 },
            window: if churn { 5 } else { 10 },
            ..self
        }
    }

    /// Queries of the traced pass: the first third of a stream.
    pub fn traced_prefix(&self) -> usize {
        self.measured / 3
    }

    fn index(&self) -> u64 {
        WORKLOADS
            .iter()
            .position(|w| w.name == self.name)
            .expect("a listed workload") as u64
    }
}

/// One query stream: `W` warm-up queries, then `N` measured ones.
pub struct Stream {
    pub warmup: Vec<Graph>,
    pub measured: Vec<Graph>,
}

/// Everything the engine is given: the dataset, the base method's index
/// over it, and the query streams.
pub struct Inputs {
    pub store: Arc<GraphStore>,
    pub method: Arc<Ggsx>,
    pub streams: Vec<Stream>,
    /// Time `Ggsx::build` took.
    pub index_build_s: f64,
}

/// SplitMix64: decorrelates the per-stream seeds derived from `--seed`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates the dataset and the streams, and builds the GGSX index.
pub fn make_inputs(w: &Workload, seed: u64) -> Inputs {
    let store = Arc::new(DatasetKind::Aids.generate(w.graphs, DEFAULT_SEED));
    let streams = (0..w.streams as u64)
        .map(|k| {
            let stream_seed = mix(mix(seed ^ (w.index() << 56)).wrapping_add(k));
            let mut queries = QueryWorkloadSpec::named(
                w.zipf,
                w.zipf,
                DEFAULT_ALPHA,
                w.window + w.measured,
                stream_seed,
            )
            .generate(&store);
            let measured = queries.split_off(w.window);
            Stream {
                warmup: queries,
                measured,
            }
        })
        .collect();
    let t = Instant::now();
    let method = Arc::new(Ggsx::build(&store, GgsxConfig::default()));
    Inputs {
        store,
        method,
        streams,
        index_build_s: t.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let w = Workload::by_name("aids_churn_replicated").unwrap().smoke();
        let (a, b, c) = (make_inputs(&w, 1), make_inputs(&w, 1), make_inputs(&w, 2));
        assert_eq!(a.store, b.store);
        assert_eq!(a.streams[0].measured, b.streams[0].measured);
        assert_eq!(a.streams[0].warmup.len(), w.window);
        assert_eq!(a.streams[0].measured.len(), w.measured);
        assert_eq!(a.store, c.store, "the dataset is a fixture");
        assert_ne!(a.streams[0].measured, c.streams[0].measured);
    }

    #[test]
    fn streams_of_one_seed_differ() {
        let w = Workload {
            streams: 2,
            ..Workload::by_name("aids_zipf_inproc").unwrap().smoke()
        };
        let inputs = make_inputs(&w, 7);
        assert_ne!(inputs.streams[0].measured, inputs.streams[1].measured);
    }

    #[test]
    fn clients_never_exceed_two() {
        assert!(WORKLOADS.iter().all(|w| (1..=2).contains(&w.clients)));
    }
}
