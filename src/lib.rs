//! # igq — facade crate
//!
//! Re-exports the whole iGQ reproduction workspace under one roof so that
//! examples, integration tests, and downstream users can depend on a single
//! crate:
//!
//! * [`graph`] — labeled undirected graphs, stores, stats, IO;
//! * [`iso`] — the subgraph-isomorphism matcher and the cost model;
//! * [`features`] — path/tree/cycle features, tries, fingerprints;
//! * [`methods`] — GGSX, Grapes, CT-Index, and the naive oracle;
//! * [`core`] — the iGQ engine itself (query indexes, cache, replacement);
//! * [`server`] — the TCP serving front end (line-framed JSON protocol,
//!   micro-batching, admission control) and its typed client;
//! * [`workload`] — dataset synthesizers and query generators.
//!
//! ## Quickstart
//!
//! ```
//! use igq::prelude::*;
//! use std::sync::Arc;
//!
//! // A tiny dataset of three labeled graphs.
//! let store: Arc<GraphStore> = Arc::new(
//!     vec![
//!         graph_from(&[0, 1, 0], &[(0, 1), (1, 2)]),
//!         graph_from(&[0, 1], &[(0, 1)]),
//!         graph_from(&[2, 2], &[(0, 1)]),
//!     ]
//!     .into_iter()
//!     .collect(),
//! );
//!
//! // Wrap any filter-then-verify method with the iGQ engine. The engine
//! // is a shared service: `query` takes `&self`, so an `Arc` fans it
//! // out across threads.
//! let method = Ggsx::build(&store, GgsxConfig::default());
//! let config = IgqConfig::builder().build().expect("valid config");
//! let engine = IgqEngine::new(method, config).expect("valid engine");
//!
//! // Ask a subgraph query: which graphs contain a 0–1 labeled edge?
//! let q = graph_from(&[0, 1], &[(0, 1)]);
//! let out = engine.query(&q);
//! assert_eq!(out.answers.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub use igq_core as core;
pub use igq_features as features;
pub use igq_graph as graph;
pub use igq_iso as iso;
pub use igq_methods as methods;
pub use igq_server as server;
pub use igq_workload as workload;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use igq_core::{
        CacheStore, ConfigError, DirStore, IgqConfig, IgqEngine, IgqSuperEngine, MemStore,
        PersistError, PersistenceConfig, QueryEngine, QueryOutcome, QueryRequest, QueryResponse,
        ReplacementPolicy,
    };
    pub use igq_features::PathConfig;
    pub use igq_graph::{
        graph_from, graph_from_el, Graph, GraphBuilder, GraphId, GraphProfile, GraphStore, LabelId,
        VertexId,
    };
    pub use igq_iso::MatchSemantics;
    pub use igq_methods::{
        CtIndex, CtIndexConfig, GCode, GCodeConfig, Ggsx, GgsxConfig, Grapes, GrapesConfig,
        NaiveMethod, SubgraphMethod,
    };
    pub use igq_workload::{
        DatasetKind, Distribution, QueryGenerator, QueryWorkloadSpec, WorkloadBuilder,
    };
}
