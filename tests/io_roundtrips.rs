//! Cross-crate IO integration: GFU text and serde round-trips over
//! realistic synthesized datasets, plus the engine cache export format.

mod common;

use igq::graph::io;
use igq::prelude::*;
use std::sync::Arc;

#[test]
fn gfu_roundtrip_preserves_all_datasets() {
    for kind in [DatasetKind::Aids, DatasetKind::Pdbs] {
        let store = kind.generate(5, 3);
        let mut buf = Vec::new();
        io::write_store(&mut buf, &store).expect("write");
        let back = io::read_store(&buf[..]).expect("read");
        assert_eq!(store, back, "{}", kind.name());
    }
}

#[test]
fn serde_roundtrip_preserves_store() {
    let store = DatasetKind::Aids.generate(10, 9);
    let json = serde_json::to_string(&store).expect("serialize");
    let back: GraphStore = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(store, back);
}

#[test]
fn exported_cache_roundtrips_through_serde() {
    let store: Arc<GraphStore> = Arc::new(DatasetKind::Aids.generate(60, 5));
    let method = Ggsx::build(&store, GgsxConfig::default());
    let engine = IgqEngine::new(
        method,
        IgqConfig {
            cache_capacity: 16,
            window: 4,
            ..Default::default()
        },
    )
    .expect("valid engine");
    let queries =
        QueryGenerator::new(&store, Distribution::Uniform, Distribution::Uniform, 7).take(12);
    for q in &queries {
        let _ = engine.query(q);
    }
    let exported = engine.export_entries();
    assert!(!exported.is_empty());
    let json = serde_json::to_string(&exported).expect("serialize cache");
    let restored: Vec<(Graph, Vec<GraphId>)> = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(exported, restored);
}

#[test]
fn gfu_queries_equal_in_memory_queries() {
    // Writing queries to GFU and reading them back must not change any
    // answer (vertex order inside the file is the graph's own order).
    let store: Arc<GraphStore> = Arc::new(DatasetKind::Aids.generate(40, 21));
    let queries: GraphStore =
        QueryGenerator::new(&store, Distribution::Uniform, Distribution::Uniform, 3)
            .take(8)
            .into_iter()
            .collect();
    let mut buf = Vec::new();
    io::write_store(&mut buf, &queries).expect("write");
    let back = io::read_store(&buf[..]).expect("read");
    let method = Ggsx::build(&store, GgsxConfig::default());
    for ((_, a), (_, b)) in queries.iter().zip(back.iter()) {
        assert_eq!(method.query(a).0, method.query(b).0);
    }
}
