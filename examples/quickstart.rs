//! Quickstart: build a dataset, wrap a method with iGQ, run queries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use igq::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. A dataset of labeled molecule-like graphs (synthesized AIDS shape).
    let store: Arc<GraphStore> = Arc::new(DatasetKind::Aids.generate(500, 42));
    println!(
        "dataset: {} graphs, {} vertices, {} edges",
        store.len(),
        store.total_vertices(),
        store.total_edges()
    );

    // 2. Index it with GraphGrepSX (any SubgraphMethod works here).
    let method = Ggsx::build(&store, GgsxConfig::default());
    println!(
        "GGSX index: {:.2} KiB",
        method.index_size_bytes() as f64 / 1024.0
    );

    // 3. Wrap the method with the iGQ engine: a 64-query cache, windows
    //    of 8. The builder validates (window ≤ capacity etc.); an `Arc`
    //    shares the engine for fan-out.
    let config = IgqConfig::builder()
        .cache_capacity(64)
        .window(8)
        .build()
        .expect("valid config");
    let engine = Arc::new(IgqEngine::new(method, config).expect("valid engine"));

    // 4. Fire a workload with repetition (Zipf picks), as real query logs
    //    have — from four threads sharing the one engine, as a service
    //    would. Answers are exact regardless of interleaving.
    let mut generator =
        QueryGenerator::new(&store, Distribution::Zipf(1.6), Distribution::Uniform, 7);
    let queries = generator.take(200);

    std::thread::scope(|scope| {
        for (worker, chunk) in queries.chunks(queries.len().div_ceil(4)).enumerate() {
            let e = Arc::clone(&engine);
            scope.spawn(move || {
                for (i, q) in chunk.iter().enumerate() {
                    let out = e.query(q);
                    if i % 40 == 0 {
                        println!(
                            "worker {worker}, query {:>3}: |answers|={:<3} candidates {:>3} -> \
                             {:<3} iso tests {:<3} ({:?})",
                            i,
                            out.answers.len(),
                            out.candidates_before,
                            out.candidates_after,
                            out.db_iso_tests,
                            out.resolution,
                        );
                    }
                }
            });
        }
    });

    // 5. The numbers the paper is about.
    let s = engine.stats();
    println!("\nafter {} queries:", s.queries);
    println!(
        "  avg candidates (method M):   {:.1}",
        s.candidates_before as f64 / s.queries as f64
    );
    println!(
        "  avg candidates (iGQ pruned): {:.1}",
        s.candidates_after as f64 / s.queries as f64
    );
    println!("  db iso tests:                {}", s.db_iso_tests);
    println!("  pruned by Isub:              {}", s.pruned_by_isub);
    println!("  pruned by Isuper:            {}", s.pruned_by_isuper);
    println!("  exact-repeat hits:           {}", s.exact_hits);
    println!("  empty-answer shortcuts:      {}", s.empty_shortcuts);
    println!("  cached queries:              {}", engine.cached_queries());
    println!(
        "  iGQ index size:              {:.2} KiB",
        engine.igq_index_size_bytes() as f64 / 1024.0
    );
}
