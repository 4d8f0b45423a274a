//! `igq` — command-line front end for the iGQ graph query engine.
//!
//! Subcommands:
//!
//! ```text
//! igq generate --kind aids --count 1000 --seed 42 --out db.gfu
//! igq stats    db.gfu
//! igq query    --dataset db.gfu --queries q.gfu [--method ggsx|grapes|grapes6|ctindex|gcode]
//!              [--no-igq] [--cache 500] [--window 100] [--supergraph]
//!              [--store-dir state/]
//! igq save     --dataset db.gfu --queries q.gfu --store-dir state/   # query + checkpoint
//! igq load     --dataset db.gfu --store-dir state/ [--queries q.gfu] # warm restart
//! igq client   --addr 127.0.0.1:7461 --queries q.gfu [--batch] [--deadline-ms 250]
//!              [--max-lag 3] [--stats] [--shutdown] [--verbose]
//!              [--replica [--from-seq N] [--follow-count N]]
//!              # drive (or tail the replication stream of) a running igq-server
//! ```
//!
//! `--store-dir` makes the engine durable: it is recovered from the
//! directory's checkpoint + WAL on start (empty directory = cold start),
//! appends one WAL record per window flip while serving, and writes a
//! final checkpoint on exit. `save`/`load` are the explicit spellings of
//! the two halves; both must use the same `--cache`/`--window`/`--method`
//! configuration (the store is fingerprinted).
//!
//! Datasets and queries are exchanged in the GFU-like text format of
//! `igq_graph::io` (the format the GraphGrepSX/Grapes distributions use).

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => commands::generate(&args[1..]),
        Some("stats") => commands::stats(&args[1..]),
        Some("query") => commands::query(&args[1..]),
        Some("save") => commands::save(&args[1..]),
        Some("load") => commands::load(&args[1..]),
        Some("client") => commands::client(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "igq — graph query processing with query-graph indexing (EDBT 2016)\n\
         \n\
         usage:\n\
           igq generate --kind <aids|pdbs|ppi|synthetic> --count <n> [--seed <u64>] --out <file>\n\
           igq stats <dataset.gfu>\n\
           igq query --dataset <db.gfu> --queries <q.gfu>\n\
                     [--method <ggsx|grapes|grapes6|ctindex|gcode>] (default ggsx)\n\
                     [--no-igq]          run the base method alone\n\
                     [--cache <C>]       iGQ cache size (default 500)\n\
                     [--window <W>]      iGQ window size (default 100)\n\
                     [--supergraph]      supergraph semantics (contained graphs)\n\
                     [--store-dir <dir>] durable engine: recover from <dir>'s\n\
                                         checkpoint + WAL, keep it updated, and\n\
                                         checkpoint on exit\n\
                     [--verbose]         per-query output\n\
           igq save  --dataset <db.gfu> --queries <q.gfu> --store-dir <dir> [...]\n\
                     run the workload and persist the warm engine state\n\
           igq load  --dataset <db.gfu> --store-dir <dir> [--queries <q.gfu>] [...]\n\
                     warm-restart from <dir> (same --cache/--window as save)\n\
           igq client --addr <host:port> [--queries <q.gfu>]\n\
                     [--batch]           send the whole file as one batch frame\n\
                     [--deadline-ms <D>] per-query wire deadline\n\
                     [--max-lag <L>]     bounded-staleness read: a follower replica\n\
                                         sheds the query while its replication lag\n\
                                         exceeds L window flips\n\
                     [--stats]           print the server's serving stats (incl.\n\
                                         replication, health, + codec counters)\n\
                     [--retry]           retry overloaded/torn queries with\n\
                                         jittered exponential backoff, honoring\n\
                                         the server's retry_after_ms hint\n\
                     [--replica]         subscribe to the server's replication\n\
                                         stream and tail it until caught up\n\
                     [--from-seq <N>]    with --replica: resume after flip N\n\
                     [--follow-count <N>] with --replica: stop after N deltas\n\
                     [--shutdown]        ask the server to shut down\n\
                     [--verbose]         per-query output\n\
                     drive a running igq-server over TCP (see igq-server --help)"
    );
}
