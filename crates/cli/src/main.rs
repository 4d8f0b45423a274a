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
//!              # drive (or tail the replication stream of) a running server
//! igq serve    --dataset db.gfu [--listen 127.0.0.1:7461] [--method ggsx]
//!              [--cache 500] [--window 100] [--batch-window-us 0] [--batch-max 64]
//!              [--max-connections 64] [--io-timeout-ms 30000]
//!              [--follower-of <addr>[,<addr>...]] [--heartbeat-timeout-ms 2000]
//!              [--promote-on-timeout] [--promote-rounds 2]
//! ```
//!
//! `--store-dir` makes the engine durable: it is recovered from the
//! directory's checkpoint + WAL on start (empty directory = cold start),
//! appends one WAL record per window flip while serving, and writes a
//! final checkpoint on exit. `save`/`load` are the explicit spellings of
//! the two halves; both must use the same `--cache`/`--window`/`--method`
//! configuration (the store is fingerprinted).
//!
//! `serve` runs the engine behind the TCP protocol of `igq_server` until a
//! client sends a `shutdown` frame. With `--follower-of`, it comes up as a
//! **read replica**: it subscribes to the primary, bootstraps from its
//! snapshot, applies the pushed delta stream, and serves read-only
//! queries (a follower engine admits nothing into its cache). Both
//! servers must load the same dataset file and engine configuration; the
//! snapshot's embedded fingerprints enforce this at bootstrap. The
//! upstream list is comma-separated. A silent primary hang (no delta, no
//! heartbeat for `--heartbeat-timeout-ms`) is treated like a disconnect,
//! and the follower walks the list round-robin. With
//! `--promote-on-timeout`, once every upstream has stayed unreachable for
//! `--promote-rounds` full passes, the follower promotes itself to a
//! writable primary under a new failover epoch, which fences stragglers
//! from the deposed primary.
//!
//! Datasets and queries are exchanged in the GFU-like text format of
//! `igq_graph::io` (the format the GraphGrepSX/Grapes distributions use).

mod commands;

use commands::CliError;
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
        Some("serve") => commands::serve(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if let CliError::Usage(_) = e {
                print_usage();
            }
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
                     [--replica]         subscribe to the server's replication\n\
                                         stream and tail it until caught up\n\
                     [--from-seq <N>]    with --replica: resume after flip N\n\
                     [--follow-count <N>] with --replica: stop after N deltas\n\
                     [--shutdown]        ask the server to shut down\n\
                     [--verbose]         per-query output\n\
                     drive a running `igq serve` over TCP\n\
           igq serve --dataset <db.gfu> [--listen <addr>] [--follower-of <addrs>] [...]\n\
                     serve the engine over TCP (see igq serve --help)"
    );
}
