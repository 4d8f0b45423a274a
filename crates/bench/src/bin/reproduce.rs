//! Reproduces the paper's tables and figures:
//!
//! ```text
//! reproduce <id>... | all | --list [--scale S] [--full] [--seed N] [--threads T]
//! ```
//!
//! Prints each report and archives it as `target/experiments/<id>.json`.
//! Unknown ids exit 2 with the list of known ones.

#![forbid(unsafe_code)]

use igq_bench::{cli, figure, ExpOptions, Session, FIGURES};
use std::time::Instant;

fn main() {
    let (opts, targets) = ExpOptions::from_env();
    if targets.iter().any(|t| t == "--list") {
        for f in FIGURES {
            println!("{:<32} {}", f.id, f.caption);
        }
        return;
    }
    if targets.is_empty() {
        cli::usage("name figure ids, `all` or `--list`");
    }
    let mut figures = Vec::new();
    for t in &targets {
        match figure(t) {
            _ if t == "all" => figures.extend(FIGURES),
            Some(f) => figures.push(f),
            None => {
                eprintln!("error: unknown figure id {t:?}; known ids:");
                for f in FIGURES {
                    eprintln!("  {}", f.id);
                }
                std::process::exit(2);
            }
        }
    }
    let t0 = Instant::now();
    let mut session = Session::new(opts);
    for f in &figures {
        session.run(f).emit();
    }
    println!(
        "{} report(s) in {:.1}s, archived under target/experiments/",
        figures.len(),
        t0.elapsed().as_secs_f64()
    );
}
