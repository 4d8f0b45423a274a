//! # igq_bench
//!
//! The experiment harness reproducing **every table and figure** of the
//! iGQ paper's evaluation (Section 7). Performance measurement of the
//! serving stack lives in the standalone `benchmark/` package, not here.
//!
//! * [`cli`] — shared `--scale/--full/--seed/--threads` flags;
//! * [`harness`] — the paired baseline-vs-iGQ protocol with warm-up
//!   windows, per-query-size buckets, and speedup math;
//! * [`report`] — console tables + JSON archives under
//!   `target/experiments/`;
//! * [`experiments`] — one module per figure family; the `src/bin`
//!   wrappers are named after the figure or table they reproduce.
//!
//! Run any figure directly, e.g.:
//!
//! ```text
//! cargo run -p igq_bench --release --bin fig07_iso_speedup_aids -- --scale 0.1
//! cargo run -p igq_bench --release --bin run_all -- --full
//! ```

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod report;

pub use cli::ExpOptions;
pub use harness::{run_baseline, run_igq, run_paired, AggStats, MethodKind, PairedRun};
pub use report::{Report, Table};
