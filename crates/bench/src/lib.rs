//! # igq_bench
//!
//! Reproduces **every table and figure** of the iGQ paper's evaluation
//! (Section 7) through one binary, `reproduce`. Performance measurement of
//! the serving stack lives in the standalone `benchmark/` package, not
//! here.
//!
//! * [`experiments`] — the table of figure specs ([`FIGURES`]) and the
//!   [`Session`] that runs them: one grid runner and renderer for every
//!   speedup figure, bespoke bodies for the rest;
//! * [`harness`] — the paired baseline-vs-iGQ protocol with warm-up
//!   windows, per-query-size buckets, and speedup math;
//! * [`report`] — console tables + JSON archives under
//!   `target/experiments/<id>.json`;
//! * [`cli`] — `<id>... | all | --list` plus `--scale/--full/--seed/--threads`.
//!
//! `REPRODUCTION.md` at the repository root lists each figure's claim,
//! command and measured numbers. For example:
//!
//! ```text
//! cargo run -p igq_bench --release --bin reproduce -- --list
//! cargo run -p igq_bench --release --bin reproduce -- fig07_iso_speedup_aids --scale 0.1
//! cargo run -p igq_bench --release --bin reproduce -- all --full
//! ```

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod report;

pub use cli::ExpOptions;
pub use experiments::{figure, Session, FIGURES};
pub use report::Report;
