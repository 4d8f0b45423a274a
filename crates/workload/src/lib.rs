//! # igq-workload
//!
//! Dataset synthesizers and query-workload generators for the iGQ
//! evaluation (paper Section 7.1).
//!
//! * [`datasets`] — four generators matching the shape of the paper's
//!   datasets (Table 1): [`datasets::aids_like`], [`datasets::pdbs_like`],
//!   [`datasets::ppi_like`], [`datasets::synthetic_like`];
//! * [`zipf`] — the finite-support Zipf sampler behind the skewed
//!   workloads;
//! * [`querygen`] — the paper's BFS query extractor with configurable
//!   graph/node pick distributions and sizes {4, 8, 12, 16, 20};
//! * [`spec`] — named workload specs (`uni-uni` … `zipf-zipf`) and the
//!   [`WorkloadBuilder`] harness entry point.
//!
//! Everything is deterministic in its seed, and dataset generation is
//! prefix-stable: scaling a dataset up leaves its earlier graphs unchanged.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod querygen;
pub mod spec;
pub mod zipf;

pub use datasets::DatasetKind;
pub use querygen::{bfs_extract, QueryGenerator, PAPER_QUERY_SIZES};
pub use spec::{Distribution, QueryWorkloadSpec, WorkloadBuilder, DEFAULT_ALPHA};
pub use zipf::Zipf;
