//! # igq-methods
//!
//! Filter-then-verify subgraph query processing methods — the `M` that iGQ
//! wraps (paper Section 4.2). Three published, high-performing methods are
//! implemented from their algorithm descriptions, plus a naive oracle:
//!
//! * [`Ggsx`] — GraphGrepSX: an exhaustive path trie (≤ 4 edges) with
//!   occurrence counts; VF2 verification;
//! * [`Grapes`] — the same path features plus *location information*;
//!   verification restricted to the connected components hosting the
//!   query's features; multi-threaded build and verification
//!   (`Grapes(1)`/`Grapes(6)` in the experiments);
//! * [`CtIndex`] — CT-Index: canonical tree (≤ 6 edges) and cycle
//!   (≤ 8 edges) features hashed into per-graph bitmaps; bitwise filtering;
//! * [`GCode`] — a gCode-style vertex-signature method (\[53\] in the paper's
//!   related work): bucketed neighborhood label spectra with dominance
//!   filtering plus an optional bipartite-matching injectivity stage;
//! * [`NaiveMethod`] — no index; the lower bound and the test suite's
//!   ground-truth oracle;
//! * [`TrieSupergraphMethod`] / [`ContainmentIndex`] — the paper's own
//!   occurrence-counting supergraph filter (Algorithms 1 & 2), used both as
//!   a dataset-side supergraph method and as iGQ's `Isuper` core.
//!
//! All methods uphold the filter-then-verify contract: candidate sets have
//! **no false negatives**, and verification decides candidates exactly.
//!
//! Verification is batch-first:
//! [`SubgraphMethod::verify_batch_with_plans`] is the primary entry
//! point, and every built-in method routes it through the plan-amortized
//! hot path in [`batch`] — one matching plan per query, zero-allocation
//! scratch, profile-based pre-verify screening, and one gated fan-out of
//! large batches across idle cores (the width the engine's
//! [`PlanSource`] allows).
//! Single-candidate [`SubgraphMethod::verify`] is a provided method over
//! the same matcher (`igq_iso::find_one`); only Grapes overrides it.

pub mod batch;
pub mod ctindex;
pub mod gcode;
pub mod ggsx;
pub mod grapes;
pub mod kind;
pub mod method;
pub mod naive;
pub mod par;
pub mod supergraph;

pub use batch::{
    available_cores, batch_label_rarity, fanout_width, verify_batch_plain, verify_batch_plain_with,
    PlanSource, VerifyBatchStats, FANOUT_MIN_CANDIDATES,
};
pub use ctindex::{CtIndex, CtIndexConfig};
pub use gcode::{GCode, GCodeConfig};
pub use ggsx::{Ggsx, GgsxConfig};
pub use grapes::{Grapes, GrapesConfig};
pub use kind::MethodKind;
pub use method::{
    intersect_into, intersect_positions, intersect_sorted, subtract_into, subtract_sorted,
    Filtered, QueryContext, SubgraphMethod, VerifyOutcome,
};
pub use naive::NaiveMethod;
pub use par::par_map;
pub use supergraph::{ContainmentIndex, TrieSupergraphMethod};
