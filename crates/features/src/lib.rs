//! # igq-features
//!
//! Graph feature extraction for the iGQ reproduction.
//!
//! Every filter-then-verify method reduces graphs to *features* and indexes
//! those (paper Section 2). This crate implements the three feature families
//! used by the paper's chosen methods, plus the index structures built over
//! them:
//!
//! * [`paths`] — exhaustive labeled simple-path enumeration with occurrence
//!   counts and optional endpoint locations (GGSX, Grapes, and iGQ's own
//!   query indexes);
//! * [`trees`] — subtree enumeration with AHU canonical strings (CT-Index);
//! * [`cycles`] — simple-cycle enumeration with rotation/reflection
//!   canonical strings (CT-Index);
//! * [`trie`] — a feature trie with per-graph posting lists (GGSX's index,
//!   Grapes' merged index, and iGQ `Isuper`'s Algorithm 1 structure);
//! * [`fingerprint`] — fixed-width bitmaps folding canonical feature strings
//!   (CT-Index's per-graph 4096-bit signatures);
//! * [`featureset`] — query-side multisets with the containment predicates
//!   iGQ's `Isub` filtering relies on;
//! * [`label_seq`] — canonical (direction-normalized) label sequences, the
//!   key type for path features.
//!
//! All enumerators are *budgeted* and report the deepest exhaustively
//! enumerated feature size, so downstream filters remain sound (no false
//! negatives) even on graphs too dense to enumerate fully.

#![forbid(unsafe_code)]

pub mod cycles;
pub mod featureset;
pub mod fingerprint;
pub mod label_seq;
pub mod paths;
pub mod trees;
pub mod trie;

pub use cycles::{cycle_canonical, enumerate_cycles, CycleConfig, CycleFeatures};
pub use featureset::FeatureSet;
pub use fingerprint::Fingerprint;
pub use label_seq::LabelSeq;
pub use paths::{
    enumerate_paths, enumerate_paths_with_locations, thread_enumeration_count, PathConfig,
    PathFeatures,
};
pub use trees::{enumerate_trees, tree_canonical, TreeConfig, TreeFeatures};
pub use trie::{FeatureTrie, Posting};
