//! # gosh-graph
//!
//! Graph substrate for the GOSH reproduction: a compact CSR (Compressed
//! Sparse Row) graph representation, edge-list construction and I/O,
//! deterministic synthetic generators (RMAT, Erdős–Rényi, Barabási–Albert),
//! the 80/20 link-prediction train/test split from the paper's §4.1,
//! structural statistics, and the edge-delta streaming layer for dynamic
//! graphs ([`stream`]).
//!
//! All vertex identifiers are `u32` (`VertexId`); offsets are `usize`.
//! Every stochastic routine takes an explicit seed so that experiments are
//! reproducible bit-for-bit.

// This crate contains audited `unsafe` (see docs/SAFETY.md and the
// `gosh audit` gate): every unsafe operation must sit in an explicit
// block with its own `// SAFETY:` invariant, even inside `unsafe fn`.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod builder;
pub mod compact;
pub mod components;
pub mod csr;
pub mod gen;
pub mod ingest;
pub mod io;
pub mod rng;
pub mod split;
pub mod stats;
pub mod stream;

pub use builder::GraphBuilder;
pub use csr::{Csr, VertexId};
pub use split::{train_test_split, SplitConfig, TrainTestSplit};
pub use stats::GraphStats;
pub use stream::{apply_delta, EdgeDelta};
