//! # gosh-coarsen
//!
//! The multilevel coarsening engine from GOSH (§3.2): `MultiEdgeCollapse`
//! agglomerates neighbourhoods around hub vertices into super-vertices,
//! subject to the density rule that forbids merging two hubs, processing
//! vertices in decreasing-degree order. The mapping is Algorithm 4 run
//! sequentially at every thread count, so a hierarchy does not depend on
//! the thread count; the coarse graphs are built in parallel. A MILE-style
//! matching coarsener is the baseline in Table 5.

// This crate contains audited `unsafe` (see docs/SAFETY.md and the
// `gosh audit` gate): every unsafe operation must sit in an explicit
// block with its own `// SAFETY:` invariant, even inside `unsafe fn`.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! One coarsening step is [`sequential::map_sequential`] (the one copy of
//! the Algorithm 4 claim loop, which [`repair`] re-runs over dissolved
//! regions) followed by [`fused::build_fused`], the parallel coarse-CSR
//! builder on reusable level-sized scratch ([`fused::CoarsenWorkspace`]).
//! Its output does not depend on the thread count;
//! [`build::build_coarse_sequential`] is the oracle it is tested
//! against, and nothing else.

pub mod build;
pub mod fused;
pub mod hierarchy;
pub mod mapping;
pub mod mile;
pub mod order;
pub mod repair;
pub mod sequential;

pub use fused::CoarsenWorkspace;
pub use hierarchy::{coarsen_hierarchy, CoarsenConfig, Hierarchy, LevelStats};
pub use mapping::{Mapping, UNMAPPED};
pub use repair::{repair_hierarchy, RepairConfig, RepairStats};
