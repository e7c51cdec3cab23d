//! # gosh-coarsen
//!
//! The multilevel coarsening engine from GOSH (§3.2): `MultiEdgeCollapse`
//! agglomerates neighbourhoods around hub vertices into super-vertices,
//! subject to the density rule that forbids merging two hubs, processing
//! vertices in decreasing-degree order. Both the sequential algorithm
//! (Algorithm 4) and the parallel variant (§3.2.2: per-entry locks via CAS,
//! hub-id cluster labels, thread-private edge regions, dynamic batch
//! scheduling) are implemented, plus a MILE-style matching coarsener used
//! as the baseline in Table 5.

// This crate contains audited `unsafe` (see docs/SAFETY.md and the
// `gosh audit` gate): every unsafe operation must sit in an explicit
// block with its own `// SAFETY:` invariant, even inside `unsafe fn`.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! The parallel path is the fused lock-free pipeline of [`fused`]: one
//! pass produces the mapping *and* the coarse CSR on reusable level-sized
//! scratch ([`fused::CoarsenWorkspace`]), replacing the old
//! match-then-rebuild two-pass design. Callers of either half on its own
//! ([`fused::map_fused`], [`fused::build_fused`]) pass a workspace too;
//! [`sequential`] and [`build::build_coarse_sequential`] are the exact
//! Algorithm 4 oracles.

pub mod build;
pub mod fused;
pub mod hierarchy;
pub mod mapping;
pub mod mile;
pub mod order;
pub mod repair;
pub mod sequential;

pub use fused::{coarsen_step_fused, CoarsenWorkspace};
pub use hierarchy::{coarsen_hierarchy, CoarsenConfig, Hierarchy, LevelStats};
pub use mapping::{Mapping, UNMAPPED};
pub use repair::{repair_hierarchy, RepairConfig, RepairStats};
