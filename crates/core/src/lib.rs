//! # gosh-core
//!
//! The GOSH embedding pipeline (Algorithms 1–3 and 5 of the paper):
//!
//! * [`backend`] — the [`backend::TrainBackend`] abstraction: the one
//!   shared [`backend::TrainParams`] plus the `CpuHogwild`,
//!   `GpuInMemory` and `GpuPartitioned` engines the pipeline selects
//!   between per level.
//! * [`model`] — embedding matrices, host- and shared-(atomic-)side.
//! * [`simd`] — the explicit 8-wide f32 lane operations of the hot path:
//!   autovectorization-shaped scalar cores with runtime-detected AVX2
//!   intrinsic twins, bit-identical by construction.
//! * [`quant`] — reduced-precision row storage (f16, per-row-scaled i8)
//!   behind the `--precision` knob: the row codecs and the
//!   `QuantizedMatrix` row store the Hogwild engine trains in.
//! * [`store`] — the `.embin` exact binary embedding store: versioned,
//!   checksummed, mmap-backed with zero-copy row access.
//! * [`serve`] — top-k query serving over a store: brute-force exact,
//!   IVF coarse-quantizer ANN, and the TCP request/response protocol
//!   behind `gosh serve`.
//! * [`update`] — the single positive/negative update (Algorithm 1).
//! * [`schedule`] — the smoothing-ratio epoch distribution across levels
//!   and the per-epoch learning-rate decay.
//! * [`expand`] — projecting `M_i` to `M_{i-1}` through a coarsening map.
//! * [`train_gpu`] — `TrainInGPU` (Algorithm 3) on the simulated device:
//!   a naive kernel and the staged §3.1 kernel, which packs 2 or 4
//!   sources per warp at small dimensions (§3.1.1).
//! * [`train_cpu`] — the multi-threaded Hogwild CPU trainer used as the
//!   §4.8 speedup reference: one epoch loop over an f32 or an f16/i8 row
//!   store, for full and restricted-source training.
//! * [`large`] — the out-of-memory path (Algorithm 5): embedding-matrix
//!   partitioning, inside-out rotations, host-side sample pools with
//!   `SampleManager`/`PoolManager` threads, and copy/compute overlap.
//! * [`pipeline`] — Algorithm 2 tying everything together: [`embed`]
//!   walks the hierarchy and dispatches every level through the backend
//!   chain.
//! * [`config`] — the fast/normal/slow/no-coarsening presets of Table 3.

// This crate contains audited `unsafe` (see docs/SAFETY.md and the
// `gosh audit` gate): every unsafe operation must sit in an explicit
// block with its own `// SAFETY:` invariant, even inside `unsafe fn`.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod backend;
pub mod config;
pub mod expand;
pub mod large;
pub mod model;
pub mod pipeline;
pub mod quant;
pub mod schedule;
pub mod serve;
pub mod simd;
pub mod store;
pub mod train_cpu;
pub mod train_gpu;
pub mod update;
pub mod warm;

pub use backend::{
    backends_for, BackendChoice, BackendKind, CpuHogwild, GpuInMemory, GpuPartitioned,
    LevelSchedule, LevelStats, PartitionedOpts, Similarity, TrainBackend, TrainParams,
};
pub use config::{GoshConfig, PrecisionSchedule, Preset};
pub use model::Embedding;
pub use pipeline::{embed, GoshReport};
pub use quant::Precision;
pub use store::{write_store, EmbeddingStore};
pub use train_gpu::KernelVariant;
pub use warm::{warm_embed, WarmConfig, WarmReport};
