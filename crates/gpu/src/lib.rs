//! # gosh-gpu
//!
//! A software SIMT device: the substrate GOSH's CUDA kernels run on in
//! this reproduction. Rust CUDA bindings are immature, so instead of
//! binding a real GPU we execute the *same* warp-structured kernels on a
//! team of host threads while modelling the architectural effects the paper
//! measures:
//!
//! * **Device memory capacity** — allocations are accounted against a
//!   configurable budget; exhaustion is an error. This is what triggers
//!   GOSH's large-graph decomposition (Algorithm 5), exactly as a 12 GB
//!   Titan X would.
//! * **Warp execution** — kernels are written against a [`warp::Warp`]
//!   context (one source vertex per warp, Algorithm 3). Warps run
//!   concurrently on worker threads with dynamic batching.
//! * **Memory-system cost model** — every global access is counted as
//!   coalesced transactions or strided element accesses, shared-memory
//!   traffic and ALU work are tallied per warp, and [`cost::CostModel`]
//!   converts the totals into *modeled device seconds*. The model is
//!   relative, not absolute: it exposes coalescing, shared-memory reuse
//!   and small-dimension underutilization (§3.1, §3.1.1, Table 8,
//!   Figure 4), not Titan X wall-clock.
//! * **Streams** — in-order asynchronous queues with events, enough to
//!   reproduce the copy/compute overlap of §3.3.2.
//!
//! Races the paper tolerates (concurrent updates to sampled embedding
//! rows) are reproduced with relaxed atomics — the Hogwild contract,
//! without undefined behaviour.

// No unsafe in this crate: the audit gate (docs/SAFETY.md) keeps it that way.
#![forbid(unsafe_code)]

pub mod buffer;
pub mod config;
pub mod cost;
pub mod device;
pub mod error;
pub mod lanes;

pub mod stream;
pub mod warp;

pub use buffer::{FloatBuffer, PlainBuffer, Readback};
pub use config::DeviceConfig;
pub use cost::{CostModel, CostSnapshot};
pub use device::{Device, LaunchConfig};
pub use error::DeviceError;
pub use stream::{Event, Stream};
pub use warp::{Access, Warp};
