//! The GOSH end-to-end benchmark harness (see `README.md`).
//!
//! A library plus a thin `main` so the tests under `tests/` can drive
//! the same code the `run.sh` command runs.

// The root workspace's self-audit scans this directory as part of the
// unsafe-free `.` crate; keep it that way.
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod host;
pub mod journey;
pub mod layers;
pub mod metrics;
pub mod proc;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
