//! The task-graph runtime every GOSH worker team rides.
//!
//! Before this crate existed the workspace carried four hand-rolled
//! copies of the same spawn/shard/barrier discipline: the warp executor's
//! kernel pool (`gosh-gpu`), the Hogwild team (`gosh-core::train_cpu`),
//! the fused coarsening team (`gosh-coarsen::fused`), and the ingestion
//! team (`gosh-graph::ingest`). Each one re-derived the same three facts:
//!
//! 1. **Teams live for one task.** Every parallel pass (a Hogwild epoch
//!    loop, a coarsening level, a device launch) needs its workers only
//!    for the call, so [`run`] spawns them in a [`std::thread::scope`]:
//!    the closure borrows from the caller's stack, and the caller is
//!    worker 0. A 2-thread scoped spawn + join costs about 25 µs on a
//!    2-core x86-64 VM, against about 280 team tasks of about 4.6 ms
//!    each per embed on the busiest benchmark workload.
//! 2. **Shards must be deterministic.** Byte-identical output at every
//!    thread count is the contract all the proptests enforce, so shard
//!    assignment is a pure function of `(items, team)` — [`shard_ranges`]
//!    — never of scheduling order.
//! 3. **Panics must propagate.** A panicking worker parked its siblings
//!    on a `std::sync::Barrier` forever; the runtime's [`WorkerCtx::barrier`]
//!    is poisonable, so one panic unwinds the whole team and re-raises
//!    the original payload on the calling thread.
//!
//! Beside the teams, [`transport`] carries typed frames over one TCP
//! connection (the `gosh serve` wire), and every file the workspace
//! writes goes through [`replace_file`], so a reader never sees it
//! half-written.
//!
//! Task model:
//! - [`run`] — a *team task*: the closure runs once on every worker
//!   index `0..team`, typically looping an atomic cursor or its
//!   [`shard_ranges`] shard, synchronizing on [`WorkerCtx::barrier`].
//! - [`map_jobs`] — *typed task submission*: `jobs` independent indexed
//!   tasks, claimed by a work cursor, results restored to job order
//!   (byte-identical for any team size).

#![forbid(unsafe_code)]

mod pool;
mod replace;
mod tempdir;
pub mod transport;

pub use pool::{map_jobs, run, WorkerCtx};
pub use replace::replace_file;
pub use tempdir::TempDir;

use std::ops::Range;

/// Deterministic contiguous shard assignment: shard `t` of `team` owns
/// `items * t / team .. items * (t + 1) / team`. Shards tile `0..items`
/// exactly, never differ in length by more than one, and depend only on
/// the arguments — the foundation of every byte-identical-across-thread-
/// counts guarantee in the workspace.
pub fn shard_ranges(items: usize, team: usize) -> Vec<Range<usize>> {
    let team = team.max(1);
    (0..team)
        .map(|t| (t * items / team)..((t + 1) * items / team))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_tile_exactly() {
        for items in [0usize, 1, 2, 7, 100, 101] {
            for team in [1usize, 2, 3, 4, 8, 16] {
                let shards = shard_ranges(items, team);
                assert_eq!(shards.len(), team);
                let mut next = 0;
                for r in &shards {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, items);
                let lens: Vec<usize> = shards.iter().map(|r| r.len()).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1, "unbalanced shards: {lens:?}");
            }
        }
    }

    #[test]
    fn shard_ranges_clamps_zero_team() {
        assert_eq!(shard_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn map_jobs_is_usable_from_the_crate_root() {
        let out = map_jobs(4, 10, |i| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }
}
