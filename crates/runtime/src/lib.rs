//! The task-graph runtime every GOSH worker team rides.
//!
//! Before this crate existed the workspace carried four hand-rolled
//! copies of the same spawn/shard/barrier discipline: the warp executor's
//! kernel pool (`gosh-gpu`), the persistent Hogwild team
//! (`gosh-core::train_cpu`), the fused coarsening team
//! (`gosh-coarsen::fused`), and the ingestion team
//! (`gosh-graph::ingest`). Each one re-derived the same three facts:
//!
//! 1. **Workers must persist.** Spawning OS threads costs ~10 ms on this
//!    class of machine and GOSH dispatches tens of thousands of team
//!    tasks per run (one per epoch / per level / per chunk), so teams
//!    must reuse threads — [`Runtime`] keeps one persistent, growable
//!    worker set and publishes borrowed jobs to it.
//! 2. **Shards must be deterministic.** Byte-identical output at every
//!    thread count is the contract all the proptests enforce, so shard
//!    assignment is a pure function of `(items, team)` — [`shard_ranges`]
//!    — never of scheduling order.
//! 3. **Panics must propagate.** A panicking worker parked its siblings
//!    on a `std::sync::Barrier` forever; the runtime's [`WorkerCtx::barrier`]
//!    is poisonable, so one panic unwinds the whole team and re-raises
//!    the original payload on the submitting thread.
//!
//! Beside the teams, [`transport`] carries typed frames over one TCP
//! connection (the `gosh serve` wire), and every file the workspace
//! writes goes through [`replace_file`], so a reader never sees it
//! half-written.
//!
//! Task model:
//! - [`Runtime::run`] — a *team task*: the closure runs once on every
//!   worker index `0..team`, typically looping an atomic cursor or its
//!   [`shard_ranges`] shard, synchronizing on [`WorkerCtx::barrier`].
//! - [`Runtime::map_jobs`] — *typed task submission*: `jobs` independent
//!   indexed tasks, claimed by a work cursor, results restored to job
//!   order (byte-identical for any team size).

// This crate contains audited `unsafe` (see docs/SAFETY.md and the
// `gosh audit` gate): every unsafe operation must sit in an explicit
// block with its own `// SAFETY:` invariant, even inside `unsafe fn`.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod pool;
mod replace;
mod tempdir;
pub mod transport;

pub use pool::{Runtime, WorkerCtx};
pub use replace::replace_file;
pub use tempdir::TempDir;

use std::ops::Range;
use std::sync::OnceLock;

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

static GLOBAL: OnceLock<Runtime> = OnceLock::new();

/// The process-wide runtime shared by the CPU-side teams (training,
/// coarsening, ingestion, expansion, eval). Workers are spawned lazily
/// up to the largest team ever requested. Simulated devices own
/// *private* [`Runtime`]s instead: they train concurrently with each
/// other, and one shared launch lock would serialize them.
pub fn global() -> &'static Runtime {
    GLOBAL.get_or_init(Runtime::empty)
}

/// Run `jobs` independent indexed tasks on the global runtime; see
/// [`Runtime::map_jobs`].
pub fn map_jobs<T, F>(team: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    global().map_jobs(team, jobs, f)
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
    fn global_runtime_is_shared_and_usable() {
        let out = map_jobs(4, 10, |i| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }
}
