//! Team tasks on scoped threads: the one worker-team implementation in
//! the workspace.
//!
//! [`run`] executes a closure once per worker index of a team. The
//! calling thread is worker 0 and `team - 1` threads spawned in a
//! [`std::thread::scope`] are the rest, so the closure borrows from the
//! caller's stack with no lifetime erasure, and every member has
//! finished when `run` returns. A team of one runs inline.
//!
//! No team outlives its task. On a 2-core x86-64 VM a 2-thread scoped
//! spawn + join costs about 25 µs (190 µs for 8 threads), and the
//! busiest benchmark workload dispatches about 280 team tasks per
//! embed, each about 4.6 ms of kernel, so spawning per task costs under
//! 1 % there.
//! On a host with many cores the simulated device's warp team and a
//! `gosh serve --threads N` batch pay one spawn per extra member on
//! every task.
//!
//! Each member runs under `catch_unwind`; a panic poisons the task's
//! [`JobBarrier`] (waking and unwinding any sibling parked on it — the
//! deadlock a `std::sync::Barrier` team has), and the first real payload
//! is re-raised on the calling thread by `resume_unwind` once the whole
//! team has drained. Nothing is shared between tasks, so team tasks
//! started from different host threads run concurrently.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Marker payload for workers unwound *because a sibling panicked*.
/// Never propagated to the caller — only the original panic is.
struct SiblingAbort;

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The runtime's own invariants do not depend on these critical
    // sections completing (poisoning happens exactly when a worker
    // closure panicked, which we handle explicitly), so a poisoned
    // mutex is still safe to enter.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A poisonable, reusable epoch barrier scoped to one team task.
///
/// `wait` parks until all `team` members arrive, then releases the
/// generation together — same contract as `std::sync::Barrier`, plus:
/// when any team member panics the barrier is poisoned, every current
/// and future waiter unwinds (with a [`SiblingAbort`] payload [`run`]
/// swallows), and the team drains instead of deadlocking.
struct JobBarrier {
    team: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl JobBarrier {
    fn new(team: usize) -> Self {
        Self {
            team,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut s = lock_ignore_poison(&self.state);
        if s.poisoned {
            drop(s);
            std::panic::panic_any(SiblingAbort);
        }
        s.arrived += 1;
        if s.arrived == self.team {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
            return;
        }
        let gen = s.generation;
        while s.generation == gen && !s.poisoned {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        if s.poisoned {
            drop(s);
            std::panic::panic_any(SiblingAbort);
        }
    }

    fn poison(&self) {
        let mut s = lock_ignore_poison(&self.state);
        s.poisoned = true;
        self.cv.notify_all();
    }
}

/// Per-worker view of the running team task: the worker's stable index,
/// the team size, and the task's epoch barrier.
pub struct WorkerCtx<'a> {
    index: usize,
    team: usize,
    barrier: &'a JobBarrier,
}

impl WorkerCtx<'_> {
    /// This worker's index in `0..team()`. Stable for the whole task —
    /// the deterministic shard identity.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of workers running this task.
    pub fn team(&self) -> usize {
        self.team
    }

    /// Park until every team member arrives (an epoch boundary).
    ///
    /// # Panics
    /// Unwinds if any team member panicked — the runtime converts what
    /// would be a deadlock on `std::sync::Barrier` into a panic that
    /// reaches the calling thread.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// Run `f` once on every worker index `0..team`; returns when all
/// finish. `f` typically loops over an atomic work cursor or over its
/// [`crate::shard_ranges`] shard, synchronizing epochs with
/// [`WorkerCtx::barrier`].
///
/// The calling thread is worker 0; `team == 1` runs inline with no
/// other thread — the sequential reference path.
///
/// # Panics
/// Re-raises the first panic any team member raised, after the whole
/// team has drained.
pub fn run<F: Fn(&WorkerCtx) + Sync>(team: usize, f: F) {
    let team = team.max(1);
    let barrier = JobBarrier::new(team);
    if team == 1 {
        f(&WorkerCtx {
            index: 0,
            team,
            barrier: &barrier,
        });
        return;
    }
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let member = |index: usize| {
        let ctx = WorkerCtx {
            index,
            team,
            barrier: &barrier,
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
            // Unwind any sibling parked on the epoch barrier, then record
            // the payload — first real panic wins; sibling-abort markers
            // are bookkeeping, not errors.
            barrier.poison();
            if !payload.is::<SiblingAbort>() {
                lock_ignore_poison(&first_panic).get_or_insert(payload);
            }
        }
    };
    std::thread::scope(|s| {
        for index in 1..team {
            let member = &member;
            std::thread::Builder::new()
                .name(format!("gosh-team-{index}"))
                .spawn_scoped(s, move || member(index))
                .unwrap_or_else(|e| {
                    // Members already running may be parked on the
                    // barrier waiting for this one: release them.
                    barrier.poison();
                    panic!("failed to spawn team member: {e}")
                });
        }
        member(0);
    });
    if let Some(payload) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
}

/// Typed task submission: run `jobs` independent indexed tasks and
/// collect their results *in job order*. Jobs are claimed by an atomic
/// cursor, so wall-clock balances dynamically, while the returned `Vec`
/// is byte-identical for any team size. A team of one (or one job) runs
/// sequentially inline.
pub fn map_jobs<T, F>(team: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let team = team.min(jobs);
    if team <= 1 {
        return (0..jobs).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    // One slot per job: which worker computed a result is
    // scheduling-dependent; where it lands is not.
    let out: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    run(team, |_| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= jobs {
            break;
        }
        *lock_ignore_poison(&out[i]) = Some(f(i));
    });
    out.into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every job index produced exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hint::black_box;
    use std::sync::mpsc;
    use std::thread::current;
    use std::time::{Duration, Instant};

    #[test]
    fn runs_borrowed_work_to_completion() {
        let counter = AtomicUsize::new(0);
        let cursor = AtomicUsize::new(0);
        run(4, |_| {
            while cursor.fetch_add(1, Ordering::Relaxed) < 1000 {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn sequential_jobs_do_not_interleave() {
        let log = Mutex::new(Vec::new());
        for round in 0..50 {
            run(4, |_| {
                lock_ignore_poison(&log).push(round);
            });
        }
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), 50 * 4);
        // All entries of round r precede all entries of round r+1.
        for (i, w) in log.windows(2).enumerate() {
            assert!(w[0] <= w[1], "interleaved at {i}: {:?}", &log[i..i + 2]);
        }
    }

    /// `run` costs little beyond the scoped spawns it is made of. Rounds
    /// of an empty `run(8)` alternate with a bare scope that spawns and
    /// joins 7 empty threads, so a loaded host slows both sides alike and
    /// only their ratio is bounded. Each `run(8)` uses 8 distinct threads,
    /// the caller among them.
    #[test]
    fn many_tiny_jobs_are_fast() {
        let (mut in_run, mut bare) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..300 {
            let t0 = Instant::now();
            run(8, |_| {});
            in_run += t0.elapsed();
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 1..8 {
                    s.spawn(|| {});
                }
            });
            bare += t0.elapsed();
        }
        let ratio = in_run.as_secs_f64() / bare.as_secs_f64();
        assert!(
            ratio < 1.5,
            "run(8) costs {ratio:.2}x a bare 7-thread spawn"
        );

        let caller = current().id();
        for _ in 0..20 {
            let ids = Mutex::new(HashSet::new());
            run(8, |_| {
                lock_ignore_poison(&ids).insert(current().id());
            });
            let ids = ids.into_inner().unwrap();
            assert_eq!(ids.len(), 8);
            assert!(ids.contains(&caller));
        }
    }

    /// A team of one costs less than one small heap allocation, so a lock
    /// or an allocation added to every task fails here. Batches alternate
    /// and the fastest of each side is compared, which host load leaves
    /// alone.
    #[test]
    fn inline_run_costs_less_than_an_allocation() {
        let (mut inline, mut alloc) = (Duration::MAX, Duration::MAX);
        for _ in 0..50 {
            let t0 = Instant::now();
            for _ in 0..10_000 {
                run(black_box(1), |ctx| {
                    black_box(ctx);
                });
            }
            inline = inline.min(t0.elapsed());
            let t0 = Instant::now();
            for _ in 0..10_000 {
                black_box(Box::new(black_box(7u64)));
            }
            alloc = alloc.min(t0.elapsed());
        }
        assert!(
            inline < alloc,
            "10k run(1): {inline:?}, 10k Box::new: {alloc:?}"
        );
    }

    #[test]
    fn single_thread_runs_inline() {
        let caller = current().id();
        let x = AtomicUsize::new(0);
        run(1, |ctx| {
            assert_eq!(ctx.index(), 0);
            assert_eq!(ctx.team(), 1);
            assert_eq!(current().id(), caller);
            ctx.barrier(); // team of one: no-op, must not park
            x.fetch_add(7, Ordering::Relaxed);
        });
        assert_eq!(x.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn caller_is_worker_zero() {
        let caller = current().id();
        run(3, |ctx| {
            assert_eq!(ctx.index() == 0, current().id() == caller);
        });
    }

    #[test]
    fn every_team_size_runs_each_index_once() {
        for team in [2, 5, 3] {
            let hits: Vec<AtomicUsize> = (0..team).map(|_| AtomicUsize::new(0)).collect();
            run(team, |ctx| {
                assert!(ctx.index() < team);
                assert_eq!(ctx.team(), team);
                hits[ctx.index()].fetch_add(1, Ordering::Relaxed);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 1);
            }
        }
    }

    /// Regression: a team task used to hold a runtime-wide launch lock,
    /// so a task started from a second host thread waited for the first
    /// to finish. Team A waits inside its task for a message only team
    /// B's task sends; serialized teams would time out here.
    #[test]
    fn concurrent_team_tasks_do_not_serialize() {
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        std::thread::scope(|s| {
            run(2, |ctx| {
                if ctx.index() != 0 {
                    return;
                }
                let tx = tx.clone();
                s.spawn(move || {
                    run(2, |ctx| {
                        if ctx.index() == 0 {
                            let _ = tx.send(());
                        }
                    })
                });
                let got = lock_ignore_poison(&rx).recv_timeout(Duration::from_secs(10));
                assert!(got.is_ok(), "team B never ran while team A was running");
            });
        });
    }

    #[test]
    fn barrier_separates_epochs() {
        let arrived = [
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        ];
        run(4, |ctx| {
            for (e, slot) in arrived.iter().enumerate() {
                slot.fetch_add(1, Ordering::SeqCst);
                ctx.barrier();
                // After the barrier, every team member has finished
                // epoch e and no one has started e+1's increment beyond
                // what we can observe here.
                assert_eq!(slot.load(Ordering::SeqCst), 4, "epoch {e} not complete");
                ctx.barrier();
            }
        });
    }

    /// Regression: a panicking worker used to park its siblings on a
    /// `std::sync::Barrier` forever. The runtime must unwind the whole
    /// team and re-raise the original payload on the calling thread —
    /// and the next `run` must work.
    #[test]
    fn mid_epoch_panic_propagates_and_pool_survives() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(4, |ctx| {
                ctx.barrier(); // epoch 0 completes normally
                if ctx.index() == 2 {
                    panic!("injected mid-epoch failure");
                }
                // Siblings park here; the poison must wake them.
                ctx.barrier();
                ctx.barrier();
            });
        }));
        let payload = result.expect_err("panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("original payload, not a sibling marker");
        assert_eq!(msg, "injected mid-epoch failure");

        let x = AtomicUsize::new(0);
        run(4, |_| {
            x.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(x.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panic_before_any_barrier_still_propagates() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(3, |ctx| {
                if ctx.index() == 0 {
                    panic!("early failure");
                }
                // Siblings that never touch a barrier just finish.
            });
        }));
        let payload = result.expect_err("panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("early failure")
        );
        run(3, |_| {});
    }

    #[test]
    fn inline_panic_propagates_naturally() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(1, |_| panic!("inline"));
        }));
        let payload = result.expect_err("panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("inline"));
        run(1, |_| {});
    }

    #[test]
    fn map_jobs_restores_job_order() {
        let out = map_jobs(4, 100, |i| i as u64 * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn map_jobs_sequential_paths() {
        let caller = current().id();
        let on_caller = |i: usize| {
            assert_eq!(current().id(), caller);
            i
        };
        assert_eq!(map_jobs(4, 0, on_caller), Vec::<usize>::new());
        assert_eq!(map_jobs(1, 5, on_caller), vec![0, 1, 2, 3, 4]);
        assert_eq!(map_jobs(8, 1, |i| on_caller(i) + 10), vec![10]);
    }
}
