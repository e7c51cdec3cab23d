//! Property-based tests for the runtime's determinism contract: every
//! team primitive must produce byte-identical results at every thread
//! count, because the worker teams riding it (training, coarsening,
//! ingestion, expansion, eval) all promise exactly that to *their*
//! proptests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gosh_runtime::{map_jobs, run, shard_ranges};
use proptest::prelude::*;

/// The team sizes every contract is checked across: inline execution
/// (1), even splits (2, 4), and more workers than this machine has
/// cores (8).
const TEAMS: [usize; 4] = [1, 2, 4, 8];

/// A cheap pure mixer so job outputs depend on both index and input.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^ (x >> 29)
}

proptest! {
    #[test]
    fn map_jobs_matches_sequential_at_every_team_size(
        inputs in prop::collection::vec(0u64..u64::MAX, 0..80),
        salt in 0u64..u64::MAX,
    ) {
        let expected: Vec<u64> = inputs
            .iter()
            .enumerate()
            .map(|(j, &x)| mix(salt.wrapping_add(j as u64), x))
            .collect();
        for team in TEAMS {
            let got = map_jobs(team, inputs.len(), |j| {
                mix(salt.wrapping_add(j as u64), inputs[j])
            });
            prop_assert_eq!(&got, &expected, "team {}", team);
        }
    }

    #[test]
    fn sharded_writes_are_byte_identical_at_every_team_size(
        items in 0usize..300,
        salt in 0u64..u64::MAX,
    ) {
        // The slot-mutex discipline every ported team uses: the buffer is
        // split along `shard_ranges`, each worker claims its slab once,
        // and the result must not depend on who ran where or when.
        let fill = |team: usize| -> Vec<u64> {
            let mut buf = vec![0u64; items];
            let shards = shard_ranges(items, team);
            let slabs: Vec<Mutex<Option<&mut [u64]>>> = {
                let mut rest = buf.as_mut_slice();
                shards
                    .iter()
                    .map(|r| {
                        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
                        rest = tail;
                        Mutex::new(Some(mine))
                    })
                    .collect()
            };
            map_jobs(team, team, |t| {
                let mut slab = slabs[t]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("slab claimed once");
                for (off, cell) in slab.iter_mut().enumerate() {
                    *cell = mix(salt, (shards[t].start + off) as u64);
                }
            });
            drop(slabs);
            buf
        };
        let reference = fill(1);
        for team in &TEAMS[1..] {
            prop_assert_eq!(&fill(*team), &reference, "team {}", team);
        }
    }

    #[test]
    fn cursor_claimed_team_tasks_cover_every_job_exactly_once(
        jobs in 0usize..200,
        team in 1usize..=8,
    ) {
        // `run` with an atomic work cursor (the Hogwild /
        // coarsen / ingest pattern): every job index must be claimed by
        // exactly one worker regardless of scheduling.
        let cursor = AtomicUsize::new(0);
        let claimed: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
        run(team, |_ctx| loop {
            let j = cursor.fetch_add(1, Ordering::Relaxed);
            if j >= jobs {
                break;
            }
            claimed[j].fetch_add(1, Ordering::Relaxed);
        });
        for (j, c) in claimed.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "job {}", j);
        }
    }

    #[test]
    fn shard_ranges_tile_and_balance(items in 0usize..5000, team in 1usize..=32) {
        let shards = shard_ranges(items, team);
        prop_assert_eq!(shards.len(), team);
        let mut next = 0usize;
        for r in &shards {
            prop_assert_eq!(r.start, next);
            next = r.end;
        }
        prop_assert_eq!(next, items);
        let lens: Vec<usize> = shards.iter().map(|r| r.len()).collect();
        let lo = lens.iter().min().unwrap();
        let hi = lens.iter().max().unwrap();
        prop_assert!(hi - lo <= 1, "unbalanced shards: {:?}", lens);
    }
}
