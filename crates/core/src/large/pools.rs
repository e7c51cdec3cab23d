//! Host-side positive-sample pools (§3.3.3, Figure 2).
//!
//! The graph is *not* stored on the device in the large path; instead, for
//! each part pair `(a, b)` a pool of `B` positive targets per vertex is
//! sampled on the host by the `SampleManager` thread team and shipped to
//! the device. Because parts are contiguous id ranges and neighbour lists
//! are sorted, `Γ(v) ∩ V_b` is a binary-searched subrange — each draw is
//! O(log deg).

use std::sync::atomic::{AtomicUsize, Ordering};

use gosh_graph::csr::Csr;
use gosh_graph::rng::{mix64, Xorshift128Plus};

use super::partition::Partition;

/// Sentinel: no neighbour in the counterpart (the paper's "almost" in
/// "almost equivalent to B × K_i epochs" — such vertices skip positives).
pub const NO_SAMPLE: u32 = u32::MAX;

/// Positive samples for one part pair.
#[derive(Clone, Debug)]
pub struct SamplePool {
    /// The pair (a, b) with `a >= b`.
    pub pair: (usize, usize),
    /// `fwd[v_local · B + i]`: i-th target (global id, in part b) for the
    /// v-th vertex of part a.
    pub fwd: Vec<u32>,
    /// Targets in part a for vertices of part b; empty when `a == b`
    /// (the diagonal pool samples within the part via `fwd`).
    pub rev: Vec<u32>,
}

/// Draw `B` positive targets in `V_target` for every vertex of `V_source`.
#[allow(clippy::too_many_arguments)]
fn fill_side(
    g: &Csr,
    partition: &Partition,
    source: usize,
    target: usize,
    b: usize,
    threads: usize,
    seed: u64,
    out: &mut Vec<u32>,
) {
    let src_range = partition.range(source);
    let tgt_range = partition.range(target);
    let n_src = (src_range.end - src_range.start) as usize;
    out.clear();
    out.resize(n_src * b, NO_SAMPLE);

    const CHUNK: usize = 1024;
    let cursor = AtomicUsize::new(0);
    let out_chunks: Vec<&mut [u32]> = out.chunks_mut(CHUNK * b).collect();
    let num_chunks = out_chunks.len();
    let out_slots: Vec<parking_lot::Mutex<&mut [u32]>> = out_chunks
        .into_iter()
        .map(parking_lot::Mutex::new)
        .collect();

    let workers = threads.max(1).min(num_chunks.max(1));
    let src_start = src_range.start;
    let tgt = tgt_range.clone();
    gosh_runtime::run(workers, |_ctx| loop {
        let c = cursor.fetch_add(1, Ordering::Relaxed);
        if c >= num_chunks {
            break;
        }
        // Seed per chunk, not per thread: the pool is identical
        // no matter which worker claims which chunk.
        let mut rng = Xorshift128Plus::new(mix64(seed ^ (c as u64) << 24));
        let mut slot = out_slots[c].lock();
        let base = c * CHUNK;
        for (i, row) in slot.chunks_mut(b).enumerate() {
            let v = src_start + (base + i) as u32;
            let nbrs = g.neighbors(v);
            // Γ(v) ∩ V_target via binary search on sorted list.
            let lo = nbrs.partition_point(|&u| u < tgt.start);
            let hi = nbrs.partition_point(|&u| u < tgt.end);
            if lo == hi {
                continue; // row stays NO_SAMPLE
            }
            let span = (hi - lo) as u32;
            for s in row.iter_mut() {
                *s = nbrs[lo + rng.below(span) as usize];
            }
        }
    });
}

/// Generate the pool for `pair` (with `pair.0 >= pair.1`).
pub fn generate_pool(
    g: &Csr,
    partition: &Partition,
    pair: (usize, usize),
    b: usize,
    threads: usize,
    seed: u64,
) -> SamplePool {
    let (a, bb) = pair;
    assert!(a >= bb, "pair must be ordered (a >= b)");
    let mut fwd = Vec::new();
    fill_side(
        g,
        partition,
        a,
        bb,
        b,
        threads,
        mix64(seed ^ 0xF0),
        &mut fwd,
    );
    let mut rev = Vec::new();
    if a != bb {
        fill_side(
            g,
            partition,
            bb,
            a,
            b,
            threads,
            mix64(seed ^ 0x0F),
            &mut rev,
        );
    }
    SamplePool { pair, fwd, rev }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosh_graph::gen::erdos_renyi;

    #[test]
    fn targets_live_in_the_right_part() {
        let g = erdos_renyi(200, 2000, 7);
        let p = Partition::new(200, 4);
        let pool = generate_pool(&g, &p, (2, 1), 5, 4, 11);
        let range_a = p.range(2);
        let range_b = p.range(1);
        assert_eq!(pool.fwd.len(), p.len(2) * 5);
        assert_eq!(pool.rev.len(), p.len(1) * 5);
        for &t in &pool.fwd {
            if t != NO_SAMPLE {
                assert!(range_b.contains(&t));
            }
        }
        for &t in &pool.rev {
            if t != NO_SAMPLE {
                assert!(range_a.contains(&t));
            }
        }
    }

    #[test]
    fn targets_are_actual_neighbors() {
        let g = erdos_renyi(120, 800, 9);
        let p = Partition::new(120, 3);
        let pool = generate_pool(&g, &p, (1, 0), 4, 2, 13);
        let range = p.range(1);
        for (i, chunk) in pool.fwd.chunks(4).enumerate() {
            let v = range.start + i as u32;
            for &t in chunk {
                if t != NO_SAMPLE {
                    assert!(g.has_edge(v, t), "({v},{t}) not an edge");
                }
            }
        }
    }

    #[test]
    fn diagonal_pool_has_no_rev() {
        let g = erdos_renyi(100, 600, 3);
        let p = Partition::new(100, 2);
        let pool = generate_pool(&g, &p, (1, 1), 5, 2, 17);
        assert!(pool.rev.is_empty());
        assert_eq!(pool.fwd.len(), p.len(1) * 5);
    }

    #[test]
    fn vertices_without_cross_neighbors_get_sentinel() {
        // Path 0-1 | 2-3 with parts {0,1}, {2,3}: no cross edges at all.
        let g = gosh_graph::builder::csr_from_edges(4, &[(0, 1), (2, 3)]);
        let p = Partition::new(4, 2);
        let pool = generate_pool(&g, &p, (1, 0), 3, 1, 19);
        assert!(pool.fwd.iter().all(|&t| t == NO_SAMPLE));
        assert!(pool.rev.iter().all(|&t| t == NO_SAMPLE));
    }

    #[test]
    fn pool_generation_is_deterministic_across_thread_counts() {
        let g = erdos_renyi(150, 900, 21);
        let p = Partition::new(150, 3);
        let a = generate_pool(&g, &p, (2, 0), 5, 1, 23);
        let b = generate_pool(&g, &p, (2, 0), 5, 4, 23);
        assert_eq!(a.fwd, b.fwd);
        assert_eq!(a.rev, b.rev);
    }
}
