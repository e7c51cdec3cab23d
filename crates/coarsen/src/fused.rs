//! The parallel coarse-graph builder.
//!
//! One coarsening step is the sequential Algorithm 4 mapping of
//! [`crate::sequential`] followed by [`build_fused`], which turns the
//! fine CSR and that mapping into the coarse CSR in one allocation-free
//! pipeline:
//!
//! 1. **Scatter** — a member counting sort onto reused scratch: counts
//!    per cluster in one O(|V|) sweep, prefix-summed offsets, then a
//!    parallel member-id scatter with one relaxed `fetch_add` per
//!    vertex. The intermediate is |V| ids, a tenth of the old
//!    thread-private edge regions.
//! 2. **Gather + dedup + sort** — clusters are split into one
//!    contiguous range per thread (balanced by member mass); each
//!    thread walks a cluster's members, maps every fine arc's target
//!    once, and sets one bit per target in a two-level bitmap
//!    accumulator (bit per cluster id + summary bit per word) —
//!    self-loops and multi-edges collapse for free. Sweeping the
//!    summary's touched range lowest-first visits exactly the non-zero
//!    words and emits the unique targets *already sorted* into the
//!    thread's private output run, zeroing both levels on the way out:
//!    no comparison sort of candidate lists and no clear pass anywhere.
//! 3. **Assemble** — the unique degrees prefix-sum into the final
//!    `xadj`; thread 0's run becomes the adjacency and the other runs
//!    append to it with plain memcpys (nothing is copied at one thread).
//!    The result is byte-identical to
//!    [`crate::build::build_coarse_sequential`] on the same mapping, at
//!    every thread count.
//!
//! All level-sized scratch lives in a [`CoarsenWorkspace`] that the
//! hierarchy loop reuses across levels: because coarse graphs only
//! shrink, the whole hierarchy runs on the buffers sized by `G_0`. The
//! one exception is thread 0's output run, which leaves with each
//! coarse graph as its adjacency.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use crate::mapping::Mapping;
use gosh_graph::csr::{Csr, VertexId};

/// Vertices per dynamic batch in the scatter phase.
const VERTEX_BATCH: usize = 512;

/// Per-thread scratch for the gather phase: a two-level bitmap
/// accumulator over cluster ids plus the thread's output run.
///
/// `bits` holds one bit per possible target (`k/8` bytes, L1/L2-resident
/// for typical levels); `summary` holds one bit per *word* of `bits`.
/// Setting both bits per gathered arc deduplicates for free, and the
/// emission sweep walks only the summary's touched range, visiting
/// exactly the non-zero words: targets come out *already sorted*, and
/// both levels are zeroed on the way out (`take`), so no clear pass and
/// no per-cluster cost proportional to `k`. Invariant: both levels are
/// all-zero between clusters.
#[derive(Default)]
struct ThreadScratch {
    /// Bit per target cluster id.
    bits: Vec<u64>,
    /// Bit per word of `bits` that holds at least one set bit.
    summary: Vec<u64>,
    /// The thread's finished adjacency run: deduplicated, sorted target
    /// lists of its contiguous cluster range, back to back. Assembly
    /// takes thread 0's run as the coarse adjacency and appends the
    /// others in range order with plain memcpys.
    out: Vec<VertexId>,
}

/// Reusable level-sized scratch for [`build_fused`]. Create once,
/// pass to every level: buffers grow to the finest level's size and are
/// reused (never reallocated) for all coarser levels, except thread 0's
/// output run, which each level's coarse graph takes as its adjacency.
#[derive(Default)]
pub struct CoarsenWorkspace {
    /// Per-cluster member offsets (counting sort, prefix-summed).
    offsets: Vec<usize>,
    /// Per-cluster scatter cursor; after the gather, the unique degree.
    cursors: Vec<AtomicUsize>,
    /// Member-id scatter arena (relaxed stores only; a slot is written
    /// by exactly one thread and read after the scope join).
    arena: Vec<AtomicU32>,
    /// Per-thread scratch; one entry per worker.
    threads: Vec<ThreadScratch>,
}

impl CoarsenWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_clusters(&mut self, k: usize) {
        if self.offsets.len() < k + 1 {
            self.offsets.resize(k + 1, 0);
        }
        if self.cursors.len() < k {
            self.cursors.resize_with(k, || AtomicUsize::new(0));
        }
    }

    fn ensure_arena(&mut self, arcs: usize) {
        if self.arena.len() < arcs {
            self.arena.resize_with(arcs, || AtomicU32::new(0));
        }
    }

    fn ensure_threads(&mut self, threads: usize) {
        if self.threads.len() < threads {
            self.threads.resize_with(threads, ThreadScratch::default);
        }
    }
}

/// The parallel coarse-CSR construction of one coarsening step.
/// Byte-identical to [`crate::build::build_coarse_sequential`] on the
/// same mapping, for any thread count.
pub fn build_fused(g: &Csr, mapping: &Mapping, threads: usize, ws: &mut CoarsenWorkspace) -> Csr {
    assert!(threads >= 1, "need at least one thread");
    let n = g.num_vertices();
    let k = mapping.num_clusters();
    if k == 0 {
        return Csr::empty(0);
    }
    // Hard precondition even in release: the gather's unchecked indexing
    // is sound only for a mapping of exactly this graph (`Mapping::new`
    // enforces the companion `map[u] < k` invariant).
    assert_eq!(mapping.num_fine(), n, "mapping does not match the graph");
    let map = mapping.as_slice();
    ws.ensure_clusters(k);
    ws.ensure_arena(n);
    ws.ensure_threads(threads);

    // Phase 1: member counting sort onto reused scratch — counts per
    // cluster (one O(|V|) sweep), prefix-summed offsets, then a parallel
    // scatter of member vertex ids (one relaxed fetch_add per vertex).
    // Scattering |V| member ids instead of |E| arc targets keeps the
    // intermediate a tenth of the old edge-region arena, and the gather
    // below then touches each fine arc exactly once.
    let offsets = &mut ws.offsets[..k + 1];
    offsets.fill(0);
    for &c in map {
        offsets[c as usize + 1] += 1;
    }
    for c in 0..k {
        offsets[c + 1] += offsets[c];
    }
    let offsets = &ws.offsets[..k + 1];
    let cursors = &ws.cursors[..k];
    for c in cursors {
        c.store(0, Ordering::Relaxed);
    }
    let members = &ws.arena[..n];
    let fill_cursor = AtomicUsize::new(0);
    gosh_runtime::run(threads, |_ctx| loop {
        let start = fill_cursor.fetch_add(VERTEX_BATCH, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + VERTEX_BATCH).min(n);
        for (v, &c) in map.iter().enumerate().take(end).skip(start) {
            let c = c as usize;
            let slot = offsets[c] + cursors[c].fetch_add(1, Ordering::Relaxed);
            members[slot].store(v as VertexId, Ordering::Relaxed);
        }
    });

    // Phase 2: fused gather + dedup + sort per coarse vertex. Clusters
    // are split into one contiguous range per thread, balanced by member
    // mass. Each thread walks a cluster's members and *sets one bit per
    // mapped arc target* in its two-level bitmap accumulator (dedup for
    // free), then sweeps the summary's touched range lowest-first: only
    // non-zero bitmap words are visited, the emitted targets come out
    // already sorted, and the sweep zeroes both levels behind itself,
    // restoring the all-zero invariant without a clear pass. The cursor
    // is repurposed to hold the unique degree.
    let words = k.div_ceil(64);
    let summary_words = words.div_ceil(64);
    for scratch in ws.threads[..threads].iter_mut() {
        if scratch.bits.len() < words {
            scratch.bits.resize(words, 0);
        }
        if scratch.summary.len() < summary_words {
            scratch.summary.resize(summary_words, 0);
        }
    }
    let bounds = range_bounds(offsets, k, threads);
    // Each worker index owns one `&mut ThreadScratch`; the slot mutexes
    // hand the disjoint borrows through the shared runtime closure
    // (uncontended — exactly one worker claims each slot).
    let scratch_slots: Vec<std::sync::Mutex<Option<&mut ThreadScratch>>> = ws.threads[..threads]
        .iter_mut()
        .map(|s| std::sync::Mutex::new(Some(s)))
        .collect();
    gosh_runtime::run(threads, |ctx| {
        let t = ctx.index();
        let mut slot = scratch_slots[t].lock().unwrap_or_else(|e| e.into_inner());
        let scratch = slot.take().expect("scratch slot claimed once");
        let (c_start, c_end) = (bounds[t], bounds[t + 1]);
        scratch.out.clear();
        let bits = &mut scratch.bits[..words];
        let summary = &mut scratch.summary[..summary_words];
        for c in c_start..c_end {
            let run_start = scratch.out.len();
            // Pre-set the cluster's own bit: intra-cluster arcs
            // then cost nothing extra, and emission skips it.
            bits[c / 64] |= 1u64 << (c % 64);
            summary[c / 4096] |= 1u64 << (c / 64 % 64);
            let (mut lo, mut hi) = (c / 4096, c / 4096);
            for slot in &members[offsets[c]..offsets[c + 1]] {
                let v = slot.load(Ordering::Relaxed);
                for &u in g.neighbors(v) {
                    // SAFETY: `u < n = map.len()` is a CSR
                    // invariant (`Csr::from_raw` validates every
                    // neighbour id) and `map[u] < k ≤ words·64`
                    // is the `Mapping` compactness invariant;
                    // both keep data-dependent bounds checks out
                    // of the per-arc hot loop.
                    let cu = unsafe { *map.get_unchecked(u as usize) } as usize;
                    let w = cu / 64;
                    // SAFETY: `cu < k` (Mapping compactness) keeps both
                    // bitmap words in bounds: `w < words = bits.len()`
                    // and `w / 64 < summary.len()` by construction.
                    unsafe {
                        *bits.get_unchecked_mut(w) |= 1u64 << (cu % 64);
                        *summary.get_unchecked_mut(w / 64) |= 1u64 << (w % 64);
                    }
                    lo = lo.min(w / 64);
                    hi = hi.max(w / 64);
                }
            }
            // Sweep the summary's touched range lowest-first,
            // visiting exactly the non-zero bitmap words and
            // zeroing both levels on the way out: ascending
            // unique targets, no sort, no clear pass.
            for (s, sslot) in summary.iter_mut().enumerate().take(hi + 1).skip(lo) {
                let mut sword = std::mem::take(sslot);
                while sword != 0 {
                    let w = s * 64 + sword.trailing_zeros() as usize;
                    sword &= sword - 1;
                    let mut word = std::mem::take(&mut bits[w]);
                    while word != 0 {
                        let cu = w * 64 + word.trailing_zeros() as usize;
                        word &= word - 1;
                        if cu != c {
                            scratch.out.push(cu as VertexId);
                        }
                    }
                }
            }
            cursors[c].store(scratch.out.len() - run_start, Ordering::Relaxed);
        }
    });

    // Phase 3: assemble. Prefix-sum the unique degrees into the final
    // xadj and concatenate the per-thread runs — contiguous cluster
    // ranges in order, so the result is the same cluster-major CSR the
    // sequential builder emits, bit for bit, for any thread count.
    let mut xadj = Vec::with_capacity(k + 1);
    xadj.push(0usize);
    for c in cursors {
        xadj.push(xadj.last().unwrap() + c.load(Ordering::Relaxed));
    }
    // Thread 0's run becomes the adjacency itself (at one thread, with
    // no copy at all); the other runs are appended after it.
    let mut adj = std::mem::take(&mut ws.threads[0].out);
    for scratch in &ws.threads[1..threads] {
        adj.extend_from_slice(&scratch.out);
    }
    adj.shrink_to_fit();
    // Construction proves the invariants: `xadj` is a prefix sum (so
    // monotone, starting at 0) whose total is exactly the concatenated
    // run length, and every entry is a compact cluster id < k. Debug
    // builds re-validate via `from_raw`.
    Csr::from_raw_trusted(xadj, adj)
}

/// Split `0..k` into one contiguous cluster range per thread with
/// roughly equal arena mass (`offsets` prefix sums), so the dedup phase
/// balances even when a few hub clusters dominate.
fn range_bounds(offsets: &[usize], k: usize, threads: usize) -> Vec<usize> {
    let total = offsets[k];
    let mut bounds = Vec::with_capacity(threads + 1);
    bounds.push(0);
    let mut c = 0usize;
    for t in 1..threads {
        let target = total * t / threads;
        while c < k && offsets[c] < target {
            c += 1;
        }
        bounds.push(c.min(k));
    }
    bounds.push(k);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_coarse_sequential;
    use crate::sequential::map_sequential;
    use gosh_graph::gen::{erdos_renyi, rmat, RmatConfig};

    #[test]
    fn fused_build_matches_sequential_on_sequential_mapping() {
        let g = rmat(&RmatConfig::graph500(11, 6.0), 13);
        let m = map_sequential(&g);
        let seq = build_coarse_sequential(&g, &m);
        let mut ws = CoarsenWorkspace::new();
        for threads in [1, 2, 4, 8] {
            let fused = build_fused(&g, &m, threads, &mut ws);
            assert_eq!(seq, fused, "threads = {threads}");
        }
    }

    #[test]
    fn fused_step_produces_consistent_pair() {
        let g = erdos_renyi(2000, 12_000, 3);
        let m = map_sequential(&g);
        let coarse = build_fused(&g, &m, 4, &mut CoarsenWorkspace::new());
        assert_eq!(m.num_fine(), g.num_vertices());
        assert_eq!(coarse.num_vertices(), m.num_clusters());
        assert_eq!(coarse, build_coarse_sequential(&g, &m));
        assert!(coarse.is_symmetric());
        assert!(coarse.has_no_self_loops());
    }

    #[test]
    fn workspace_reuse_across_levels_is_clean() {
        // Run a whole shrinking sequence through one workspace; every
        // level must still agree with the sequential oracle.
        let mut g = rmat(&RmatConfig::graph500(11, 8.0), 17);
        let mut ws = CoarsenWorkspace::new();
        for _ in 0..6 {
            let m = map_sequential(&g);
            let coarse = build_fused(&g, &m, 3, &mut ws);
            assert_eq!(coarse, build_coarse_sequential(&g, &m));
            if coarse.num_vertices() < 2 || coarse.num_vertices() == g.num_vertices() {
                break;
            }
            g = coarse;
        }
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let mut ws = CoarsenWorkspace::new();
        let g = Csr::empty(0);
        let m = map_sequential(&g);
        assert_eq!(m.num_clusters(), 0);
        assert_eq!(build_fused(&g, &m, 4, &mut ws).num_vertices(), 0);
        let g = Csr::empty(7);
        let m = map_sequential(&g);
        assert_eq!(m.num_clusters(), 7);
        let c = build_fused(&g, &m, 3, &mut ws);
        assert_eq!(c.num_vertices(), 7);
        assert_eq!(c.num_edges(), 0);
    }
}
