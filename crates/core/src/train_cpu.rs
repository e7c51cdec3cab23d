//! Multi-core CPU trainer (Hogwild), copy-free and sharded.
//!
//! The 16-thread CPU implementation that Figure 4 uses as its speedup
//! baseline, and the engine behind the VERSE comparator in
//! `gosh-baselines`. Threads share the matrix through relaxed atomics and
//! update without locks — the HOGWILD! regime (Niu et al., NIPS'11) the
//! paper cites for CPUs (§3.1). Epoch accounting matches the GPU path:
//! one epoch = |E| source processings drawn from the arc list.
//!
//! Three design decisions keep the hot path at memory speed:
//!
//! * **Copy-free sample updates.** Sample rows are updated through
//!   [`SharedMatrix::row_atomics`] views, in place: [`fused_update`]
//!   accumulates the dot and applies both sides' axpy in one fused pass
//!   over the view. The former engine's `one_update` copied every sample
//!   row into a `tmp` scratch, re-read it for the axpy, and bounced the
//!   source through a second scratch per update — that per-sample copy
//!   discipline is gone, halving atomic traffic per update.
//! * **Register-staged source row.** Mirroring the GPU kernel (§3.1
//!   stages the source row in shared memory), each source's row is read
//!   once, updated locally across its `1 + ns` samples — where it
//!   vectorizes, since it is plain `f32` — and written back once.
//! * **Sharded work distribution.** Each epoch's source space is split
//!   into one contiguous shard per thread ([`shard_ranges`]); the
//!   persistent [`gosh_runtime`] worker team holds at a poisonable epoch
//!   barrier ([`gosh_runtime::WorkerCtx::barrier`]), so threads never
//!   touch a shared cursor, never pay a per-epoch spawn — and a worker
//!   panic unwinds the team instead of deadlocking it. The former engine
//!   handed out batches from a global `AtomicUsize`, serializing every
//!   thread through one contended cache line. Sample rows are prefetched
//!   as soon as their ids are drawn.
//!
//! The engine is range-parametrized through [`HogwildPlan`]: the
//! single-node [`train_cpu`] trains every epoch of every source, while
//! the distributed trainer (`crate::distrib`) gives each node a source
//! span and an epoch window, with globally-indexed learning-rate decay
//! and RNG streams — full ranges on node 0 reproduce the single-node
//! engine bit-for-bit at one thread.

use std::ops::Range;
use std::sync::atomic::AtomicU64;

use gosh_graph::csr::Csr;
use gosh_graph::rng::{mix64, Xorshift128Plus};
use gosh_runtime::Runtime;

use crate::backend::{Similarity, TrainParams};
use crate::model::{Embedding, SharedMatrix};
use crate::quant::{Precision, QuantizedMatrix};
use crate::schedule::decayed_lr;
use crate::simd;
use crate::update::fast_sigmoid;

/// Deterministic contiguous shard assignment (one shard per thread) —
/// the runtime's, re-exported at its historical home.
pub use gosh_runtime::shard_ranges;

/// Train `m` on `g` in place with Hogwild threads.
///
/// `params.dim` is ignored — the dimension comes from `m` itself.
pub fn train_cpu(g: &Csr, m: &mut Embedding, params: &TrainParams) {
    assert_eq!(g.num_vertices(), m.num_vertices(), "graph/matrix mismatch");
    assert!(params.threads >= 1);
    if g.num_edges() == 0 || params.epochs == 0 {
        return;
    }
    if params.precision != Precision::F32 {
        return train_cpu_quantized(g, m, params);
    }
    let shared = SharedMatrix::from_embedding(m);
    let plan = HogwildPlan::new(g);
    plan.run_range(
        gosh_runtime::global(),
        g,
        &shared,
        params,
        0..params.epochs,
        params.epochs,
        0..plan.sources(),
        0,
    );
    *m = shared.to_embedding();
}

/// Train `m` on `g` with Hogwild threads, drawing sources only from
/// `sources` — the warm-start engine behind [`crate::warm`]: dirty-region
/// vertices are re-trained in place while the rest of the matrix serves
/// as (slowly adapting) sample targets. f32 only; epoch accounting is
/// relative to the restricted arc list.
pub fn train_cpu_sources(g: &Csr, m: &mut Embedding, params: &TrainParams, sources: &[u32]) {
    assert_eq!(g.num_vertices(), m.num_vertices(), "graph/matrix mismatch");
    assert!(params.threads >= 1);
    assert_eq!(
        params.precision,
        Precision::F32,
        "warm-start training is f32-only"
    );
    if g.num_edges() == 0 || params.epochs == 0 || sources.is_empty() {
        return;
    }
    let plan = HogwildPlan::new_for_sources(g, sources);
    if plan.num_arcs == 0 {
        return; // every listed source is isolated
    }
    let shared = SharedMatrix::from_embedding(m);
    plan.run_range(
        gosh_runtime::global(),
        g,
        &shared,
        params,
        0..params.epochs,
        params.epochs,
        0..plan.sources(),
        0,
    );
    *m = shared.to_embedding();
}

/// Precomputed training plan for one level: the arc list positive
/// sampling walks (`Q` of Algorithm 1) and the per-epoch source count.
/// Built once per level, reusable across epoch windows — the distributed
/// trainer calls [`HogwildPlan::run_range`] once per exchange round
/// without re-deriving the arc list.
pub struct HogwildPlan {
    arc_src: Vec<u32>,
    num_arcs: usize,
    sources: usize,
}

impl HogwildPlan {
    /// The plan over every vertex in id order: [`Self::new_for_sources`]
    /// with the source list `0..|V|`.
    pub fn new(g: &Csr) -> Self {
        Self::from_sources(g, 0..g.num_vertices() as u32)
    }

    /// A plan whose arc list covers only `sources` (each repeated by its
    /// degree, in the given order) — the warm-start trainer's hook: one
    /// epoch costs `Σ deg(v) for v ∈ sources` processings instead of
    /// `|E|`, and only the listed vertices are ever drawn as sources
    /// (sample targets still range over the whole matrix). An empty or
    /// all-isolated source set yields a plan whose `run_range` is a
    /// no-op.
    pub fn new_for_sources(g: &Csr, sources: &[u32]) -> Self {
        Self::from_sources(g, sources.iter().copied())
    }

    fn from_sources(g: &Csr, sources: impl Iterator<Item = u32> + Clone) -> Self {
        let num_arcs = sources.clone().map(|v| g.degree(v)).sum();
        let mut arc_src: Vec<u32> = Vec::with_capacity(num_arcs);
        for v in sources {
            arc_src.extend(std::iter::repeat_n(v, g.degree(v)));
        }
        Self {
            arc_src,
            num_arcs,
            sources: (num_arcs / 2).max(usize::from(num_arcs > 0)),
        }
    }

    /// Source processings per epoch: half the arc count, at least one
    /// while the plan has an arc, zero when it has none.
    pub fn sources(&self) -> usize {
        self.sources
    }

    /// Train epochs `epochs` (global indices: learning-rate decay and
    /// RNG seeds use them against `total_epochs`) over source span
    /// `span`, sharded across `params.threads` workers of `rt`.
    ///
    /// `rng_salt` keys this caller's per-thread RNG streams; distributed
    /// nodes pass `node << 32` so no two nodes share a stream. With the
    /// full ranges and salt 0 this **is** [`train_cpu`]'s engine.
    #[allow(clippy::too_many_arguments)]
    pub fn run_range(
        &self,
        rt: &Runtime,
        g: &Csr,
        shared: &SharedMatrix,
        params: &TrainParams,
        epochs: Range<u32>,
        total_epochs: u32,
        span: Range<usize>,
        rng_salt: u64,
    ) {
        if span.is_empty() || epochs.is_empty() || self.num_arcs == 0 {
            return;
        }
        let n = g.num_vertices() as u32;
        let arc_src = &self.arc_src;
        let num_arcs = self.num_arcs;
        // No thread should sit on an empty shard *and* a barrier slot.
        let threads = params.threads.min(span.len());
        let shards = shard_ranges(span.len(), threads);
        rt.run(threads, |ctx| {
            let t = ctx.index();
            let shard = (shards[t].start + span.start)..(shards[t].end + span.start);
            // One allocation per worker lifetime: the staged source
            // row (the CPU analogue of the kernel's shared memory),
            // padded to the paired-lane width.
            let mut src_row = vec![0f32; 2 * shared.pairs_per_row()];
            for epoch in epochs.clone() {
                let lr_now = decayed_lr(params.lr, epoch, total_epochs);
                let mut rng = Xorshift128Plus::new(mix64(
                    params.seed ^ ((epoch as u64) << 20) ^ (rng_salt + t as u64),
                ));
                // `(2s + epoch) % num_arcs` with the division hoisted:
                // 2s < num_arcs and offset < num_arcs, so one
                // conditional subtract replaces a per-source div.
                let offset = epoch as usize % num_arcs;
                let arc_at = |s: usize| {
                    let mut idx = 2 * s + offset;
                    if idx >= num_arcs {
                        idx -= num_arcs;
                    }
                    arc_src[idx]
                };
                let mut src_next = if shard.is_empty() {
                    0
                } else {
                    arc_at(shard.start)
                };
                for s in shard.clone() {
                    let src = src_next;
                    // Warm the next source's row while this one trains.
                    if s + 1 < shard.end {
                        src_next = arc_at(s + 1);
                        prefetch_row(shared.row_atomics(src_next));
                    }
                    process_source(g, shared, src, n, params, lr_now, &mut rng, &mut src_row);
                }
                // Epoch synchronization (§3.1): the next epoch's
                // learning rate applies only once every shard is done.
                ctx.barrier();
            }
        });
    }
}

/// Negative draws batched ahead per source (bounds the id scratchpad;
/// the row data itself is never staged).
const PREFETCH_AHEAD: usize = 8;

/// Hint the cache that `row` is about to be read. The trainer is
/// memory-latency-bound: sample rows are random, so without the hint
/// every update eats the full L2/L3 miss before its dot product can
/// start.
#[inline(always)]
fn prefetch_row(row: &[AtomicU64]) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `_mm_prefetch` is an architectural hint; it performs no
        // memory access and is valid for any pointer.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let p = row.as_ptr() as *const i8;
            for off in (0..row.len() * 8).step_by(64) {
                _mm_prefetch(p.add(off), _MM_HINT_T0);
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // Portable fallback: a relaxed load warms the first line.
        if let Some(c) = row.first() {
            std::hint::black_box(c.load(std::sync::atomic::Ordering::Relaxed));
        }
    }
}

/// One source processing: a positive draw from `Q` plus `ns` negatives.
/// The source row is staged in `src_row` across its samples (written
/// back once); sample rows are updated fully in place.
///
/// Sample ids are drawn *before* any update — positive first, then the
/// negatives, preserving the per-thread RNG stream order — so every
/// sample row can be prefetched while earlier updates compute.
#[allow(clippy::too_many_arguments)]
#[inline]
fn process_source(
    g: &Csr,
    shared: &SharedMatrix,
    src: u32,
    n: u32,
    params: &TrainParams,
    lr: f32,
    rng: &mut Xorshift128Plus,
    src_row: &mut [f32],
) {
    let pos = positive_sample(g, src, params.similarity, rng);
    let ns = params.negative_samples;
    let ahead = ns.min(PREFETCH_AHEAD);
    let mut negs = [0u32; PREFETCH_AHEAD];
    for slot in negs.iter_mut().take(ahead) {
        *slot = rng.below(n);
    }
    if let Some(u) = pos {
        prefetch_row(shared.row_atomics(u));
    }
    for &u in negs.iter().take(ahead) {
        prefetch_row(shared.row_atomics(u));
    }
    let src_pairs = shared.row_atomics(src);
    simd::load_row_pairs(src_row, src_pairs);
    if let Some(u) = pos {
        fused_update(src_row, shared.row_atomics(u), 1.0, lr);
    }
    for &u in negs.iter().take(ahead) {
        fused_update(src_row, shared.row_atomics(u), 0.0, lr);
    }
    for _ in ahead..ns {
        let u = rng.below(n);
        fused_update(src_row, shared.row_atomics(u), 0.0, lr);
    }
    simd::store_row_pairs(src_pairs, src_row);
}

/// Draw a positive sample for `src` under the chosen similarity.
#[inline]
pub fn positive_sample(
    g: &Csr,
    src: u32,
    similarity: Similarity,
    rng: &mut Xorshift128Plus,
) -> Option<u32> {
    let deg = g.degree(src);
    if deg == 0 {
        return None;
    }
    match similarity {
        Similarity::Adjacency => Some(g.neighbor_at(src, rng.below(deg as u32) as usize)),
        Similarity::Ppr { alpha } => {
            let mut u = src;
            loop {
                let du = g.degree(u);
                if du == 0 {
                    // Dead end: restart at the source's own neighbourhood.
                    u = g.neighbor_at(src, rng.below(deg as u32) as usize);
                } else {
                    u = g.neighbor_at(u, rng.below(du as u32) as usize);
                }
                if rng.next_f32() >= alpha {
                    return Some(u);
                }
            }
        }
    }
}

/// The fused Algorithm 1 update between a staged source row (padded to
/// the paired-lane width, pads zero) and an in-place atomic sample-row
/// view: one pass accumulates the dot product, a second applies both
/// sides' axpy with pre-update values — the reference-code semantics of
/// [`crate::update::update_embedding`], same 8-lane dot accumulation
/// order ([`crate::simd::dot_pairs`]), same sigmoid, so the two stay
/// bit-identical whether the runtime dispatch lands on the AVX2 or the
/// scalar path. Each sample pair is loaded twice and stored once, two
/// lanes per atomic op, with no scratch copy and no per-element
/// indexing. Zero pad lanes update to exactly zero (`0 + score·0`),
/// preserving the padding invariant.
#[inline]
pub fn fused_update(src: &mut [f32], sample: &[AtomicU64], b: f32, lr: f32) {
    debug_assert_eq!(src.len(), 2 * sample.len());
    let dot = simd::dot_pairs(src, sample);
    let score = (b - fast_sigmoid(dot)) * lr;
    simd::update_pairs(src, sample, score);
}

/// The reduced-precision Hogwild engine: identical schedule, sharding,
/// RNG streams and update math as the f32 engine, but the shared matrix
/// is a [`QuantizedMatrix`] — every touched row **dequantizes on load**
/// into f32 lanes, updates there through the same [`simd`] kernels, and
/// **requantizes on store**. Each sample update is whole-row (an i8 row's
/// scale pair depends on its min/max), so the engine stages both sides
/// instead of updating the sample in place; the extra quantize work is
/// the price of rows that are 2–4x narrower than f32.
fn train_cpu_quantized(g: &Csr, m: &mut Embedding, params: &TrainParams) {
    let n = g.num_vertices() as u32;
    let dim = m.dim();
    let shared = QuantizedMatrix::from_embedding(m, params.precision);
    let plan = HogwildPlan::new(g);
    let arc_src = &plan.arc_src;
    let num_arcs = plan.num_arcs;
    let threads = params.threads.min(plan.sources);
    let shards = shard_ranges(plan.sources, threads);
    let shared_ref = &shared;

    gosh_runtime::global().run(threads, |ctx| {
        let shard = shards[ctx.index()].clone();
        let t = ctx.index();
        let mut src_row = vec![0f32; dim];
        let mut smp_row = vec![0f32; dim];
        let mut codes = vec![0u8; dim];
        for epoch in 0..params.epochs {
            let lr_now = decayed_lr(params.lr, epoch, params.epochs);
            let mut rng =
                Xorshift128Plus::new(mix64(params.seed ^ ((epoch as u64) << 20) ^ t as u64));
            let offset = epoch as usize % num_arcs;
            let arc_at = |s: usize| {
                let mut idx = 2 * s + offset;
                if idx >= num_arcs {
                    idx -= num_arcs;
                }
                arc_src[idx]
            };
            let mut src_next = if shard.is_empty() {
                0
            } else {
                arc_at(shard.start)
            };
            for s in shard.clone() {
                let src = src_next;
                if s + 1 < shard.end {
                    src_next = arc_at(s + 1);
                    prefetch_row(shared_ref.row_cells(src_next));
                }
                process_source_quantized(
                    g,
                    shared_ref,
                    src,
                    n,
                    params,
                    lr_now,
                    &mut rng,
                    &mut src_row,
                    &mut smp_row,
                    &mut codes,
                );
            }
            ctx.barrier();
        }
    });
    *m = shared.to_embedding();
}

/// One source processing of the quantized engine — the same draw order
/// and sample schedule as [`process_source`], staged through dequantized
/// f32 rows on both sides.
#[allow(clippy::too_many_arguments)]
#[inline]
fn process_source_quantized(
    g: &Csr,
    shared: &QuantizedMatrix,
    src: u32,
    n: u32,
    params: &TrainParams,
    lr: f32,
    rng: &mut Xorshift128Plus,
    src_row: &mut [f32],
    smp_row: &mut [f32],
    codes: &mut [u8],
) {
    let pos = positive_sample(g, src, params.similarity, rng);
    let ns = params.negative_samples;
    let ahead = ns.min(PREFETCH_AHEAD);
    let mut negs = [0u32; PREFETCH_AHEAD];
    for slot in negs.iter_mut().take(ahead) {
        *slot = rng.below(n);
    }
    if let Some(u) = pos {
        prefetch_row(shared.row_cells(u));
    }
    for &u in negs.iter().take(ahead) {
        prefetch_row(shared.row_cells(u));
    }
    shared.load_row(src, src_row);
    let mut one = |u: u32, b: f32| {
        shared.load_row(u, smp_row);
        let dot = simd::dot8(src_row, smp_row);
        let score = (b - fast_sigmoid(dot)) * lr;
        simd::fused_axpy8(src_row, smp_row, score);
        shared.store_row_scratch(u, smp_row, codes);
    };
    if let Some(u) = pos {
        one(u, 1.0);
    }
    for &u in negs.iter().take(ahead) {
        one(u, 0.0);
    }
    for _ in ahead..ns {
        let u = rng.below(n);
        one(u, 0.0);
    }
    shared.store_row_scratch(src, src_row, codes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::update_embedding;
    use gosh_graph::builder::csr_from_edges;

    type CliquePairs = (Csr, Vec<(u32, u32)>, Vec<(u32, u32)>);

    fn two_cliques() -> CliquePairs {
        let mut edges = vec![];
        for a in 0..8u32 {
            for b in 0..a {
                edges.push((a, b));
                edges.push((a + 8, b + 8));
            }
        }
        edges.push((0, 8));
        let g = csr_from_edges(16, &edges);
        let intra = vec![(0, 1), (2, 3), (8, 9), (10, 11)];
        let inter = vec![(0, 9), (1, 10), (2, 12), (3, 13)];
        (g, intra, inter)
    }

    fn mean_cos(m: &Embedding, pairs: &[(u32, u32)]) -> f32 {
        pairs.iter().map(|&(a, b)| m.cosine(a, b)).sum::<f32>() / pairs.len() as f32
    }

    #[test]
    fn single_thread_learns_structure() {
        let (g, intra, inter) = two_cliques();
        let mut m = Embedding::random(16, 16, 3);
        let p = TrainParams {
            threads: 1,
            epochs: 150,
            lr: 0.05,
            ..Default::default()
        };
        train_cpu(&g, &mut m, &p);
        assert!(mean_cos(&m, &intra) > mean_cos(&m, &inter) + 0.3);
    }

    #[test]
    fn hogwild_threads_learn_structure() {
        let (g, intra, inter) = two_cliques();
        let mut m = Embedding::random(16, 16, 4);
        let p = TrainParams {
            threads: 8,
            epochs: 150,
            lr: 0.05,
            ..Default::default()
        };
        train_cpu(&g, &mut m, &p);
        assert!(mean_cos(&m, &intra) > mean_cos(&m, &inter) + 0.3);
    }

    #[test]
    fn ppr_similarity_also_learns() {
        let (g, intra, inter) = two_cliques();
        let mut m = Embedding::random(16, 16, 5);
        let p = TrainParams {
            threads: 4,
            epochs: 150,
            lr: 0.05,
            similarity: Similarity::Ppr { alpha: 0.85 },
            ..Default::default()
        };
        train_cpu(&g, &mut m, &p);
        assert!(mean_cos(&m, &intra) > mean_cos(&m, &inter) + 0.2);
    }

    #[test]
    fn quantized_engines_learn_structure() {
        for precision in [Precision::F16, Precision::I8] {
            let (g, intra, inter) = two_cliques();
            let mut m = Embedding::random(16, 16, 3);
            let p = TrainParams {
                threads: 4,
                epochs: 150,
                lr: 0.05,
                precision,
                ..Default::default()
            };
            train_cpu(&g, &mut m, &p);
            assert!(
                m.as_slice().iter().all(|x| x.is_finite()),
                "{precision}: non-finite values"
            );
            assert!(
                mean_cos(&m, &intra) > mean_cos(&m, &inter) + 0.25,
                "{precision} failed to learn"
            );
        }
    }

    #[test]
    fn empty_graph_is_noop() {
        let g = Csr::empty(4);
        let mut m = Embedding::random(4, 8, 6);
        let before = m.clone();
        train_cpu(&g, &mut m, &TrainParams::default());
        assert_eq!(m, before);
    }

    #[test]
    fn values_stay_finite_under_contention() {
        let (g, _, _) = two_cliques();
        let mut m = Embedding::random(16, 8, 7);
        let p = TrainParams {
            threads: 8,
            epochs: 50,
            lr: 0.2,
            ..Default::default()
        };
        train_cpu(&g, &mut m, &p);
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn positive_sample_respects_adjacency() {
        let g = csr_from_edges(4, &[(0, 1), (0, 2)]);
        let mut rng = Xorshift128Plus::new(1);
        for _ in 0..50 {
            let u = positive_sample(&g, 0, Similarity::Adjacency, &mut rng).unwrap();
            assert!(u == 1 || u == 2);
        }
        assert!(positive_sample(&g, 3, Similarity::Adjacency, &mut rng).is_none());
    }

    #[test]
    fn ppr_walk_reaches_two_hops() {
        // Path 0-1-2: PPR from 0 must sometimes land on 2.
        let g = csr_from_edges(3, &[(0, 1), (1, 2)]);
        let mut rng = Xorshift128Plus::new(2);
        let mut saw_two = false;
        for _ in 0..200 {
            if positive_sample(&g, 0, Similarity::Ppr { alpha: 0.85 }, &mut rng) == Some(2) {
                saw_two = true;
                break;
            }
        }
        assert!(saw_two);
    }

    // ---- restricted-source plans ----------------------------------------

    #[test]
    fn full_source_list_matches_unrestricted_engine_bit_exactly() {
        // `new_for_sources` over every vertex in id order builds the same
        // arc list as `new`, so the warm engine with a full source list
        // must reproduce `train_cpu` bit-for-bit — on one thread: two
        // Hogwild threads race on shared rows and no two runs agree.
        let (g, _, _) = two_cliques();
        let p = TrainParams {
            threads: 1,
            epochs: 5,
            lr: 0.05,
            seed: 0x77,
            ..Default::default()
        };
        let mut a = Embedding::random(16, 8, 13);
        let mut b = a.clone();
        train_cpu(&g, &mut a, &p);
        let all: Vec<u32> = (0..16).collect();
        train_cpu_sources(&g, &mut b, &p, &all);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn empty_and_isolated_source_lists_are_noops() {
        let g = csr_from_edges(5, &[(0, 1), (1, 2)]); // 3, 4 isolated
        let mut m = Embedding::random(5, 8, 17);
        let before = m.clone();
        let p = TrainParams {
            threads: 2,
            epochs: 10,
            ..Default::default()
        };
        train_cpu_sources(&g, &mut m, &p, &[]);
        assert_eq!(m, before);
        train_cpu_sources(&g, &mut m, &p, &[3, 4]);
        assert_eq!(m, before);
    }

    #[test]
    fn restricted_sources_still_learn_their_region() {
        let (g, intra, _) = two_cliques();
        let mut m = Embedding::random(16, 16, 19);
        let p = TrainParams {
            threads: 2,
            epochs: 200,
            lr: 0.05,
            ..Default::default()
        };
        // Train only the first clique's vertices as sources.
        let sources: Vec<u32> = (0..8).collect();
        train_cpu_sources(&g, &mut m, &p, &sources);
        let first: Vec<(u32, u32)> = intra.iter().copied().filter(|&(a, _)| a < 8).collect();
        let cross = vec![(0u32, 9u32), (1, 10), (2, 12)];
        assert!(mean_cos(&m, &first) > mean_cos(&m, &cross) + 0.2);
    }

    // ---- shard coverage -------------------------------------------------

    #[test]
    fn shards_cover_every_source_exactly_once() {
        for (sources, threads) in [(1usize, 1usize), (7, 3), (100, 8), (8, 8), (5, 16)] {
            let shards = shard_ranges(sources, threads);
            assert_eq!(shards.len(), threads);
            let mut seen = vec![0usize; sources];
            for r in &shards {
                for s in r.clone() {
                    seen[s] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "sources {sources} threads {threads}: {seen:?}"
            );
            // Contiguous, ordered, balanced within one.
            for w in shards.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let lens: Vec<usize> = shards.iter().map(|r| r.len()).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "{lens:?}");
        }
    }

    #[test]
    fn every_shard_is_visited_each_epoch() {
        // Instrumented run: a graph whose arc list maps shard positions to
        // distinct sources, trained with as many threads as shards. Every
        // source must move away from its initial row in a single epoch,
        // proving no shard was dropped by the work distribution.
        let (g, _, _) = two_cliques();
        let mut m = Embedding::random(16, 8, 9);
        let before = m.clone();
        let p = TrainParams {
            threads: 4,
            epochs: 1,
            lr: 0.1,
            negative_samples: 3,
            ..Default::default()
        };
        train_cpu(&g, &mut m, &p);
        let shards = shard_ranges((g.num_edges() / 2).max(1), 4);
        let mut arc_src: Vec<u32> = Vec::new();
        for v in 0..16u32 {
            arc_src.extend(std::iter::repeat_n(v, g.degree(v)));
        }
        for (t, r) in shards.iter().enumerate() {
            let touched = r
                .clone()
                .map(|s| arc_src[2 * s % arc_src.len()])
                .any(|src| m.row(src) != before.row(src));
            assert!(touched, "shard {t} ({r:?}) left every source untouched");
        }
    }

    // ---- seed-semantics equivalence -------------------------------------

    /// The seed engine's semantics, re-expressed through the Algorithm 1
    /// reference update: stage the source row, update against each
    /// sample with pre-update values (the sample row read from the
    /// matrix, so a self-pair sees the pre-stage source), write the
    /// source back. With one thread this is bit-identical to the new
    /// engine — the only change of representation is atomics vs plain
    /// floats.
    fn reference_train(g: &Csr, m: &mut Embedding, params: &TrainParams) {
        let n = g.num_vertices() as u32;
        let mut arc_src: Vec<u32> = Vec::new();
        for v in 0..n {
            arc_src.extend(std::iter::repeat_n(v, g.degree(v)));
        }
        let num_arcs = arc_src.len();
        let sources = (num_arcs / 2).max(1);
        for epoch in 0..params.epochs {
            let lr = decayed_lr(params.lr, epoch, params.epochs);
            let mut rng = Xorshift128Plus::new(mix64(params.seed ^ ((epoch as u64) << 20)));
            for s in 0..sources {
                let src = arc_src[(2 * s + epoch as usize) % num_arcs];
                let mut src_row = m.row(src).to_vec();
                // RNG draw order matches the engine: positive first, then
                // every negative, then the updates.
                let pos = positive_sample(g, src, params.similarity, &mut rng);
                let negs: Vec<u32> = (0..params.negative_samples).map(|_| rng.below(n)).collect();
                if let Some(u) = pos {
                    update_embedding(&mut src_row, m.row_mut(u), 1.0, lr);
                }
                for &u in &negs {
                    update_embedding(&mut src_row, m.row_mut(u), 0.0, lr);
                }
                m.row_mut(src).copy_from_slice(&src_row);
            }
        }
    }

    #[test]
    fn single_thread_matches_seed_update_semantics_bit_exactly() {
        let (g, _, _) = two_cliques();
        let p = TrainParams {
            threads: 1,
            epochs: 7,
            lr: 0.05,
            negative_samples: 3,
            seed: 0xBEEF,
            ..Default::default()
        };
        let mut m_new = Embedding::random(16, 16, 11);
        let mut m_ref = m_new.clone();
        train_cpu(&g, &mut m_new, &p);
        reference_train(&g, &mut m_ref, &p);
        assert_eq!(
            m_new.as_slice(),
            m_ref.as_slice(),
            "in-place engine diverged from the scratch-discipline reference"
        );
    }

    #[test]
    fn fused_update_matches_reference_update_bitwise() {
        let mut rng = Xorshift128Plus::new(21);
        for d in [1usize, 2, 5, 7, 8, 31, 32, 128] {
            for b in [0.0f32, 1.0] {
                let src: Vec<f32> = (0..d).map(|_| rng.next_f32() - 0.5).collect();
                let smp: Vec<f32> = (0..d).map(|_| rng.next_f32() - 0.5).collect();
                let mut src_ref = src.clone();
                let mut smp_ref = smp.clone();
                update_embedding(&mut src_ref, &mut smp_ref, b, 0.025);

                // Staged source padded to the paired-lane width.
                let mut src_new = src.clone();
                src_new.resize(2 * d.div_ceil(2), 0.0);
                let m = Embedding::from_vec(smp, 1, d);
                let s = SharedMatrix::from_embedding(&m);
                fused_update(&mut src_new, s.row_atomics(0), b, 0.025);
                assert_eq!(&src_new[..d], &src_ref[..], "d={d} b={b} src");
                assert_eq!(s.to_embedding().row(0), &smp_ref[..], "d={d} b={b} sample");
                // Padding invariant: pad lanes stay exactly zero.
                assert!(src_new[d..].iter().all(|&x| x == 0.0));
            }
        }
    }

    use gosh_graph::csr::Csr;
}
