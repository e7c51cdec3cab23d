//! Multi-core CPU trainer (Hogwild), copy-free and sharded.
//!
//! The 16-thread CPU implementation that Figure 4 uses as its speedup
//! baseline, and the engine behind the VERSE comparator in
//! `gosh-baselines`. Threads share the matrix through relaxed atomics and
//! update without locks — the HOGWILD! regime (Niu et al., NIPS'11) the
//! paper cites for CPUs (§3.1). Epoch accounting matches the GPU path:
//! one epoch = |E| source processings drawn from the arc list.
//!
//! There is one engine over two row stores. The epoch loop — sharding,
//! barrier, RNG keying, arc indexing, draw order, prefetch — exists once,
//! generic over the private `RowStore` seam; what differs is where rows
//! live and how one sample update touches them:
//!
//! * **f32, [`SharedMatrix`]** — the bit-exact reference path. Each
//!   source's row is staged once in a padded paired-lane buffer (the CPU
//!   analogue of the kernel's shared memory, §3.1), updated across its
//!   `1 + ns` samples and written back once; sample rows are updated in
//!   place through [`SharedMatrix::row_atomics`] views by [`fused_update`],
//!   one fused dot + two-sided axpy pass with no scratch copy.
//! * **f16 / i8, [`QuantizedMatrix`]** — an i8 row's scale pair depends on
//!   its min/max, so updates are whole-row: each sample row dequantizes
//!   into f32 lanes, takes [`crate::update::update_embedding`] and
//!   requantizes; the staged source requantizes once at write-back.
//!
//! Each epoch's sources are split into one contiguous shard per thread
//! ([`shard_ranges`]); one [`gosh_runtime::run`] team task spans every
//! epoch and holds at a poisonable epoch barrier
//! ([`gosh_runtime::WorkerCtx::barrier`]), so threads never touch a
//! shared cursor or pay a per-epoch spawn, and a worker panic unwinds the
//! team instead of deadlocking it. Sample rows are prefetched as soon as
//! their ids are drawn.
//!
//! [`HogwildPlan::train`] is the one entry: [`train_cpu`] trains every
//! source, the warm-start trainer (`crate::warm`) a restricted source
//! list.

use std::sync::atomic::AtomicU64;

use gosh_graph::csr::Csr;
use gosh_graph::rng::{mix64, Xorshift128Plus};
use gosh_runtime::shard_ranges;

use crate::backend::{Similarity, TrainParams};
use crate::model::{Embedding, SharedMatrix};
use crate::quant::{Precision, QuantizedMatrix};
use crate::schedule::decayed_lr;
use crate::simd;
use crate::update::{fast_sigmoid, update_embedding};

/// Train `m` on `g` in place with Hogwild threads.
///
/// `params.dim` is ignored — the dimension comes from `m` itself.
pub fn train_cpu(g: &Csr, m: &mut Embedding, params: &TrainParams) {
    HogwildPlan::new(g).train(g, m, params);
}

/// Precomputed training plan for one level: the arc list an epoch's
/// sources are drawn from and the per-epoch source count. The device
/// kernels upload the same list ([`crate::train_gpu::DeviceGraph`]).
pub struct HogwildPlan {
    /// Each source of the plan repeated by its degree, in plan order.
    pub(crate) arc_src: Vec<u32>,
    /// Source processings per epoch: one per undirected edge (§4.3), at
    /// least one while the plan has an arc, zero when it has none.
    pub(crate) sources: usize,
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
    /// all-isolated source set yields a plan whose `train` is a no-op.
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
            sources: (num_arcs / 2).max(usize::from(num_arcs > 0)),
        }
    }

    /// Train `m` on `g` in place for `params.epochs` epochs, each over
    /// every source of the plan, sharded across `params.threads` workers
    /// of the global runtime, in the row store `params.precision` picks.
    pub fn train(&self, g: &Csr, m: &mut Embedding, params: &TrainParams) {
        assert_eq!(g.num_vertices(), m.num_vertices(), "graph/matrix mismatch");
        assert!(params.threads >= 1);
        if self.arc_src.is_empty() || params.epochs == 0 {
            return;
        }
        *m = match params.precision {
            Precision::F32 => {
                let rows = SharedMatrix::from_embedding(m);
                self.run(g, &rows, params);
                rows.to_embedding()
            }
            precision => {
                let rows = QuantizedMatrix::from_embedding(m, precision);
                self.run(g, &rows, params);
                rows.to_embedding()
            }
        };
    }

    /// The epoch loop of [`Self::train`] over a staged row store.
    fn run<S: RowStore>(&self, g: &Csr, rows: &S, params: &TrainParams) {
        let n = g.num_vertices() as u32;
        // No thread should sit on an empty shard *and* a barrier slot.
        let threads = params.threads.min(self.sources);
        let shards = shard_ranges(self.sources, threads);
        gosh_runtime::run(threads, |ctx| {
            let t = ctx.index();
            let shard = shards[t].clone();
            let mut scratch = rows.scratch();
            for epoch in 0..params.epochs {
                let lr_now = decayed_lr(params.lr, epoch, params.epochs);
                let mut rng =
                    Xorshift128Plus::new(mix64(params.seed ^ ((epoch as u64) << 20) ^ t as u64));
                let source = epoch_arcs(&self.arc_src, epoch);
                let mut src_next = if shard.is_empty() {
                    0
                } else {
                    source(shard.start)
                };
                for s in shard.clone() {
                    let src = src_next;
                    // Warm the next source's row while this one trains.
                    if s + 1 < shard.end {
                        src_next = source(s + 1);
                        rows.prefetch(src_next);
                    }
                    process_source(g, rows, src, n, params, lr_now, &mut rng, &mut scratch);
                }
                // Epoch synchronization (§3.1): the next epoch's
                // learning rate applies only once every shard is done.
                ctx.barrier();
            }
        });
    }
}

/// Epoch `epoch`'s source schedule over `arcs` (not empty): processing
/// `s` runs arc `(2s + epoch) mod |arcs|` — every other arc, rotated per
/// epoch so both orientations of each edge serve as source over time.
/// The division is hoisted: for `s` below the plan's sources per epoch,
/// `2s < |arcs|`, so one conditional subtract replaces it.
#[inline]
pub fn epoch_arcs(arcs: &[u32], epoch: u32) -> impl Fn(usize) -> u32 + Copy + '_ {
    let offset = epoch as usize % arcs.len();
    move |s| {
        debug_assert!(2 * s < arcs.len());
        let mut idx = 2 * s + offset;
        if idx >= arcs.len() {
            idx -= arcs.len();
        }
        arcs[idx]
    }
}

/// Where the shared rows live: the only thing the f32 and the f16/i8
/// engines do differently. `Scratch` is one worker's staging buffers,
/// allocated once per worker lifetime.
trait RowStore: Sync {
    type Scratch;
    fn scratch(&self) -> Self::Scratch;
    /// Hint the cache that row `v` is about to be read.
    fn prefetch(&self, v: u32);
    /// Stage source row `v`.
    fn load_src(&self, v: u32, scratch: &mut Self::Scratch);
    /// One Algorithm 1 update of the staged source against sample `u`.
    fn update_sample(&self, u: u32, b: f32, lr: f32, scratch: &mut Self::Scratch);
    /// Write the staged source back to row `v`.
    fn store_src(&self, v: u32, scratch: &mut Self::Scratch);
}

impl RowStore for SharedMatrix {
    /// The staged source row, padded to the paired-lane width.
    type Scratch = Vec<f32>;
    fn scratch(&self) -> Vec<f32> {
        vec![0f32; 2 * self.pairs_per_row()]
    }
    #[inline]
    fn prefetch(&self, v: u32) {
        prefetch_row(self.row_atomics(v));
    }
    #[inline]
    fn load_src(&self, v: u32, src: &mut Vec<f32>) {
        simd::load_row_pairs(src, self.row_atomics(v));
    }
    #[inline]
    fn update_sample(&self, u: u32, b: f32, lr: f32, src: &mut Vec<f32>) {
        fused_update(src, self.row_atomics(u), b, lr);
    }
    #[inline]
    fn store_src(&self, v: u32, src: &mut Vec<f32>) {
        simd::store_row_pairs(self.row_atomics(v), src);
    }
}

impl RowStore for QuantizedMatrix {
    /// The staged source row and a sample row.
    type Scratch = (Vec<f32>, Vec<f32>);
    fn scratch(&self) -> Self::Scratch {
        (vec![0f32; self.dim()], vec![0f32; self.dim()])
    }
    #[inline]
    fn prefetch(&self, v: u32) {
        prefetch_row(self.row_cells(v));
    }
    #[inline]
    fn load_src(&self, v: u32, (src, _): &mut Self::Scratch) {
        self.load_row(v, src);
    }
    #[inline]
    fn update_sample(&self, u: u32, b: f32, lr: f32, (src, smp): &mut Self::Scratch) {
        self.load_row(u, smp);
        update_embedding(src, smp, b, lr);
        self.store_row(u, smp);
    }
    #[inline]
    fn store_src(&self, v: u32, (src, _): &mut Self::Scratch) {
        self.store_row(v, src);
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

/// One source processing: a positive draw from `Q` plus `ns` negatives,
/// against the source row staged in `scratch` (written back once).
///
/// Sample ids are drawn *before* any update — positive first, then the
/// negatives, preserving the per-thread RNG stream order — so every
/// sample row can be prefetched while earlier updates compute.
#[allow(clippy::too_many_arguments)]
#[inline]
fn process_source<S: RowStore>(
    g: &Csr,
    rows: &S,
    src: u32,
    n: u32,
    params: &TrainParams,
    lr: f32,
    rng: &mut Xorshift128Plus,
    scratch: &mut S::Scratch,
) {
    let pos = positive_sample(g.xadj(), g.adj(), src, params.similarity, rng, || {});
    let ns = params.negative_samples;
    let ahead = ns.min(PREFETCH_AHEAD);
    let mut negs = [0u32; PREFETCH_AHEAD];
    for slot in negs.iter_mut().take(ahead) {
        *slot = rng.below(n);
    }
    if let Some(u) = pos {
        rows.prefetch(u);
    }
    for &u in negs.iter().take(ahead) {
        rows.prefetch(u);
    }
    rows.load_src(src, scratch);
    if let Some(u) = pos {
        rows.update_sample(u, 1.0, lr, scratch);
    }
    for &u in negs.iter().take(ahead) {
        rows.update_sample(u, 0.0, lr, scratch);
    }
    for _ in ahead..ns {
        let u = rng.below(n);
        rows.update_sample(u, 0.0, lr, scratch);
    }
    rows.store_src(src, scratch);
}

/// Draw a positive sample for `src` from `Q` over the CSR arrays
/// `(xadj, adj)`: a uniform neighbour for adjacency, the endpoint of a
/// restart-terminated random walk for PPR. `hop` runs after each walk
/// step; the device charges the step's CSR lookups there. Returns `None`
/// for a source with no neighbours.
#[inline]
pub fn positive_sample(
    xadj: &[usize],
    adj: &[u32],
    src: u32,
    similarity: Similarity,
    rng: &mut Xorshift128Plus,
    mut hop: impl FnMut(),
) -> Option<u32> {
    let src = src as usize;
    let (lo, deg) = (xadj[src], (xadj[src + 1] - xadj[src]) as u32);
    if deg == 0 {
        return None;
    }
    match similarity {
        Similarity::Adjacency => Some(adj[lo + rng.below(deg) as usize]),
        Similarity::Ppr { alpha } => {
            let mut u = src;
            loop {
                let (ulo, udeg) = (xadj[u], (xadj[u + 1] - xadj[u]) as u32);
                // Dead end: restart at the source's own neighbourhood.
                let (base, d) = if udeg == 0 { (lo, deg) } else { (ulo, udeg) };
                u = adj[base + rng.below(d) as usize] as usize;
                hop();
                if rng.next_f32() >= alpha {
                    return Some(u as u32);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_roundtrip;
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

    /// The warm-start trainer's call: every epoch over the plan of
    /// `sources`.
    fn train_sources(g: &Csr, m: &mut Embedding, p: &TrainParams, sources: &[u32]) {
        HogwildPlan::new_for_sources(g, sources).train(g, m, p);
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

    /// [`positive_sample`] over `g`'s arrays, with no per-hop hook.
    fn sample(g: &Csr, src: u32, sim: Similarity, rng: &mut Xorshift128Plus) -> Option<u32> {
        positive_sample(g.xadj(), g.adj(), src, sim, rng, || {})
    }

    #[test]
    fn positive_sample_respects_adjacency() {
        let g = csr_from_edges(4, &[(0, 1), (0, 2)]);
        let mut rng = Xorshift128Plus::new(1);
        for _ in 0..50 {
            let u = sample(&g, 0, Similarity::Adjacency, &mut rng).unwrap();
            assert!(u == 1 || u == 2);
        }
        assert!(sample(&g, 3, Similarity::Adjacency, &mut rng).is_none());
    }

    #[test]
    fn ppr_walk_reaches_two_hops() {
        // Path 0-1-2: PPR from 0 must sometimes land on 2.
        let g = csr_from_edges(3, &[(0, 1), (1, 2)]);
        let mut rng = Xorshift128Plus::new(2);
        let mut saw_two = false;
        for _ in 0..200 {
            if sample(&g, 0, Similarity::Ppr { alpha: 0.85 }, &mut rng) == Some(2) {
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
        train_sources(&g, &mut b, &p, &all);
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
        train_sources(&g, &mut m, &p, &[]);
        assert_eq!(m, before);
        train_sources(&g, &mut m, &p, &[3, 4]);
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
        train_sources(&g, &mut m, &p, &sources);
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
    /// reference update over a plain matrix: stage the source row, update
    /// against each sample with pre-update values (the sample row read
    /// from the matrix, so a self-pair sees the pre-stage source), write
    /// the source back. Every row the reference writes — the initial
    /// matrix, each updated sample, the written-back source — passes one
    /// `quantize_roundtrip` into `params.precision` (a no-op for f32), so
    /// with one thread this is bit-identical to the engine over either
    /// row store.
    fn reference_train(g: &Csr, m: &mut Embedding, params: &TrainParams) {
        let n = g.num_vertices() as u32;
        let dim = m.dim();
        let store = |row: &mut [f32]| quantize_roundtrip(row, dim, params.precision);
        store(m.as_mut_slice());
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
                let pos = sample(g, src, params.similarity, &mut rng);
                let negs: Vec<u32> = (0..params.negative_samples).map(|_| rng.below(n)).collect();
                let samples = pos.map(|u| (u, 1.0)).into_iter();
                for (u, b) in samples.chain(negs.iter().map(|&u| (u, 0.0))) {
                    update_embedding(&mut src_row, m.row_mut(u), b, lr);
                    store(m.row_mut(u));
                }
                m.row_mut(src).copy_from_slice(&src_row);
                store(m.row_mut(src));
            }
        }
    }

    #[test]
    fn single_thread_matches_seed_update_semantics_bit_exactly() {
        let (g, _, _) = two_cliques();
        for precision in [Precision::F32, Precision::F16, Precision::I8] {
            for dim in [16, 13, 32] {
                let p = TrainParams {
                    threads: 1,
                    epochs: 7,
                    lr: 0.05,
                    negative_samples: 3,
                    seed: 0xBEEF,
                    precision,
                    ..Default::default()
                };
                let mut m_new = Embedding::random(16, dim, 11);
                let mut m_ref = m_new.clone();
                train_cpu(&g, &mut m_new, &p);
                reference_train(&g, &mut m_ref, &p);
                assert_eq!(
                    m_new.as_slice(),
                    m_ref.as_slice(),
                    "{precision} dim {dim}: the engine diverged from the reference"
                );
            }
        }
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

    #[test]
    fn device_sample_step_matches_reference_update_bitwise() {
        use gosh_gpu::{Device, DeviceConfig, LaunchConfig};
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = Xorshift128Plus::new(22);
        for d in [1usize, 2, 5, 7, 8, 16, 17, 31, 32, 33, 64, 128] {
            for b in [0.0f32, 1.0] {
                for k in [1usize, 2, 4] {
                    let src: Vec<f32> = (0..k * d).map(|_| rng.next_f32() - 0.5).collect();
                    let smp: Vec<f32> = (0..k * d).map(|_| rng.next_f32() - 0.5).collect();
                    let (mut src_ref, mut smp_ref) = (src.clone(), smp.clone());
                    for (s, m) in src_ref.chunks_exact_mut(d).zip(smp_ref.chunks_exact_mut(d)) {
                        update_embedding(s, m, b, 0.025);
                    }

                    // k = 1: a one-row buffer. k > 1: sample i at row
                    // k − i of k + 1 rows, so row 0 must stay untouched.
                    let rows = if k == 1 { 1 } else { k + 1 };
                    let row_of = |i: usize| rows - 1 - i;
                    let mut host = vec![0.75f32; rows * d];
                    for (i, m) in smp.chunks_exact(d).enumerate() {
                        host[row_of(i) * d..][..d].copy_from_slice(m);
                    }
                    let device = Device::new(DeviceConfig {
                        host_threads: 1,
                        ..DeviceConfig::titan_x()
                    });
                    let buf = device.upload_floats(&host).unwrap();
                    let offsets: Vec<usize> = (0..k).map(|i| row_of(i) * d).collect();
                    let staged = parking_lot::Mutex::new(src.clone());
                    device.launch(LaunchConfig::new(1, k * d), |w, tmp| {
                        let mut scores = vec![1.0; k];
                        let src_rows = &mut staged.lock()[..];
                        crate::train_gpu::sample_pass(
                            w,
                            &buf,
                            &offsets,
                            d,
                            src_rows,
                            tmp,
                            &mut scores,
                            b,
                            0.025,
                        );
                    });

                    let case = format!("d={d} b={b} k={k}");
                    assert_eq!(bits(&staged.into_inner()), bits(&src_ref), "{case} src");
                    let out = buf.to_host_vec();
                    for (i, m) in smp_ref.chunks_exact(d).enumerate() {
                        let got = &out[row_of(i) * d..][..d];
                        assert_eq!(bits(got), bits(m), "{case} sample {i}");
                    }
                    if k > 1 {
                        assert!(out[..d].iter().all(|&x| x == 0.75), "{case} row 0");
                    }
                }
            }
        }
    }
}
