//! `TrainInGPU` — Algorithm 3 on the simulated device.
//!
//! The kernels draw from Hogwild's schedule: sources come from the arc
//! list of [`HogwildPlan`] through [`epoch_arcs`], so one epoch performs
//! |E| positive samples — the epoch definition of §4.3 — weighting hubs
//! by degree exactly as edge sampling does; positives come from
//! [`positive_sample`] on the warp's RNG stream, each PPR hop charged as
//! two ALU instructions. There are two kernels, which
//! reproduce the §4.8 speedup-breakdown stages:
//!
//! * the naive kernel ([`KernelVariant::Naive`]) — one source per warp, no
//!   shared-memory staging, strided global accesses; the "Naive GPU" bar
//!   of Figure 4;
//! * the staged kernel — `pack` sources per warp, each source row staged
//!   in shared memory once, coalesced access to sample rows.
//!   [`KernelVariant::Optimized`] runs it at `pack = 1`: the §3.1 kernel.
//!   [`KernelVariant::Auto`] runs it at `32 / lanes_for_dim(d)`: `pack = 4`
//!   for `d ≤ 8` and 2 for `d ≤ 16`, the small-dimension kernel of
//!   §3.1.1, and 1 above.
//!
//! Epochs are synchronized: each is one blocking kernel launch, so no two
//! epochs overlap (§3.1), while updates within an epoch stay lock-free.
//!
//! Both kernels score with the CPU trainer's arithmetic: the 8-lane dot
//! order of `gosh_gpu::lanes` and the table [`fast_sigmoid`]. On one host
//! thread a device sample step is bit-identical to
//! [`crate::update::update_embedding`]; the kernels differ from Hogwild
//! only in where rows live, which sources run, and what the cost model
//! counts.

use gosh_gpu::warp::WARP_SIZE;
use gosh_gpu::{Access, Device, DeviceError, FloatBuffer, LaunchConfig, PlainBuffer, Warp};
use gosh_graph::csr::Csr;

use crate::backend::{Similarity, TrainParams};
use crate::model::Embedding;
use crate::quant::{quantize_roundtrip, Precision};
use crate::schedule::decayed_lr;
use crate::train_cpu::{epoch_arcs, positive_sample, HogwildPlan};
use crate::update::fast_sigmoid;

/// Which embedding kernel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelVariant {
    /// Unoptimized accesses (Figure 4's "Naive GPU").
    Naive,
    /// Shared-memory staging + coalesced accesses (§3.1).
    Optimized,
    /// `Optimized`, but with 2 or 4 sources per warp when `d ≤ 16` (§3.1.1).
    Auto,
}

/// A graph resident in device memory: CSR plus the arc-source schedule.
pub struct DeviceGraph {
    xadj: PlainBuffer<usize>,
    adj: PlainBuffer<u32>,
    arc_src: PlainBuffer<u32>,
    sources: usize,
}

impl DeviceGraph {
    /// Upload `g` and its [`HogwildPlan`] arc list (H2D copies are
    /// counted).
    pub fn upload(device: &Device, g: &Csr) -> Result<Self, DeviceError> {
        let plan = HogwildPlan::new(g);
        Ok(Self {
            xadj: device.upload_plain(g.xadj())?,
            adj: device.upload_plain(g.adj())?,
            arc_src: device.upload_plain(&plan.arc_src)?,
            sources: plan.sources,
        })
    }

    /// Vertices in the graph.
    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Directed arcs in the graph.
    pub fn num_arcs(&self) -> usize {
        self.adj.len()
    }

    /// Source processings per epoch (= undirected edge count, §4.3).
    pub fn sources_per_epoch(&self) -> usize {
        self.sources
    }

    /// [`positive_sample`] for `src` on warp `w`'s RNG stream; each PPR
    /// hop is one strided lookup into the CSR arrays, two ALU
    /// instructions.
    #[inline]
    fn positive(&self, w: &Warp, src: u32, similarity: Similarity) -> Option<u32> {
        let (xadj, adj) = (self.xadj.as_slice(), self.adj.as_slice());
        w.with_rng(|rng| positive_sample(xadj, adj, src, similarity, rng, || w.alu(2)))
    }
}

/// Sub-warp lanes for a given dimension (§3.1.1: the smallest multiple of
/// 8 that covers `d`), full warp for `d > 16`.
pub fn lanes_for_dim(d: usize) -> usize {
    if d <= 8 {
        8
    } else if d <= 16 {
        16
    } else {
        32
    }
}

/// Train `matrix` on `graph` for `params.epochs` epochs.
///
/// The matrix stays on the device; callers download it when the level is
/// done. Panics if `matrix.len() != |V| · d`.
pub fn train_in_gpu(
    device: &Device,
    graph: &DeviceGraph,
    matrix: &FloatBuffer,
    params: &TrainParams,
    variant: KernelVariant,
) {
    assert_eq!(
        matrix.len(),
        graph.num_vertices() * params.dim,
        "matrix shape mismatch"
    );
    if graph.num_arcs() == 0 {
        return;
    }
    // Sources per warp of the staged kernel; the naive kernel has none.
    let pack = match variant {
        KernelVariant::Naive => None,
        KernelVariant::Optimized => Some(1),
        KernelVariant::Auto => Some(WARP_SIZE / lanes_for_dim(params.dim)),
    };
    for epoch in 0..params.epochs {
        let lr = decayed_lr(params.lr, epoch, params.epochs);
        match pack {
            None => epoch_naive(device, graph, matrix, params, lr, epoch),
            Some(pack) => epoch_staged(device, graph, matrix, params, lr, epoch, pack),
        }
    }
}

/// Most sources one warp can hold: 8 lanes each (§3.1.1).
const MAX_PACK: usize = WARP_SIZE / 8;

/// The staged kernel: each warp stages `pack` source rows in shared
/// memory (§3.1), runs Algorithm 1 against every sample, and writes the
/// sources back once. `pack` is 1, or 2 or 4 for §3.1.1's sub-warps.
fn epoch_staged(
    device: &Device,
    graph: &DeviceGraph,
    matrix: &FloatBuffer,
    params: &TrainParams,
    lr: f32,
    epoch: u32,
    pack: usize,
) {
    let d = params.dim;
    let ns = params.negative_samples;
    let n = graph.num_vertices() as u32;
    let sources = graph.sources_per_epoch();
    let source = epoch_arcs(graph.arc_src.as_slice(), epoch);

    // Scratch: k source rows + k sample rows.
    let config = LaunchConfig::new(sources.div_ceil(pack), 2 * pack * d);
    device.launch(config, |w, scratch| {
        let first = w.id() * pack;
        let k = pack.min(sources - first);
        let (src_rows, tmp) = scratch.split_at_mut(pack * d);
        let (src_rows, tmp) = (&mut src_rows[..k * d], &mut tmp[..k * d]);

        let mut srcs = [0u32; MAX_PACK];
        let mut src_offsets = [0usize; MAX_PACK];
        for i in 0..k {
            srcs[i] = source(first + i);
            src_offsets[i] = srcs[i] as usize * d;
        }
        let src_offsets = &src_offsets[..k];
        w.global_read_rows(matrix, src_offsets, d, src_rows, Access::Coalesced);
        w.shared_store(k * d);

        // Positive pass: each sub-warp samples its own neighbour from the
        // similarity distribution Q. A source with none gets an inert slot.
        let (mut offsets, mut scores) = ([0usize; MAX_PACK], [0f32; MAX_PACK]);
        let (offsets, scores) = (&mut offsets[..k], &mut scores[..k]);
        for i in 0..k {
            (offsets[i], scores[i]) = match graph.positive(w, srcs[i], params.similarity) {
                Some(u) => (u as usize * d, 1.0),
                None => (src_offsets[i], 0.0),
            };
        }
        sample_pass(w, matrix, offsets, d, src_rows, tmp, scores, 1.0, lr);
        // ns negatives per source, uniform over V (the noise distribution).
        for _ in 0..ns {
            for (off, score) in offsets.iter_mut().zip(scores.iter_mut()) {
                *off = w.rand_below(n) as usize * d;
                *score = 1.0;
            }
            sample_pass(w, matrix, offsets, d, src_rows, tmp, scores, 0.0, lr);
        }
        w.global_write_rows(matrix, src_offsets, d, src_rows, Access::Coalesced);
    });
}

/// One Algorithm 1 step for k source rows staged on chip, each against
/// the sample row of `matrix` at `offsets[i]`. The partitioned kernel
/// passes a sub-matrix bin and bin-local offsets. `scores[i]` enters
/// nonzero for an active slot and `0.0` for an inert one, whose update is
/// a no-op.
///
/// Each active slot computes exactly [`crate::update::update_embedding`]
/// on (source, sample): the 8-lane dot, [`fast_sigmoid`], and the
/// pre-update rows on both sides — so on one host thread the device's
/// bits are the CPU trainer's.
///
/// Public only so that the partitioned engine's synchronous test oracle
/// can run the one shipped step.
#[doc(hidden)]
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn sample_pass(
    w: &Warp,
    matrix: &FloatBuffer,
    offsets: &[usize],
    d: usize,
    src_rows: &mut [f32],
    tmp: &mut [f32],
    scores: &mut [f32],
    b: f32,
    lr: f32,
) {
    let k = offsets.len();
    let mut dots = [0f32; MAX_PACK];
    w.global_read_rows(matrix, offsets, d, tmp, Access::Coalesced);
    w.dot_rows(src_rows, tmp, d, &mut dots[..k]);
    w.alu(8); // one warp-wide sigmoid burst serves all sub-warps
    for (score, &dot) in scores.iter_mut().zip(&dots) {
        if *score != 0.0 {
            *score = (b - fast_sigmoid(dot)) * lr;
        }
    }
    // Sample rows first (they use the pre-update sources), then sources.
    w.global_axpy_rows(matrix, offsets, d, scores, src_rows, Access::Coalesced);
    w.shared_axpy_rows(scores, tmp, src_rows, d);
}

/// Figure 4's "before" kernel: no staging, the source row re-read from
/// global memory for every sample, all accesses strided (§4.8).
fn epoch_naive(
    device: &Device,
    graph: &DeviceGraph,
    matrix: &FloatBuffer,
    params: &TrainParams,
    lr: f32,
    epoch: u32,
) {
    let d = params.dim;
    let ns = params.negative_samples;
    let n = graph.num_vertices() as u32;
    let source = epoch_arcs(graph.arc_src.as_slice(), epoch);

    device.launch(
        LaunchConfig::new(graph.sources_per_epoch(), 2 * d),
        |w, scratch| {
            let (src_row, tmp) = scratch.split_at_mut(d);
            let src = source(w.id());
            let src_off = [src as usize * d];
            let mut one = |u: usize, b: f32| {
                let u_off = [u * d];
                w.global_read_rows(matrix, &src_off, d, src_row, Access::Strided);
                w.global_read_rows(matrix, &u_off, d, tmp, Access::Strided);
                let mut dot = [0f32];
                w.dot_rows(src_row, tmp, d, &mut dot);
                w.alu(8); // sigmoid
                let score = [(b - fast_sigmoid(dot[0])) * lr];
                w.global_axpy_rows(matrix, &u_off, d, &score, src_row, Access::Strided);
                w.global_axpy_rows(matrix, &src_off, d, &score, tmp, Access::Strided);
            };
            if let Some(u) = graph.positive(w, src, params.similarity) {
                one(u as usize, 1.0);
            }
            for _ in 0..ns {
                one(w.rand_below(n) as usize, 0.0);
            }
        },
    );
}

/// Upload, train, download: the small-graph path of Algorithm 2 (lines
/// 6–7) for one level.
///
/// With a quantized `params.precision` the matrix buffer is allocated and
/// transferred at the format's true byte width, and the rows pass through
/// a quantize→dequantize round trip at the upload and write-back
/// boundaries — the storage error the quantized format would impose,
/// while kernel arithmetic stays f32 (mixed-precision style; the CPU
/// engine requantizes per store and is the stricter model).
pub fn train_level_on_device(
    device: &Device,
    g: &Csr,
    host: &mut Embedding,
    params: &TrainParams,
    variant: KernelVariant,
) -> Result<(), DeviceError> {
    let graph = DeviceGraph::upload(device, g)?;
    let matrix = if params.precision == Precision::F32 {
        device.upload_floats(host.as_slice())?
    } else {
        let mut staged = host.as_slice().to_vec();
        quantize_roundtrip(&mut staged, params.dim, params.precision);
        device.upload_floats_prec(&staged, params.precision.bytes_per_element())?
    };
    train_in_gpu(device, &graph, &matrix, params, variant);
    let mut out = matrix.to_host_vec();
    if params.precision != Precision::F32 {
        quantize_roundtrip(&mut out, params.dim, params.precision);
    }
    host.as_mut_slice().copy_from_slice(&out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosh_gpu::DeviceConfig;
    use gosh_graph::builder::csr_from_edges;
    use gosh_graph::gen::erdos_renyi;

    fn params(d: usize, epochs: u32) -> TrainParams {
        TrainParams::adjacency(d, 3, 0.05, epochs)
    }

    fn mean_cos(m: &Embedding, pairs: &[(u32, u32)]) -> f32 {
        pairs.iter().map(|&(a, b)| m.cosine(a, b)).sum::<f32>() / pairs.len() as f32
    }

    /// Two cliques joined by one edge: intra-clique similarity should beat
    /// inter-clique after training.
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
        let intra = vec![(0, 1), (2, 3), (8, 9), (10, 11), (4, 5), (12, 13)];
        let inter = vec![(0, 9), (1, 10), (2, 12), (3, 13), (4, 14), (5, 15)];
        (g, intra, inter)
    }

    fn train_variant(variant: KernelVariant, d: usize) -> (f32, f32) {
        let (g, intra, inter) = two_cliques();
        let device = Device::new(DeviceConfig::titan_x());
        let mut m = Embedding::random(16, d, 42);
        train_level_on_device(&device, &g, &mut m, &params(d, 150), variant).unwrap();
        (mean_cos(&m, &intra), mean_cos(&m, &inter))
    }

    #[test]
    fn optimized_kernel_separates_cliques() {
        let (intra, inter) = train_variant(KernelVariant::Optimized, 32);
        assert!(intra > inter + 0.3, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn naive_kernel_learns_the_same_embedding_shape() {
        let (intra, inter) = train_variant(KernelVariant::Naive, 32);
        assert!(intra > inter + 0.3, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn packed_kernel_learns_small_dims() {
        for d in [8, 16] {
            let (intra, inter) = train_variant(KernelVariant::Auto, d);
            assert!(
                intra > inter + 0.25,
                "d={d}: intra {intra} vs inter {inter}"
            );
        }
    }

    #[test]
    fn auto_on_large_d_equals_optimized_cost_shape() {
        // For d = 32, Auto must take the optimized path: same warp count.
        let g = erdos_renyi(64, 256, 3);
        let device = Device::new(DeviceConfig::titan_x());
        let graph = DeviceGraph::upload(&device, &g).unwrap();
        let matrix = device.upload_floats(&vec![0.01; 64 * 32]).unwrap();
        device.reset_counters();
        train_in_gpu(
            &device,
            &graph,
            &matrix,
            &params(32, 1),
            KernelVariant::Auto,
        );
        let auto_warps = device.snapshot().warps;
        device.reset_counters();
        train_in_gpu(
            &device,
            &graph,
            &matrix,
            &params(32, 1),
            KernelVariant::Optimized,
        );
        let opt_warps = device.snapshot().warps;
        assert_eq!(auto_warps, opt_warps);
    }

    #[test]
    fn packed_kernel_launches_fewer_warps() {
        let g = erdos_renyi(64, 256, 4);
        let device = Device::new(DeviceConfig::titan_x());
        let graph = DeviceGraph::upload(&device, &g).unwrap();
        let matrix = device.upload_floats(&vec![0.01; 64 * 8]).unwrap();
        device.reset_counters();
        train_in_gpu(&device, &graph, &matrix, &params(8, 1), KernelVariant::Auto);
        let packed = device.snapshot().warps;
        device.reset_counters();
        train_in_gpu(
            &device,
            &graph,
            &matrix,
            &params(8, 1),
            KernelVariant::Optimized,
        );
        let unpacked = device.snapshot().warps;
        assert_eq!(
            packed,
            unpacked.div_ceil(4),
            "packed {packed} vs unpacked {unpacked}"
        );
    }

    #[test]
    fn naive_kernel_costs_more_transactions() {
        let g = erdos_renyi(64, 256, 5);
        let device = Device::new(DeviceConfig::titan_x());
        let graph = DeviceGraph::upload(&device, &g).unwrap();
        let matrix = device.upload_floats(&vec![0.01; 64 * 32]).unwrap();
        device.reset_counters();
        train_in_gpu(
            &device,
            &graph,
            &matrix,
            &params(32, 1),
            KernelVariant::Optimized,
        );
        let opt = device.snapshot().transactions;
        device.reset_counters();
        train_in_gpu(
            &device,
            &graph,
            &matrix,
            &params(32, 1),
            KernelVariant::Naive,
        );
        let naive = device.snapshot().transactions;
        assert!(naive > 3 * opt, "naive {naive} vs optimized {opt}");
    }

    #[test]
    fn lanes_for_dim_matches_paper() {
        assert_eq!(lanes_for_dim(4), 8);
        assert_eq!(lanes_for_dim(8), 8);
        assert_eq!(lanes_for_dim(9), 16);
        assert_eq!(lanes_for_dim(16), 16);
        assert_eq!(lanes_for_dim(17), 32);
        assert_eq!(lanes_for_dim(128), 32);
    }

    #[test]
    fn ppr_similarity_learns_on_device() {
        let (g, intra, inter) = two_cliques();
        let device = Device::new(DeviceConfig::titan_x());
        let mut m = Embedding::random(16, 32, 42);
        let p = TrainParams {
            similarity: crate::backend::Similarity::Ppr { alpha: 0.85 },
            ..params(32, 150)
        };
        train_level_on_device(&device, &g, &mut m, &p, KernelVariant::Optimized).unwrap();
        let (i, o) = (mean_cos(&m, &intra), mean_cos(&m, &inter));
        assert!(i > o + 0.25, "intra {i} vs inter {o}");
    }

    #[test]
    fn device_ppr_walk_reaches_two_hops() {
        // Path 0-1-2: PPR positives from 0 must sometimes land on 2.
        let g = csr_from_edges(3, &[(0, 1), (1, 2)]);
        let device = Device::new(DeviceConfig::titan_x());
        let graph = DeviceGraph::upload(&device, &g).unwrap();
        let hits = std::sync::atomic::AtomicUsize::new(0);
        device.launch(gosh_gpu::LaunchConfig::new(256, 0), |w, _| {
            if graph.positive(w, 0, Similarity::Ppr { alpha: 0.85 }) == Some(2) {
                hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        });
        assert!(hits.load(std::sync::atomic::Ordering::Relaxed) > 10);
    }

    #[test]
    fn sources_per_epoch_is_edge_count() {
        let g = csr_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let device = Device::new(DeviceConfig::titan_x());
        let graph = DeviceGraph::upload(&device, &g).unwrap();
        assert_eq!(graph.sources_per_epoch(), 3);
        assert_eq!(graph.num_arcs(), 6);
    }

    #[test]
    fn quantized_device_path_prices_and_learns() {
        let (g, intra, inter) = two_cliques();
        for precision in [crate::quant::Precision::F16, crate::quant::Precision::I8] {
            let device = Device::new(DeviceConfig::titan_x());
            let mut m = Embedding::random(16, 32, 42);
            let p = TrainParams {
                precision,
                ..params(32, 150)
            };
            device.reset_counters();
            train_level_on_device(&device, &g, &mut m, &p, KernelVariant::Optimized).unwrap();
            // Matrix upload + download move 16*32 elements at the narrow
            // width; the f32-priced copy would be 2048 bytes.
            let narrow = 16 * 32 * precision.bytes_per_element() as u64;
            let s = device.snapshot();
            assert!(s.h2d_bytes >= narrow, "matrix upload missing");
            assert!(
                s.d2h_bytes == narrow,
                "{precision}: d2h {} != {narrow}",
                s.d2h_bytes
            );
            assert!(m.as_slice().iter().all(|x| x.is_finite()));
            let (i, o) = (mean_cos(&m, &intra), mean_cos(&m, &inter));
            assert!(i > o + 0.25, "{precision}: intra {i} vs inter {o}");
            assert_eq!(device.allocated_bytes(), 0);
        }
    }

    /// The per-source §3.1 kernel as it stood before the staged kernel
    /// absorbed it, frozen as an oracle: stage one source row, run
    /// Algorithm 1 per sample, skip a missing positive, write the source
    /// back once. Its step is spelled out with the trainers' arithmetic
    /// (8-lane dot, [`fast_sigmoid`]) rather than calling `sample_pass`,
    /// so it also checks the staged kernel's slot bookkeeping.
    fn oracle_epoch(
        device: &Device,
        graph: &DeviceGraph,
        matrix: &FloatBuffer,
        params: &TrainParams,
        lr: f32,
        epoch: u32,
    ) {
        let d = params.dim;
        let n = graph.num_vertices() as u32;
        let source = epoch_arcs(graph.arc_src.as_slice(), epoch);
        let launch = LaunchConfig::new(graph.sources_per_epoch(), 2 * d);
        device.launch(launch, |w, scratch| {
            let (src_row, tmp) = scratch.split_at_mut(d);
            let src = source(w.id()) as usize;
            w.global_read_rows(matrix, &[src * d], d, src_row, Access::Coalesced);
            w.shared_store(d);
            let update = |u: usize, b: f32, src_row: &mut [f32], tmp: &mut [f32]| {
                w.global_read_rows(matrix, &[u * d], d, tmp, Access::Coalesced);
                let mut dot = [0f32];
                w.dot_rows(src_row, tmp, d, &mut dot);
                w.alu(8); // sigmoid
                let score = [(b - fast_sigmoid(dot[0])) * lr];
                w.global_axpy_rows(matrix, &[u * d], d, &score, src_row, Access::Coalesced);
                w.shared_axpy_rows(&score, tmp, src_row, d);
            };
            if let Some(u) = graph.positive(w, src as u32, params.similarity) {
                update(u as usize, 1.0, src_row, tmp);
            }
            for _ in 0..params.negative_samples {
                update(w.rand_below(n) as usize, 0.0, src_row, tmp);
            }
            w.global_write_rows(matrix, &[src * d], d, src_row, Access::Coalesced);
        });
    }

    /// Matrix bits and kernel counters of 3 epochs on one host thread;
    /// `None` runs the oracle.
    fn run_kernel(
        d: usize,
        similarity: Similarity,
        variant: Option<KernelVariant>,
    ) -> (Vec<u32>, gosh_gpu::CostSnapshot) {
        let g = erdos_renyi(96, 400, 9);
        let device = Device::new(DeviceConfig {
            host_threads: 1,
            ..DeviceConfig::titan_x()
        });
        let graph = DeviceGraph::upload(&device, &g).unwrap();
        let m = Embedding::random(96, d, 5);
        let matrix = device.upload_floats(m.as_slice()).unwrap();
        let p = TrainParams {
            similarity,
            ..params(d, 3)
        };
        device.reset_counters();
        match variant {
            Some(v) => train_in_gpu(&device, &graph, &matrix, &p, v),
            None => {
                for epoch in 0..p.epochs {
                    let lr = decayed_lr(p.lr, epoch, p.epochs);
                    oracle_epoch(&device, &graph, &matrix, &p, lr, epoch);
                }
            }
        }
        let snap = device.snapshot();
        let bits = matrix.to_host_vec().iter().map(|x| x.to_bits()).collect();
        (bits, snap)
    }

    #[test]
    fn staged_kernel_at_one_source_per_warp_matches_the_oracle() {
        let sims = [Similarity::Adjacency, Similarity::Ppr { alpha: 0.85 }];
        for d in [1, 7, 8, 16, 17, 32, 33, 64, 128] {
            for similarity in sims {
                let oracle = run_kernel(d, similarity, None);
                let opt = run_kernel(d, similarity, Some(KernelVariant::Optimized));
                assert!(opt.0 == oracle.0, "Optimized bits, d={d} {similarity:?}");
                assert_eq!(opt.1, oracle.1, "Optimized cost, d={d} {similarity:?}");
                // Auto packs 2 or 4 sources per warp up to d = 16, which
                // reorders the warps' RNG streams; above, it is one per warp.
                if lanes_for_dim(d) == WARP_SIZE {
                    let auto = run_kernel(d, similarity, Some(KernelVariant::Auto));
                    assert!(auto.0 == oracle.0, "Auto bits, d={d} {similarity:?}");
                    assert_eq!(auto.1, oracle.1, "Auto cost, d={d} {similarity:?}");
                }
            }
        }
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = Csr::empty(4);
        let device = Device::new(DeviceConfig::titan_x());
        let mut m = Embedding::random(4, 8, 1);
        let before = m.clone();
        train_level_on_device(&device, &g, &mut m, &params(8, 3), KernelVariant::Auto).unwrap();
        assert_eq!(m, before);
    }

    use gosh_graph::csr::Csr;
}
