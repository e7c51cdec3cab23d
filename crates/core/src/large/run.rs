//! The orchestrated large-graph training loop — Algorithm 5 and Figure 2.
//!
//! Four actors cooperate, as in §3.3.2–§3.3.3:
//!
//! * the **SampleManager** thread walks the (rotation, pair) sequence and
//!   fills positive-sample pools on the host with a team of worker
//!   threads, keeping at most `S_GPU` pools in flight;
//! * the **PoolManager** thread ships ready pools to the device;
//! * the **transfer stream** carries every sub-matrix movement: bin
//!   loads are asynchronous host→device copies, evictions are
//!   asynchronous device→host readbacks, both enqueued FIFO on one
//!   dedicated [`Stream`] so they overlap with kernel execution;
//! * the **main thread** keeps `P_GPU` embedding sub-matrices resident in
//!   device bins, prefetches the *next* pair's parts while the current
//!   kernel runs (the copy/compute overlap of Figure 2), and dispatches
//!   the embedding kernel for each pair, fencing only on the transfer
//!   events of the two bins that kernel touches — never on the whole
//!   device.
//!
//! Residency decisions (which bin, which victim) are the pure functions
//! of [`super::residency`]; this module adds the I/O: staging host spans
//! into owned buffers for async upload, and parking eviction readbacks
//! per part until the part is next needed (or training ends), at which
//! point they are applied to the host matrix.
//!
//! A full rotation applies `B` positive (and `B·ns` negative) updates per
//! vertex per counterpart part, so rotations are counted to match the
//! epoch budget: `e' = round(e_i · |E| / (B · K_i · |V_i|))` — the same
//! total positive-sample budget as `e_i` epochs of the in-memory path.

use std::time::{Duration, Instant};

use crossbeam::channel::bounded;
use gosh_gpu::{
    Access, Device, DeviceError, Event, FloatBuffer, LaunchConfig, PlainBuffer, Readback, Stream,
};
use gosh_graph::csr::Csr;

use super::partition::{choose_num_parts, Partition};
use super::pools::{generate_pool, SamplePool, NO_SAMPLE};
use super::residency::{place, Placement};
use super::rotation::inside_out_pairs;
use crate::backend::{PartitionedOpts, Similarity, TrainParams};
use crate::model::Embedding;
use crate::quant::{quantize_roundtrip, Precision};
use crate::schedule::decayed_lr;
use crate::train_gpu::sample_pass;

/// What happened during a [`train_large`] run.
#[derive(Clone, Copy, Debug)]
pub struct LargeReport {
    /// Parts the matrix was cut into (K_i).
    pub num_parts: usize,
    /// Device bins actually used (P_GPU clamped to [2, K_i]).
    pub bins: usize,
    /// Rotations executed (e').
    pub rotations: u32,
    /// Embedding kernels dispatched.
    pub kernels: u64,
    /// Sub-matrix loads into bins.
    pub loads: u64,
    /// Loads issued ahead of need by the one-pair-lookahead prefetcher
    /// (a subset of `loads`).
    pub prefetches: u64,
    /// Sub-matrix evictions (device → host write-backs).
    pub evictions: u64,
    /// Seconds the main thread spent blocked on transfer events — the
    /// portion of sub-matrix traffic the pipeline failed to hide behind
    /// kernels. 0 means perfect overlap.
    pub transfer_stall_seconds: f64,
    /// Seconds the main thread spent waiting for sample pools.
    pub pool_stall_seconds: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// A pool resident on the device.
struct DevicePool {
    pair: (usize, usize),
    fwd: PlainBuffer<u32>,
    rev: Option<PlainBuffer<u32>>,
}

/// The bins, their transfer state, and the parked eviction readbacks —
/// everything the main thread mutates while planning residency.
struct BinManager<'a> {
    partition: &'a Partition,
    dim: usize,
    /// Storage width the bins are modeled at; quantized runs stage spans
    /// through a quantize→dequantize round trip at the load and
    /// write-back boundaries (the same mixed-precision model as
    /// `train_level_on_device`).
    precision: Precision,
    bins: Vec<FloatBuffer>,
    stream: Stream,
    /// Part held by each bin (post any in-flight load).
    holds: Vec<Option<usize>>,
    /// Completion event of the last load targeting each bin; a kernel
    /// touching the bin fences on this (and nothing else).
    pending: Vec<Option<Event>>,
    /// In-flight eviction readback per part, applied to the host matrix
    /// lazily — right before the part is reloaded, or at the end.
    readbacks: Vec<Option<Readback>>,
    loads: u64,
    prefetches: u64,
    evictions: u64,
    transfer_stall: Duration,
}

impl<'a> BinManager<'a> {
    fn new(
        device: &Device,
        partition: &'a Partition,
        dim: usize,
        num_bins: usize,
        precision: Precision,
    ) -> Result<Self, DeviceError> {
        let max_part = partition.max_part_len();
        // Bins are charged at the storage width's bytes per element (the
        // i8 per-row scale metadata is priced by `choose_num_parts`,
        // so the fit check is the conservative side of this charge).
        let bins: Vec<FloatBuffer> = (0..num_bins)
            .map(|_| device.alloc_floats_prec(max_part * dim, precision.bytes_per_element()))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            partition,
            dim,
            precision,
            bins,
            stream: device.create_stream(),
            holds: vec![None; num_bins],
            pending: vec![None; num_bins],
            readbacks: (0..partition.num_parts()).map(|_| None).collect(),
            loads: 0,
            prefetches: 0,
            evictions: 0,
            transfer_stall: Duration::ZERO,
        })
    }

    /// Host-matrix element span of `part`.
    fn span(&self, part: usize) -> std::ops::Range<usize> {
        let r = self.partition.range(part);
        (r.start as usize * self.dim)..(r.end as usize * self.dim)
    }

    /// Apply a parked eviction readback of `part` to the host matrix, if
    /// one is in flight. Must run before `m`'s span for the part is read
    /// (reload staging) and before the final report.
    fn settle_readback(&mut self, m: &mut Embedding, part: usize) {
        if let Some(rb) = self.readbacks[part].take() {
            let t0 = Instant::now();
            let span = self.span(part);
            rb.wait_into(&mut m.as_mut_slice()[span.clone()]);
            if self.precision != Precision::F32 {
                quantize_roundtrip(&mut m.as_mut_slice()[span], self.dim, self.precision);
            }
            self.transfer_stall += t0.elapsed();
        }
    }

    /// Enqueue the transfers that make `part` resident in `bin`,
    /// evicting `old_part` first if the bin is occupied. FIFO order on
    /// the single transfer stream guarantees the eviction readback sees
    /// the bin before the load overwrites it.
    fn issue_load(&mut self, m: &mut Embedding, part: usize, bin: usize, old_part: Option<usize>) {
        if let Some(old) = old_part {
            let len = self.partition.len(old) * self.dim;
            let rb = self.bins[bin].copy_to_host_at_async(&self.stream, 0, len);
            self.readbacks[old] = Some(rb);
            self.evictions += 1;
        }
        // The staging copy must carry the part's freshest values.
        self.settle_readback(m, part);
        let span = self.span(part);
        let mut staged = m.as_slice()[span].to_vec();
        if self.precision != Precision::F32 {
            quantize_roundtrip(&mut staged, self.dim, self.precision);
        }
        let event = self.bins[bin].copy_from_host_at_async(&self.stream, 0, staged);
        self.pending[bin] = Some(event);
        self.holds[bin] = Some(part);
        self.loads += 1;
    }

    /// Make `part` resident and return its bin, planning with
    /// [`place`]. A demand load always finds a bin (see
    /// [`Placement::Blocked`]).
    fn ensure_resident(
        &mut self,
        m: &mut Embedding,
        part: usize,
        pinned: &[usize],
        future: &[(usize, usize)],
    ) -> usize {
        match place(&self.holds, part, pinned, future) {
            Placement::Resident(bin) => bin,
            Placement::Fill(bin) => {
                self.issue_load(m, part, bin, None);
                bin
            }
            Placement::Evict { bin, old_part } => {
                self.issue_load(m, part, bin, Some(old_part));
                bin
            }
            Placement::Blocked => unreachable!("demand load with every bin pinned"),
        }
    }

    /// Best-effort early load of `part` (the lookahead of Figure 2): like
    /// [`Self::ensure_resident`] but quietly does nothing when every bin
    /// is pinned (P_GPU = 2 with a disjoint next pair).
    fn prefetch(
        &mut self,
        m: &mut Embedding,
        part: usize,
        pinned: &[usize],
        future: &[(usize, usize)],
    ) {
        match place(&self.holds, part, pinned, future) {
            Placement::Resident(_) | Placement::Blocked => {}
            Placement::Fill(bin) => {
                self.issue_load(m, part, bin, None);
                self.prefetches += 1;
            }
            Placement::Evict { bin, old_part } => {
                self.issue_load(m, part, bin, Some(old_part));
                self.prefetches += 1;
            }
        }
    }

    /// Block until the last transfer targeting `bin` retires — the
    /// per-bin fence a kernel takes instead of a device-wide barrier.
    fn fence(&mut self, bin: usize) {
        if let Some(event) = self.pending[bin].take() {
            let t0 = Instant::now();
            event.wait();
            self.transfer_stall += t0.elapsed();
        }
    }

    /// Drain the stream and put every part back in the host matrix:
    /// parked readbacks first, then the still-resident bins.
    fn flush(mut self, m: &mut Embedding) -> (u64, u64, u64, Duration) {
        self.stream.synchronize();
        for part in 0..self.partition.num_parts() {
            self.settle_readback(m, part);
        }
        for (bin, hold) in self.holds.iter().enumerate() {
            if let Some(part) = *hold {
                let r = self.partition.range(part);
                let span = (r.start as usize * self.dim)..(r.end as usize * self.dim);
                self.bins[bin].copy_to_host_at(0, &mut m.as_mut_slice()[span.clone()]);
                if self.precision != Precision::F32 {
                    quantize_roundtrip(&mut m.as_mut_slice()[span], self.dim, self.precision);
                }
                self.evictions += 1;
            }
        }
        (
            self.loads,
            self.prefetches,
            self.evictions,
            self.transfer_stall,
        )
    }
}

/// The next pair to visit plus the Belady horizon beyond it.
type Lookahead<'p> = ((usize, usize), &'p [(usize, usize)]);

/// The pair the rotation visits after position `step`, plus the pair
/// sequence beyond it (the Belady horizon for the prefetch's victim
/// choice), looking across the rotation boundary. `None` only at the
/// very end of training.
fn lookahead(
    pairs: &[(usize, usize)],
    step: usize,
    rotation: u32,
    rotations: u32,
) -> Option<Lookahead<'_>> {
    if step + 1 < pairs.len() {
        Some((pairs[step + 1], &pairs[step + 2..]))
    } else if rotation + 1 < rotations {
        Some((pairs[0], &pairs[1..]))
    } else {
        None
    }
}

/// Train `m` on `g` with the partitioned pipeline. The caller has already
/// determined that the one-shot path does not fit (Algorithm 2, line 8).
/// `opts` shapes the partitioning (P_GPU bins, S_GPU pools, batch B).
///
/// # Panics
/// Panics unless `params.similarity` is [`Similarity::Adjacency`]: the
/// sample pools draw uniform neighbours only.
pub fn train_large(
    device: &Device,
    g: &Csr,
    m: &mut Embedding,
    params: &TrainParams,
    opts: &PartitionedOpts,
) -> Result<LargeReport, DeviceError> {
    let start = Instant::now();
    let n = g.num_vertices();
    let d = params.dim;
    assert_eq!(m.num_vertices(), n, "graph/matrix mismatch");
    assert_eq!(m.dim(), d, "dimension mismatch");
    assert!(
        params.similarity == Similarity::Adjacency,
        "the partitioned path samples adjacency only, not {:?}",
        params.similarity
    );

    // Budget 90% of free device memory for bins + pools, with sub-matrix
    // rows priced at the configured precision's true byte width.
    let avail = device.available_bytes() / 10 * 9;
    let k = choose_num_parts(
        n,
        d,
        avail,
        opts.p_gpu,
        opts.s_gpu,
        opts.batch_b,
        params.precision,
    );
    let partition = Partition::new(n, k);
    let pairs = inside_out_pairs(k);
    let e_und = g.num_undirected_edges().max(1);
    let rotations = ((params.epochs as f64 * e_und as f64)
        / (opts.batch_b as f64 * k as f64 * n as f64))
        .round()
        .max(1.0) as u32;

    let num_bins = opts.p_gpu.clamp(2, k);
    let mut kernels = 0u64;
    let mut pool_stall = Duration::ZERO;
    let mut bin_mgr = BinManager::new(device, &partition, d, num_bins, params.precision)?;

    std::thread::scope(|scope| -> Result<(), DeviceError> {
        // SampleManager: host-side pool generation, S_GPU pools buffered.
        let (host_tx, host_rx) = bounded::<SamplePool>(opts.s_gpu);
        let sm_pairs = pairs.clone();
        let sm_partition = partition.clone();
        let sm = scope.spawn(move || {
            'outer: for r in 0..rotations {
                for &pair in &sm_pairs {
                    let seed =
                        params.seed ^ ((r as u64) << 40) ^ ((pair.0 as u64) << 20) ^ pair.1 as u64;
                    let pool =
                        generate_pool(g, &sm_partition, pair, opts.batch_b, params.threads, seed);
                    if host_tx.send(pool).is_err() {
                        break 'outer; // consumer gone (error path)
                    }
                }
            }
        });

        // PoolManager: ship ready pools to the device. At most S_GPU pools
        // are device-resident at once: the channel buffer, plus one in the
        // PoolManager's hand and one in the main thread's.
        let dev_channel_cap = opts.s_gpu.saturating_sub(2).max(1);
        let (dev_tx, dev_rx) = bounded::<DevicePool>(dev_channel_cap);
        let pm_device = device.clone();
        let pm = scope.spawn(move || -> Result<(), DeviceError> {
            for pool in host_rx {
                let fwd = pm_device.upload_plain(&pool.fwd)?;
                let rev = if pool.rev.is_empty() {
                    None
                } else {
                    Some(pm_device.upload_plain(&pool.rev)?)
                };
                if dev_tx
                    .send(DevicePool {
                        pair: pool.pair,
                        fwd,
                        rev,
                    })
                    .is_err()
                {
                    break;
                }
            }
            Ok(())
        });

        // Main thread: residency planning + kernel dispatch.
        'rotations: for r in 0..rotations {
            let lr_now = decayed_lr(params.lr, r, rotations);
            for (step, &(a, b)) in pairs.iter().enumerate() {
                // Demand loads for the current pair — usually already
                // resident thanks to the prefetch issued last step.
                let future = &pairs[step + 1..];
                let bin_a = bin_mgr.ensure_resident(m, a, &[a, b], future);
                let bin_b = if a == b {
                    bin_a
                } else {
                    bin_mgr.ensure_resident(m, b, &[a, b], future)
                };

                // Prefetch the next pair on the transfer stream *before*
                // dispatching this kernel: the copies run while the
                // kernel computes (Figure 2). The next pair's parts are
                // pinned alongside the current pair's so the prefetch
                // never displaces what the imminent kernels need.
                if let Some(((na, nb), far)) = lookahead(&pairs, step, r, rotations) {
                    let pinned = [a, b, na, nb];
                    bin_mgr.prefetch(m, na, &pinned, far);
                    if nb != na {
                        bin_mgr.prefetch(m, nb, &pinned, far);
                    }
                }

                let t0 = Instant::now();
                let Ok(pool) = dev_rx.recv() else {
                    // PoolManager hit a device error; surface it below.
                    break 'rotations;
                };
                pool_stall += t0.elapsed();
                debug_assert_eq!(pool.pair, (a, b));

                // Fence on exactly the bins this kernel touches.
                bin_mgr.fence(bin_a);
                if bin_b != bin_a {
                    bin_mgr.fence(bin_b);
                }
                kernel_pair(
                    device,
                    &bin_mgr.bins[bin_a],
                    &bin_mgr.bins[bin_b],
                    &partition,
                    (a, b),
                    &pool,
                    lr_now,
                    params,
                    opts.batch_b,
                );
                kernels += 1;
            }
        }
        drop(dev_rx); // unblock PoolManager if it is still sending
        sm.join().expect("SampleManager panicked");
        pm.join().expect("PoolManager panicked")?;
        Ok(())
    })?;

    let (loads, prefetches, evictions, transfer_stall) = bin_mgr.flush(m);
    Ok(LargeReport {
        num_parts: k,
        bins: num_bins,
        rotations,
        kernels,
        loads,
        prefetches,
        evictions,
        transfer_stall_seconds: transfer_stall.as_secs_f64(),
        pool_stall_seconds: pool_stall.as_secs_f64(),
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// The embedding kernel for one part pair (the `EmbeddingKernel` of
/// Algorithm 5): every vertex of each side is a source; positives come
/// from the pool, negatives are drawn on the device uniformly from the
/// counterpart part.
#[allow(clippy::too_many_arguments)]
fn kernel_pair(
    device: &Device,
    bin_a: &FloatBuffer,
    bin_b: &FloatBuffer,
    partition: &Partition,
    (a, b): (usize, usize),
    pool: &DevicePool,
    lr: f32,
    params: &TrainParams,
    batch_b: usize,
) {
    let d = params.dim;
    let ns = params.negative_samples;
    let bb = batch_b;
    let range_a = partition.range(a);
    let range_b = partition.range(b);
    let len_a = (range_a.end - range_a.start) as usize;
    let len_b = (range_b.end - range_b.start) as usize;
    let diagonal = a == b;
    let warps = if diagonal { len_a } else { len_a + len_b };
    let fwd = pool.fwd.as_slice();
    let rev = pool.rev.as_ref().map(|r| r.as_slice()).unwrap_or(&[]);

    device.launch(LaunchConfig::new(warps, 2 * d), |w, scratch| {
        let (src_row, tmp) = scratch.split_at_mut(d);
        // Which side is this warp's source on?
        let (src_local, src_bin, other_bin, other_len, other_start, samples) = if w.id() < len_a {
            (w.id(), bin_a, bin_b, len_b, range_b.start, fwd)
        } else {
            (w.id() - len_a, bin_b, bin_a, len_a, range_a.start, rev)
        };
        let src_off = [src_local * d];
        w.global_read_rows(src_bin, &src_off, d, src_row, Access::Coalesced);
        w.shared_store(d);
        for i in 0..bb {
            let t = samples[src_local * bb + i];
            if t != NO_SAMPLE {
                let t_off = [(t - other_start) as usize * d];
                sample_pass(w, other_bin, &t_off, d, src_row, tmp, &mut [1.0], 1.0, lr);
            }
            for _ in 0..ns {
                let u_off = [w.rand_below(other_len as u32) as usize * d];
                sample_pass(w, other_bin, &u_off, d, src_row, tmp, &mut [1.0], 0.0, lr);
            }
        }
        w.global_write_rows(src_bin, &src_off, d, src_row, Access::Coalesced);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosh_gpu::DeviceConfig;
    use gosh_graph::builder::csr_from_edges;
    use gosh_graph::gen::erdos_renyi;

    fn params(d: usize, epochs: u32) -> TrainParams {
        TrainParams::adjacency(d, 3, 0.05, epochs)
            .with_threads(2)
            .with_seed(0xA5)
    }

    fn opts() -> PartitionedOpts {
        PartitionedOpts::default()
    }

    #[test]
    fn partitioned_training_learns_two_cliques() {
        // Device that cannot hold the whole matrix: 16 vertices × 16 dims
        // × 4B = 1 KB matrix; give it ~0.7 KB of bin space.
        let mut edges = vec![];
        for x in 0..8u32 {
            for y in 0..x {
                edges.push((x, y));
                edges.push((x + 8, y + 8));
            }
        }
        edges.push((0, 8));
        let g = csr_from_edges(16, &edges);
        let device = Device::new(DeviceConfig::tiny(4096));
        let mut m = Embedding::random(16, 16, 1);
        let report = train_large(&device, &g, &mut m, &params(16, 400), &opts()).unwrap();
        assert!(report.num_parts >= 2);
        assert!(report.rotations >= 1);
        let intra = (m.cosine(0, 1) + m.cosine(8, 9)) / 2.0;
        let inter = (m.cosine(0, 9) + m.cosine(1, 10)) / 2.0;
        assert!(intra > inter + 0.25, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn all_updates_written_back() {
        // After training, the host matrix must differ from the initial one
        // in every part (all parts received updates).
        let g = erdos_renyi(64, 512, 3);
        let device = Device::new(DeviceConfig::tiny(8192));
        let mut m = Embedding::random(64, 8, 2);
        let before = m.clone();
        train_large(&device, &g, &mut m, &params(8, 50), &opts()).unwrap();
        let k = choose_num_parts(64, 8, 8192 / 10 * 9, 3, 4, 5, Precision::F32);
        let p = Partition::new(64, k);
        for j in 0..p.num_parts() {
            let r = p.range(j);
            let changed = (r.start..r.end).any(|v| m.row(v) != before.row(v));
            assert!(changed, "part {j} never updated");
        }
    }

    #[test]
    fn device_memory_is_respected_and_restored() {
        let g = erdos_renyi(128, 1024, 5);
        let device = Device::new(DeviceConfig::tiny(16 * 1024));
        let mut m = Embedding::random(128, 16, 4);
        train_large(&device, &g, &mut m, &params(16, 20), &opts()).unwrap();
        assert_eq!(device.allocated_bytes(), 0, "leak after training");
    }

    #[test]
    #[should_panic(expected = "the partitioned path samples adjacency only")]
    fn ppr_similarity_is_rejected() {
        let g = erdos_renyi(128, 1024, 5);
        let device = Device::new(DeviceConfig::tiny(8 * 1024));
        let mut m = Embedding::random(128, 8, 4);
        let p = params(8, 2).with_similarity(Similarity::Ppr { alpha: 0.85 });
        let _ = train_large(&device, &g, &mut m, &p, &opts());
    }

    #[test]
    fn unsatisfiable_device_is_a_clean_error() {
        // 64 bytes cannot hold one d = 16 vertex row per bin.
        let g = erdos_renyi(128, 1024, 5);
        let device = Device::new(DeviceConfig::tiny(64));
        let mut m = Embedding::random(128, 16, 4);
        let r = train_large(&device, &g, &mut m, &params(16, 20), &opts());
        assert!(r.is_err(), "expected OutOfMemory, got {r:?}");
    }

    #[test]
    fn rotation_count_tracks_epoch_budget() {
        let g = erdos_renyi(100, 1000, 7);
        let device = Device::new(DeviceConfig::tiny(8 * 1024));
        let mut m = Embedding::random(100, 8, 5);
        let r1 = train_large(&device, &g, &mut m, &params(8, 20), &opts()).unwrap();
        let r2 = train_large(&device, &g, &mut m, &params(8, 40), &opts()).unwrap();
        assert!(
            r2.rotations >= 2 * r1.rotations.max(1) - 1,
            "{} vs {}",
            r1.rotations,
            r2.rotations
        );
    }

    #[test]
    fn bigger_b_means_fewer_rotations() {
        let g = erdos_renyi(100, 2000, 9);
        let device = Device::new(DeviceConfig::tiny(8 * 1024));
        let mut m = Embedding::random(100, 8, 6);
        let small_b = train_large(
            &device,
            &g,
            &mut m,
            &params(8, 30),
            &PartitionedOpts {
                batch_b: 1,
                ..opts()
            },
        )
        .unwrap();
        let large_b = train_large(
            &device,
            &g,
            &mut m,
            &params(8, 30),
            &PartitionedOpts {
                batch_b: 8,
                ..opts()
            },
        )
        .unwrap();
        assert!(large_b.rotations < small_b.rotations);
    }

    #[test]
    fn more_bins_means_fewer_evictions() {
        let g = erdos_renyi(256, 2048, 11);
        let mut m = Embedding::random(256, 16, 7);
        // Same epochs; P_GPU = 2 vs 3.
        let dev2 = Device::new(DeviceConfig::tiny(24 * 1024));
        let r2 = train_large(
            &dev2,
            &g,
            &mut m,
            &params(16, 20),
            &PartitionedOpts { p_gpu: 2, ..opts() },
        )
        .unwrap();
        let dev3 = Device::new(DeviceConfig::tiny(24 * 1024));
        let r3 = train_large(
            &dev3,
            &g,
            &mut m,
            &params(16, 20),
            &PartitionedOpts { p_gpu: 3, ..opts() },
        )
        .unwrap();
        if r2.num_parts == r3.num_parts && r2.num_parts > 2 {
            assert!(
                r3.evictions <= r2.evictions,
                "P_GPU=3 evictions {} > P_GPU=2 {}",
                r3.evictions,
                r2.evictions
            );
        }
    }

    #[test]
    fn prefetcher_issues_ahead_with_spare_bins() {
        // With P_GPU = 3 and several parts, most loads should be issued
        // by the lookahead, not by demand misses.
        let g = erdos_renyi(256, 2048, 13);
        let device = Device::new(DeviceConfig::tiny(24 * 1024));
        let mut m = Embedding::random(256, 16, 8);
        let r = train_large(&device, &g, &mut m, &params(16, 40), &opts()).unwrap();
        if r.num_parts > r.bins {
            assert!(r.prefetches > 0, "lookahead never fired: {r:?}");
            assert!(r.prefetches <= r.loads);
        }
    }

    #[test]
    fn quantized_large_path_cuts_parts_and_still_learns() {
        let mut edges = vec![];
        for x in 0..8u32 {
            for y in 0..x {
                edges.push((x, y));
                edges.push((x + 8, y + 8));
            }
        }
        edges.push((0, 8));
        let g = csr_from_edges(16, &edges);
        let run = |precision| {
            let device = Device::new(DeviceConfig::tiny(4096));
            let mut m = Embedding::random(16, 16, 1);
            let p = TrainParams {
                precision,
                ..params(16, 400)
            };
            let report = train_large(&device, &g, &mut m, &p, &opts()).unwrap();
            assert_eq!(device.allocated_bytes(), 0);
            let intra = (m.cosine(0, 1) + m.cosine(8, 9)) / 2.0;
            let inter = (m.cosine(0, 9) + m.cosine(1, 10)) / 2.0;
            assert!(
                intra > inter + 0.2,
                "{precision}: intra {intra} vs inter {inter}"
            );
            report.num_parts
        };
        let k_f32 = run(Precision::F32);
        let k_i8 = run(Precision::I8);
        assert!(k_i8 <= k_f32, "i8 {k_i8} parts vs f32 {k_f32}");
    }

    #[test]
    fn stall_accounting_is_sane() {
        let g = erdos_renyi(128, 1024, 15);
        let device = Device::new(DeviceConfig::tiny(16 * 1024));
        let mut m = Embedding::random(128, 16, 9);
        let r = train_large(&device, &g, &mut m, &params(16, 20), &opts()).unwrap();
        assert!(r.transfer_stall_seconds >= 0.0);
        assert!(r.pool_stall_seconds >= 0.0);
        assert!(r.transfer_stall_seconds + r.pool_stall_seconds <= r.seconds * 1.5);
    }
}
