//! The synchronous Algorithm 5 engine — the reference the pipelined
//! `gosh_core::large::train_large` is tested against.
//!
//! This is the pre-pipeline main loop: every bin load and eviction
//! write-back happens inline on the main thread, serialized with kernel
//! dispatch (no prefetch, no per-bin fencing). It dispatches exactly the
//! same kernel sequence as the pipelined engine, so with a
//! single-threaded warp executor the two must produce bit-identical
//! matrices: the pipeline may only move *when* transfers happen, never
//! what any kernel reads or writes.

use std::time::Instant;

use gosh_core::backend::{PartitionedOpts, TrainParams};
use gosh_core::large::pools::NO_SAMPLE;
use gosh_core::large::{
    choose_num_parts, generate_pool, inside_out_pairs, train_large, LargeReport, Partition,
    SamplePool,
};
use gosh_core::model::Embedding;
use gosh_core::schedule::decayed_lr;
use gosh_core::train_gpu::sample_pass;
use gosh_gpu::{Access, Device, DeviceConfig, DeviceError, FloatBuffer, LaunchConfig, PlainBuffer};
use gosh_graph::csr::Csr;
use gosh_graph::gen::{community_graph, CommunityConfig};

/// A pool resident on the device.
struct DevicePool {
    pair: (usize, usize),
    fwd: PlainBuffer<u32>,
    rev: Option<PlainBuffer<u32>>,
}

/// The synchronous `train_large`. Dispatches exactly the same kernel
/// sequence as the pipelined engine — with a single-threaded warp
/// executor the two produce bit-identical matrices (enforced below).
fn train_large_sync(
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
    let max_part = partition.max_part_len();
    let bins: Vec<FloatBuffer> = (0..num_bins)
        .map(|_| device.alloc_floats(max_part * d))
        .collect::<Result<_, _>>()?;

    let mut loads = 0u64;
    let mut evictions = 0u64;
    let mut kernels = 0u64;

    std::thread::scope(|scope| -> Result<(), DeviceError> {
        let (host_tx, host_rx) = crossbeam::channel::bounded::<SamplePool>(opts.s_gpu);
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
                        break 'outer;
                    }
                }
            }
        });

        let dev_channel_cap = opts.s_gpu.saturating_sub(2).max(1);
        let (dev_tx, dev_rx) = crossbeam::channel::bounded::<DevicePool>(dev_channel_cap);
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

        // Main thread: synchronous bin management + kernel dispatch.
        let mut holds: Vec<Option<usize>> = vec![None; num_bins];
        'rotations: for r in 0..rotations {
            let lr_now = decayed_lr(params.lr, r, rotations);
            for (step, &(a, b)) in pairs.iter().enumerate() {
                let Ok(pool) = dev_rx.recv() else {
                    break 'rotations;
                };
                debug_assert_eq!(pool.pair, (a, b));
                let bin_a = ensure_resident_sync(
                    m,
                    &partition,
                    &bins,
                    &mut holds,
                    a,
                    (a, b),
                    &pairs[step + 1..],
                    &mut loads,
                    &mut evictions,
                );
                let bin_b = if a == b {
                    bin_a
                } else {
                    ensure_resident_sync(
                        m,
                        &partition,
                        &bins,
                        &mut holds,
                        b,
                        (a, b),
                        &pairs[step + 1..],
                        &mut loads,
                        &mut evictions,
                    )
                };
                kernel_pair_sync(
                    device,
                    &bins[bin_a],
                    &bins[bin_b],
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
        drop(dev_rx);
        sm.join().expect("SampleManager panicked");
        pm.join().expect("PoolManager panicked")?;

        for (bin, hold) in holds.iter().enumerate() {
            if let Some(part) = hold {
                write_back_sync(m, &partition, &bins[bin], *part);
                evictions += 1;
            }
        }
        Ok(())
    })?;

    Ok(LargeReport {
        num_parts: k,
        bins: num_bins,
        rotations,
        kernels,
        loads,
        prefetches: 0,
        evictions,
        transfer_stall_seconds: 0.0,
        pool_stall_seconds: 0.0,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Make `part` resident with a blocking inline copy; returns its bin.
#[allow(clippy::too_many_arguments)]
fn ensure_resident_sync(
    m: &mut Embedding,
    partition: &Partition,
    bins: &[FloatBuffer],
    holds: &mut [Option<usize>],
    part: usize,
    pinned: (usize, usize),
    future: &[(usize, usize)],
    loads: &mut u64,
    evictions: &mut u64,
) -> usize {
    if let Some(bin) = holds.iter().position(|h| *h == Some(part)) {
        return bin;
    }
    let victim = holds.iter().position(|h| h.is_none()).unwrap_or_else(|| {
        gosh_core::large::farthest_future_victim(holds, &[pinned.0, pinned.1], future)
            .expect("no free bin and every bin pinned")
    });
    if let Some(old) = holds[victim] {
        write_back_sync(m, partition, &bins[victim], old);
        *evictions += 1;
    }
    let range = partition.range(part);
    let d = m.dim();
    let span = (range.start as usize * d)..(range.end as usize * d);
    bins[victim].copy_from_host_at(0, &m.as_slice()[span]);
    holds[victim] = Some(part);
    *loads += 1;
    victim
}

/// Blocking device → host copy of a bin's sub-matrix.
fn write_back_sync(m: &mut Embedding, partition: &Partition, bin: &FloatBuffer, part: usize) {
    let range = partition.range(part);
    let d = m.dim();
    let span = (range.start as usize * d)..(range.end as usize * d);
    bin.copy_to_host_at(0, &mut m.as_mut_slice()[span]);
}

/// The embedding kernel: the pipelined engine's source/sample schedule
/// around the one shipped sample step, so the equivalence test below
/// checks scheduling only.
#[allow(clippy::too_many_arguments)]
fn kernel_pair_sync(
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
        let (src_local, src_bin, other_bin, other_len, other_start, samples) = if w.id() < len_a {
            (w.id(), bin_a, bin_b, len_b, range_b.start, fwd)
        } else {
            (w.id() - len_a, bin_b, bin_a, len_a, range_a.start, rev)
        };
        w.global_read_rows(src_bin, &[src_local * d], d, src_row, Access::Coalesced);
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
        w.global_write_rows(src_bin, &[src_local * d], d, src_row, Access::Coalesced);
    });
}

#[test]
fn pipelined_matches_sync_bit_for_bit_single_stream() {
    // With a single-threaded warp executor both engines are fully
    // deterministic and dispatch the same kernel sequence over the
    // same bin contents — the final matrices must be identical.
    // This is the "seeded single-stream mode" equivalence gate: the
    // pipeline may only move *when* transfers happen, never what any
    // kernel reads or writes.
    let (dim, seed) = (16, 11);
    let g = community_graph(&CommunityConfig::new(512, 6), seed);
    let params = TrainParams::adjacency(dim, 2, 0.025, 8)
        .with_threads(1)
        .with_seed(seed);
    let opts = PartitionedOpts {
        p_gpu: 3,
        s_gpu: 4,
        batch_b: 2,
    };
    let device = || {
        Device::new(DeviceConfig {
            host_threads: 1,
            pcie_gbps: 0.5,
            ..DeviceConfig::tiny(24 * 1024)
        })
    };

    let mut m_sync = Embedding::random(g.num_vertices(), dim, seed);
    let dev_sync = device();
    let r_sync = train_large_sync(&dev_sync, &g, &mut m_sync, &params, &opts).unwrap();

    let mut m_pipe = Embedding::random(g.num_vertices(), dim, seed);
    let dev_pipe = device();
    let r_pipe = train_large(&dev_pipe, &g, &mut m_pipe, &params, &opts).unwrap();

    assert_eq!(r_sync.kernels, r_pipe.kernels);
    assert_eq!(r_sync.num_parts, r_pipe.num_parts);
    assert_eq!(
        m_sync.as_slice(),
        m_pipe.as_slice(),
        "pipelined engine diverged from the synchronous reference"
    );
}

#[test]
fn sync_engine_still_learns() {
    // The reference must stay a *correct* trainer, or the equivalence
    // above compares against garbage.
    let mut edges = vec![];
    for x in 0..8u32 {
        for y in 0..x {
            edges.push((x, y));
            edges.push((x + 8, y + 8));
        }
    }
    edges.push((0, 8));
    let g = gosh_graph::builder::csr_from_edges(16, &edges);
    let device = Device::new(DeviceConfig::tiny(4096));
    let mut m = Embedding::random(16, 16, 1);
    let params = TrainParams::adjacency(16, 3, 0.05, 400)
        .with_threads(2)
        .with_seed(0xA5);
    train_large_sync(&device, &g, &mut m, &params, &PartitionedOpts::default()).unwrap();
    let intra = (m.cosine(0, 1) + m.cosine(8, 9)) / 2.0;
    let inter = (m.cosine(0, 9) + m.cosine(1, 10)) / 2.0;
    assert!(intra > inter + 0.25, "intra {intra} vs inter {inter}");
}
