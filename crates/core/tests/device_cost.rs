//! The simulated device's modeled cost and output bits, pinned as
//! literal values.
//!
//! Figure 4, Table 8 and the Algorithm 5 tables report *modeled device
//! seconds*, which `gosh_gpu::cost::CostModel` derives from a kernel's
//! `CostSnapshot` counters alone. The counters depend on what a kernel
//! touches, never on the values it computes, so a change to the kernels'
//! arithmetic must leave every one of them as it is. These fixed runs
//! record them literally; a change to where or how a kernel counts fails
//! here, and the modeled columns it would move must be re-derived on
//! purpose.
//!
//! The same runs also pin an FNV-1a hash of the trained matrix's f32
//! bits. An oracle that shares the kernels' sampler agrees with them even
//! when the sampled stream changes; a literal hash does not.

use gosh_core::backend::{PartitionedOpts, Similarity, TrainParams};
use gosh_core::large::train_large;
use gosh_core::model::Embedding;
use gosh_core::store::fnv1a64;
use gosh_core::train_gpu::{train_level_on_device, KernelVariant};
use gosh_gpu::{CostSnapshot, Device, DeviceConfig};
use gosh_graph::gen::erdos_renyi;

/// `[alu, shared, mem_instructions, transactions, warps, kernels,
/// h2d_bytes, d2h_bytes]`.
type Counters = [u64; 8];

fn counters(s: &CostSnapshot) -> Counters {
    [
        s.alu,
        s.shared,
        s.mem_instructions,
        s.transactions,
        s.warps,
        s.kernels,
        s.h2d_bytes,
        s.d2h_bytes,
    ]
}

/// FNV-1a over the little-endian f32 bits of `m`.
fn bits_hash(m: &Embedding) -> u64 {
    let bytes: Vec<u8> = m.as_slice().iter().flat_map(|x| x.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// One in-memory level: upload, 3 epochs, download, on a fresh device.
/// Returns the counters and the trained matrix's [`bits_hash`].
fn level_run(d: usize, similarity: Similarity, variant: KernelVariant) -> (Counters, u64) {
    let g = erdos_renyi(96, 400, 9);
    let device = Device::new(DeviceConfig {
        host_threads: 1,
        ..DeviceConfig::titan_x()
    });
    let mut m = Embedding::random(96, d, 5);
    let p = TrainParams {
        similarity,
        ..TrainParams::adjacency(d, 3, 0.05, 3)
    };
    train_level_on_device(&device, &g, &mut m, &p, variant).unwrap();
    (counters(&device.snapshot()), bits_hash(&m))
}

const SIMS: [Similarity; 2] = [Similarity::Adjacency, Similarity::Ppr { alpha: 0.85 }];
const VARIANTS: [KernelVariant; 3] = [
    KernelVariant::Naive,
    KernelVariant::Optimized,
    KernelVariant::Auto,
];
const DIMS: [usize; 4] = [8, 16, 32, 64];

/// Rows in `DIMS × SIMS × VARIANTS` order.
#[rustfmt::skip]
const PINNED_LEVELS: [Counters; 24] = [
    [74112, 0, 27792, 222336, 1158, 3, 10024, 3072], // d=8 Adjacency Naive
    [74112, 10422, 16212, 16212, 1158, 3, 10024, 3072], // d=8 Adjacency Optimized
    [18624, 2619, 4074, 16212, 291, 3, 10024, 3072], // d=8 Adjacency Auto
    [88952, 0, 27792, 222336, 1158, 3, 10024, 3072], // d=8 Ppr Naive
    [88952, 10422, 16212, 16212, 1158, 3, 10024, 3072], // d=8 Ppr Optimized
    [33994, 2619, 4074, 16212, 291, 3, 10024, 3072], // d=8 Ppr Auto
    [74112, 0, 27792, 444672, 1158, 3, 13096, 6144], // d=16 Adjacency Naive
    [74112, 10422, 16212, 32424, 1158, 3, 13096, 6144], // d=16 Adjacency Optimized
    [37056, 5211, 8106, 32424, 579, 3, 13096, 6144], // d=16 Adjacency Auto
    [88952, 0, 27792, 444672, 1158, 3, 13096, 6144], // d=16 Ppr Naive
    [88952, 10422, 16212, 32424, 1158, 3, 13096, 6144], // d=16 Ppr Optimized
    [52660, 5211, 8106, 32424, 579, 3, 13096, 6144], // d=16 Ppr Auto
    [74112, 0, 27792, 889344, 1158, 3, 19240, 12288], // d=32 Adjacency Naive
    [74112, 10422, 16212, 64848, 1158, 3, 19240, 12288], // d=32 Adjacency Optimized
    [74112, 10422, 16212, 64848, 1158, 3, 19240, 12288], // d=32 Adjacency Auto
    [88952, 0, 27792, 889344, 1158, 3, 19240, 12288], // d=32 Ppr Naive
    [88952, 10422, 16212, 64848, 1158, 3, 19240, 12288], // d=32 Ppr Optimized
    [88952, 10422, 16212, 64848, 1158, 3, 19240, 12288], // d=32 Ppr Auto
    [88008, 0, 27792, 1778688, 1158, 3, 31528, 24576], // d=64 Adjacency Naive
    [88008, 20844, 16212, 129696, 1158, 3, 31528, 24576], // d=64 Adjacency Optimized
    [88008, 20844, 16212, 129696, 1158, 3, 31528, 24576], // d=64 Adjacency Auto
    [102848, 0, 27792, 1778688, 1158, 3, 31528, 24576], // d=64 Ppr Naive
    [102848, 20844, 16212, 129696, 1158, 3, 31528, 24576], // d=64 Ppr Optimized
    [102848, 20844, 16212, 129696, 1158, 3, 31528, 24576], // d=64 Ppr Auto
];

/// [`bits_hash`] of each run of [`PINNED_LEVELS`], in the same order.
#[rustfmt::skip]
const PINNED_LEVEL_BITS: [u64; 24] = [
    0x161e309cfa9d0817, 0xd6e217e3856b3d01, 0x1b3f5ba5dfb44c0b,
    0x602611a75fd8942e, 0x760814f230467162, 0x4d62b93caac0efab,
    0x250cb2f280b991b9, 0x7d8c97c55c850cb7, 0xbd98bfa1ba2fc2d0,
    0x48092789a8785f0c, 0x52b07bad8cdefe43, 0x624f70480246960d,
    0x9ee1e7ccc54af775, 0x5e64eba2a14d14db, 0x5e64eba2a14d14db,
    0xd7764f05f5e20176, 0x72dbc05fc0b2671a, 0x72dbc05fc0b2671a,
    0x19d378c2dbf39f2b, 0x3ec8ab912cdc1957, 0x3ec8ab912cdc1957,
    0x1553e28e837864a2, 0x0e978b5747394986, 0x0e978b5747394986,
];

/// Nine parts, 45 part-pair kernels.
const PINNED_LARGE: Counters = [660880, 84914, 128523, 257046, 2304, 45, 120576, 74496];

/// [`bits_hash`] of the partitioned run's matrix.
const PINNED_LARGE_BITS: u64 = 0xaaff521b6c79bcb6;

#[test]
fn in_memory_kernels_count_the_pinned_cost() {
    let (mut got, mut bits) = (Vec::new(), Vec::new());
    for d in DIMS {
        for similarity in SIMS {
            for variant in VARIANTS {
                let (c, h) = level_run(d, similarity, variant);
                println!("    {c:?}, // d={d} {similarity:?} {variant:?} bits {h:#018x}");
                got.push(c);
                bits.push(h);
            }
        }
    }
    assert!(
        got == PINNED_LEVELS,
        "device cost moved; this run printed its counters"
    );
    assert!(
        bits == PINNED_LEVEL_BITS,
        "device output bits moved; this run printed their hashes"
    );
}

#[test]
fn partitioned_run_counts_the_pinned_cost() {
    // 256 × 16 f32 rows are 16 KiB; a 12 KiB device forces several parts.
    let g = erdos_renyi(256, 1024, 13);
    let device = Device::new(DeviceConfig {
        host_threads: 1,
        ..DeviceConfig::tiny(12 * 1024)
    });
    let mut m = Embedding::random(256, 16, 3);
    let params = TrainParams::adjacency(16, 3, 0.05, 4)
        .with_threads(1)
        .with_seed(7);
    let report = train_large(&device, &g, &mut m, &params, &PartitionedOpts::default()).unwrap();
    assert!(report.num_parts >= 2, "{} parts", report.num_parts);
    let got = counters(&device.snapshot());
    assert_eq!(got, PINNED_LARGE);
    assert_eq!(
        bits_hash(&m),
        PINNED_LARGE_BITS,
        "partitioned output bits moved"
    );
}
