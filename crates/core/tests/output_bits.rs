//! The output bits of fixed one-thread runs, pinned as literal hashes.
//!
//! At one thread every engine is deterministic, so a trained matrix is a
//! pure function of its inputs. These runs record an FNV-1a hash of its
//! f32 bits: a change to the sampled stream (sources, positives,
//! negatives, their order) or to the level walk fails here even when an
//! oracle that shares the changed code would still agree with it.
//! `device_cost.rs` pins the device kernels the same way.

use gosh_coarsen::hierarchy::coarsen_hierarchy;
use gosh_core::backend::{BackendChoice, Similarity, TrainParams};
use gosh_core::config::{GoshConfig, Preset};
use gosh_core::embed;
use gosh_core::model::Embedding;
use gosh_core::quant::Precision;
use gosh_core::store::fnv1a64;
use gosh_core::train_cpu::train_cpu;
use gosh_core::warm::{warm_embed, WarmConfig};
use gosh_gpu::{Device, DeviceConfig};
use gosh_graph::gen::{community_graph, erdos_renyi, CommunityConfig};
use gosh_graph::stream::{apply_delta, EdgeDelta};

/// FNV-1a over the little-endian f32 bits of `m`.
fn bits_hash(m: &Embedding) -> u64 {
    let bytes: Vec<u8> = m.as_slice().iter().flat_map(|x| x.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

fn device() -> Device {
    Device::new(DeviceConfig {
        host_threads: 1,
        ..DeviceConfig::titan_x()
    })
}

/// Hogwild at one thread: 3 epochs at `d = 16` on a 96-vertex graph.
fn cpu_run(similarity: Similarity, precision: Precision) -> u64 {
    let g = erdos_renyi(96, 400, 9);
    let mut m = Embedding::random(96, 16, 5);
    let p = TrainParams::adjacency(16, 3, 0.05, 3)
        .with_threads(1)
        .with_seed(11)
        .with_similarity(similarity)
        .with_precision(precision);
    train_cpu(&g, &mut m, &p);
    bits_hash(&m)
}

#[test]
fn one_thread_hogwild_output_is_pinned() {
    let got = [
        cpu_run(Similarity::Adjacency, Precision::F32),
        cpu_run(Similarity::Ppr { alpha: 0.85 }, Precision::F32),
        cpu_run(Similarity::Adjacency, Precision::I8),
    ];
    println!("{got:#018x?}");
    assert_eq!(
        got,
        [0x448d8fa396e57da7, 0x90632d5fff495995, 0x376b0d9d5a35b22f],
        "Hogwild output bits moved"
    );
}

fn pipeline_cfg(backend: BackendChoice) -> GoshConfig {
    GoshConfig::preset(Preset::Normal, false)
        .with_dim(16)
        .with_epochs(30)
        .with_threads(1)
        .with_backend(backend)
}

#[test]
fn one_thread_embed_output_is_pinned() {
    let g = community_graph(&CommunityConfig::new(600, 6), 3);
    let got = [BackendChoice::Cpu, BackendChoice::Gpu].map(|backend| {
        let (m, report) = embed(&g, &pipeline_cfg(backend), &device());
        assert!(report.depth >= 2, "depth {}", report.depth);
        bits_hash(&m)
    });
    println!("{got:#018x?}");
    assert_eq!(
        got,
        [0x8c7a493ae41924b5, 0x3644e0caeb52747d],
        "embed output bits moved"
    );
}

#[test]
fn one_thread_warm_start_output_is_pinned() {
    let g = community_graph(&CommunityConfig::new(400, 4), 9);
    let wcfg = WarmConfig {
        cfg: GoshConfig::default()
            .with_dim(16)
            .with_epochs(40)
            .with_threads(1),
        ..Default::default()
    };
    let h = coarsen_hierarchy(g.clone(), &wcfg.cfg.coarsen_config());
    let old = Embedding::random(g.num_vertices(), 16, 123);
    let mut delta = EdgeDelta::new();
    for i in 0..10u32 {
        delta.insert(i, 200 + i);
        delta.delete(i, i + 1);
    }
    // Two appended vertices: one wired to old ones, one only to it.
    let n = g.num_vertices() as u32;
    delta.insert(n, 3);
    delta.insert(n, n + 1);
    let g_new = apply_delta(&g, &delta);
    let dirty = delta.dirty_vertices(g.num_vertices());
    let (m, _, report) = warm_embed(&g_new, &h, &old, &dirty, &wcfg);
    assert!(report.depth >= 2, "depth {}", report.depth);
    let got = bits_hash(&m);
    println!("{got:#018x}");
    assert_eq!(got, 0xa9b488fa967cdfc3, "warm-start output bits moved");
}
