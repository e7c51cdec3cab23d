//! Criterion micro-benchmarks of the hot paths behind every table:
//! the Algorithm 1 update, the fused in-place trainer update, the
//! sharded trainer core, the pipelined Algorithm 5 large-graph engine,
//! the Algorithm 4 mapping, coarse-graph construction, positive
//! sampling, AUCROC, and CSR builds.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gosh_coarsen::build::build_coarse_sequential;
use gosh_coarsen::fused::{build_fused, CoarsenWorkspace};
use gosh_coarsen::hierarchy::{coarsen_hierarchy, CoarsenConfig};
use gosh_coarsen::sequential::map_sequential;
use gosh_core::model::{Embedding, SharedMatrix};
use gosh_core::train_cpu::{fused_update, train_cpu};
use gosh_core::update::update_embedding;
use gosh_core::TrainParams;
use gosh_eval::auc_roc;
use gosh_graph::builder::csr_from_edges;
use gosh_graph::gen::{community_graph, CommunityConfig};
use gosh_graph::rng::Xorshift128Plus;

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_embedding");
    for d in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            let mut rng = Xorshift128Plus::new(1);
            let mut src: Vec<f32> = (0..d).map(|_| rng.next_f32() - 0.5).collect();
            let mut sam: Vec<f32> = (0..d).map(|_| rng.next_f32() - 0.5).collect();
            b.iter(|| {
                update_embedding(black_box(&mut src), black_box(&mut sam), 1.0, 0.01);
            });
        });
    }
    group.finish();
}

fn bench_hotpath(c: &mut Criterion) {
    // The fused in-place update vs the two-sided reference update.
    let mut group = c.benchmark_group("trainer_update");
    for d in [32usize, 128] {
        let mut rng = Xorshift128Plus::new(13);
        let mk = |rng: &mut Xorshift128Plus| -> Vec<f32> {
            (0..d).map(|_| rng.next_f32() - 0.5).collect()
        };
        let mut src = mk(&mut rng);
        let mut smp = mk(&mut rng);
        group.bench_with_input(BenchmarkId::new("reference", d), &d, |b, _| {
            b.iter(|| update_embedding(black_box(&mut src), black_box(&mut smp), 1.0, 1e-9));
        });
        let mut src2 = mk(&mut rng);
        let shared = SharedMatrix::from_embedding(&Embedding::random(1, d, 5));
        group.bench_with_input(BenchmarkId::new("fused_in_place", d), &d, |b, _| {
            b.iter(|| {
                fused_update(
                    black_box(&mut src2),
                    black_box(shared.row_atomics(0)),
                    1.0,
                    1e-9,
                )
            });
        });
    }
    group.finish();

    // The whole trainer core: the copy-free sharded engine.
    let g = community_graph(&CommunityConfig::new(8192, 8), 11);
    let params = TrainParams::adjacency(32, 3, 0.025, 4).with_threads(8);
    let mut group = c.benchmark_group("trainer_core_epoch4_d32");
    group.sample_size(10);
    group.bench_function("sharded", |b| {
        b.iter(|| {
            let mut m = Embedding::random(8192, 32, 3);
            train_cpu(black_box(&g), &mut m, &params);
        });
    });
    group.finish();
}

fn bench_coarsening(c: &mut Criterion) {
    let g = community_graph(&CommunityConfig::new(16_384, 8), 7);
    let mut group = c.benchmark_group("coarsen_map");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| map_sequential(black_box(&g)));
    });
    group.finish();

    let mapping = map_sequential(&g);
    let mut group = c.benchmark_group("coarsen_build");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| build_coarse_sequential(black_box(&g), black_box(&mapping)));
    });
    group.bench_function("fused_4t", |b| {
        let mut ws = CoarsenWorkspace::new();
        b.iter(|| build_fused(black_box(&g), black_box(&mapping), 4, &mut ws));
    });
    group.finish();

    // The whole multi-level pipeline on the fused lock-free engine.
    let mut group = c.benchmark_group("coarsen_hierarchy");
    group.sample_size(10);
    group.bench_function("fused_4t", |b| {
        b.iter(|| {
            coarsen_hierarchy(
                black_box(g.clone()),
                &CoarsenConfig {
                    threads: 4,
                    ..Default::default()
                },
            )
        });
    });
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let g = community_graph(&CommunityConfig::new(4096, 8), 9);
    let mut rng = Xorshift128Plus::new(3);
    c.bench_function("positive_sample_adjacency", |b| {
        b.iter(|| {
            let v = rng.below(4096);
            black_box(gosh_core::train_cpu::positive_sample(
                g.xadj(),
                g.adj(),
                v,
                gosh_core::Similarity::Adjacency,
                &mut rng,
                || {},
            ))
        });
    });
    c.bench_function("positive_sample_ppr", |b| {
        b.iter(|| {
            let v = rng.below(4096);
            black_box(gosh_core::train_cpu::positive_sample(
                g.xadj(),
                g.adj(),
                v,
                gosh_core::Similarity::Ppr { alpha: 0.85 },
                &mut rng,
                || {},
            ))
        });
    });
}

fn bench_large_path(c: &mut Criterion) {
    // The whole Algorithm 5 engine: the stream-overlapped pipeline.
    use gosh_core::backend::PartitionedOpts;
    use gosh_core::large::train_large;
    use gosh_gpu::{Device, DeviceConfig};

    let g = community_graph(&CommunityConfig::new(2048, 8), 21);
    let params = TrainParams::adjacency(64, 1, 0.025, 6)
        .with_threads(2)
        .with_seed(21);
    let opts = PartitionedOpts {
        batch_b: 2,
        ..Default::default()
    };
    let device = || {
        Device::new(DeviceConfig {
            pcie_gbps: 0.5,
            ..DeviceConfig::tiny(128 * 1024)
        })
    };
    let mut group = c.benchmark_group("large_path_epoch6_d64");
    group.sample_size(10);
    group.bench_function("pipelined", |b| {
        b.iter(|| {
            let dev = device();
            let mut m = Embedding::random(2048, 64, 9);
            train_large(&dev, black_box(&g), &mut m, &params, &opts).unwrap();
        });
    });
    group.finish();
}

fn bench_auc(c: &mut Criterion) {
    let mut rng = Xorshift128Plus::new(5);
    let n = 100_000;
    let scores: Vec<f32> = (0..n).map(|_| rng.next_f32()).collect();
    let labels: Vec<bool> = (0..n).map(|_| rng.next_f32() < 0.5).collect();
    let mut group = c.benchmark_group("auc_roc");
    group.sample_size(20);
    group.bench_function("100k", |b| {
        b.iter(|| auc_roc(black_box(&scores), black_box(&labels)));
    });
    group.finish();
}

fn bench_csr_build(c: &mut Criterion) {
    let mut rng = Xorshift128Plus::new(11);
    let n = 10_000usize;
    let edges: Vec<(u32, u32)> = (0..50_000)
        .map(|_| (rng.below(n as u32), rng.below(n as u32)))
        .collect();
    let mut group = c.benchmark_group("csr_build");
    group.sample_size(20);
    group.bench_function("50k_edges", |b| {
        b.iter(|| csr_from_edges(n, black_box(&edges)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_update,
    bench_hotpath,
    bench_large_path,
    bench_coarsening,
    bench_sampling,
    bench_auc,
    bench_csr_build
);
criterion_main!(benches);
