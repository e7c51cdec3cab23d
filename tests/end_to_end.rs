//! Cross-crate integration tests: the full GOSH pipeline from graph
//! generation through coarsening, device training, expansion, and
//! link-prediction evaluation.

use gosh::core::config::{GoshConfig, Preset};
use gosh::core::model::Embedding;
use gosh::core::pipeline::embed;
use gosh::eval::{evaluate_link_prediction, EvalConfig};
use gosh::gpu::{Device, DeviceConfig};
use gosh::graph::gen::{community_graph, CommunityConfig};
use gosh::graph::split::{train_test_split, SplitConfig};

fn test_split(n: usize, k: usize, seed: u64) -> gosh::graph::split::TrainTestSplit {
    let g = community_graph(&CommunityConfig::new(n, k), seed);
    train_test_split(&g, &SplitConfig::default())
}

#[test]
fn gosh_beats_chance_by_a_wide_margin() {
    let s = test_split(2048, 8, 1);
    let device = Device::new(DeviceConfig::titan_x());
    let cfg = GoshConfig::preset(Preset::Normal, false)
        .with_dim(32)
        .with_epochs(150)
        .with_threads(8);
    let (m, report) = embed(&s.train, &cfg, &device);
    let auc = evaluate_link_prediction(&m, &s.train, &s.test_edges, &EvalConfig::default());
    assert!(auc > 0.8, "auc = {auc}");
    assert!(report.depth >= 2);
    assert_eq!(device.allocated_bytes(), 0, "device memory leaked");
}

/// Training seeds the one-shot vs partitioned gap is averaged over: eight
/// Hogwild threads make every run a fresh draw. Per draw over 20 seeds on
/// a 2-core host, |ΔAUC| was 0.037 ± 0.011 (max 0.064; the partitioned
/// run is the lower one); the bound is on the mean of these seeds.
const SEEDS: std::ops::Range<u64> = 1..4;

#[test]
fn small_and_large_paths_reach_similar_quality() {
    let s = test_split(2048, 8, 2);
    let auc = |m: &Embedding| {
        evaluate_link_prediction(m, &s.train, &s.test_edges, &EvalConfig::default())
    };
    let mut gaps = Vec::new();
    for seed in SEEDS {
        let mut cfg = GoshConfig::preset(Preset::Normal, false)
            .with_dim(16)
            .with_epochs(150)
            .with_threads(8);
        cfg.seed = seed;

        let big_device = Device::new(DeviceConfig::titan_x());
        let (m_big, rep_big) = embed(&s.train, &cfg, &big_device);
        assert!(rep_big.levels.iter().all(|l| !l.used_large_path));

        // Matrix is 2048·16·4 = 128 KB; a 40 KB device forces partitioning.
        let tiny_device = Device::new(DeviceConfig::tiny(40 * 1024));
        let (m_small, rep_small) = embed(&s.train, &cfg, &tiny_device);
        assert!(rep_small.levels.iter().any(|l| l.used_large_path));

        gaps.push((auc(&m_big) - auc(&m_small)).abs());
    }
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    assert!(
        mean_gap < 0.12,
        "one-shot vs partitioned mean |AUC gap| {mean_gap:.4} over seeds {SEEDS:?}: {gaps:?}"
    );
}

#[test]
fn coarsened_config_is_faster_than_no_coarsening_at_equal_quality() {
    let s = test_split(4096, 8, 3);
    let cfg = GoshConfig::preset(Preset::Normal, false)
        .with_dim(16)
        .with_epochs(200)
        .with_threads(8);
    let device = Device::new(DeviceConfig::titan_x());
    let (m_coarse, rep_coarse) = embed(&s.train, &cfg, &device);

    let nc = GoshConfig::preset(Preset::NoCoarsening, false)
        .with_dim(16)
        .with_epochs(200)
        .with_threads(8);
    let (m_plain, rep_plain) = embed(&s.train, &nc, &device);

    // Coarsening cuts training work: much of the epoch budget runs on
    // graphs that are orders of magnitude smaller.
    assert!(
        rep_coarse.training_seconds < rep_plain.training_seconds,
        "coarse {:.3}s vs plain {:.3}s",
        rep_coarse.training_seconds,
        rep_plain.training_seconds
    );
    let auc_coarse =
        evaluate_link_prediction(&m_coarse, &s.train, &s.test_edges, &EvalConfig::default());
    let auc_plain =
        evaluate_link_prediction(&m_plain, &s.train, &s.test_edges, &EvalConfig::default());
    assert!(
        auc_coarse > auc_plain - 0.08,
        "coarse {auc_coarse} vs plain {auc_plain}"
    );
}

#[test]
fn deterministic_given_seeds_single_thread_coarsening() {
    // With one coarsening thread and the same seeds, the hierarchy and the
    // training schedule are identical; device-side Hogwild races make the
    // final floats differ slightly, so compare the *quality*, not bits.
    let s = test_split(1024, 6, 4);
    let cfg = GoshConfig::preset(Preset::Fast, false)
        .with_dim(16)
        .with_epochs(80)
        .with_threads(1);
    let device = Device::new(DeviceConfig::titan_x());
    let (m1, r1) = embed(&s.train, &cfg, &device);
    let (m2, r2) = embed(&s.train, &cfg, &device);
    assert_eq!(r1.depth, r2.depth);
    let a1 = evaluate_link_prediction(&m1, &s.train, &s.test_edges, &EvalConfig::default());
    let a2 = evaluate_link_prediction(&m2, &s.train, &s.test_edges, &EvalConfig::default());
    assert!((a1 - a2).abs() < 0.05, "{a1} vs {a2}");
}

#[test]
fn all_presets_run_end_to_end() {
    let s = test_split(512, 6, 5);
    for preset in [
        Preset::Fast,
        Preset::Normal,
        Preset::Slow,
        Preset::NoCoarsening,
    ] {
        let device = Device::new(DeviceConfig::titan_x());
        let cfg = GoshConfig::preset(preset, false)
            .with_dim(8)
            .with_epochs(30)
            .with_threads(4);
        let (m, _) = embed(&s.train, &cfg, &device);
        assert_eq!(m.num_vertices(), s.train.num_vertices());
        assert!(
            m.as_slice().iter().all(|x| x.is_finite()),
            "{preset:?} produced non-finite values"
        );
    }
}
