//! Quantized-precision acceptance: the f32 engine is the reference, and
//! the f16 / i8 storage modes must land within a documented epsilon of
//! its link-prediction quality while the full pipeline (coarsening,
//! backend routing, expansion) runs end to end.
//!
//! The parity epsilon is **0.08 AUC** — the same tolerance the
//! cross-backend tests use for Hogwild race noise, which quantization
//! error must stay inside. README "Precision modes" documents the bound;
//! loosening it is an API change, not a test tweak. Training runs four
//! Hogwild threads, so no two runs agree and the bound is a statistical
//! one — on the mean absolute gap over training seeds — not a
//! single-draw threshold.

use gosh::core::backend::BackendChoice;
use gosh::core::config::{GoshConfig, Preset};
use gosh::core::pipeline::embed;
use gosh::core::Precision;
use gosh::eval::{evaluate_link_prediction, EvalConfig};
use gosh::gpu::{Device, DeviceConfig};
use gosh::graph::gen::{community_graph, CommunityConfig};
use gosh::graph::split::{train_test_split, SplitConfig, TrainTestSplit};

/// The documented AUC-parity bound for quantized storage modes.
const PARITY_EPSILON: f64 = 0.08;
/// Every mode's mean AUC must clear this: parity with a reference that
/// failed to learn proves nothing.
const LEARN_FLOOR: f64 = 0.75;
/// Training seeds the means run over. Per draw on a 2-core host (120
/// draws per mode): AUC ≈ 0.89 with σ ≤ 0.003 in every mode; |gap| to
/// f32 is 0.0004 ± 0.0003 for f16 and 0.008 ± 0.002 (max 0.015) for i8
/// on the CPU engine, ≤ 0.001 for both on the device. A single draw
/// already clears the bound five-fold, so k = 1 would; three seeds make
/// the check a mean for ~0.7 s more (the file takes ≈ 1.0 s). Over
/// twelve runs the three-seed CPU i8 mean, the widest, stayed within
/// 0.0053–0.0091.
const SEEDS: std::ops::Range<u64> = 1..4;

fn auc_for(s: &TrainTestSplit, precision: Precision, backend: BackendChoice, seed: u64) -> f64 {
    let device = Device::new(DeviceConfig::titan_x());
    let mut cfg = GoshConfig::preset(Preset::Normal, false)
        .with_dim(16)
        .with_epochs(150)
        .with_threads(4)
        .with_backend(backend)
        .with_precision(precision);
    cfg.seed = seed;
    let (m, _) = embed(&s.train, &cfg, &device);
    assert!(
        m.as_slice().iter().all(|x| x.is_finite()),
        "{precision}: non-finite embedding values"
    );
    evaluate_link_prediction(&m, &s.train, &s.test_edges, &EvalConfig::default())
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    xs.sum::<f64>() / SEEDS.count() as f64
}

/// Mean AUC of every mode over [`SEEDS`] clears [`LEARN_FLOOR`], and
/// the mean per-seed |AUC(f32) − AUC(q)| stays inside [`PARITY_EPSILON`].
fn assert_parity(backend: BackendChoice) {
    let g = community_graph(&CommunityConfig::new(512, 8), 42);
    let s = train_test_split(
        &g,
        &SplitConfig {
            train_fraction: 0.8,
            seed: 17,
        },
    );
    let aucs = |precision| -> Vec<f64> {
        SEEDS
            .map(|seed| auc_for(&s, precision, backend, seed))
            .collect()
    };
    let reference = aucs(Precision::F32);
    let ref_mean = mean(reference.iter().copied());
    assert!(
        ref_mean > LEARN_FLOOR,
        "{backend:?}: f32 reference failed to learn: {reference:?}"
    );
    for precision in [Precision::F16, Precision::I8] {
        let auc = aucs(precision);
        let auc_mean = mean(auc.iter().copied());
        assert!(
            auc_mean > LEARN_FLOOR,
            "{backend:?} {precision} failed to learn: {auc:?}"
        );
        let gap = mean(reference.iter().zip(&auc).map(|(r, q)| (r - q).abs()));
        assert!(
            gap < PARITY_EPSILON,
            "{backend:?} {precision}: mean |AUC gap| {gap:.4} over seeds {SEEDS:?} \
             (f32 {reference:?} vs {auc:?}; epsilon {PARITY_EPSILON})"
        );
    }
}

#[test]
fn quantized_cpu_auc_within_documented_epsilon_of_f32() {
    // The CPU engine dequantizes on load and requantizes on store for
    // every sample update — the strictest quantization model in the
    // codebase, so this is the binding parity check.
    assert_parity(BackendChoice::Cpu);
}

#[test]
fn quantized_gpu_auc_within_documented_epsilon_of_f32() {
    // The device path quantizes at the upload/write-back boundaries
    // (mixed-precision model); its error is no larger than the CPU
    // engine's, and the same epsilon must hold through backend routing.
    assert_parity(BackendChoice::Gpu);
}
