//! Multi-node parity: a two-node run over real loopback sockets must
//! land within 0.02 AUCROC of the single-node run on a default
//! `gen::suite` graph. The runs use different per-node RNG streams and
//! 2-thread Hogwild inside every node, so this is a statistical bound —
//! on the mean absolute gap over training seeds — not a bitwise one.

use gosh::core::backend::BackendKind;
use gosh::core::config::{GoshConfig, Preset};
use gosh::core::distrib::{embed_distributed, DistribConfig, TransportKind};
use gosh::core::model::Embedding;
use gosh::eval::{evaluate_link_prediction, EvalConfig};
use gosh::graph::split::{train_test_split, SplitConfig};

/// Training seeds the parity bound is averaged over. One draw's gap has
/// σ ≈ 1.7 points, so the mean |gap| of five seeds still crossed 2.0 in
/// 1 of 24 runs; of fifteen it stayed within 0.78–1.22 over 12 runs.
const SEEDS: std::ops::Range<u64> = 7..22;

#[test]
fn two_node_loopback_auc_matches_single_node() {
    let g = gosh::graph::gen::dataset("dblp-like")
        .expect("suite graph")
        .generate(7);
    let s = train_test_split(&g, &SplitConfig::default());
    let auc_percent = |m: &Embedding| {
        100.0 * evaluate_link_prediction(m, &s.train, &s.test_edges, &EvalConfig::default())
    };
    let two = DistribConfig {
        nodes: 2,
        transport: TransportKind::Tcp,
        exchange_every: 4,
        shard_min: 1024,
        ..Default::default()
    };

    let mut gap_sum = 0.0;
    for seed in SEEDS {
        let mut gcfg = GoshConfig::preset(Preset::Normal, false)
            .with_dim(16)
            .with_epochs(40)
            .with_threads(2);
        gcfg.seed = seed;
        let (m1, _) = embed_distributed(&s.train, &gcfg, &DistribConfig::default()).unwrap();
        let (m2, r2) = embed_distributed(&s.train, &gcfg, &two).unwrap();
        assert!(
            r2.levels.iter().any(|l| l.backend == BackendKind::Sharded),
            "two-node run never sharded"
        );
        assert!(r2.bytes_exchanged > 0);
        gap_sum += (auc_percent(&m1) - auc_percent(&m2)).abs();
    }
    let mean_gap = gap_sum / SEEDS.count() as f64;
    assert!(
        mean_gap <= 2.0,
        "single-node vs two-node mean |AUC gap| {mean_gap:.2}% over {SEEDS:?}"
    );
}
