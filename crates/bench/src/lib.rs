//! # gosh-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (see DESIGN.md §4 for the index), plus criterion micro-benchmarks of
//! the hot paths. Shared plumbing lives here: scaled-down run settings,
//! tool wrappers that return `(seconds, AUCROC)` rows, and TSV printing.
//! Performance is gated elsewhere: `benchmark/` at the repo root is the
//! one end-to-end benchmark.
//!
//! ## Scaling
//!
//! Absolute scales are reduced so the whole evaluation runs on a laptop
//! without a GPU (see EXPERIMENTS.md): graphs are the synthetic suite of
//! `gosh_graph::gen::suite` (1/16–1/64 of the paper's vertex counts),
//! `d = 32` instead of 128, and epoch budgets are multiplied by
//! `GOSH_EPOCH_SCALE` (default 0.1). Comparison *shapes* — who wins, by
//! what relative factor, where crossovers sit — are preserved; absolute
//! wall-clock is not comparable to the paper's testbed.

// No unsafe in this crate: the audit gate (docs/SAFETY.md) keeps it that way.
#![forbid(unsafe_code)]

use std::time::Instant;

use gosh_baselines::{
    graphvite_embed, mile_embed, verse_embed, GraphviteParams, MileParams, VerseParams,
};
use gosh_core::config::{GoshConfig, Preset};
use gosh_core::model::Embedding;
use gosh_core::pipeline::{embed, GoshReport};
use gosh_eval::{evaluate_link_prediction, EvalConfig};
use gosh_gpu::{CostModel, Device, DeviceConfig};
use gosh_graph::csr::Csr;
use gosh_graph::split::{train_test_split, SplitConfig, TrainTestSplit};

/// Default embedding dimension for all experiments (paper: 128).
pub const DIM: usize = 32;

/// Threads used for "τ = 16" style runs (capped at the machine).
pub fn tau() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(16)
        .min(16)
}

/// Epoch scale factor: `GOSH_EPOCH_SCALE` env var, else `default`.
/// Quality tables (6 and 7) default to 0.3; time-shape sweeps (Figures 3
/// and 4, Table 8) default to 0.1.
pub fn epoch_scale(default: f64) -> f64 {
    std::env::var("GOSH_EPOCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Scale an epoch budget by the sweep default (0.1), min 4 epochs.
pub fn scaled_epochs(e: u32) -> u32 {
    scaled_epochs_with(e, 0.1)
}

/// Scale an epoch budget with an explicit default scale, min 4 epochs.
pub fn scaled_epochs_with(e: u32, default: f64) -> u32 {
    ((e as f64 * epoch_scale(default)).round() as u32).max(4)
}

/// A standard 80/20 split with the fixed experiment seed.
pub fn split(g: &Csr) -> TrainTestSplit {
    train_test_split(g, &SplitConfig::default())
}

/// One table row: a tool run on a graph.
#[derive(Clone, Debug)]
pub struct ToolRow {
    /// Tool + configuration name, e.g. "Gosh-fast".
    pub tool: String,
    /// Wall-clock seconds (end-to-end embedding).
    pub wall_seconds: f64,
    /// Modeled device seconds (cost model), if the tool used the device.
    pub modeled_seconds: Option<f64>,
    /// Link-prediction AUCROC in percent.
    pub aucroc: f64,
}

/// Evaluate an embedding against a split; returns AUCROC in percent.
pub fn auc_percent(m: &Embedding, s: &TrainTestSplit) -> f64 {
    100.0 * evaluate_link_prediction(m, &s.train, &s.test_edges, &EvalConfig::default())
}

/// Run one GOSH preset on a split. `device_mem` of `None` = Titan X.
pub fn run_gosh(
    s: &TrainTestSplit,
    preset: Preset,
    large: bool,
    device_mem: Option<usize>,
    scale: f64,
) -> (ToolRow, GoshReport) {
    let device = Device::new(match device_mem {
        Some(m) => DeviceConfig::tiny(m),
        None => DeviceConfig::titan_x(),
    });
    let cfg = GoshConfig::preset(preset, large)
        .with_dim(DIM)
        .with_threads(tau());
    let cfg = cfg.with_epochs(scaled_epochs_with(cfg.epochs, scale));
    let (m, report) = embed(&s.train, &cfg, &device);
    let modeled = CostModel::new(*device.config()).kernel_seconds(&report.device_cost);
    let name = match preset {
        Preset::Fast => "Gosh-fast",
        Preset::Normal => "Gosh-normal",
        Preset::Slow => "Gosh-slow",
        Preset::NoCoarsening => "Gosh-NoCoarse",
    };
    (
        ToolRow {
            tool: name.into(),
            wall_seconds: report.total_seconds,
            modeled_seconds: Some(modeled),
            aucroc: auc_percent(&m, s),
        },
        report,
    )
}

/// Run the VERSE baseline on a split.
pub fn run_verse(s: &TrainTestSplit, epochs: u32, scale: f64) -> ToolRow {
    let params = VerseParams {
        dim: DIM,
        epochs: scaled_epochs_with(epochs, scale),
        lr: 0.025, // scaled with the shorter budget (paper uses 0.0025 at e ≥ 600)
        threads: tau(),
        ..Default::default()
    };
    let res = verse_embed(&s.train, &params);
    ToolRow {
        tool: "Verse".into(),
        wall_seconds: res.seconds,
        modeled_seconds: None,
        aucroc: auc_percent(&res.embedding, s),
    }
}

/// Run the MILE baseline on a split.
pub fn run_mile(s: &TrainTestSplit, scale: f64) -> ToolRow {
    let params = MileParams {
        dim: DIM,
        levels: 8,
        base_epochs: scaled_epochs_with(1000, scale),
        lr: 0.025,
        threads: 1,       // MILE is a sequential tool (§4.3)
        refine_passes: 1, // one smoothing pass per level; two over-smooths
        // at 8 levels on graphs this small
        ..Default::default()
    };
    let res = mile_embed(&s.train, &params);
    ToolRow {
        tool: "Mile".into(),
        wall_seconds: res.seconds,
        modeled_seconds: None,
        aucroc: auc_percent(&res.embedding, s),
    }
}

/// Run the GraphVite-like baseline; `None` if it runs out of device memory.
pub fn run_graphvite(
    s: &TrainTestSplit,
    fast: bool,
    device_mem: Option<usize>,
    scale: f64,
) -> Option<ToolRow> {
    let device = Device::new(match device_mem {
        Some(m) => DeviceConfig::tiny(m),
        None => DeviceConfig::titan_x(),
    });
    let base = if fast {
        GraphviteParams::fast()
    } else {
        GraphviteParams::slow()
    };
    let params = GraphviteParams {
        dim: DIM,
        epochs: scaled_epochs_with(base.epochs, scale),
        ..base
    };
    let t0 = Instant::now();
    match graphvite_embed(&device, &s.train, &params) {
        Ok(res) => {
            let modeled = CostModel::new(*device.config()).kernel_seconds(&device.snapshot());
            Some(ToolRow {
                tool: if fast {
                    "Graphvite-fast".into()
                } else {
                    "Graphvite-slow".into()
                },
                wall_seconds: res.seconds,
                modeled_seconds: Some(modeled),
                aucroc: auc_percent(&res.embedding, s),
            })
        }
        Err(_) => {
            let _ = t0;
            None
        }
    }
}

/// Print a TSV header line.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Format seconds compactly.
pub fn fmt_s(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Parse dataset names from CLI args; falls back to `default`.
pub fn datasets_from_args(default: &[&str]) -> Vec<&'static gosh_graph::gen::Dataset> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        default.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    names
        .iter()
        .map(|n| gosh_graph::gen::dataset(n).unwrap_or_else(|| panic!("unknown dataset {n}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosh_graph::gen::{community_graph, CommunityConfig};

    #[test]
    fn scaled_epochs_has_floor() {
        assert!(scaled_epochs(10) >= 4);
        assert!(scaled_epochs(1000) >= 4);
    }

    #[test]
    fn gosh_row_is_complete() {
        let g = community_graph(&CommunityConfig::new(300, 6), 1);
        let s = split(&g);
        let (row, report) = run_gosh(&s, Preset::Fast, false, None, 0.1);
        assert_eq!(row.tool, "Gosh-fast");
        assert!(row.wall_seconds > 0.0);
        assert!(row.modeled_seconds.unwrap() > 0.0);
        assert!(row.aucroc > 40.0 && row.aucroc <= 100.0);
        assert!(report.depth >= 1);
    }

    #[test]
    fn graphvite_oom_gives_none() {
        let g = community_graph(&CommunityConfig::new(400, 6), 2);
        let s = split(&g);
        assert!(run_graphvite(&s, true, Some(1024), 0.1).is_none());
    }

    #[test]
    fn fmt_s_ranges() {
        assert_eq!(fmt_s(123.4), "123");
        assert_eq!(fmt_s(12.345), "12.35");
        assert_eq!(fmt_s(0.01234), "0.0123");
    }
}
