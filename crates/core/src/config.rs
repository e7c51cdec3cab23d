//! GOSH configuration and the Table 3 presets.

use gosh_coarsen::hierarchy::CoarsenConfig;

use crate::backend::{BackendChoice, Similarity, TrainParams};
use crate::quant::Precision;

/// The named configurations of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// p = 0.1, lr = 0.050, e = 600 (medium) / 100 (large).
    Fast,
    /// p = 0.3, lr = 0.035, e = 1000 / 200.
    Normal,
    /// p = 0.5, lr = 0.025, e = 1400 / 300.
    Slow,
    /// No coarsening; lr = 0.045, e = 1000 / 200.
    NoCoarsening,
}

/// Per-level precision plan (`--precision-schedule coarse:fine[:cutoff]`).
///
/// The multilevel structure makes mixed precision natural: coarse levels
/// are tiny but steer the whole embedding (quantization noise there is
/// amplified by every projection), while fine levels dominate memory and
/// bandwidth but only refine locally. So the schedule keeps levels under
/// `cutoff` vertices at `coarse` precision (typically f32) and trains
/// levels at or above it in `fine` (f16/i8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrecisionSchedule {
    /// Row storage for levels with fewer than `cutoff` vertices.
    pub coarse: Precision,
    /// Row storage for levels with at least `cutoff` vertices.
    pub fine: Precision,
    /// Vertex-count boundary between the two regimes.
    pub cutoff: usize,
}

impl PrecisionSchedule {
    /// Default boundary: levels of 4096+ vertices count as fine.
    pub const DEFAULT_CUTOFF: usize = 4096;

    /// The precision a level of `num_vertices` trains at.
    pub fn level_precision(&self, num_vertices: usize) -> Precision {
        if num_vertices >= self.cutoff {
            self.fine
        } else {
            self.coarse
        }
    }
}

/// Full configuration for [`crate::pipeline::embed`].
#[derive(Clone, Copy, Debug)]
pub struct GoshConfig {
    /// Embedding dimension `d`.
    pub dim: usize,
    /// Negative samples per positive (`ns`).
    pub negative_samples: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Total epoch budget `e` (one epoch = |E| positive samples, §4.3).
    pub epochs: u32,
    /// Smoothing ratio `p`; `None` disables coarsening entirely.
    pub smoothing: Option<f64>,
    /// Coarsening stops below this many vertices (paper default 100).
    pub coarsen_threshold: usize,
    /// CPU threads for coarsening and sampling (the paper's τ).
    pub threads: usize,
    /// Embedding sub-matrices kept on the GPU in the large path (P_GPU).
    pub p_gpu: usize,
    /// Sample pools kept on the GPU in the large path (S_GPU).
    pub s_gpu: usize,
    /// Positive samples per vertex per pool in the large path (B).
    pub batch_b: usize,
    /// RNG seed for initialization.
    pub seed: u64,
    /// Which training-backend chain the pipeline uses per level.
    pub backend: BackendChoice,
    /// Embedding row storage width (`--precision f32|f16|i8`).
    pub precision: Precision,
    /// Per-level precision overrides (`--precision-schedule`); `None`
    /// trains every level at [`GoshConfig::precision`].
    pub precision_schedule: Option<PrecisionSchedule>,
}

impl Default for GoshConfig {
    fn default() -> Self {
        Self::preset(Preset::Normal, false)
    }
}

impl GoshConfig {
    /// A Table 3 preset; `large` selects the large-graph epoch budget.
    pub fn preset(preset: Preset, large: bool) -> Self {
        let (p, lr, e_normal, e_large) = match preset {
            Preset::Fast => (Some(0.1), 0.050, 600, 100),
            Preset::Normal => (Some(0.3), 0.035, 1000, 200),
            Preset::Slow => (Some(0.5), 0.025, 1400, 300),
            Preset::NoCoarsening => (None, 0.045, 1000, 200),
        };
        Self {
            dim: 128,
            negative_samples: 3,
            lr,
            epochs: if large { e_large } else { e_normal },
            smoothing: p,
            coarsen_threshold: 100,
            threads: 16,
            p_gpu: 3,
            s_gpu: 4,
            batch_b: 5,
            seed: 0x905E,
            backend: BackendChoice::Gpu,
            precision: Precision::F32,
            precision_schedule: None,
        }
    }

    /// Override the epoch budget (used by the benches to scale runs down;
    /// documented in EXPERIMENTS.md).
    pub fn with_epochs(mut self, epochs: u32) -> Self {
        self.epochs = epochs;
        self
    }

    /// Override the embedding dimension.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Override the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override the training-backend chain.
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Override the row storage precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Override the per-level precision schedule.
    pub fn with_precision_schedule(mut self, schedule: PrecisionSchedule) -> Self {
        self.precision_schedule = Some(schedule);
        self
    }

    /// The hyper-parameters every training engine consumes: the whole
    /// epoch budget at the configured seed and precision. A level's
    /// budget and seed come from its [`crate::backend::LevelSchedule`].
    pub fn train_params(&self) -> TrainParams {
        TrainParams {
            dim: self.dim,
            negative_samples: self.negative_samples,
            lr: self.lr,
            epochs: self.epochs,
            similarity: Similarity::Adjacency,
            threads: self.threads,
            seed: self.seed,
            precision: self.precision,
        }
    }

    /// The coarsening (Algorithm 4) settings of this run.
    pub fn coarsen_config(&self) -> CoarsenConfig {
        CoarsenConfig {
            threshold: self.coarsen_threshold,
            threads: self.threads,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::device_bytes_needed;

    #[test]
    fn presets_match_table3() {
        let fast = GoshConfig::preset(Preset::Fast, false);
        assert_eq!(fast.epochs, 600);
        assert_eq!(fast.lr, 0.050);
        assert_eq!(fast.smoothing, Some(0.1));

        let slow_large = GoshConfig::preset(Preset::Slow, true);
        assert_eq!(slow_large.epochs, 300);
        assert_eq!(slow_large.smoothing, Some(0.5));

        let nc = GoshConfig::preset(Preset::NoCoarsening, false);
        assert_eq!(nc.smoothing, None);
        assert_eq!(nc.lr, 0.045);
    }

    #[test]
    fn defaults_match_paper_constants() {
        let c = GoshConfig::default();
        assert_eq!(c.coarsen_threshold, 100);
        assert_eq!(c.p_gpu, 3);
        assert_eq!(c.s_gpu, 4);
        assert_eq!(c.batch_b, 5);
    }

    #[test]
    fn device_bytes_formula() {
        // 10 vertices, 20 arcs: 10*8*4 + 11*8 + 20*4 + 20*4 = 320+88+160 = 568.
        assert_eq!(device_bytes_needed(8, 10, 20, Precision::F32), 568);
    }

    #[test]
    fn quantized_precision_shrinks_only_the_matrix_term() {
        let full = device_bytes_needed(8, 10, 20, Precision::F32);
        let f16 = device_bytes_needed(8, 10, 20, Precision::F16);
        let i8 = device_bytes_needed(8, 10, 20, Precision::I8);
        // Matrix terms: f32 10*8*4=320, f16 10*8*2=160, i8 10*(8+8)=160;
        // the graph arrays (248 bytes) are precision-independent.
        assert_eq!(full - f16, 160);
        assert_eq!(full - i8, 160);
    }

    #[test]
    fn builder_overrides() {
        let c = GoshConfig::default()
            .with_epochs(5)
            .with_dim(16)
            .with_threads(2);
        assert_eq!(c.epochs, 5);
        assert_eq!(c.dim, 16);
        assert_eq!(c.threads, 2);
    }
}
