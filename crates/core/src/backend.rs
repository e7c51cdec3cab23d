//! The `TrainBackend` abstraction: one interface over the three training
//! engines.
//!
//! The pipeline (Algorithm 2) does not care *how* a level is trained —
//! only that an engine takes a graph and a matrix, spends the level's
//! epoch budget, and leaves the updated matrix behind. Three engines
//! implement that contract:
//!
//! * [`CpuHogwild`] — the multi-threaded lock-free CPU trainer of §3.1
//!   (also the engine under the VERSE baseline);
//! * [`GpuInMemory`] — `TrainInGPU` (Algorithm 3), graph + matrix
//!   resident on the device;
//! * [`GpuPartitioned`] — `LargeGraphGPU` (Algorithm 5), the partitioned
//!   out-of-memory path.
//!
//! [`crate::pipeline::embed`] selects a backend per level by walking a
//! policy chain (see [`backends_for`]): the first backend whose
//! [`TrainBackend::fits`] accepts the level trains it. The device-fit
//! check of Algorithm 2 line 5 is exactly `GpuInMemory::fits`; adding a
//! new engine (multi-GPU sharding, an async pipeline) means implementing
//! the trait and inserting it into the chain — the pipeline itself does
//! not change.
//!
//! This module also owns the *shared* hyper-parameter vocabulary: the
//! one [`TrainParams`] struct every engine consumes (the per-level epoch
//! budget and LR-decay live in [`crate::schedule`]) and the
//! [`Similarity`] measure `Q` of §2.

use std::time::Instant;

use gosh_gpu::Device;
use gosh_graph::csr::Csr;

use crate::large::run::{train_large, LargeReport};
use crate::model::Embedding;
use crate::quant::Precision;
use crate::train_cpu::train_cpu;
use crate::train_gpu::{train_level_on_device, KernelVariant};

/// Positive-sample distribution (the similarity measure `Q` of §2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Similarity {
    /// Uniform over Γ(src): the adjacency measure GOSH uses.
    Adjacency,
    /// Personalized PageRank: endpoint of a restart-terminated random walk
    /// from the source (VERSE's recommended setting, α = 0.85).
    Ppr {
        /// Continuation probability.
        alpha: f32,
    },
}

/// Training hyper-parameters shared by **every** backend.
///
/// This is the single parameter struct of `gosh-core`; the former
/// `CpuTrainParams` / GPU-path `TrainParams` / `LargeParams` triplet
/// collapsed into it. Per-backend knobs that are not hyper-parameters of
/// the embedding problem (kernel variant, partitioning shape) live on the
/// backend structs instead.
#[derive(Clone, Copy, Debug)]
pub struct TrainParams {
    /// Embedding dimension `d`.
    pub dim: usize,
    /// Negative samples per source processing (`ns`).
    pub negative_samples: usize,
    /// Initial learning rate; decays per epoch (see
    /// [`crate::schedule::decayed_lr`]).
    pub lr: f32,
    /// Epochs (one epoch = |E| source processings, §4.3).
    pub epochs: u32,
    /// Positive-sample distribution. The partitioned engine
    /// ([`GpuPartitioned`]) samples [`Similarity::Adjacency`] only and
    /// panics on any other.
    pub similarity: Similarity,
    /// Host worker threads (CPU Hogwild team / SampleManager team; the
    /// paper's τ). Ignored by engines with no host-side workers.
    pub threads: usize,
    /// RNG seed for host-side sampling.
    pub seed: u64,
    /// Embedding row storage width ([`crate::quant`]). `F32` is the
    /// bit-exact reference path; `F16`/`I8` train through
    /// dequantize-on-load/requantize-on-store rows and let the capacity
    /// math fit 2–4x larger graphs per device.
    pub precision: Precision,
}

impl Default for TrainParams {
    fn default() -> Self {
        Self {
            dim: 128,
            negative_samples: 3,
            lr: 0.025,
            epochs: 100,
            similarity: Similarity::Adjacency,
            threads: 16,
            seed: 0xCEC5,
            precision: Precision::F32,
        }
    }
}

impl TrainParams {
    /// Adjacency-similarity parameters (the paper's setting).
    pub fn adjacency(dim: usize, negative_samples: usize, lr: f32, epochs: u32) -> Self {
        Self {
            dim,
            negative_samples,
            lr,
            epochs,
            ..Self::default()
        }
    }

    /// Override the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the similarity measure.
    pub fn with_similarity(mut self, similarity: Similarity) -> Self {
        self.similarity = similarity;
        self
    }

    /// Override the row storage precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// Partitioning shape of the Algorithm 5 path — [`GpuPartitioned`]'s
/// backend options, not embedding hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct PartitionedOpts {
    /// Embedding sub-matrix bins resident on the device (P_GPU).
    pub p_gpu: usize,
    /// Sample pools in flight (S_GPU).
    pub s_gpu: usize,
    /// Positive samples per vertex per pool (B).
    pub batch_b: usize,
}

impl Default for PartitionedOpts {
    fn default() -> Self {
        // The paper's defaults (§4.2): P_GPU = 3, S_GPU = 4, B = 5.
        Self {
            p_gpu: 3,
            s_gpu: 4,
            batch_b: 5,
        }
    }
}

/// One level's slice of the training schedule, as handed to a backend.
#[derive(Clone, Copy, Debug)]
pub struct LevelSchedule {
    /// Level index (0 = the original graph).
    pub level: usize,
    /// Epoch budget `e_i` for this level (from
    /// [`crate::schedule::epoch_distribution`]).
    pub epochs: u32,
    /// Per-level RNG seed (already mixed with the level index).
    pub seed: u64,
    /// Per-level row-storage override (`--precision-schedule`): `None`
    /// trains at the backend's configured precision; `Some` forces this
    /// level's width — coarse levels can stay f32 while huge fine levels
    /// drop to f16/i8 where the memory actually matters.
    pub precision: Option<Precision>,
}

impl LevelSchedule {
    /// `base` with this level's epoch budget, seed and precision
    /// override: the parameters an engine trains the level with.
    pub fn params(&self, base: &TrainParams) -> TrainParams {
        TrainParams {
            epochs: self.epochs,
            seed: self.seed,
            precision: self.precision.unwrap_or(base.precision),
            ..*base
        }
    }

    /// A single-level schedule — the whole budget on one graph, as the
    /// baselines and no-coarsening runs use.
    pub fn single(epochs: u32, seed: u64) -> Self {
        Self {
            level: 0,
            epochs,
            seed,
            precision: None,
        }
    }
}

/// Which engine trained a level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Lock-free multi-threaded CPU training.
    CpuHogwild,
    /// One-shot device training (graph + matrix resident).
    GpuInMemory,
    /// Partitioned device training (Algorithm 5).
    GpuPartitioned,
}

/// What a backend reports back for one trained level.
#[derive(Clone, Copy, Debug)]
pub struct LevelStats {
    /// The engine that ran.
    pub backend: BackendKind,
    /// Wall-clock seconds spent training the level.
    pub seconds: f64,
    /// Partitioned-path details when [`BackendKind::GpuPartitioned`] ran.
    pub large: Option<LargeReport>,
}

/// A training engine for one hierarchy level.
///
/// Implementations own their device handle and hyper-parameters; the
/// pipeline only supplies what varies per level. `emb` is updated in
/// place and must stay row-compatible with `g`.
pub trait TrainBackend {
    /// Which engine this is (drives reporting).
    fn kind(&self) -> BackendKind;

    /// Can this backend train `g` at the configured dimension? The
    /// pipeline walks its backend chain and uses the first that fits —
    /// this is the device-fit check of Algorithm 2, line 5, generalized.
    fn fits(&self, g: &Csr) -> bool;

    /// Train `emb` on `g` for the level's epoch budget.
    fn train_level(&self, g: &Csr, emb: &mut Embedding, lvl: LevelSchedule) -> LevelStats;
}

/// Device bytes needed to train graph + matrix resident on the device
/// (Algorithm 2, line 5): the matrix, xadj, adj, and the arc-source
/// schedule used by the edge-frequency epoch definition. The matrix is
/// priced at its true storage width: quantized rows shrink only the
/// matrix term (the graph arrays stay full width), which is exactly what
/// lets `--precision i8` keep a 4x-larger matrix resident.
pub fn device_bytes_needed(
    dim: usize,
    num_vertices: usize,
    num_arcs: usize,
    precision: Precision,
) -> usize {
    let matrix = num_vertices * precision.row_bytes(dim);
    let xadj = (num_vertices + 1) * 8;
    let adj = num_arcs * 4;
    let arc_src = num_arcs * 4;
    matrix + xadj + adj + arc_src
}

/// The multi-threaded Hogwild CPU engine (§3.1's CPU reference).
#[derive(Clone, Debug)]
pub struct CpuHogwild {
    /// Shared hyper-parameters.
    pub params: TrainParams,
}

impl CpuHogwild {
    /// Build the backend.
    pub fn new(params: TrainParams) -> Self {
        Self { params }
    }
}

impl TrainBackend for CpuHogwild {
    fn kind(&self) -> BackendKind {
        BackendKind::CpuHogwild
    }

    fn fits(&self, _g: &Csr) -> bool {
        true
    }

    fn train_level(&self, g: &Csr, emb: &mut Embedding, lvl: LevelSchedule) -> LevelStats {
        let t0 = Instant::now();
        let params = lvl.params(&self.params);
        train_cpu(g, emb, &params);
        LevelStats {
            backend: BackendKind::CpuHogwild,
            seconds: t0.elapsed().as_secs_f64(),
            large: None,
        }
    }
}

/// The one-shot device engine: upload, run `TrainInGPU`, download.
#[derive(Clone)]
pub struct GpuInMemory {
    /// Device to train on.
    pub device: Device,
    /// Shared hyper-parameters.
    pub params: TrainParams,
    /// Kernel variant (§3.1 / §3.1.1).
    pub variant: KernelVariant,
}

impl GpuInMemory {
    /// Build the backend with the given kernel variant.
    pub fn new(device: Device, params: TrainParams, variant: KernelVariant) -> Self {
        Self {
            device,
            params,
            variant,
        }
    }
}

impl TrainBackend for GpuInMemory {
    fn kind(&self) -> BackendKind {
        BackendKind::GpuInMemory
    }

    fn fits(&self, g: &Csr) -> bool {
        device_bytes_needed(
            self.params.dim,
            g.num_vertices(),
            g.num_edges(),
            self.params.precision,
        ) <= self.device.available_bytes()
    }

    fn train_level(&self, g: &Csr, emb: &mut Embedding, lvl: LevelSchedule) -> LevelStats {
        let t0 = Instant::now();
        let params = lvl.params(&self.params);
        train_level_on_device(&self.device, g, emb, &params, self.variant)
            .expect("in-memory training failed to allocate on a level that fits");
        LevelStats {
            backend: BackendKind::GpuInMemory,
            seconds: t0.elapsed().as_secs_f64(),
            large: None,
        }
    }
}

/// The partitioned out-of-memory engine (Algorithm 5). Its sample pools
/// draw uniform neighbours: it trains [`Similarity::Adjacency`] only, and
/// panics when `params.similarity` is anything else.
#[derive(Clone)]
pub struct GpuPartitioned {
    /// Device to train on.
    pub device: Device,
    /// Shared hyper-parameters.
    pub params: TrainParams,
    /// Partitioning shape (P_GPU, S_GPU, B).
    pub opts: PartitionedOpts,
}

impl GpuPartitioned {
    /// Build the backend.
    pub fn new(device: Device, params: TrainParams, opts: PartitionedOpts) -> Self {
        Self {
            device,
            params,
            opts,
        }
    }
}

impl TrainBackend for GpuPartitioned {
    fn kind(&self) -> BackendKind {
        BackendKind::GpuPartitioned
    }

    fn fits(&self, _g: &Csr) -> bool {
        // Partitioning exists precisely for levels nothing else fits;
        // the part count adapts to whatever memory the device has.
        true
    }

    fn train_level(&self, g: &Csr, emb: &mut Embedding, lvl: LevelSchedule) -> LevelStats {
        let t0 = Instant::now();
        let params = lvl.params(&self.params);
        let report = train_large(&self.device, g, emb, &params, &self.opts)
            .expect("partitioned training failed to allocate");
        LevelStats {
            backend: BackendKind::GpuPartitioned,
            seconds: t0.elapsed().as_secs_f64(),
            large: Some(report),
        }
    }
}

/// Which backend chain the pipeline should use (`--backend` in the CLI).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Force CPU Hogwild on every level.
    Cpu,
    /// The default: in-memory on the device when the level fits,
    /// Algorithm 5 otherwise.
    #[default]
    Gpu,
}

impl std::str::FromStr for BackendChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "cpu" => Ok(Self::Cpu),
            "gpu" => Ok(Self::Gpu),
            other => Err(format!("unknown backend `{other}` (cpu|gpu)")),
        }
    }
}

/// Build the backend chain for a pipeline run: the ordered candidates
/// [`crate::pipeline::embed`] walks per level (first fit wins).
pub fn backends_for(
    choice: BackendChoice,
    device: &Device,
    params: TrainParams,
    variant: KernelVariant,
    opts: PartitionedOpts,
) -> Vec<Box<dyn TrainBackend>> {
    match choice {
        BackendChoice::Cpu => vec![Box::new(CpuHogwild::new(params))],
        BackendChoice::Gpu => vec![
            Box::new(GpuInMemory::new(device.clone(), params, variant)),
            Box::new(GpuPartitioned::new(device.clone(), params, opts)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosh_gpu::DeviceConfig;
    use gosh_graph::builder::csr_from_edges;
    use gosh_graph::gen::{community_graph, CommunityConfig};

    fn clique_graph() -> Csr {
        let mut edges = vec![];
        for a in 0..8u32 {
            for b in 0..a {
                edges.push((a, b));
                edges.push((a + 8, b + 8));
            }
        }
        edges.push((0, 8));
        csr_from_edges(16, &edges)
    }

    fn params() -> TrainParams {
        TrainParams::adjacency(16, 3, 0.05, 150).with_threads(4)
    }

    fn learned_structure(m: &Embedding) -> bool {
        let intra = (m.cosine(0, 1) + m.cosine(8, 9)) / 2.0;
        let inter = (m.cosine(0, 9) + m.cosine(1, 10)) / 2.0;
        intra > inter + 0.25
    }

    #[test]
    fn every_backend_trains_through_the_trait() {
        let g = clique_graph();
        let device = Device::new(DeviceConfig::titan_x());
        let tiny = Device::new(DeviceConfig::tiny(4096));
        let backends: Vec<Box<dyn TrainBackend>> = vec![
            Box::new(CpuHogwild::new(params())),
            Box::new(GpuInMemory::new(device, params(), KernelVariant::Auto)),
            Box::new(GpuPartitioned::new(
                tiny,
                params().with_threads(2),
                PartitionedOpts::default(),
            )),
        ];
        for be in &backends {
            let mut m = Embedding::random(16, 16, 7);
            let lvl = LevelSchedule::single(
                if be.kind() == BackendKind::GpuPartitioned {
                    400
                } else {
                    150
                },
                3,
            );
            let stats = be.train_level(&g, &mut m, lvl);
            assert_eq!(stats.backend, be.kind());
            assert!(stats.seconds >= 0.0);
            assert!(
                m.as_slice().iter().all(|x| x.is_finite()),
                "{:?}",
                be.kind()
            );
            assert!(learned_structure(&m), "{:?} failed to learn", be.kind());
            assert_eq!(
                stats.large.is_some(),
                be.kind() == BackendKind::GpuPartitioned
            );
        }
    }

    #[test]
    fn in_memory_fit_check_matches_byte_formula() {
        let g = community_graph(&CommunityConfig::new(256, 6), 1);
        let needed = device_bytes_needed(16, g.num_vertices(), g.num_edges(), Precision::F32);
        let big = GpuInMemory::new(
            Device::new(DeviceConfig::tiny(needed)),
            TrainParams::adjacency(16, 3, 0.05, 1),
            KernelVariant::Auto,
        );
        assert!(big.fits(&g));
        let small = GpuInMemory::new(
            Device::new(DeviceConfig::tiny(needed - 1)),
            TrainParams::adjacency(16, 3, 0.05, 1),
            KernelVariant::Auto,
        );
        assert!(!small.fits(&g));
    }

    #[test]
    fn device_bytes_formula_counts_all_arrays() {
        // 10 vertices, 20 arcs, d=8: 10*8*4 + 11*8 + 20*4 + 20*4 = 568.
        assert_eq!(device_bytes_needed(8, 10, 20, Precision::F32), 568);
    }

    #[test]
    fn backend_chains_match_choice() {
        let device = Device::new(DeviceConfig::titan_x());
        let p = params();
        let kinds = |c: BackendChoice| -> Vec<BackendKind> {
            backends_for(
                c,
                &device,
                p,
                KernelVariant::Auto,
                PartitionedOpts::default(),
            )
            .iter()
            .map(|b| b.kind())
            .collect()
        };
        assert_eq!(kinds(BackendChoice::Cpu), vec![BackendKind::CpuHogwild]);
        assert_eq!(
            kinds(BackendChoice::Gpu),
            vec![BackendKind::GpuInMemory, BackendKind::GpuPartitioned]
        );
        assert_eq!(BackendChoice::default(), BackendChoice::Gpu);
    }

    #[test]
    fn backend_choice_parses_from_cli_strings() {
        assert_eq!("cpu".parse::<BackendChoice>().unwrap(), BackendChoice::Cpu);
        assert_eq!("gpu".parse::<BackendChoice>().unwrap(), BackendChoice::Gpu);
        for bad in ["auto", "tpu"] {
            let err = bad.parse::<BackendChoice>().unwrap_err();
            assert!(err.contains("(cpu|gpu)"), "{err}");
        }
    }
}
