//! The GOSH pipeline — Algorithm 2.
//!
//! Coarsen, initialize the coarsest matrix randomly, then walk the
//! hierarchy from `G_{D-1}` down to `G_0`: train each level and project
//! the result to the next finer level. The walk exists once, generic over
//! the per-level trainer and projection, and serves both [`embed`] and
//! warm start ([`crate::warm::warm_embed`]). [`embed`] trains through the
//! [`TrainBackend`](crate::backend::TrainBackend) chain selected by
//! [`crate::backend::BackendChoice`] (the device-fit check of line 5 is
//! backend selection — the first backend whose `fits` accepts the level
//! trains it).

use std::time::Instant;

use gosh_coarsen::hierarchy::{coarsen_hierarchy, Hierarchy};
use gosh_gpu::{CostSnapshot, Device};
use gosh_graph::csr::Csr;

use crate::backend::{backends_for, BackendKind, LevelSchedule, LevelStats, PartitionedOpts};
use crate::config::GoshConfig;
use crate::expand::expand_embedding_parallel;
use crate::model::Embedding;
use crate::schedule::epoch_distribution;
use crate::train_gpu::KernelVariant;

/// Per-level training record.
#[derive(Clone, Copy, Debug)]
pub struct LevelReport {
    /// Level index (0 = original graph).
    pub level: usize,
    /// Vertices at this level.
    pub vertices: usize,
    /// Directed arcs at this level.
    pub arcs: usize,
    /// Epochs spent here (`e_i`).
    pub epochs: u32,
    /// Wall-clock training seconds for this level.
    pub seconds: f64,
    /// The engine that trained this level.
    pub backend: BackendKind,
    /// True if the Algorithm 5 partitioned path was used.
    pub used_large_path: bool,
}

/// Summary of one [`embed`] run.
#[derive(Clone, Debug)]
pub struct GoshReport {
    /// Number of levels D (1 when coarsening is disabled).
    pub depth: usize,
    /// Wall-clock seconds spent coarsening.
    pub coarsening_seconds: f64,
    /// Wall-clock seconds spent training (all levels).
    pub training_seconds: f64,
    /// End-to-end wall-clock seconds.
    pub total_seconds: f64,
    /// Per-level details, coarsest first (training order).
    pub levels: Vec<LevelReport>,
    /// Device cost counters accumulated by this run (for modeled time).
    pub device_cost: CostSnapshot,
}

/// Embed `g0` with GOSH. Returns `M_0` and the run report.
pub fn embed(g0: &Csr, cfg: &GoshConfig, device: &Device) -> (Embedding, GoshReport) {
    let cost0 = device.snapshot();
    let opts = PartitionedOpts {
        p_gpu: cfg.p_gpu,
        s_gpu: cfg.s_gpu,
        batch_b: cfg.batch_b,
    };
    let backends = backends_for(
        cfg.backend,
        device,
        cfg.train_params(),
        KernelVariant::Auto,
        opts,
    );
    let t0 = Instant::now();

    // Stage 1: coarsening (Algorithm 4) — or a single-level "hierarchy"
    // for the no-coarsening configuration.
    let hierarchy = match cfg.smoothing {
        Some(_) => coarsen_hierarchy(g0.clone(), &cfg.coarsen_config()),
        None => Hierarchy {
            graphs: vec![g0.clone()],
            maps: Vec::new(),
            stats: Vec::new(),
        },
    };
    let coarsening_seconds = t0.elapsed().as_secs_f64();
    let depth = hierarchy.depth();
    let dist = epoch_distribution(cfg.epochs, cfg.smoothing.unwrap_or(1.0), depth);

    // Stage 2: train coarsest-to-finest from random rows.
    let t_train = Instant::now();
    let coarsest = Embedding::random(hierarchy.coarsest().num_vertices(), cfg.dim, cfg.seed);
    let (matrix, levels) = walk(
        &hierarchy,
        coarsest,
        &dist,
        cfg.seed,
        |g, matrix, mut lvl| {
            lvl.precision = cfg
                .precision_schedule
                .map(|ps| ps.level_precision(g.num_vertices()));
            backends
                .iter()
                .find(|b| b.fits(g))
                .expect("no backend in the chain accepts this level")
                .train_level(g, matrix, lvl)
        },
        // Sharded projection: the between-level copy rides the same
        // worker budget as training instead of stalling on one core.
        |matrix, i| expand_embedding_parallel(matrix, &hierarchy.maps[i], cfg.threads),
    );

    let report = GoshReport {
        depth,
        coarsening_seconds,
        training_seconds: t_train.elapsed().as_secs_f64(),
        total_seconds: t0.elapsed().as_secs_f64(),
        levels,
        device_cost: device.snapshot().since(&cost0),
    };
    (matrix, report)
}

/// Algorithm 2's walk: from the coarsest rows `matrix`, train every level of
/// `hierarchy` coarsest → finest with `train_level` for its `epochs[i]`
/// (seeded `seed ^ i`, at the trainer's own precision), projecting onto
/// level `i` with `project(matrix, i)` in between. Returns the level-0
/// rows and the per-level records, coarsest first.
pub(crate) fn walk(
    hierarchy: &Hierarchy,
    mut matrix: Embedding,
    epochs: &[u32],
    seed: u64,
    mut train_level: impl FnMut(&Csr, &mut Embedding, LevelSchedule) -> LevelStats,
    mut project: impl FnMut(&Embedding, usize) -> Embedding,
) -> (Embedding, Vec<LevelReport>) {
    let mut levels = Vec::with_capacity(hierarchy.depth());
    for i in (0..hierarchy.depth()).rev() {
        let g = &hierarchy.graphs[i];
        let stats = train_level(
            g,
            &mut matrix,
            LevelSchedule {
                level: i,
                epochs: epochs[i],
                seed: seed ^ i as u64,
                precision: None,
            },
        );
        levels.push(LevelReport {
            level: i,
            vertices: g.num_vertices(),
            arcs: g.num_edges(),
            epochs: epochs[i],
            seconds: stats.seconds,
            backend: stats.backend,
            used_large_path: stats.backend == BackendKind::GpuPartitioned,
        });
        if i > 0 {
            matrix = project(&matrix, i - 1);
        }
    }
    (matrix, levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendChoice;
    use crate::config::Preset;
    use gosh_gpu::DeviceConfig;
    use gosh_graph::builder::csr_from_edges;
    use gosh_graph::compact::remove_isolated;
    use gosh_graph::gen::{rmat, RmatConfig};

    fn small_cfg() -> GoshConfig {
        GoshConfig::preset(Preset::Normal, false)
            .with_dim(16)
            .with_epochs(60)
            .with_threads(4)
    }

    fn test_graph() -> Csr {
        remove_isolated(&rmat(&RmatConfig::graph500(9, 8.0), 77)).graph
    }

    #[test]
    fn full_pipeline_produces_finite_embedding() {
        let g = test_graph();
        let device = Device::new(DeviceConfig::titan_x());
        let (m, report) = embed(&g, &small_cfg(), &device);
        assert_eq!(m.num_vertices(), g.num_vertices());
        assert_eq!(m.dim(), 16);
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
        assert!(
            report.depth >= 2,
            "expected multilevel, got {}",
            report.depth
        );
        assert_eq!(report.levels.len(), report.depth);
        // Training order is coarsest first.
        assert_eq!(report.levels.last().unwrap().level, 0);
        assert!(report.total_seconds >= report.training_seconds);
        assert!(report.device_cost.kernels > 0);
    }

    #[test]
    fn no_coarsening_config_has_one_level() {
        let g = test_graph();
        let device = Device::new(DeviceConfig::titan_x());
        let cfg = GoshConfig::preset(Preset::NoCoarsening, false)
            .with_dim(8)
            .with_epochs(10)
            .with_threads(2);
        let (_, report) = embed(&g, &cfg, &device);
        assert_eq!(report.depth, 1);
        assert_eq!(report.levels[0].epochs, 10);
        assert!(report.coarsening_seconds < 0.05);
    }

    #[test]
    fn epochs_concentrate_on_coarse_levels() {
        let g = test_graph();
        let device = Device::new(DeviceConfig::titan_x());
        let (_, report) = embed(&g, &small_cfg(), &device);
        if report.depth >= 3 {
            let coarsest = report.levels.first().unwrap();
            let finest = report.levels.last().unwrap();
            assert!(coarsest.epochs > finest.epochs);
        }
    }

    #[test]
    fn tiny_device_routes_through_large_path() {
        let g = test_graph();
        // Matrix for the full graph will not fit: force Algorithm 5 at the
        // fine levels while coarse levels still fit.
        let bytes = g.num_vertices() * 16 * 4 / 4;
        let device = Device::new(DeviceConfig::tiny(bytes));
        let (m, report) = embed(&g, &small_cfg(), &device);
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
        assert!(
            report.levels.iter().any(|l| l.used_large_path),
            "no level used the partitioned path"
        );
        assert!(report
            .levels
            .iter()
            .all(|l| l.used_large_path == (l.backend == BackendKind::GpuPartitioned)));
        assert_eq!(device.allocated_bytes(), 0);
    }

    #[test]
    fn cpu_backend_trains_every_level_off_device() {
        let g = test_graph();
        let device = Device::new(DeviceConfig::titan_x());
        let cfg = small_cfg().with_backend(BackendChoice::Cpu);
        let (m, report) = embed(&g, &cfg, &device);
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
        assert!(report
            .levels
            .iter()
            .all(|l| l.backend == BackendKind::CpuHogwild));
        // The device was never touched.
        assert_eq!(report.device_cost.kernels, 0);
        assert_eq!(device.allocated_bytes(), 0);
    }

    #[test]
    fn precision_schedule_splits_levels_and_degenerate_schedule_is_f32() {
        use crate::config::PrecisionSchedule;
        use crate::quant::Precision;
        let g = test_graph();
        // One thread: Hogwild races make multi-threaded runs
        // non-repeatable, and this test compares runs bitwise.
        let cfg = small_cfg().with_backend(BackendChoice::Cpu).with_threads(1);

        // A schedule whose cutoff excludes every level is plain f32.
        let all_coarse = cfg.with_precision_schedule(PrecisionSchedule {
            coarse: Precision::F32,
            fine: Precision::I8,
            cutoff: usize::MAX,
        });
        let device = Device::new(DeviceConfig::titan_x());
        let (m_ref, _) = embed(&g, &cfg, &device);
        let (m_coarse, _) = embed(&g, &all_coarse, &device);
        assert_eq!(m_ref.as_slice(), m_coarse.as_slice());

        // A cutoff inside the hierarchy quantizes the fine levels: the
        // result must differ from pure f32 but still embed the graph.
        let mixed = cfg.with_precision_schedule(PrecisionSchedule {
            coarse: Precision::F32,
            fine: Precision::I8,
            cutoff: 64,
        });
        let (m_mixed, _) = embed(&g, &mixed, &device);
        assert!(m_mixed.as_slice().iter().all(|x| x.is_finite()));
        assert_ne!(m_ref.as_slice(), m_mixed.as_slice());
    }

    #[test]
    fn embedding_reflects_structure_end_to_end() {
        // Two dense clusters bridged by one edge; after the full pipeline
        // the intra-cluster cosine must dominate.
        let mut edges = vec![];
        for x in 0..10u32 {
            for y in 0..x {
                edges.push((x, y));
                edges.push((x + 10, y + 10));
            }
        }
        edges.push((0, 10));
        let g = csr_from_edges(20, &edges);
        let device = Device::new(DeviceConfig::titan_x());
        let cfg = small_cfg().with_epochs(300);
        let (m, _) = embed(&g, &cfg, &device);
        let intra = (m.cosine(1, 2) + m.cosine(11, 12)) / 2.0;
        let inter = (m.cosine(1, 12) + m.cosine(2, 11)) / 2.0;
        assert!(intra > inter, "intra {intra} vs inter {inter}");
    }
}
