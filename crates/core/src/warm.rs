//! Warm-start retraining for streaming deltas.
//!
//! After a delta lands ([`gosh_graph::stream::apply_delta`]) and the
//! hierarchy is repaired ([`gosh_coarsen::repair_hierarchy`]), a full
//! retrain would throw away every row the delta never touched. Instead
//! [`warm_embed`] re-runs the per-level epoch schedule **only over the
//! dirty region**:
//!
//! 1. the fine init matrix is the old embedding — old vertices keep
//!    their rows, new vertices start from the mean of their already-
//!    embedded neighbours (deterministic random when isolated);
//! 2. the init is aggregated up the repaired hierarchy (coarse row =
//!    mean of member rows), so every level starts from the old
//!    solution's projection instead of noise;
//! 3. the hierarchy is walked by Algorithm 2's one level loop,
//!    `pipeline::walk`, under a scaled
//!    [`crate::schedule::epoch_distribution`], with a dirty-source
//!    trainer: each level trains through
//!    [`HogwildPlan::new_for_sources`], drawing sources only from that
//!    level's dirty set (`RepairStats::dirty_per_level`) — clean rows
//!    still adapt as sample targets, but no epoch budget is spent
//!    walking them;
//! 4. the walk's projection between levels overwrites **only dirty fine
//!    rows** with their cluster's trained row; clean rows keep their
//!    init values.
//!
//! The warm path is CPU/f32-only: it exists to make small deltas cheap,
//! and the Hogwild CPU engine trains a restricted source list in place,
//! with no per-level upload.

use std::time::Instant;

use gosh_coarsen::hierarchy::Hierarchy;
use gosh_coarsen::mapping::Mapping;
use gosh_coarsen::repair::{repair_hierarchy, RepairConfig};
use gosh_graph::csr::Csr;

use crate::backend::{BackendKind, LevelStats, TrainParams};
use crate::config::GoshConfig;
use crate::model::Embedding;
use crate::pipeline::walk;
use crate::quant::Precision;
use crate::schedule::epoch_distribution;
use crate::train_cpu::HogwildPlan;

/// Knobs for one warm-start update.
#[derive(Clone, Debug)]
pub struct WarmConfig {
    /// The base pipeline configuration (dim must match the old matrix;
    /// `epochs`, `smoothing`, `threads`, `lr`, `negative_samples` and
    /// `seed` are honoured; backend/precision knobs are ignored — the
    /// warm path is CPU f32).
    pub cfg: GoshConfig,
    /// Dirty fraction above which a level abandons localized repair and
    /// recoarsens from scratch (see [`RepairConfig::fallback_fraction`]).
    pub fallback_fraction: f64,
    /// Multiplier on `cfg.epochs` for the warm schedule. Deltas touch a
    /// small region, so a fraction of the full budget usually suffices;
    /// the scaled total is clamped to at least 1.
    pub epoch_scale: f64,
}

impl Default for WarmConfig {
    fn default() -> Self {
        Self {
            cfg: GoshConfig::default(),
            fallback_fraction: 0.25,
            epoch_scale: 0.5,
        }
    }
}

/// What one [`warm_embed`] run did.
#[derive(Clone, Debug)]
pub struct WarmReport {
    /// Depth of the repaired hierarchy.
    pub depth: usize,
    /// Levels repaired locally (vs. rebuilt) — see [`RepairStats`].
    pub repaired_levels: usize,
    /// True if repair fell back to full recoarsening at some level.
    pub fell_back: bool,
    /// Dirty fraction per level (level-indexed, finest first).
    pub dirty_fractions: Vec<f64>,
    /// Positive-sample sources trained per level (level-indexed).
    pub trained_sources: Vec<usize>,
    /// Epochs spent per level (level-indexed).
    pub epochs_per_level: Vec<u32>,
    /// Wall-clock seconds spent repairing the hierarchy.
    pub repair_seconds: f64,
    /// Wall-clock seconds spent training.
    pub training_seconds: f64,
    /// End-to-end wall-clock seconds.
    pub total_seconds: f64,
}

/// Warm-start update: retrain `old` onto `g_new` given the level-0 dirty
/// set (delta endpoints plus appended vertices).
///
/// `g_new` must extend the old graph's vertex set (ids `< old` n keep
/// their identity). Returns the updated embedding over `g_new`, the
/// repaired hierarchy (reusable for the next delta), and a report.
///
/// # Panics
/// Panics if the old embedding does not match the old hierarchy's fine
/// graph, or if `wcfg.cfg.dim` differs from the old matrix dimension.
pub fn warm_embed(
    g_new: &Csr,
    old_hierarchy: &Hierarchy,
    old: &Embedding,
    dirty0: &[u32],
    wcfg: &WarmConfig,
) -> (Embedding, Hierarchy, WarmReport) {
    let t0 = Instant::now();
    let cfg = &wcfg.cfg;
    let old_n = old_hierarchy.graphs[0].num_vertices();
    assert_eq!(
        old.num_vertices(),
        old_n,
        "old embedding does not match the old hierarchy"
    );
    assert_eq!(cfg.dim, old.dim(), "dim mismatch with the old embedding");

    // Stage 1: repair the hierarchy around the dirty region.
    let (hierarchy, rstats) = repair_hierarchy(
        old_hierarchy,
        g_new.clone(),
        dirty0,
        &RepairConfig {
            fallback_fraction: wcfg.fallback_fraction,
            coarsen: cfg.coarsen_config(),
        },
    );
    let depth = hierarchy.depth();
    debug_assert_eq!(rstats.dirty_per_level.len(), depth);

    // Stage 2: initialization — old rows at level 0, means up the tree.
    let mut inits = vec![init_fine(g_new, old, cfg.dim, cfg.seed)];
    for map in &hierarchy.maps {
        inits.push(aggregate_up(inits.last().expect("level 0"), map));
    }

    // Stage 3: Algorithm 2's walk under a scaled schedule, each level
    // training its dirty sources only.
    let t_train = Instant::now();
    let p = cfg.smoothing.unwrap_or(1.0);
    let e_total = ((cfg.epochs as f64 * wcfg.epoch_scale).round() as u32).max(1);
    let dist = epoch_distribution(e_total, p, depth);
    let base = TrainParams {
        precision: Precision::F32,
        ..cfg.train_params()
    };
    let dirty = &rstats.dirty_per_level;
    let coarsest = inits.pop().expect("depth >= 1");
    let (matrix, _) = walk(
        &hierarchy,
        coarsest,
        &dist,
        cfg.seed,
        |g, matrix, lvl| {
            let t = Instant::now();
            HogwildPlan::new_for_sources(g, &dirty[lvl.level]).train(g, matrix, &lvl.params(&base));
            LevelStats {
                backend: BackendKind::CpuHogwild,
                seconds: t.elapsed().as_secs_f64(),
                large: None,
            }
        },
        // Partial expansion: dirty fine rows inherit their cluster's
        // trained row; clean rows keep their (old-solution) init.
        |matrix, i| {
            let map = &hierarchy.maps[i];
            let mut next = inits.pop().expect("one init per level");
            for &v in &dirty[i] {
                next.row_mut(v)
                    .copy_from_slice(matrix.row(map.cluster_of(v)));
            }
            next
        },
    );
    let training_seconds = t_train.elapsed().as_secs_f64();

    let report = WarmReport {
        depth,
        repaired_levels: rstats.repaired_levels,
        fell_back: rstats.fell_back,
        dirty_fractions: rstats.dirty_fractions.clone(),
        trained_sources: dirty.iter().map(Vec::len).collect(),
        epochs_per_level: dist,
        repair_seconds: rstats.seconds,
        training_seconds,
        total_seconds: t0.elapsed().as_secs_f64(),
    };
    (matrix, hierarchy, report)
}

/// Fine-level init over the new vertex set: old vertices keep their rows,
/// new vertices start from the mean of their already-embedded neighbours
/// (the deterministic random base when every neighbour is also new).
fn init_fine(g_new: &Csr, old: &Embedding, dim: usize, seed: u64) -> Embedding {
    let n_new = g_new.num_vertices();
    let old_n = old.num_vertices();
    if n_new == old_n {
        // Every row is an old row: no draw of the random base survives.
        return old.clone();
    }
    let mut m = Embedding::random(n_new, dim, seed);
    m.as_mut_slice()[..old_n * dim].copy_from_slice(old.as_slice());
    for v in old_n..n_new {
        let mut acc = vec![0.0f32; dim];
        let mut count = 0u32;
        for &u in g_new.neighbors(v as u32) {
            if (u as usize) < old_n {
                for (a, &x) in acc.iter_mut().zip(old.row(u)) {
                    *a += x;
                }
                count += 1;
            }
        }
        if count > 0 {
            let inv = 1.0 / count as f32;
            for (dst, a) in m.row_mut(v as u32).iter_mut().zip(&acc) {
                *dst = a * inv;
            }
        }
    }
    m
}

/// Coarse init: each cluster row is the mean of its member rows. Every
/// cluster has at least one member (mappings are surjective), so the
/// division is always defined.
fn aggregate_up(fine: &Embedding, map: &Mapping) -> Embedding {
    let d = fine.dim();
    let k = map.num_clusters();
    let mut m = Embedding::zeros(k, d);
    let mut counts = vec![0u32; k];
    for v in 0..fine.num_vertices() {
        let c = map.cluster_of(v as u32);
        counts[c as usize] += 1;
        for (a, &x) in m.row_mut(c).iter_mut().zip(fine.row(v as u32)) {
            *a += x;
        }
    }
    for (c, &count) in counts.iter().enumerate() {
        debug_assert!(count > 0, "empty cluster {c}");
        let inv = 1.0 / count as f32;
        for x in m.row_mut(c as u32) {
            *x *= inv;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosh_coarsen::hierarchy::coarsen_hierarchy;
    use gosh_graph::gen::{community_graph, CommunityConfig};
    use gosh_graph::stream::{apply_delta, EdgeDelta};

    fn base_graph() -> Csr {
        community_graph(&CommunityConfig::new(400, 4), 9)
    }

    fn small_warm(threads: usize) -> WarmConfig {
        WarmConfig {
            cfg: GoshConfig::default()
                .with_dim(16)
                .with_epochs(40)
                .with_threads(threads),
            ..Default::default()
        }
    }

    fn old_state(g: &Csr, wcfg: &WarmConfig) -> (Hierarchy, Embedding) {
        let h = coarsen_hierarchy(g.clone(), &wcfg.cfg.coarsen_config());
        let m = Embedding::random(g.num_vertices(), wcfg.cfg.dim, 123);
        (h, m)
    }

    #[test]
    fn empty_delta_is_an_identity_update() {
        let g = base_graph();
        let wcfg = small_warm(4);
        let (h, m) = old_state(&g, &wcfg);
        let (m2, h2, rep) = warm_embed(&g, &h, &m, &[], &wcfg);
        // No dirty vertices anywhere: training is a no-op at every level
        // and expansion overwrites nothing, so the rows survive exactly.
        assert_eq!(m2.as_slice(), m.as_slice());
        assert_eq!(h2.depth(), h.depth());
        assert!(!rep.fell_back);
        assert!(rep.trained_sources.iter().all(|&s| s == 0));
    }

    #[test]
    fn delta_update_trains_dirty_region_and_keeps_shape() {
        let g = base_graph();
        let wcfg = small_warm(4);
        let (h, m) = old_state(&g, &wcfg);
        let mut delta = EdgeDelta::new();
        for i in 0..10u32 {
            delta.insert(i, 200 + i);
            delta.delete(i, i + 1);
        }
        let g_new = apply_delta(&g, &delta);
        let dirty = delta.dirty_vertices(g.num_vertices());
        let (m2, h2, rep) = warm_embed(&g_new, &h, &m, &dirty, &wcfg);
        assert_eq!(m2.num_vertices(), g_new.num_vertices());
        assert_eq!(m2.dim(), 16);
        assert!(m2.as_slice().iter().all(|x| x.is_finite()));
        assert_eq!(h2.graphs[0].num_edges(), g_new.num_edges());
        assert_eq!(rep.depth, h2.depth());
        assert!(rep.trained_sources[0] >= dirty.len());
        assert_eq!(rep.epochs_per_level.len(), rep.depth);
    }

    #[test]
    fn warm_update_is_deterministic_single_threaded() {
        let g = base_graph();
        let wcfg = small_warm(1);
        let (h, m) = old_state(&g, &wcfg);
        let mut delta = EdgeDelta::new();
        delta.insert(0, 399);
        delta.insert(5, 301);
        delta.delete(1, 2);
        let g_new = apply_delta(&g, &delta);
        let dirty = delta.dirty_vertices(g.num_vertices());
        let (a, _, _) = warm_embed(&g_new, &h, &m, &dirty, &wcfg);
        let (b, _, _) = warm_embed(&g_new, &h, &m, &dirty, &wcfg);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn new_vertices_get_neighbor_mean_init() {
        let g = base_graph();
        let n = g.num_vertices();
        let old = Embedding::random(n, 8, 7);
        let mut delta = EdgeDelta::new();
        // One appended vertex wired to two old ones, one isolated-ish
        // appended vertex wired only to the other new vertex.
        let a = n as u32;
        let b = n as u32 + 1;
        delta.insert(a, 3);
        delta.insert(a, 4);
        delta.insert(a, b);
        let g_new = apply_delta(&g, &delta);
        let m = init_fine(&g_new, &old, 8, 42);
        let expect: Vec<f32> = old
            .row(3)
            .iter()
            .zip(old.row(4))
            .map(|(x, y)| (x + y) / 2.0)
            .collect();
        assert_eq!(m.row(a), &expect[..]);
        // `b` has no embedded neighbour: it keeps the random base row.
        let base = Embedding::random(g_new.num_vertices(), 8, 42);
        assert_eq!(m.row(b), base.row(b));
        // Old vertices keep their rows bit-for-bit.
        assert_eq!(&m.as_slice()[..n * 8], old.as_slice());
    }

    /// The fine init as a draw over every row: the random base, old rows
    /// copied over it, then the neighbour means of new rows.
    fn init_fine_over_random_base(
        g_new: &Csr,
        old: &Embedding,
        dim: usize,
        seed: u64,
    ) -> Embedding {
        let old_n = old.num_vertices();
        let mut m = Embedding::random(g_new.num_vertices(), dim, seed);
        m.as_mut_slice()[..old_n * dim].copy_from_slice(old.as_slice());
        for v in old_n as u32..g_new.num_vertices() as u32 {
            let olds: Vec<u32> = g_new
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| (u as usize) < old_n)
                .collect();
            if olds.is_empty() {
                continue;
            }
            let mut acc = vec![0.0f32; dim];
            for &u in &olds {
                for (a, &x) in acc.iter_mut().zip(old.row(u)) {
                    *a += x;
                }
            }
            let inv = 1.0 / olds.len() as f32;
            for (dst, a) in m.row_mut(v).iter_mut().zip(&acc) {
                *dst = a * inv;
            }
        }
        m
    }

    #[test]
    fn init_fine_matches_the_random_base_with_and_without_new_vertices() {
        let g = base_graph();
        let n = g.num_vertices() as u32;
        let old = Embedding::random(g.num_vertices(), 8, 7);
        let mut same_vertices = EdgeDelta::new();
        same_vertices.insert(0, 399);
        same_vertices.delete(1, 2);
        let mut new_vertices = same_vertices.clone();
        new_vertices.insert(n, 3);
        new_vertices.insert(n + 1, n + 2);
        for delta in [EdgeDelta::new(), same_vertices, new_vertices] {
            let g_new = apply_delta(&g, &delta);
            let got = init_fine(&g_new, &old, 8, 42);
            let want = init_fine_over_random_base(&g_new, &old, 8, 42);
            assert_eq!(got.num_vertices(), want.num_vertices());
            let bits = |m: &Embedding| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n_new = {}", g_new.num_vertices());
        }
    }

    #[test]
    fn aggregate_up_is_the_member_mean() {
        let fine = Embedding::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let map = Mapping::new(vec![0, 1, 0], 2);
        let coarse = aggregate_up(&fine, &map);
        assert_eq!(coarse.row(0), &[3.0, 4.0]);
        assert_eq!(coarse.row(1), &[3.0, 4.0]);
    }
}
