//! Ablation — the two coarsening design choices of §3.2.
//!
//! The paper motivates (a) the density rule that keeps two hubs out of
//! the same cluster and (b) the hubs-first processing order, reporting
//! that both are needed for efficiency *and* effectiveness. This bench
//! turns each off and measures: shrink behaviour (levels, coarsest size,
//! largest-cluster share) and downstream link-prediction AUCROC with the
//! same training budget.

use gosh_bench::{auc_percent, datasets_from_args, header, scaled_epochs_with, split, DIM};
use gosh_coarsen::fused::build_fused;
use gosh_coarsen::sequential::{map_sequential_with, CollapseOptions};
use gosh_coarsen::CoarsenWorkspace;
use gosh_core::config::{GoshConfig, Preset};
use gosh_core::expand::expand_embedding;
use gosh_core::model::Embedding;
use gosh_core::schedule::epoch_distribution;
use gosh_core::train_gpu::train_level_on_device;
use gosh_core::{KernelVariant, TrainParams};
use gosh_gpu::{Device, DeviceConfig};
use gosh_graph::csr::Csr;

/// Coarsen to below 100 vertices with explicit options; returns
/// (graphs, mappings, largest-cluster share seen).
fn coarsen(g0: Csr, opts: &CollapseOptions) -> (Vec<Csr>, Vec<gosh_coarsen::Mapping>, f64) {
    let mut graphs = vec![g0];
    let mut maps = Vec::new();
    let mut worst_share = 0.0f64;
    let mut ws = CoarsenWorkspace::new();
    while graphs.last().unwrap().num_vertices() > 100 && graphs.len() < 32 {
        let g = graphs.last().unwrap();
        let m = map_sequential_with(g, opts);
        let (offsets, _) = m.members();
        let biggest = (0..m.num_clusters())
            .map(|c| offsets[c + 1] - offsets[c])
            .max()
            .unwrap_or(0);
        worst_share = worst_share.max(biggest as f64 / g.num_vertices() as f64);
        if m.num_clusters() as f64 > 0.995 * g.num_vertices() as f64 {
            break;
        }
        let coarse = build_fused(g, &m, 1, &mut ws);
        maps.push(m);
        graphs.push(coarse);
    }
    (graphs, maps, worst_share)
}

fn main() {
    let datasets = datasets_from_args(&["youtube-like"]);
    let epochs = scaled_epochs_with(1000, 0.3);

    println!("# Ablation: coarsening design choices (density rule, hub order); epochs = {epochs}");
    header(&[
        "graph",
        "variant",
        "D",
        "|V_D-1|",
        "max_cluster_share",
        "aucroc_%",
    ]);

    for d in datasets {
        let g = d.generate(42);
        let s = split(&g);
        let variants = [
            (
                "full",
                CollapseOptions {
                    density_rule: true,
                    hub_order: true,
                },
            ),
            (
                "no-density-rule",
                CollapseOptions {
                    density_rule: false,
                    hub_order: true,
                },
            ),
            (
                "no-hub-order",
                CollapseOptions {
                    density_rule: true,
                    hub_order: false,
                },
            ),
            (
                "neither",
                CollapseOptions {
                    density_rule: false,
                    hub_order: false,
                },
            ),
        ];
        for (name, opts) in variants {
            let (graphs, maps, share) = coarsen(s.train.clone(), &opts);
            let depth = graphs.len();
            // Train through the hierarchy with the normal schedule.
            let device = Device::new(DeviceConfig::titan_x());
            let cfg = GoshConfig::preset(Preset::Normal, false).with_dim(DIM);
            let dist = epoch_distribution(epochs, cfg.smoothing.unwrap(), depth);
            let mut matrix = Embedding::random(graphs[depth - 1].num_vertices(), DIM, 7);
            for i in (0..depth).rev() {
                train_level_on_device(
                    &device,
                    &graphs[i],
                    &mut matrix,
                    &TrainParams::adjacency(DIM, 3, cfg.lr, dist[i]),
                    KernelVariant::Auto,
                )
                .expect("training failed");
                if i > 0 {
                    matrix = expand_embedding(&matrix, &maps[i - 1]);
                }
            }
            println!(
                "{}\t{name}\t{}\t{}\t{:.3}\t{:.2}",
                d.name,
                depth,
                graphs[depth - 1].num_vertices(),
                share,
                auc_percent(&matrix, &s)
            );
        }
    }
}
