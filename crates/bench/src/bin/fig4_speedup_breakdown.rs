//! Figure 4 — the speedup breakdown over intermediate GOSH versions.
//!
//! Five variants per graph, as in §4.8:
//!
//! 1. `CPU-16t`     — the multi-threaded Hogwild CPU trainer (wall-clock).
//! 2. `NaiveGPU`    — no coarsening, naive kernel (modeled device time).
//! 3. `OptGPU`      — no coarsening, §3.1-optimized kernel (modeled).
//! 4. `SeqCoarse`   — full GOSH with sequential coarsening: modeled
//!    kernel time + measured coarsening time.
//! 5. `ParCoarse`   — full GOSH with parallel coarsening (the final tool).
//!
//! Speedups are relative to `CPU-16t`. GPU variants are priced by the
//! cost model; the CPU anchor is wall-clock, so the absolute CPU↔GPU
//! ratio depends on the model's calibration — the ordering and relative
//! gaps between GPU variants are the reproduced shape (see DESIGN.md).

use std::time::Instant;

use gosh_bench::{datasets_from_args, fmt_s, header, scaled_epochs, split, tau, DIM};
use gosh_core::config::{GoshConfig, Preset};
use gosh_core::model::Embedding;
use gosh_core::pipeline::embed;
use gosh_core::train_cpu::train_cpu;
use gosh_core::train_gpu::train_level_on_device;
use gosh_core::{KernelVariant, TrainParams};
use gosh_gpu::{CostModel, Device, DeviceConfig};

fn main() {
    // Mirror the paper's mix (four medium + two large): parallel
    // coarsening only pays off once the graph is big enough that level-0
    // mapping dominates thread startup, exactly as §4.8 discusses.
    let datasets = datasets_from_args(&[
        "youtube-like",
        "pokec-like",
        "lj-like",
        "hyperlink-like",
        "friendster-like",
    ]);
    let epochs = scaled_epochs(1000);

    println!(
        "# Figure 4: speedups of intermediate Gosh versions over the 16-thread CPU implementation"
    );
    println!(
        "# epochs = {epochs}; GPU variants priced by the cost model (see header of the binary)"
    );
    header(&["graph", "variant", "time_s", "speedup_vs_cpu"]);

    for d in datasets {
        let g = d.generate(42);
        let s = split(&g);
        let n = s.train.num_vertices();

        // 1. CPU 16-thread Hogwild (wall).
        let t0 = Instant::now();
        let mut m = Embedding::random(n, DIM, 1);
        train_cpu(
            &s.train,
            &mut m,
            &TrainParams::adjacency(DIM, 3, 0.035, epochs)
                .with_threads(tau())
                .with_seed(1),
        );
        let cpu_s = t0.elapsed().as_secs_f64();
        let row = |name: &str, secs: f64| {
            println!("{}\t{name}\t{}\t{:.2}x", d.name, fmt_s(secs), cpu_s / secs);
        };
        row("CPU-16t", cpu_s);

        // 2 & 3. GPU without coarsening, naive vs optimized (modeled).
        for (name, variant) in [
            ("NaiveGPU", KernelVariant::Naive),
            ("OptGPU", KernelVariant::Optimized),
        ] {
            let device = Device::new(DeviceConfig::titan_x());
            let mut m = Embedding::random(n, DIM, 1);
            train_level_on_device(
                &device,
                &s.train,
                &mut m,
                &TrainParams::adjacency(DIM, 3, 0.035, epochs),
                variant,
            )
            .expect("training failed");
            let modeled = CostModel::new(*device.config()).kernel_seconds(&device.snapshot());
            row(name, modeled);
        }

        // 4 & 5. Full GOSH, sequential vs parallel coarsening.
        for (name, threads) in [("SeqCoarse", 1usize), ("ParCoarse", tau())] {
            let device = Device::new(DeviceConfig::titan_x());
            let cfg = GoshConfig::preset(Preset::Normal, false)
                .with_dim(DIM)
                .with_epochs(epochs)
                .with_threads(threads);
            let (_, report) = embed(&s.train, &cfg, &device);
            let modeled = CostModel::new(*device.config()).kernel_seconds(&report.device_cost);
            row(name, modeled + report.coarsening_seconds);
        }
    }
}
