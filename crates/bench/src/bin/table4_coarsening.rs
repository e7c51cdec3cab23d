//! Table 4 — coarsening at one thread vs all cores on the large graphs.
//!
//! For each large dataset: total coarsening time with τ = 1 and τ = all
//! cores, the speedup, the number of levels D, and |V_{D-1}| — the same
//! columns as the paper's Table 4. The mapping is sequential at every τ:
//! the speedup is the coarse-graph builder's, and D and |V_{D-1}| match.

use std::time::Instant;

use gosh_bench::{datasets_from_args, fmt_s, header};
use gosh_coarsen::hierarchy::{coarsen_hierarchy, CoarsenConfig};

fn main() {
    let datasets = datasets_from_args(&[
        "hyperlink-like",
        "sinaweibo-like",
        "twitter-like",
        "friendster-like",
    ]);
    let tau = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);

    println!("# Table 4: coarsening at tau = 1 vs all cores (threshold = 100)");
    header(&["graph", "tau", "time_s", "speedup", "D", "|V_D-1|"]);

    for d in datasets {
        let g = d.generate(42);
        let t0 = Instant::now();
        let seq = coarsen_hierarchy(g.clone(), &CoarsenConfig::with_threads(1));
        let t_seq = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let par = coarsen_hierarchy(g, &CoarsenConfig::with_threads(tau));
        let t_par = t1.elapsed().as_secs_f64();

        println!(
            "{}\t1\t{}\t-\t{}\t{}",
            d.name,
            fmt_s(t_seq),
            seq.depth(),
            seq.coarsest().num_vertices()
        );
        println!(
            "{}\t{}\t{}\t{:.2}x\t{}\t{}",
            d.name,
            tau,
            fmt_s(t_par),
            t_seq / t_par,
            par.depth(),
            par.coarsest().num_vertices()
        );
    }
}
