//! Watch `MultiEdgeCollapse` shrink a graph level by level.
//!
//! ```sh
//! cargo run --release --example coarsening_explorer [dataset-name]
//! ```
//!
//! Prints the per-level sizes, shrink rates and timings at all cores and
//! at one thread (the same hierarchy; only the coarse-graph builder runs
//! in parallel), and contrasts them with the MILE-style matching
//! coarsener (Table 5's comparison).

use gosh::coarsen::hierarchy::{coarsen_hierarchy, CoarsenConfig};
use gosh::coarsen::mile::mile_coarsen;
use gosh::graph::stats::shrink_rate;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "youtube-like".into());
    let dataset = gosh::graph::gen::dataset(&name).expect("unknown dataset");
    let graph = dataset.generate(42);
    println!(
        "{}: |V| = {}, |E| = {}, density = {:.2}",
        dataset.name,
        graph.num_vertices(),
        graph.num_undirected_edges(),
        graph.density()
    );

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    println!("\n== GOSH MultiEdgeCollapse (parallel builder, tau = {threads}) ==");
    let h = coarsen_hierarchy(graph.clone(), &CoarsenConfig::with_threads(threads));
    let mut prev = graph.num_vertices();
    for s in &h.stats {
        println!(
            "level {}: |V| = {:>8}  |E| = {:>9}  shrink = {:>5.1}%  {:.4}s",
            s.level,
            s.vertices,
            s.edges,
            100.0 * shrink_rate(prev, s.vertices),
            s.seconds
        );
        prev = s.vertices;
    }
    println!("total: {:.4}s, D = {}", h.total_seconds(), h.depth());

    println!("\n== GOSH MultiEdgeCollapse (tau = 1) ==");
    let h_seq = coarsen_hierarchy(graph.clone(), &CoarsenConfig::default());
    println!(
        "total: {:.4}s, D = {}, |V_D-1| = {} (tau = {threads} took {:.4}s -> {:.2}x speedup)",
        h_seq.total_seconds(),
        h_seq.depth(),
        h_seq.coarsest().num_vertices(),
        h.total_seconds(),
        h_seq.total_seconds() / h.total_seconds().max(1e-9)
    );

    println!("\n== MILE matching coarsener, same level count ==");
    let levels = h.depth() - 1;
    let mile = mile_coarsen(graph, levels);
    for s in &mile.stats {
        println!(
            "level {}: |V| = {:>8}  {:.4}s",
            s.level, s.vertices, s.seconds
        );
    }
    let mile_total: f64 = mile.stats.iter().map(|s| s.seconds).sum();
    println!(
        "total: {:.4}s — last level {} vs GOSH's {}",
        mile_total,
        mile.levels.last().unwrap().num_vertices(),
        h.coarsest().num_vertices()
    );
}
