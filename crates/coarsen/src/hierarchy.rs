//! The full multilevel loop — Algorithm 4's outer `while`, producing the
//! set `G = {G_0, ..., G_{D-1}}` and the mappings `M`.

use std::time::Instant;

use crate::fused::{build_fused, map_fused, CoarsenWorkspace};
use crate::mapping::Mapping;
use crate::sequential::map_sequential;
use gosh_graph::csr::Csr;

/// Configuration for [`coarsen_hierarchy`].
#[derive(Clone, Copy, Debug)]
pub struct CoarsenConfig {
    /// The `min_vertices` stopping bound: coarsening continues only while
    /// the current level has *more* vertices than this (paper default:
    /// 100). The coarsest level may undershoot it by one step's shrink.
    pub threshold: usize,
    /// Worker threads; 1 selects the exact sequential Algorithm 4
    /// mapping, anything larger the fused lock-free matcher of
    /// [`crate::fused`]. The coarse graphs are built by
    /// [`crate::fused::build_fused`] at every thread count; its output
    /// does not depend on the count.
    pub threads: usize,
    /// Hard cap on the number of levels (D), a safety net for graphs that
    /// stop shrinking (e.g. perfect matchings of hubs).
    pub max_levels: usize,
    /// Stall bound: stop (discarding the candidate level) if a step would
    /// shrink the vertex count by less than this fraction — prevents
    /// infinite loops and useless near-copy levels on pathological
    /// inputs.
    pub min_shrink: f64,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        Self {
            threshold: 100,
            threads: 1,
            max_levels: 32,
            min_shrink: 0.005,
        }
    }
}

impl CoarsenConfig {
    /// Paper defaults with the given thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

/// Timing and size of one produced level.
#[derive(Clone, Copy, Debug)]
pub struct LevelStats {
    /// Index of the produced level (1 = first coarse graph).
    pub level: usize,
    /// Seconds spent producing this level (mapping + construction).
    pub seconds: f64,
    /// Vertices in the produced graph.
    pub vertices: usize,
    /// Directed arcs in the produced graph.
    pub edges: usize,
}

/// A coarsening hierarchy: `graphs[0]` is the input `G_0`; `maps[i]` sends
/// vertices of `graphs[i]` to vertices of `graphs[i+1]`.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// The coarsened graph set `G`, finest first.
    pub graphs: Vec<Csr>,
    /// The mapping set `M`; `maps.len() == graphs.len() - 1`.
    pub maps: Vec<Mapping>,
    /// Per-level timings for the experiment harness (Tables 4 and 5).
    pub stats: Vec<LevelStats>,
}

impl Hierarchy {
    /// Number of levels D (including `G_0`).
    pub fn depth(&self) -> usize {
        self.graphs.len()
    }

    /// The coarsest graph `G_{D-1}`.
    pub fn coarsest(&self) -> &Csr {
        self.graphs.last().expect("hierarchy is never empty")
    }

    /// Total coarsening time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.stats.iter().map(|s| s.seconds).sum()
    }

    /// Project a coarse vertex of level `level` down to the set of level-0
    /// vertices it represents (test/debug helper; O(|V_0| * level)).
    pub fn fine_vertices_of(&self, level: usize, coarse: u32) -> Vec<u32> {
        let mut current = vec![coarse];
        for l in (0..level).rev() {
            let map = &self.maps[l];
            let mut next = Vec::new();
            for v in 0..map.num_fine() as u32 {
                if current.contains(&map.cluster_of(v)) {
                    next.push(v);
                }
            }
            current = next;
        }
        current
    }
}

/// The stopping rule, audited against the paper: a candidate mapping is
/// only accepted when it (a) still has at least two clusters — a level
/// with zero or one vertex can neither be trained nor expanded from
/// meaningfully, so it is never emitted — and (b) shrinks the vertex
/// count by at least `min_shrink` (the stall bound; Algorithm 4 assumes
/// progress every round, which adversarial inputs like hub matchings and
/// isolated-vertex graphs violate).
fn accept_mapping(n_fine: usize, mapping: &Mapping, cfg: &CoarsenConfig) -> bool {
    if mapping.num_clusters() < 2 {
        return false;
    }
    let shrink = 1.0 - mapping.num_clusters() as f64 / n_fine.max(1) as f64;
    shrink >= cfg.min_shrink
}

/// Run `MultiEdgeCollapse` to completion (Algorithm 4).
pub fn coarsen_hierarchy(g0: Csr, cfg: &CoarsenConfig) -> Hierarchy {
    assert!(cfg.threads >= 1, "need at least one thread");
    let mut graphs = vec![g0];
    let mut maps = Vec::new();
    let mut stats = Vec::new();
    // One workspace for the whole hierarchy: scratch sized by G_0 serves
    // every coarser level without reallocating.
    let mut ws = CoarsenWorkspace::new();

    let mut level = 0usize;
    while graphs[level].num_vertices() > cfg.threshold && graphs.len() < cfg.max_levels {
        let start = Instant::now();
        let g = &graphs[level];
        let mapping = if cfg.threads == 1 {
            map_sequential(g)
        } else {
            map_fused(g, cfg.threads, &mut ws)
        };
        if !accept_mapping(g.num_vertices(), &mapping, cfg) {
            break; // stalled or degenerate: stop with what we have
        }
        let coarse = build_fused(g, &mapping, cfg.threads, &mut ws);
        let seconds = start.elapsed().as_secs_f64();
        stats.push(LevelStats {
            level: level + 1,
            seconds,
            vertices: coarse.num_vertices(),
            edges: coarse.num_edges(),
        });
        maps.push(mapping);
        graphs.push(coarse);
        level += 1;
    }

    Hierarchy {
        graphs,
        maps,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosh_graph::builder::csr_from_edges;
    use gosh_graph::gen::{erdos_renyi, rmat, RmatConfig};

    #[test]
    fn reaches_threshold() {
        let g =
            gosh_graph::compact::remove_isolated(&rmat(&RmatConfig::graph500(12, 8.0), 21)).graph;
        let h = coarsen_hierarchy(g, &CoarsenConfig::default());
        assert!(h.coarsest().num_vertices() <= 100 * 2); // allow slight overshoot on stall
        assert!(h.depth() >= 2);
        assert_eq!(h.maps.len(), h.depth() - 1);
        assert_eq!(h.stats.len(), h.depth() - 1);
    }

    #[test]
    fn sizes_strictly_decrease() {
        let g = rmat(&RmatConfig::graph500(11, 6.0), 23);
        let h = coarsen_hierarchy(g, &CoarsenConfig::default());
        for w in h.graphs.windows(2) {
            assert!(w[1].num_vertices() < w[0].num_vertices());
        }
    }

    #[test]
    fn mappings_connect_adjacent_levels() {
        let g = erdos_renyi(2000, 10_000, 31);
        let h = coarsen_hierarchy(g, &CoarsenConfig::with_threads(4));
        for i in 0..h.maps.len() {
            assert_eq!(h.maps[i].num_fine(), h.graphs[i].num_vertices());
            assert_eq!(h.maps[i].num_clusters(), h.graphs[i + 1].num_vertices());
        }
    }

    #[test]
    fn small_graph_is_left_alone() {
        let g = csr_from_edges(5, &[(0, 1), (1, 2)]);
        let h = coarsen_hierarchy(g.clone(), &CoarsenConfig::default());
        assert_eq!(h.depth(), 1);
        assert_eq!(h.graphs[0], g);
        assert_eq!(h.total_seconds(), 0.0);
    }

    #[test]
    fn parallel_hierarchy_similar_depth() {
        // §4.4: parallel coarsening reaches a similar number of levels.
        // The 8-thread CAS matching is a race, so one draw proves
        // nothing either way: bound the mean difference over graphs.
        // Measured on 2 cores next to the sibling tests (150 draws):
        // the sequential depth is 4 on every graph, a single parallel
        // draw is 4-9 (a thread preempted mid-claim costs shrink, so
        // the race only ever adds levels), and the mean over five
        // graphs 0-2.0 (above 2.0 in 3 of 20 earlier runs) - hence ten
        // graphs and a bound of 3.
        let seeds = 25..35u64;
        let mut total = 0i64;
        for seed in seeds.clone() {
            let g = rmat(&RmatConfig::graph500(12, 8.0), seed);
            let seq = coarsen_hierarchy(g.clone(), &CoarsenConfig::default()).depth() as i64;
            let par = coarsen_hierarchy(g, &CoarsenConfig::with_threads(8)).depth() as i64;
            total += (seq - par).abs();
        }
        let mean = total as f64 / seeds.count() as f64;
        assert!(mean <= 3.0, "mean |seq depth - par depth| = {mean}");
    }

    #[test]
    fn fine_vertices_round_trip() {
        let g = rmat(&RmatConfig::graph500(8, 4.0), 27);
        let n0 = g.num_vertices();
        let h = coarsen_hierarchy(g, &CoarsenConfig::default());
        let top = h.depth() - 1;
        // The union of fine vertex sets over all coarsest vertices is V_0.
        let mut seen = vec![false; n0];
        for c in 0..h.coarsest().num_vertices() as u32 {
            for v in h.fine_vertices_of(top, c) {
                assert!(!seen[v as usize], "vertex {v} appears twice");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn never_emits_a_single_vertex_level() {
        // A star above the threshold collapses to one cluster in a single
        // step; the old rule emitted that 1-vertex level. The audited
        // rule must refuse it and keep the original graph trainable.
        let edges: Vec<(u32, u32)> = (1..300u32).map(|leaf| (0, leaf)).collect();
        let g = csr_from_edges(300, &edges);
        for threads in [1, 4] {
            let h = coarsen_hierarchy(
                g.clone(),
                &CoarsenConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert!(
                h.graphs.iter().all(|g| g.num_vertices() >= 2),
                "emitted a degenerate level (threads = {threads}): {:?}",
                h.graphs
                    .iter()
                    .map(|g| g.num_vertices())
                    .collect::<Vec<_>>()
            );
            assert_eq!(h.depth(), 1, "star must be left alone, not collapsed");
            assert!(h.maps.is_empty());
        }
    }

    #[test]
    fn stalls_on_isolated_vertices_instead_of_looping() {
        // All-isolated graphs never shrink (every vertex is its own
        // cluster): the stall bound must stop at depth 1 even though the
        // vertex count stays above the threshold.
        let g = Csr::empty(500);
        for threads in [1, 4] {
            let h = coarsen_hierarchy(
                g.clone(),
                &CoarsenConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(h.depth(), 1, "threads = {threads}");
        }
    }

    #[test]
    fn every_emitted_level_supports_expansion() {
        // The contract the trainer's expand step relies on: every map
        // connects consecutive levels and no level is empty.
        let g = rmat(&RmatConfig::graph500(11, 6.0), 41);
        for threads in [1, 4] {
            let h = coarsen_hierarchy(
                g.clone(),
                &CoarsenConfig {
                    threshold: 2,
                    threads,
                    ..Default::default()
                },
            );
            for i in 0..h.maps.len() {
                assert!(h.graphs[i + 1].num_vertices() >= 2);
                assert_eq!(h.maps[i].num_fine(), h.graphs[i].num_vertices());
                assert_eq!(h.maps[i].num_clusters(), h.graphs[i + 1].num_vertices());
            }
        }
    }

    #[test]
    fn respects_max_levels() {
        let g = rmat(&RmatConfig::graph500(12, 8.0), 29);
        let cfg = CoarsenConfig {
            max_levels: 3,
            ..Default::default()
        };
        let h = coarsen_hierarchy(g, &cfg);
        assert!(h.depth() <= 3);
    }
}
