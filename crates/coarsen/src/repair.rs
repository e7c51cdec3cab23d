//! Incremental hierarchy repair for dynamic graphs.
//!
//! When an edge delta touches a coarsened graph, most of the hierarchy is
//! still right: only the clusters containing *dirty* vertices (delta
//! endpoints and new vertices) can have been matched differently, and
//! only clusters adjacent to those can see their coarse neighbourhoods
//! change. [`repair_hierarchy`] exploits that: per level it **dissolves**
//! the dirty clusters, keeps every clean cluster's membership (compactly
//! renumbered in old order), re-matches the dissolved region with exactly
//! the sequential `MultiEdgeCollapse` rule of
//! [`map_sequential`](crate::sequential::map_sequential) — hubs-first
//! order, the δ = |E|/|V| density rule — restricted to dissolved
//! vertices, and re-compacts the coarse graph. The dirty set propagated
//! one level down is exactly the set of re-matched clusters — membership
//! changes, not mere neighbourhood changes, are what force dissolution —
//! and the next level repairs the same way.
//!
//! When the dirty fraction at any level crosses
//! [`RepairConfig::fallback_fraction`], localized repair stops paying for
//! itself and the remaining levels are **fully recoarsened** with
//! [`coarsen_hierarchy`] — the safety valve the bench measures against.
//!
//! The repair is a pure function of `(old hierarchy, new graph, dirty
//! set)`: it is sequential over the dirty region (assumed small — that is
//! the regime repair exists for) and the coarse-graph rebuild is the
//! thread-count-proven fused builder, so the output is byte-identical for
//! any `threads`, preserving the repo-wide determinism invariant. It may
//! legitimately differ from coarsening the new graph from scratch — the
//! warm-start AUC parity bound in `gosh-bench::stream` is the quality
//! guard for that gap.

use std::time::Instant;

use gosh_graph::csr::{Csr, VertexId};

use crate::fused::{build_fused, CoarsenWorkspace};
use crate::hierarchy::{coarsen_hierarchy, CoarsenConfig, Hierarchy, LevelStats};
use crate::mapping::{Mapping, UNMAPPED};

/// Configuration for [`repair_hierarchy`].
#[derive(Clone, Copy, Debug)]
pub struct RepairConfig {
    /// Dirty-vertex fraction above which a level (and everything coarser)
    /// is fully recoarsened instead of repaired.
    pub fallback_fraction: f64,
    /// The coarsening parameters the fallback (and any deepening) uses;
    /// `threads` also sizes the coarse-graph builder's team.
    pub coarsen: CoarsenConfig,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            fallback_fraction: 0.25,
            coarsen: CoarsenConfig::default(),
        }
    }
}

/// What [`repair_hierarchy`] did, level by level.
#[derive(Clone, Debug, Default)]
pub struct RepairStats {
    /// Levels repaired incrementally (dissolve + re-match + re-compact).
    pub repaired_levels: usize,
    /// True when some level crossed the fallback threshold and the rest
    /// of the hierarchy was recoarsened from scratch.
    pub fell_back: bool,
    /// Dirty-vertex fraction seen at each level before deciding.
    pub dirty_fractions: Vec<f64>,
    /// Clusters dissolved per repaired level.
    pub dissolved_clusters: Vec<usize>,
    /// Per-level dirty sets of the *new* hierarchy (level 0 = input dirty
    /// set): the vertices warm-start training should re-train at each
    /// level. `dirty_per_level.len() == hierarchy.depth()` unless a level
    /// was dropped by the stopping rule.
    pub dirty_per_level: Vec<Vec<VertexId>>,
    /// Wall-clock seconds for the whole repair.
    pub seconds: f64,
}

/// Repair `old` (a hierarchy over the pre-delta graph) into a hierarchy
/// over `g0_new`, given the level-0 dirty set (delta endpoints plus new
/// vertices, see `gosh_graph::stream::EdgeDelta::dirty_vertices`).
///
/// `g0_new` must extend the old graph's vertex set: ids `< old` n keep
/// their identity, new vertices are appended at the end.
pub fn repair_hierarchy(
    old: &Hierarchy,
    g0_new: Csr,
    dirty0: &[VertexId],
    cfg: &RepairConfig,
) -> (Hierarchy, RepairStats) {
    let start = Instant::now();
    let threads = cfg.coarsen.threads.max(1);
    let old_n0 = old.graphs[0].num_vertices();
    let n0 = g0_new.num_vertices();
    assert!(n0 >= old_n0, "new graph must extend the old vertex set");

    let mut dirty: Vec<VertexId> = dirty0.to_vec();
    dirty.extend((old_n0 as VertexId)..(n0 as VertexId));
    dirty.sort_unstable();
    dirty.dedup();

    let mut graphs = vec![g0_new];
    let mut maps: Vec<Mapping> = Vec::new();
    let mut stats_levels: Vec<LevelStats> = Vec::new();
    let mut stats = RepairStats::default();
    let mut ws = CoarsenWorkspace::new();

    // `old_assign[v]` = the old cluster (at the next level) of new vertex
    // `v`, or UNMAPPED when `v` has no old assignment (a new vertex, or a
    // vertex re-matched at the previous level).
    let mut old_assign: Vec<VertexId> = Vec::new();

    for i in 0..old.maps.len() {
        let g = &graphs[i];
        let n = g.num_vertices();
        if i == 0 {
            old_assign = (0..n)
                .map(|v| {
                    if v < old_n0 {
                        old.maps[0].cluster_of(v as VertexId)
                    } else {
                        UNMAPPED
                    }
                })
                .collect();
        }
        let frac = if n == 0 {
            0.0
        } else {
            dirty.len() as f64 / n as f64
        };
        stats.dirty_fractions.push(frac);
        stats.dirty_per_level.push(dirty.clone());

        if frac > cfg.fallback_fraction {
            // Localized repair stopped paying: recoarsen from this level.
            stats.fell_back = true;
            let sub = coarsen_hierarchy(graphs[i].clone(), &cfg.coarsen);
            for (j, m) in sub.maps.into_iter().enumerate() {
                // Project the dirty set through the fresh levels so the
                // warm-start trainer still knows its region.
                let next: Vec<VertexId> = {
                    let mut d: Vec<VertexId> = dirty.iter().map(|&v| m.cluster_of(v)).collect();
                    d.sort_unstable();
                    d.dedup();
                    d
                };
                dirty = next;
                maps.push(m);
                graphs.push(sub.graphs[j + 1].clone());
                stats_levels.push(sub.stats[j]);
                stats.dirty_per_level.push(dirty.clone());
            }
            break;
        }

        let level_start = Instant::now();
        let old_k = old.maps[i].num_clusters();
        let (mapping, old_of_new, next_dirty, dissolved) =
            repair_level(g, &old_assign, old_k, &dirty);
        stats.dissolved_clusters.push(dissolved);

        // Stopping rule mirror: a repaired level must still be a real
        // coarsening (>= 2 clusters, strictly fewer than fine vertices).
        if mapping.num_clusters() < 2 || mapping.num_clusters() >= n {
            stats.dirty_fractions.pop();
            stats.dirty_per_level.pop();
            stats.dissolved_clusters.pop();
            break;
        }

        let coarse = build_fused(g, &mapping, threads, &mut ws);
        stats_levels.push(LevelStats {
            level: i + 1,
            seconds: level_start.elapsed().as_secs_f64(),
            vertices: coarse.num_vertices(),
            edges: coarse.num_edges(),
        });

        // Thread the *old* assignment one level down: a clean new cluster
        // corresponds to old cluster `old_of_new[c]`, whose old
        // assignment at the next level is `old.maps[i + 1][...]`.
        old_assign = if i + 1 < old.maps.len() {
            old_of_new
                .iter()
                .map(|&oc| {
                    if oc == UNMAPPED {
                        UNMAPPED
                    } else {
                        old.maps[i + 1].cluster_of(oc)
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        dirty = next_dirty;
        maps.push(mapping);
        graphs.push(coarse);
        stats.repaired_levels += 1;
    }

    if !stats.fell_back {
        stats.dirty_per_level.push(dirty.clone());
        stats.dirty_per_level.truncate(graphs.len());
    }
    stats.seconds = start.elapsed().as_secs_f64();
    (
        Hierarchy {
            graphs,
            maps,
            stats: stats_levels,
        },
        stats,
    )
}

/// Repair one level: dissolve dirty clusters, keep clean memberships
/// (renumbered compactly in old-cluster order), re-match dissolved
/// vertices with the sequential `MultiEdgeCollapse` rule restricted to
/// the dissolved region.
///
/// Returns `(mapping, old_of_new, next_dirty, dissolved)`:
/// * `mapping` — fine→coarse over the new graph;
/// * `old_of_new[c]` — the old cluster a clean new cluster `c` preserves,
///   `UNMAPPED` for re-matched clusters;
/// * `next_dirty` — the re-matched coarse vertices: the clusters whose
///   *membership* changed, which is what dissolution at the next level
///   keys on. Clean clusters adjacent to the re-matched region keep
///   their membership (their coarse edges are rebuilt exactly by the
///   builder; their rows adapt during warm-start training as sample
///   targets of dirty sources), so they do not propagate — this keeps
///   the dirty set from snowballing through hub neighbourhoods.
/// * `dissolved` — old clusters dissolved.
fn repair_level(
    g: &Csr,
    old_assign: &[VertexId],
    old_k: usize,
    dirty: &[VertexId],
) -> (Mapping, Vec<VertexId>, Vec<VertexId>, usize) {
    let n = g.num_vertices();
    debug_assert_eq!(old_assign.len(), n);

    // Which old clusters does the dirty set touch?
    let mut cluster_dirty = vec![false; old_k];
    for &v in dirty {
        let oc = old_assign[v as usize];
        if oc != UNMAPPED {
            cluster_dirty[oc as usize] = true;
        }
    }

    // A vertex is re-matchable iff it has no old assignment or its old
    // cluster dissolves.
    let rematch: Vec<bool> = (0..n)
        .map(|v| old_assign[v] == UNMAPPED || cluster_dirty[old_assign[v] as usize])
        .collect();

    // Clean clusters keep their membership, renumbered compactly in old
    // order so ids stay dense (the `Mapping` contract). A clean cluster
    // can still be *empty* here: when every one of its members was
    // re-matched at the finer level, no vertex carries its id anymore
    // (re-matched vertices have an UNMAPPED `old_assign`). Those vanish
    // rather than surviving as memberless coarse vertices.
    let mut members = vec![0usize; old_k];
    for v in 0..n {
        if !rematch[v] {
            members[old_assign[v] as usize] += 1;
        }
    }
    let mut new_id_of_old = vec![UNMAPPED; old_k];
    let mut next = 0 as VertexId;
    for c in 0..old_k {
        if !cluster_dirty[c] && members[c] > 0 {
            new_id_of_old[c] = next;
            next += 1;
        }
    }
    let n_clean = next as usize;
    let dissolved = old_k - n_clean;

    let mut map = vec![UNMAPPED; n];
    for v in 0..n {
        if !rematch[v] {
            map[v] = new_id_of_old[old_assign[v] as usize];
        }
    }

    // Re-match the dissolved region: hubs-first over re-matchable
    // vertices (degree descending, ties id ascending — the
    // `sort_by_degree_desc` order restricted to the region), δ from the
    // *new* graph's density, the Algorithm 4 line-12 rule against
    // re-matchable unmapped neighbours only.
    let mut region: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| rematch[v as usize])
        .collect();
    region.sort_by(|&a, &b| g.degree(b).cmp(&g.degree(a)).then(a.cmp(&b)));
    let delta = g.density();
    let mut cluster = next;
    for &v in &region {
        if map[v as usize] != UNMAPPED {
            continue;
        }
        map[v as usize] = cluster;
        let v_small = (g.degree(v) as f64) <= delta;
        for &u in g.neighbors(v) {
            if rematch[u as usize]
                && map[u as usize] == UNMAPPED
                && (v_small || (g.degree(u) as f64) <= delta)
            {
                map[u as usize] = cluster;
            }
        }
        cluster += 1;
    }
    let num_clusters = cluster as usize;

    // Old-cluster identity of each new cluster (clean ones only).
    let mut old_of_new = vec![UNMAPPED; num_clusters];
    for (c, &nc) in new_id_of_old.iter().enumerate() {
        if nc != UNMAPPED {
            old_of_new[nc as usize] = c as VertexId;
        }
    }

    // Coarse dirty set: exactly the re-matched clusters (membership
    // changes). Their ids are the contiguous tail past the clean block.
    let next_dirty: Vec<VertexId> = (n_clean as VertexId..num_clusters as VertexId).collect();

    (
        Mapping::new(map, num_clusters),
        old_of_new,
        next_dirty,
        dissolved,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_coarse_sequential;
    use gosh_graph::gen::{community_graph, CommunityConfig};
    use gosh_graph::stream::{apply_delta, EdgeDelta};

    fn base_graph(seed: u64) -> Csr {
        community_graph(&CommunityConfig::new(2000, 6), seed)
    }

    fn small_delta(g: &Csr, seed: u64) -> EdgeDelta {
        let mut d = EdgeDelta::new();
        let n = g.num_vertices() as u32;
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as u32
        };
        for _ in 0..20 {
            let (u, v) = (next(), next());
            d.insert(u, v);
        }
        for v in 0..10u32 {
            if g.degree(v) > 0 {
                d.delete(v, g.neighbors(v)[0]);
            }
        }
        d
    }

    fn check_hierarchy_valid(h: &Hierarchy) {
        assert_eq!(h.maps.len(), h.depth() - 1);
        for i in 0..h.maps.len() {
            assert_eq!(h.maps[i].num_fine(), h.graphs[i].num_vertices());
            assert_eq!(h.maps[i].num_clusters(), h.graphs[i + 1].num_vertices());
            // The coarse graph must be exactly what the mapping implies.
            assert_eq!(
                h.graphs[i + 1],
                build_coarse_sequential(&h.graphs[i], &h.maps[i]),
                "level {i} coarse graph inconsistent with its mapping"
            );
        }
    }

    #[test]
    fn repair_produces_valid_hierarchy() {
        let g = base_graph(3);
        let old = coarsen_hierarchy(g.clone(), &CoarsenConfig::default());
        assert!(old.depth() >= 2, "need a real hierarchy");
        let d = small_delta(&g, 7);
        let g_new = apply_delta(&g, &d);
        let dirty = d.dirty_vertices(g.num_vertices());
        let (h, st) = repair_hierarchy(&old, g_new, &dirty, &RepairConfig::default());
        assert!(!st.fell_back, "small delta must not fall back");
        assert!(st.repaired_levels >= 1);
        check_hierarchy_valid(&h);
        assert_eq!(st.dirty_per_level.len(), h.depth());
        assert_eq!(st.dirty_per_level[0], dirty);
    }

    #[test]
    fn repair_is_deterministic_across_thread_counts() {
        let g = base_graph(11);
        let old = coarsen_hierarchy(g.clone(), &CoarsenConfig::default());
        let d = small_delta(&g, 13);
        let g_new = apply_delta(&g, &d);
        let dirty = d.dirty_vertices(g.num_vertices());
        let reference = repair_hierarchy(&old, g_new.clone(), &dirty, &RepairConfig::default());
        for threads in [2, 4, 8] {
            let cfg = RepairConfig {
                coarsen: CoarsenConfig::with_threads(threads),
                ..Default::default()
            };
            let (h, _) = repair_hierarchy(&old, g_new.clone(), &dirty, &cfg);
            assert_eq!(h.depth(), reference.0.depth(), "threads={threads}");
            for i in 0..h.maps.len() {
                assert_eq!(
                    h.maps[i].as_slice(),
                    reference.0.maps[i].as_slice(),
                    "threads={threads} level={i} cluster map"
                );
                assert_eq!(
                    h.graphs[i + 1],
                    reference.0.graphs[i + 1],
                    "threads={threads} level={i} coarse graph"
                );
            }
        }
    }

    #[test]
    fn empty_delta_preserves_cluster_structure() {
        let g = base_graph(17);
        let old = coarsen_hierarchy(g.clone(), &CoarsenConfig::default());
        let (h, st) = repair_hierarchy(&old, g.clone(), &[], &RepairConfig::default());
        assert!(!st.fell_back);
        assert_eq!(h.depth(), old.depth());
        // No dirty vertices → nothing dissolves → identical mappings
        // (clean renumbering in old order is the identity).
        for i in 0..old.maps.len() {
            assert_eq!(h.maps[i].as_slice(), old.maps[i].as_slice(), "level {i}");
            assert_eq!(h.graphs[i + 1], old.graphs[i + 1], "level {i}");
        }
        assert!(st.dissolved_clusters.iter().all(|&d| d == 0));
    }

    #[test]
    fn clean_vertices_keep_cluster_cohabitants() {
        // Vertices far from the delta must stay clustered with the same
        // companions (cluster ids may shift, membership must not).
        let g = base_graph(23);
        let old = coarsen_hierarchy(g.clone(), &CoarsenConfig::default());
        let mut d = EdgeDelta::new();
        d.insert(0, 1);
        let g_new = apply_delta(&g, &d);
        let dirty = d.dirty_vertices(g.num_vertices());
        let (h, st) = repair_hierarchy(&old, g_new, &dirty, &RepairConfig::default());
        assert!(!st.fell_back);
        let old_map = &old.maps[0];
        let new_map = &h.maps[0];
        // Collect dissolved old clusters.
        let mut dissolved = vec![false; old_map.num_clusters()];
        for &v in &dirty {
            dissolved[old_map.cluster_of(v) as usize] = true;
        }
        for v in 0..g.num_vertices() as u32 {
            for u in 0..v {
                let together_old = old_map.cluster_of(v) == old_map.cluster_of(u);
                if !dissolved[old_map.cluster_of(v) as usize]
                    && !dissolved[old_map.cluster_of(u) as usize]
                {
                    assert_eq!(
                        together_old,
                        new_map.cluster_of(v) == new_map.cluster_of(u),
                        "clean pair ({u},{v}) changed cohabitation"
                    );
                }
            }
        }
        let _ = st;
    }

    #[test]
    fn large_delta_falls_back_to_full_recoarsen() {
        let g = base_graph(31);
        let old = coarsen_hierarchy(g.clone(), &CoarsenConfig::default());
        // Mark more than fallback_fraction of vertices dirty.
        let dirty: Vec<u32> = (0..(g.num_vertices() as u32) / 2).collect();
        let (h, st) = repair_hierarchy(&old, g.clone(), &dirty, &RepairConfig::default());
        assert!(st.fell_back);
        assert_eq!(st.repaired_levels, 0);
        // Fallback at level 0 IS a from-scratch coarsening.
        let scratch = coarsen_hierarchy(g, &CoarsenConfig::default());
        assert_eq!(h.depth(), scratch.depth());
        for i in 0..h.maps.len() {
            assert_eq!(h.maps[i].as_slice(), scratch.maps[i].as_slice());
            assert_eq!(h.graphs[i + 1], scratch.graphs[i + 1]);
        }
    }

    #[test]
    fn new_vertices_are_matched_somewhere() {
        let g = base_graph(41);
        let n = g.num_vertices() as u32;
        let old = coarsen_hierarchy(g.clone(), &CoarsenConfig::default());
        let mut d = EdgeDelta::new();
        d.insert(0, n); // fresh vertex attached to 0
        d.insert(n, n + 1); // chain of two fresh vertices
        let g_new = apply_delta(&g, &d);
        let dirty = d.dirty_vertices(g.num_vertices());
        let (h, _) = repair_hierarchy(&old, g_new.clone(), &dirty, &RepairConfig::default());
        assert_eq!(h.graphs[0].num_vertices(), n as usize + 2);
        let m = &h.maps[0];
        assert!(m.cluster_of(n) != UNMAPPED && m.cluster_of(n + 1) != UNMAPPED);
        check_hierarchy_valid(&h);
    }

    #[test]
    fn depth_one_old_hierarchy_recoarsens() {
        // An old hierarchy with no levels (tiny graph) must still produce
        // a usable hierarchy for the grown graph.
        let g = community_graph(&CommunityConfig::new(80, 4), 5);
        let old = coarsen_hierarchy(g.clone(), &CoarsenConfig::default());
        assert_eq!(old.depth(), 1);
        let mut d = EdgeDelta::new();
        d.insert(0, 81);
        let g_new = apply_delta(&g, &d);
        let (h, _) = repair_hierarchy(&old, g_new, &d.dirty_vertices(80), &RepairConfig::default());
        assert_eq!(h.graphs[0].num_vertices(), 82);
        check_hierarchy_valid(&h);
    }
}
