//! Sequential `MultiEdgeCollapse` mapping phase — Algorithm 4, lines 3–14.
//!
//! Vertices are visited hubs-first. An unmapped vertex claims a fresh
//! cluster, then pulls every unmapped neighbour `u` into it unless both
//! endpoints are hubs (degree above the density δ = |E|/|V|) — the rule
//! that stops giant super-vertices from forming and preserves second-order
//! proximity (§3.2).

use crate::mapping::{Mapping, UNMAPPED};
use crate::order::sort_by_degree_desc;
use gosh_graph::csr::{Csr, VertexId};

/// Ablation switches for the two design choices §3.2 motivates: the
/// hub-hub density rule and the hubs-first processing order. Both default
/// to on (the published algorithm); the ablation bench turns them off one
/// at a time to measure their contribution.
#[derive(Clone, Copy, Debug)]
pub struct CollapseOptions {
    /// Forbid merging two vertices that both exceed δ = |E|/|V|.
    pub density_rule: bool,
    /// Process vertices in decreasing-degree order (else id order).
    pub hub_order: bool,
}

impl Default for CollapseOptions {
    fn default() -> Self {
        Self {
            density_rule: true,
            hub_order: true,
        }
    }
}

/// Compute the cluster mapping for one coarsening step, sequentially.
pub fn map_sequential(g: &Csr) -> Mapping {
    map_sequential_with(g, &CollapseOptions::default())
}

/// [`map_sequential`] with explicit ablation options.
pub fn map_sequential_with(g: &Csr, opts: &CollapseOptions) -> Mapping {
    let n = g.num_vertices();
    let order = if opts.hub_order {
        sort_by_degree_desc(g)
    } else {
        (0..n as VertexId).collect()
    };
    // δ from Algorithm 4 line 5; |E| here counts directed arcs, matching
    // the CSR-based |E_i| the reference implementation divides by.
    let delta = if opts.density_rule {
        g.density()
    } else {
        f64::INFINITY
    };
    let mut map = vec![UNMAPPED; n];
    let k = claim_clusters(g, &order, delta, &mut map, 0);
    Mapping::new(map, k)
}

/// The claim loop of Algorithm 4 (lines 7–14), the one copy of the rule
/// that every mapping — fresh or repaired — goes through. Each vertex of
/// `order` still `UNMAPPED` in `map` founds the next cluster id, counting
/// from `first`, and pulls in every unmapped neighbour unless both
/// endpoints have degree above `delta`. Vertices outside `order` must
/// already hold a cluster id. Returns the cluster count, `first` included.
pub(crate) fn claim_clusters(
    g: &Csr,
    order: &[VertexId],
    delta: f64,
    map: &mut [VertexId],
    first: VertexId,
) -> usize {
    let mut cluster = first;
    for &v in order {
        if map[v as usize] != UNMAPPED {
            continue;
        }
        map[v as usize] = cluster;
        let v_small = (g.degree(v) as f64) <= delta;
        for &u in g.neighbors(v) {
            // Algorithm 4 line 12: at least one endpoint must be small.
            if (v_small || (g.degree(u) as f64) <= delta) && map[u as usize] == UNMAPPED {
                map[u as usize] = cluster;
            }
        }
        cluster += 1;
    }
    cluster as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosh_graph::builder::csr_from_edges;
    use gosh_graph::gen::{erdos_renyi, rmat, RmatConfig};

    #[test]
    fn star_collapses_to_one_cluster() {
        let g = csr_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let m = map_sequential(&g);
        assert_eq!(m.num_clusters(), 1);
        assert!(m.as_slice().iter().all(|&c| c == 0));
    }

    #[test]
    fn every_vertex_is_mapped() {
        let g = erdos_renyi(500, 1500, 1);
        let m = map_sequential(&g);
        assert_eq!(m.num_fine(), 500);
        assert!(m.as_slice().iter().all(|&c| c != UNMAPPED));
        assert!(m.num_clusters() >= 1);
    }

    #[test]
    fn coarsening_shrinks_connected_graphs() {
        let g = rmat(&RmatConfig::graph500(10, 8.0), 2);
        let m = map_sequential(&g);
        assert!(
            m.num_clusters() < g.num_vertices() / 2,
            "clusters {} vs n {}",
            m.num_clusters(),
            g.num_vertices()
        );
    }

    #[test]
    fn two_hubs_are_not_merged() {
        // Two stars joined by an edge between their centers: the centers
        // both have degree > δ, so the hub-hub edge must not merge them.
        let mut edges = vec![];
        for leaf in 2..12u32 {
            edges.push((0, leaf));
        }
        for leaf in 12..22u32 {
            edges.push((1, leaf));
        }
        edges.push((0, 1));
        let g = csr_from_edges(22, &edges);
        let m = map_sequential(&g);
        assert_ne!(m.cluster_of(0), m.cluster_of(1), "hub centers merged");
        assert_eq!(m.num_clusters(), 2);
    }

    #[test]
    fn isolated_vertices_become_singletons() {
        // Star plus two isolated vertices: δ = 8/7 > 1, so the leaves are
        // "small" and collapse into the hub; the isolated pair stays apart.
        let g = csr_from_edges(7, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let m = map_sequential(&g);
        assert_eq!(m.num_clusters(), 3);
        assert_eq!(m.cluster_of(1), m.cluster_of(0));
        assert_ne!(m.cluster_of(5), m.cluster_of(6));
    }

    #[test]
    fn low_density_blocks_even_tiny_merges() {
        // With two isolated vertices, δ = 2/4 = 0.5 < 1: both endpoints of
        // the only edge exceed δ, so the density rule keeps them apart.
        // This is the behaviour of Algorithm 4 as written; real datasets
        // never hit it because edge lists contain no isolated vertices.
        let g = csr_from_edges(4, &[(0, 1)]);
        let m = map_sequential(&g);
        assert_eq!(m.num_clusters(), 4);
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(300, 900, 9);
        assert_eq!(map_sequential(&g), map_sequential(&g));
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(0);
        let m = map_sequential(&g);
        assert_eq!(m.num_clusters(), 0);
    }

    #[test]
    fn members_stay_within_hub_neighborhood() {
        // First-order proximity: every cluster is a star around the
        // vertex that founded it, since each other member was pulled in
        // through one of the founder's edges.
        let g = rmat(&RmatConfig::graph500(9, 6.0), 4);
        let m = map_sequential(&g);
        let (offsets, members) = m.members();
        for c in 0..m.num_clusters() {
            let mem = &members[offsets[c]..offsets[c + 1]];
            let star = mem
                .iter()
                .any(|&h| mem.iter().all(|&x| x == h || g.neighbors(h).contains(&x)));
            assert!(star, "cluster {c} is not a star around a member: {mem:?}");
        }
    }
}
