//! Coarse-graph construction — `Coarsen(G_i, map_i)` of Algorithm 4.
//!
//! Given a mapping, builds `G_{i+1}`: a vertex per cluster, an edge between
//! clusters `c != c'` iff some fine edge crosses them (multi-edges
//! collapsed, self-loops dropped — the "MultiEdgeCollapse" in the name).
//!
//! The production builder, at every thread count, is the count/fill half
//! of the fused pipeline, [`crate::fused::build_fused`]. It produces a
//! CSR byte-identical to the sequential builder below for any thread
//! count; this one is only the oracle that equality is tested against
//! (proptests and the micro-benchmark), and no production path calls it.

use crate::mapping::Mapping;
use gosh_graph::csr::{Csr, VertexId};

/// Sequential coarse-graph construction.
pub fn build_coarse_sequential(g: &Csr, mapping: &Mapping) -> Csr {
    let k = mapping.num_clusters();
    let (offsets, members) = mapping.members();
    let mut xadj = Vec::with_capacity(k + 1);
    xadj.push(0usize);
    let mut adj: Vec<VertexId> = Vec::new();
    let mut scratch: Vec<VertexId> = Vec::new();

    for c in 0..k {
        scratch.clear();
        for &v in &members[offsets[c]..offsets[c + 1]] {
            for &u in g.neighbors(v) {
                let cu = mapping.cluster_of(u);
                if cu as usize != c {
                    scratch.push(cu);
                }
            }
        }
        scratch.sort_unstable();
        scratch.dedup();
        adj.extend_from_slice(&scratch);
        xadj.push(adj.len());
    }
    Csr::from_raw(xadj, adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{build_fused, map_fused, CoarsenWorkspace};
    use crate::sequential::map_sequential;
    use gosh_graph::builder::csr_from_edges;
    use gosh_graph::gen::{erdos_renyi, rmat, RmatConfig};

    fn check_coarse_invariants(fine: &Csr, mapping: &Mapping, coarse: &Csr) {
        assert_eq!(coarse.num_vertices(), mapping.num_clusters());
        assert!(coarse.is_symmetric());
        assert!(coarse.has_no_self_loops());
        // Every fine cross-cluster edge appears coarse; every coarse edge is
        // witnessed by some fine edge.
        for (u, v) in fine.edges() {
            let (cu, cv) = (mapping.cluster_of(u), mapping.cluster_of(v));
            if cu != cv {
                assert!(coarse.has_edge(cu, cv), "lost edge {cu}-{cv}");
            }
        }
        for (cu, cv) in coarse.edges() {
            let witnessed = fine
                .edges()
                .any(|(u, v)| mapping.cluster_of(u) == cu && mapping.cluster_of(v) == cv);
            assert!(witnessed, "invented coarse edge {cu}-{cv}");
        }
    }

    #[test]
    fn sequential_build_small() {
        let g = csr_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let m = map_sequential(&g);
        let c = build_coarse_sequential(&g, &m);
        check_coarse_invariants(&g, &m, &c);
    }

    #[test]
    fn sequential_build_random() {
        let g = erdos_renyi(400, 1600, 11);
        let m = map_sequential(&g);
        let c = build_coarse_sequential(&g, &m);
        check_coarse_invariants(&g, &m, &c);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let g = rmat(&RmatConfig::graph500(11, 6.0), 13);
        let m = map_sequential(&g);
        let seq = build_coarse_sequential(&g, &m);
        for threads in [1, 2, 4, 8] {
            let par = build_fused(&g, &m, threads, &mut CoarsenWorkspace::new());
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_build_invariants() {
        let g = erdos_renyi(1000, 8000, 17);
        let mut ws = CoarsenWorkspace::new();
        let m = map_fused(&g, 4, &mut ws);
        let c = build_fused(&g, &m, 4, &mut ws);
        check_coarse_invariants(&g, &m, &c);
    }

    #[test]
    fn single_cluster_collapses_to_isolated_vertex() {
        let g = csr_from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let m = map_sequential(&g);
        assert_eq!(m.num_clusters(), 1);
        let c = build_coarse_sequential(&g, &m);
        assert_eq!(c.num_vertices(), 1);
        assert_eq!(c.num_edges(), 0);
    }

    #[test]
    fn empty_mapping_gives_empty_graph() {
        let g = Csr::empty(0);
        let m = map_sequential(&g);
        let c = build_fused(&g, &m, 2, &mut CoarsenWorkspace::new());
        assert_eq!(c.num_vertices(), 0);
    }
}
