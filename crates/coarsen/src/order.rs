//! Degree ordering for the coarsening (§3.2).
//!
//! `MultiEdgeCollapse` processes vertices with larger neighbourhoods first
//! so that hubs claim their clusters before being locked by low-degree
//! neighbours — the paper reports this ordering is what makes the shrink
//! rate high. A counting sort keeps this O(|V| + |E|).

use gosh_graph::csr::{Csr, VertexId};

/// Vertices of `g` sorted by decreasing degree, O(|V| + max_degree).
///
/// Ties are broken by vertex id (ascending), which makes the order — and
/// therefore the whole sequential coarsening — fully deterministic.
pub fn sort_by_degree_desc(g: &Csr) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut order = vec![0; n];
    let max_d = g.max_degree();
    // Counting sort over degree buckets, hubs first.
    let mut counts = vec![0usize; max_d + 2];
    for v in 0..n as VertexId {
        counts[max_d - g.degree(v) + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    for v in 0..n as VertexId {
        let bucket = max_d - g.degree(v);
        order[counts[bucket]] = v;
        counts[bucket] += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosh_graph::builder::csr_from_edges;
    use gosh_graph::gen::erdos_renyi;

    #[test]
    fn star_center_first() {
        let g = csr_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let order = sort_by_degree_desc(&g);
        assert_eq!(order[0], 0);
        // Leaves follow in id order (stable ties).
        assert_eq!(&order[1..], &[1, 2, 3, 4]);
    }

    #[test]
    fn order_is_a_permutation() {
        let g = erdos_renyi(500, 2500, 3);
        let mut order = sort_by_degree_desc(&g);
        assert_eq!(order.len(), 500);
        order.sort_unstable();
        assert!(order.iter().enumerate().all(|(i, &v)| i == v as usize));
    }

    #[test]
    fn degrees_non_increasing() {
        let g = erdos_renyi(300, 1200, 4);
        let order = sort_by_degree_desc(&g);
        for w in order.windows(2) {
            assert!(g.degree(w[0]) >= g.degree(w[1]));
        }
    }

    #[test]
    fn empty_graph() {
        let g = gosh_graph::csr::Csr::empty(0);
        assert!(sort_by_degree_desc(&g).is_empty());
    }

    #[test]
    fn all_isolated() {
        let g = gosh_graph::csr::Csr::empty(4);
        assert_eq!(sort_by_degree_desc(&g), vec![0, 1, 2, 3]);
    }
}
