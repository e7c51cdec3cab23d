//! Cluster mappings produced by one coarsening step.
//!
//! A mapping assigns every vertex of `G_i` a cluster id, i.e. a vertex of
//! `G_{i+1}` (the paper's `map_i`), in the dense range `0..num_clusters`.

use gosh_graph::csr::VertexId;

/// Sentinel: vertex not yet assigned to a cluster (the paper's `-1`).
pub const UNMAPPED: VertexId = VertexId::MAX;

/// A finished, compacted mapping from `V_i` onto `0..num_clusters`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mapping {
    map: Vec<VertexId>,
    num_clusters: usize,
}

impl Mapping {
    /// Wrap a compact mapping. Panics if an entry is out of range — in
    /// release builds too: the fused builder elides per-arc bounds
    /// checks on the strength of this invariant, so it must hold for
    /// every `Mapping` that exists (one O(|V|) sweep here buys |E|
    /// checks there).
    pub fn new(map: Vec<VertexId>, num_clusters: usize) -> Self {
        assert!(
            map.iter().all(|&c| (c as usize) < num_clusters),
            "mapping entry out of range (num_clusters = {num_clusters})"
        );
        Self { map, num_clusters }
    }

    /// Build from hub-vertex labels (the MILE baseline's output): every
    /// entry points at some vertex id acting as its cluster's hub. Detects
    /// the hubs (`labels[v] == v`), assigns them dense ids in increasing
    /// hub-id order, then rewrites all entries — the two sequential
    /// traversals described in §3.2.2.
    pub fn from_hub_labels(labels: &[VertexId]) -> Self {
        let n = labels.len();
        let mut dense = vec![UNMAPPED; n];
        let mut next = 0 as VertexId;
        for v in 0..n {
            if labels[v] as usize == v {
                dense[v] = next;
                next += 1;
            }
        }
        let mut map = vec![UNMAPPED; n];
        for v in 0..n {
            let hub = labels[v] as usize;
            assert!(
                dense[hub] != UNMAPPED,
                "vertex {v} labelled by non-hub {hub}"
            );
            map[v] = dense[hub];
        }
        Self {
            map,
            num_clusters: next as usize,
        }
    }

    /// Cluster id of fine vertex `v`.
    #[inline]
    pub fn cluster_of(&self, v: VertexId) -> VertexId {
        self.map[v as usize]
    }

    /// Number of coarse vertices.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Number of fine vertices.
    #[inline]
    pub fn num_fine(&self) -> usize {
        self.map.len()
    }

    /// The raw map array.
    #[inline]
    pub fn as_slice(&self) -> &[VertexId] {
        &self.map
    }

    /// Member lists per cluster via counting sort: `(offsets, members)` —
    /// members of cluster `c` are `members[offsets[c]..offsets[c+1]]`.
    pub fn members(&self) -> (Vec<usize>, Vec<VertexId>) {
        let k = self.num_clusters;
        let mut counts = vec![0usize; k + 1];
        for &c in &self.map {
            counts[c as usize + 1] += 1;
        }
        for i in 0..k {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut members = vec![0 as VertexId; self.map.len()];
        let mut cursor = counts;
        for (v, &c) in self.map.iter().enumerate() {
            members[cursor[c as usize]] = v as VertexId;
            cursor[c as usize] += 1;
        }
        (offsets, members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_hub_labels_compacts_in_hub_order() {
        // Hubs: 1 (cluster of {0,1}), 3 (cluster of {2,3,4}).
        let labels = vec![1, 1, 3, 3, 3];
        let m = Mapping::from_hub_labels(&labels);
        assert_eq!(m.num_clusters(), 2);
        assert_eq!(m.as_slice(), &[0, 0, 1, 1, 1]);
    }

    #[test]
    fn singleton_hubs() {
        let labels = vec![0, 1, 2];
        let m = Mapping::from_hub_labels(&labels);
        assert_eq!(m.num_clusters(), 3);
        assert_eq!(m.as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn members_partition_vertices() {
        let m = Mapping::new(vec![1, 0, 1, 0, 1], 2);
        let (offsets, members) = m.members();
        assert_eq!(offsets, vec![0, 2, 5]);
        assert_eq!(&members[0..2], &[1, 3]);
        assert_eq!(&members[2..5], &[0, 2, 4]);
    }

    #[test]
    fn members_of_empty_mapping() {
        let m = Mapping::new(vec![], 0);
        let (offsets, members) = m.members();
        assert_eq!(offsets, vec![0]);
        assert!(members.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_entry_is_rejected_in_all_builds() {
        // A hard assert, not a debug_assert: the fused builder's
        // unchecked indexing relies on it in release builds.
        Mapping::new(vec![0, 5], 2);
    }

    #[test]
    #[should_panic]
    fn non_hub_label_is_rejected() {
        // 2 points at 1, but 1 is not a hub (1 points at 0).
        Mapping::from_hub_labels(&[0, 0, 1]);
    }
}
