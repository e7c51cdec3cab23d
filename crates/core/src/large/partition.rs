//! Vertex partitioning for the large-graph path (§3.3).
//!
//! `V_i` is split into `K_i` contiguous, nearly equal ranges. Contiguity
//! matters twice: sub-matrix copies are single memcpy spans, and since
//! neighbour lists are sorted, `Γ(v) ∩ V_k` is a subrange found by binary
//! search — which makes host-side positive sampling O(log deg) per draw.

use std::ops::Range;

use crate::quant::Precision;

/// A partition of `0..n` into contiguous parts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    boundaries: Vec<u32>,
}

impl Partition {
    /// Split `n` vertices into `k` nearly equal contiguous parts.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 1, "need at least one part");
        assert!(n >= k, "more parts than vertices");
        let mut boundaries = Vec::with_capacity(k + 1);
        for j in 0..=k {
            boundaries.push((j * n / k) as u32);
        }
        Self { boundaries }
    }

    /// Number of parts `K`.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Vertex range of part `j`.
    #[inline]
    pub fn range(&self, j: usize) -> Range<u32> {
        self.boundaries[j]..self.boundaries[j + 1]
    }

    /// Size of part `j`.
    #[inline]
    pub fn len(&self, j: usize) -> usize {
        (self.boundaries[j + 1] - self.boundaries[j]) as usize
    }

    /// True if the partition covers no vertices.
    pub fn is_empty(&self) -> bool {
        *self.boundaries.last().unwrap() == 0
    }

    /// Largest part size (sizes the device bins).
    pub fn max_part_len(&self) -> usize {
        (0..self.num_parts())
            .map(|j| self.len(j))
            .max()
            .unwrap_or(0)
    }

    /// Which part vertex `v` belongs to.
    #[inline]
    pub fn part_of(&self, v: u32) -> usize {
        debug_assert!(v < *self.boundaries.last().unwrap());
        match self.boundaries.binary_search(&v) {
            Ok(j) => j.min(self.num_parts() - 1),
            Err(j) => j - 1,
        }
    }
}

/// Pick `K_i`: the smallest part count such that `P_GPU` sub-matrix bins
/// plus `S_GPU` sample-pool slots fit in `available_bytes` (§3.3.2's
/// trade-off — more parts always fit, but every extra part lengthens the
/// rotation, so we take the minimum that fits, and never fewer than 2).
///
/// Bins are sized by the *ceiling* part length `max_part_len() =
/// ceil(n/K)`, so the fit is verified against that, not against the
/// average `n/K` — deriving K from `n · per_vertex / available` alone can
/// overshoot device memory by one vertex's worth of rounding per part.
///
/// Sub-matrix bins are priced at `precision`'s true row byte width
/// (`Precision::row_bytes`): quantized bins hold 2-4x more vertices per
/// device byte, so fewer parts — and shorter rotations — fit the same
/// budget. The sample-pool term is `u32` indices and does not shrink with
/// the embedding precision.
pub fn choose_num_parts(
    n: usize,
    dim: usize,
    available_bytes: usize,
    p_gpu: usize,
    s_gpu: usize,
    batch_b: usize,
    precision: Precision,
) -> usize {
    assert!(n >= 2, "graph too small to partition");
    // Per-part bytes: a sub-matrix bin is part_len rows at the storage
    // width; a pool slot holds B targets for both sides of a pair
    // (2·part_len·B u32).
    let per_vertex = (p_gpu * precision.row_bytes(dim) + s_gpu * batch_b * 2 * 4).max(1);
    // Largest part length whose bins fit; K = ceil(n / max_len) then
    // guarantees ceil(n/K) <= max_len. With max_len == 0 nothing fits —
    // fall through to K = n (one vertex per part) and let the device
    // allocation surface the failure.
    let max_len = available_bytes / per_vertex;
    let k = if max_len == 0 { n } else { n.div_ceil(max_len) };
    k.clamp(2, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_everything_without_overlap() {
        let p = Partition::new(103, 7);
        assert_eq!(p.num_parts(), 7);
        let total: usize = (0..7).map(|j| p.len(j)).sum();
        assert_eq!(total, 103);
        for j in 0..6 {
            assert_eq!(p.range(j).end, p.range(j + 1).start);
        }
        assert_eq!(p.range(0).start, 0);
        assert_eq!(p.range(6).end, 103);
    }

    #[test]
    fn parts_are_balanced() {
        let p = Partition::new(1000, 6);
        let min = (0..6).map(|j| p.len(j)).min().unwrap();
        let max = p.max_part_len();
        assert!(max - min <= 1);
    }

    #[test]
    fn part_of_agrees_with_ranges() {
        let p = Partition::new(50, 4);
        for j in 0..4 {
            for v in p.range(j) {
                assert_eq!(p.part_of(v), j, "vertex {v}");
            }
        }
    }

    #[test]
    fn single_part_is_identity() {
        let p = Partition::new(10, 1);
        assert_eq!(p.num_parts(), 1);
        assert_eq!(p.range(0), 0..10);
        assert_eq!(p.part_of(9), 0);
    }

    #[test]
    fn choose_parts_scales_with_memory() {
        // 1M vertices, d = 32: matrix is 128 MB. With ~16 MB available the
        // partitioner must cut it into enough pieces.
        let k_small = choose_num_parts(1_000_000, 32, 16 << 20, 3, 4, 5, Precision::F32);
        let k_large = choose_num_parts(1_000_000, 32, 256 << 20, 3, 4, 5, Precision::F32);
        assert!(k_small > k_large);
        assert!(k_large >= 2);
        // The chosen K must actually fit.
        let part = 1_000_000usize.div_ceil(k_small);
        let bytes = 3 * part * 32 * 4 + 4 * 5 * 2 * part * 4;
        assert!(bytes <= 16 << 20, "bins {bytes}");
    }

    #[test]
    fn choose_parts_minimum_two() {
        assert_eq!(
            choose_num_parts(100, 8, usize::MAX / 2, 3, 4, 5, Precision::F32),
            2
        );
    }

    #[test]
    fn chosen_parts_fit_with_ceiling_part_size() {
        // Adversarial n: with per_vertex = 256 (dim 8, P=3, S=4, B=5) and
        // 511 bytes available, the average-based K was 2 — but
        // ceil(3/2) = 2 vertices per bin needs 512 bytes. The fit must be
        // verified against the ceiling part size.
        let per_vertex = 3 * 8 * 4 + 4 * 5 * 2 * 4;
        assert_eq!(per_vertex, 256);
        let k = choose_num_parts(3, 8, 2 * per_vertex - 1, 3, 4, 5, Precision::F32);
        assert_eq!(k, 3, "rounding overshoot not corrected");
        // Property over a sweep: whenever anything fits at all, the
        // ceiling-sized bins of the chosen K fit in the budget.
        for n in [3usize, 7, 100, 1001, 65_537] {
            for avail in [per_vertex, 2 * per_vertex - 1, 10_000, 1 << 20] {
                let k = choose_num_parts(n, 8, avail, 3, 4, 5, Precision::F32);
                let bytes = n.div_ceil(k) * per_vertex;
                if avail >= per_vertex {
                    assert!(bytes <= avail, "n={n} avail={avail}: K={k} needs {bytes}");
                }
            }
        }
    }

    #[test]
    fn quantized_bins_need_fewer_parts() {
        // Large dim so the matrix term dominates the pool term: narrower
        // rows must never need more parts, and strictly fewer here.
        let budget = 8 << 20;
        let k = |p| choose_num_parts(1_000_000, 128, budget, 3, 4, 5, p);
        let (kf32, kf16, ki8) = (k(Precision::F32), k(Precision::F16), k(Precision::I8));
        assert!(kf16 < kf32, "f16 {kf16} vs f32 {kf32}");
        assert!(ki8 < kf16, "i8 {ki8} vs f16 {kf16}");
        // The chosen K still fits at the quantized width.
        let part = 1_000_000usize.div_ceil(ki8);
        let bytes = 3 * part * Precision::I8.row_bytes(128) + 4 * 5 * 2 * part * 4;
        assert!(bytes <= budget, "i8 bins {bytes}");
    }

    #[test]
    #[should_panic(expected = "more parts than vertices")]
    fn too_many_parts_panics() {
        Partition::new(3, 4);
    }
}
