//! Embedding matrices.
//!
//! [`Embedding`] is the host-side `|V| × d` matrix `M_i`. [`SharedMatrix`]
//! is the same data behind relaxed atomics, used whenever multiple threads
//! update rows concurrently (the Hogwild CPU trainer, and the host copy of
//! a partitioned matrix during Algorithm 5): lost updates are permitted,
//! torn floats are not.
//!
//! Threads work on [`SharedMatrix::row_atomics`] views *in place*:
//! sample rows are never staged through scratch buffers. Storage packs
//! **two `f32` lanes per `AtomicU64`** — one relaxed load or store moves
//! two matrix elements, halving the atomic-operation count of the
//! per-element `AtomicU32` discipline it replaced. A 64-bit relaxed
//! access is single-instruction on every 64-bit target, so individual
//! lanes still never tear; racing writers can lose a neighbouring
//! lane's update within the same pair, which is just the HOGWILD!
//! lost-update contract at pair granularity. Odd dimensions pad the
//! final pair's high lane with `0.0`; the trainer preserves the padding
//! invariant (zero source lane ⇒ zero update) so pads stay exactly zero.

use std::sync::atomic::{AtomicU64, Ordering};

use gosh_graph::rng::Xorshift128Plus;

/// A host-side embedding matrix in row-major order.
#[derive(Clone, Debug, PartialEq)]
pub struct Embedding {
    data: Vec<f32>,
    num_vertices: usize,
    dim: usize,
}

impl Embedding {
    /// A zero matrix.
    pub fn zeros(num_vertices: usize, dim: usize) -> Self {
        Self {
            data: vec![0.0; num_vertices * dim],
            num_vertices,
            dim,
        }
    }

    /// Random initialization, uniform in `[-0.5/d, 0.5/d)` — the VERSE
    /// convention GOSH inherits (small values keep early sigmoids in the
    /// responsive region).
    pub fn random(num_vertices: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Xorshift128Plus::new(seed);
        let scale = 1.0 / dim as f32;
        let data = (0..num_vertices * dim)
            .map(|_| (rng.next_f32() - 0.5) * scale)
            .collect();
        Self {
            data,
            num_vertices,
            dim,
        }
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(data: Vec<f32>, num_vertices: usize, dim: usize) -> Self {
        assert_eq!(data.len(), num_vertices * dim, "shape mismatch");
        Self {
            data,
            num_vertices,
            dim,
        }
    }

    /// Number of rows (vertices).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of features per vertex (the paper's `d`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `v` as a slice.
    #[inline]
    pub fn row(&self, v: u32) -> &[f32] {
        let o = v as usize * self.dim;
        &self.data[o..o + self.dim]
    }

    /// Row `v` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, v: u32) -> &mut [f32] {
        let o = v as usize * self.dim;
        &mut self.data[o..o + self.dim]
    }

    /// Two distinct rows mutably at once (for Algorithm 1 on the host).
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn two_rows_mut(&mut self, a: u32, b: u32) -> (&mut [f32], &mut [f32]) {
        assert_ne!(a, b, "rows must be distinct");
        let d = self.dim;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (first, second) = self.data.split_at_mut(hi as usize * d);
        let row_lo = &mut first[lo as usize * d..lo as usize * d + d];
        let row_hi = &mut second[..d];
        if a < b {
            (row_lo, row_hi)
        } else {
            (row_hi, row_lo)
        }
    }

    /// Whole matrix as a flat slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Whole matrix as a flat mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix bytes (`4·|V|·d`), the quantity budgeted against device
    /// memory in §3.3.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Cosine similarity between two rows (used by tests and examples).
    pub fn cosine(&self, a: u32, b: u32) -> f32 {
        let (ra, rb) = (self.row(a), self.row(b));
        let dot: f32 = ra.iter().zip(rb).map(|(x, y)| x * y).sum();
        let na: f32 = ra.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = rb.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }
}

/// Pack two `f32` lanes into the `u64` cell layout (`lo` is lane `2k`,
/// `hi` lane `2k + 1`).
#[inline]
pub fn pack_pair(lo: f32, hi: f32) -> u64 {
    lo.to_bits() as u64 | ((hi.to_bits() as u64) << 32)
}

/// Unpack an atomic cell into its two `f32` lanes.
#[inline]
pub fn unpack_pair(w: u64) -> (f32, f32) {
    (f32::from_bits(w as u32), f32::from_bits((w >> 32) as u32))
}

/// An embedding matrix behind relaxed atomics for Hogwild-style updates.
pub struct SharedMatrix {
    data: Box<[AtomicU64]>,
    num_vertices: usize,
    dim: usize,
    /// `AtomicU64` cells per row: `ceil(dim / 2)`.
    pairs: usize,
}

impl SharedMatrix {
    /// Copy a host matrix into shared paired-lane form.
    pub fn from_embedding(m: &Embedding) -> Self {
        let dim = m.dim();
        let pairs = dim.div_ceil(2);
        let mut data = Vec::with_capacity(m.num_vertices() * pairs);
        for v in 0..m.num_vertices() as u32 {
            let row = m.row(v);
            for p in 0..pairs {
                let lo = row[2 * p];
                let hi = if 2 * p + 1 < dim { row[2 * p + 1] } else { 0.0 };
                data.push(AtomicU64::new(pack_pair(lo, hi)));
            }
        }
        Self {
            data: data.into_boxed_slice(),
            num_vertices: m.num_vertices(),
            dim,
            pairs,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Features per row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `AtomicU64` cells per row (`ceil(dim / 2)`).
    #[inline]
    pub fn pairs_per_row(&self) -> usize {
        self.pairs
    }

    /// Row `v` as a shared atomic pair slice: the in-place view the
    /// Hogwild trainer updates through. One bounds check per row, none
    /// per element; no scratch copy in or out.
    #[inline]
    pub fn row_atomics(&self, v: u32) -> &[AtomicU64] {
        let o = v as usize * self.pairs;
        &self.data[o..o + self.pairs]
    }

    /// Relaxed load of element `j` of an atomic row view.
    #[inline]
    pub fn get(row: &[AtomicU64], j: usize) -> f32 {
        let (lo, hi) = unpack_pair(row[j / 2].load(Ordering::Relaxed));
        if j.is_multiple_of(2) {
            lo
        } else {
            hi
        }
    }

    /// Relaxed store of element `j` of an atomic row view. (A racy
    /// read-modify-write of the enclosing pair — fine for tooling and
    /// tests; the trainer writes whole pairs.)
    #[inline]
    pub fn set(row: &[AtomicU64], j: usize, x: f32) {
        let cell = &row[j / 2];
        let (lo, hi) = unpack_pair(cell.load(Ordering::Relaxed));
        let w = if j.is_multiple_of(2) {
            pack_pair(x, hi)
        } else {
            pack_pair(lo, x)
        };
        cell.store(w, Ordering::Relaxed);
    }

    /// Copy back out to a host matrix (padding lanes dropped).
    pub fn to_embedding(&self) -> Embedding {
        let mut data = Vec::with_capacity(self.num_vertices * self.dim);
        for v in 0..self.num_vertices {
            let row = &self.data[v * self.pairs..(v + 1) * self.pairs];
            for (p, cell) in row.iter().enumerate() {
                let (lo, hi) = unpack_pair(cell.load(Ordering::Relaxed));
                data.push(lo);
                if 2 * p + 1 < self.dim {
                    data.push(hi);
                }
            }
        }
        Embedding::from_vec(data, self.num_vertices, self.dim)
    }
}

impl std::fmt::Debug for SharedMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedMatrix({}x{})", self.num_vertices, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_init_is_small_and_deterministic() {
        let m1 = Embedding::random(10, 16, 5);
        let m2 = Embedding::random(10, 16, 5);
        assert_eq!(m1, m2);
        let bound = 0.5 / 16.0;
        assert!(m1.as_slice().iter().all(|&x| x.abs() <= bound));
        assert!(m1.as_slice().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn row_accessors() {
        let mut m = Embedding::zeros(3, 4);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(0), &[0.0; 4]);
        assert_eq!(m.memory_bytes(), 48);
    }

    #[test]
    fn two_rows_mut_both_orders() {
        let mut m = Embedding::zeros(4, 2);
        {
            let (a, b) = m.two_rows_mut(1, 3);
            a[0] = 1.0;
            b[0] = 3.0;
        }
        {
            let (a, b) = m.two_rows_mut(2, 0);
            a[0] = 2.0;
            b[0] = 0.5;
        }
        assert_eq!(m.row(0)[0], 0.5);
        assert_eq!(m.row(1)[0], 1.0);
        assert_eq!(m.row(2)[0], 2.0);
        assert_eq!(m.row(3)[0], 3.0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn two_rows_mut_same_row_panics() {
        let mut m = Embedding::zeros(2, 2);
        let _ = m.two_rows_mut(1, 1);
    }

    #[test]
    fn cosine_of_identical_rows_is_one() {
        let mut m = Embedding::zeros(2, 3);
        m.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        m.row_mut(1).copy_from_slice(&[2.0, 4.0, 6.0]);
        assert!((m.cosine(0, 1) - 1.0).abs() < 1e-6);
        let z = Embedding::zeros(2, 3);
        assert_eq!(z.cosine(0, 1), 0.0);
    }

    #[test]
    fn shared_matrix_round_trip_even_and_odd_dims() {
        for dim in [1usize, 2, 3, 7, 8, 31] {
            let m = Embedding::random(5, dim, 9);
            let s = SharedMatrix::from_embedding(&m);
            assert_eq!(s.pairs_per_row(), dim.div_ceil(2));
            assert_eq!(s.to_embedding(), m, "dim {dim}");
        }
    }

    #[test]
    fn pack_unpack_is_lossless() {
        for (lo, hi) in [(0.0f32, -0.0f32), (1.5, -3.25), (f32::MIN, f32::MAX)] {
            let (l2, h2) = unpack_pair(pack_pair(lo, hi));
            assert_eq!(lo.to_bits(), l2.to_bits());
            assert_eq!(hi.to_bits(), h2.to_bits());
        }
    }

    #[test]
    fn row_atomics_views_update_in_place() {
        let m = Embedding::zeros(2, 3);
        let s = SharedMatrix::from_embedding(&m);
        let row = s.row_atomics(1);
        assert_eq!(row.len(), 2); // ceil(3 / 2) pairs
        for j in 0..3 {
            SharedMatrix::set(row, j, 1.0 + j as f32);
        }
        assert_eq!(SharedMatrix::get(s.row_atomics(1), 2), 3.0);
        // Two views of the same row alias the same cells.
        let alias = s.row_atomics(1);
        SharedMatrix::set(alias, 0, 9.0);
        assert_eq!(SharedMatrix::get(row, 0), 9.0);
        let back = s.to_embedding();
        assert_eq!(back.row(1), &[9.0, 2.0, 3.0]);
        assert_eq!(back.row(0), &[0.0; 3]);
    }

    #[test]
    fn concurrent_in_place_updates_keep_lanes_untorn() {
        let s = SharedMatrix::from_embedding(&Embedding::zeros(1, 16));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let row = s.row_atomics(0);
                    for _ in 0..1000 {
                        for cell in row {
                            let (lo, hi) = unpack_pair(cell.load(Ordering::Relaxed));
                            cell.store(pack_pair(lo + 1.0, hi + 1.0), Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // Lost updates are allowed; torn/NaN lanes are not.
        let back = s.to_embedding();
        for &x in back.row(0) {
            assert!(x.is_finite());
            assert!(x > 0.0 && x <= 4000.0);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_vec_validates_shape() {
        Embedding::from_vec(vec![0.0; 5], 2, 3);
    }
}
