//! Explicit 8-wide f32 lanes for the training hot path.
//!
//! The pinned toolchain is **stable**, so there is no `std::simd`. Instead
//! every operation here exists twice with one shared contract:
//!
//! * a **scalar core** written as chunked loops over `[f32; 8]` lane
//!   groups — the shape LLVM's autovectorizer reliably turns into
//!   `vmulps`/`vaddps` on any target, and the semantic reference on
//!   targets without hand-written intrinsics;
//! * an **intrinsic path** (`core::arch::x86_64`, AVX2) selected at
//!   runtime via [`is_x86_feature_detected!`] and cached in an atomic, for
//!   the loops whose structure defeats autovectorization (atomic pair
//!   cells; the exact scan's blocks of eight rows).
//!
//! Both paths are **bit-identical** by construction: the intrinsic code
//! uses `_mm256_mul_ps` + `_mm256_add_ps` (never a fused
//! multiply-add — Rust does not contract scalar `a * b + c` either, so
//! fusing would change results), keeps one vector accumulator whose lanes
//! mirror the scalar `[f32; 8]` accumulator exactly, and funnels through
//! the same fixed horizontal-sum tree [`hsum8`]. Loads are unaligned
//! (`loadu`): row storage comes from ordinary `Vec` allocations with no
//! 32-byte guarantee, and unaligned vector loads have carried no penalty
//! on anything that also has AVX2. A proptest in `prop_core.rs` enforces
//! scalar/intrinsic equality across lane counts and unaligned row lengths.
//!
//! The 8-lane accumulation order is **the** dot-product order of both
//! trainers. Its scalar core ([`LANES`], [`hsum8`], [`dot8_scalar`])
//! lives in `gosh_gpu::lanes`, below this crate, and is re-exported
//! here: the device's `Warp::dot_rows` sums each row with it, and
//! [`crate::update::update_embedding`] (plain rows — also the f16/i8
//! row store's sample update) and [`crate::train_cpu::fused_update`]
//! (staged source against an atomic pair row) use [`dot8`] /
//! [`dot_pairs`], which keeps every path bit-identical to it. Remainder
//! elements land in lanes `0..r`, so a row zero-padded to the paired-lane
//! width produces exactly the same lane sums as the unpadded row.
//!
//! [`nearest_centroid`] (the IVF build in [`crate::serve`]) uses the
//! lanes the other way round: one lane per *centroid*, no horizontal sum.
//! So does [`chain_lanes`] (the exact scan in [`crate::serve`]): one lane
//! per *query*, each the chain [`crate::store::EmbeddingStore::dot`] runs
//! for that query; [`dot8_rows`] closes eight rows' [`dot8`] accumulators
//! at once into one lane per *row*. [`chain_rows`] (the IVF lists) runs
//! that chain one lane per *row*, over f16 or i8 codes stored eight rows
//! to a block, dimension-major.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::model::{pack_pair, unpack_pair};
use crate::update::{SIGMOID_BOUND, SIGMOID_TABLE};

pub use gosh_gpu::lanes::{dot8_scalar, hsum8, LANES};

/// Atomic pair cells per lane group (each cell holds two f32 lanes).
const GROUP_PAIRS: usize = LANES / 2;

/// Whether the intrinsic paths are available, detected once at runtime.
#[inline(always)]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // 0 = unknown, 1 = yes, 2 = no. A racy double-detect is harmless.
        static STATE: AtomicU8 = AtomicU8::new(0);
        match STATE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let yes = std::arch::is_x86_feature_detected!("avx2");
                STATE.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
                yes
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the F16C half-precision conversion instructions are
/// available, detected once at runtime. Used by the quantized storage
/// paths in [`crate::quant`]; `vcvtps2ph`/`vcvtph2ps` with static RNE
/// rounding match the software converters bit for bit on every non-NaN
/// value.
#[inline(always)]
pub fn f16c_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // 0 = unknown, 1 = yes, 2 = no. A racy double-detect is harmless.
        static STATE: AtomicU8 = AtomicU8::new(0);
        match STATE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let yes = std::arch::is_x86_feature_detected!("f16c");
                STATE.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
                yes
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Plain-f32 rows
// ---------------------------------------------------------------------------

/// 8-lane dot product — the canonical accumulation order of the trainer.
#[inline]
pub fn dot8(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        return unsafe { dot8_avx2(a, b) };
    }
    dot8_scalar(a, b)
}

/// AVX2 path of [`dot8`]: one vector accumulator whose lanes mirror the
/// scalar accumulator, `mul` + `add` (no fma contraction), the shared
/// [`hsum8`] tree at the end.
///
/// # Safety
/// The CPU must support AVX2 (callers check [`avx2_available`] first).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot8_avx2(a: &[f32], b: &[f32]) -> f32 {
    use core::arch::x86_64::*;
    let n = a.len().min(b.len());
    let chunks = n / LANES;
    let mut acc = _mm256_setzero_ps();
    for c in 0..chunks {
        // SAFETY: `LANES * c + LANES <= n <= a.len(), b.len()`, so both
        // unaligned 8-lane loads read inside their slices.
        let (xs, ys) = unsafe {
            (
                _mm256_loadu_ps(a.as_ptr().add(LANES * c)),
                _mm256_loadu_ps(b.as_ptr().add(LANES * c)),
            )
        };
        acc = _mm256_add_ps(acc, _mm256_mul_ps(xs, ys));
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: `lanes` is exactly 8 f32s — the width of one vector store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    let done = chunks * LANES;
    for (k, (x, y)) in a[done..n].iter().zip(&b[done..n]).enumerate() {
        lanes[k] += x * y;
    }
    hsum8(&lanes)
}

/// The fused two-sided axpy of Algorithm 1 over plain rows: per element,
/// `src += score·smp` and `smp += score·src_old` with pre-update values
/// on both sides. Purely lanewise, so the chunked scalar loop is already
/// the vector semantics; LLVM autovectorizes it.
#[inline]
pub fn fused_axpy8(src: &mut [f32], smp: &mut [f32], score: f32) {
    let mut cs = src.chunks_exact_mut(LANES);
    let mut cm = smp.chunks_exact_mut(LANES);
    for (xs, ys) in (&mut cs).zip(&mut cm) {
        for k in 0..LANES {
            let s_old = xs[k];
            xs[k] += score * ys[k];
            ys[k] += score * s_old;
        }
    }
    for (x, y) in cs.into_remainder().iter_mut().zip(cm.into_remainder()) {
        let s_old = *x;
        *x += score * *y;
        *y += score * s_old;
    }
}

// ---------------------------------------------------------------------------
// Nearest centroid (the IVF build's k-means assignment)
// ---------------------------------------------------------------------------

/// Transpose `nlist × dim` centroid rows into blocks of [`LANES`]
/// centroids, dimension-major: `ct[(b * dim + j) * LANES + lane]` is
/// dimension `j` of centroid `b * LANES + lane`. The last block's lanes
/// past `nlist` hold `+∞`, whose distance to any row is `+∞` or NaN —
/// never `<` anything, so a padding lane cannot win.
pub fn transpose_centroids(centroids: &[f32], dim: usize) -> Vec<f32> {
    let blocks = (centroids.len() / dim).div_ceil(LANES);
    let mut ct = vec![f32::INFINITY; blocks * dim * LANES];
    for (c, cen) in centroids.chunks_exact(dim).enumerate() {
        let base = (c / LANES) * dim * LANES + c % LANES;
        for (j, &y) in cen.iter().enumerate() {
            ct[base + j * LANES] = y;
        }
    }
    ct
}

/// Id of the centroid nearest to `row` by squared L2 distance, ties (and
/// an all-NaN row) to the smaller id; `ct` is [`transpose_centroids`]'
/// output for centroids of `row.len()` dimensions.
///
/// Lane-per-centroid: one 8-lane `sub`/`mul`/`add` advances eight
/// *independent* distances, and each lane runs exactly the scalar chain
/// `d2 = 0; for j { d = x[j] - y[j]; d2 += d * d }` — `j` ascending,
/// no fused multiply-add — so every distance, and the strict-`<` argmin
/// that walks them in centroid order, has the bits of the one-centroid-
/// at-a-time loop this replaces.
#[inline]
pub fn nearest_centroid(row: &[f32], ct: &[f32]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        return unsafe { nearest_centroid_avx2(row, ct) };
    }
    nearest_centroid_scalar(row, ct)
}

/// Scalar core of [`nearest_centroid`]: chunked lane groups that
/// autovectorize at whatever width the enclosing function enables.
#[inline(always)]
pub fn nearest_centroid_scalar(row: &[f32], ct: &[f32]) -> u32 {
    let (mut best, mut best_d2) = (0u32, f32::INFINITY);
    for (b, block) in ct.chunks_exact(row.len() * LANES).enumerate() {
        let mut acc = [0.0f32; LANES];
        for (&x, ys) in row.iter().zip(block.chunks_exact(LANES)) {
            for k in 0..LANES {
                let d = x - ys[k];
                acc[k] += d * d;
            }
        }
        for (k, &d2) in acc.iter().enumerate() {
            if d2 < best_d2 {
                best_d2 = d2;
                best = (b * LANES + k) as u32;
            }
        }
    }
    best
}

/// AVX2 path of [`nearest_centroid`]: the scalar core compiled with
/// 256-bit vectors, so one instruction carries a whole lane group.
///
/// # Safety
/// The CPU must support AVX2 (callers check [`avx2_available`] first).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nearest_centroid_avx2(row: &[f32], ct: &[f32]) -> u32 {
    nearest_centroid_scalar(row, ct)
}

/// The one-centroid-at-a-time loop [`nearest_centroid`] replaced, over
/// untransposed `nlist × dim` rows: the oracle its bits are held to.
#[cfg(test)]
pub(crate) fn nearest_centroid_reference(row: &[f32], centroids: &[f32]) -> u32 {
    let mut best = 0u32;
    let mut best_d2 = f32::INFINITY;
    for (c, cen) in centroids.chunks_exact(row.len()).enumerate() {
        let mut d2 = 0.0f32;
        for (&x, &y) in row.iter().zip(cen) {
            let d = x - y;
            d2 += d * d;
        }
        if d2 < best_d2 {
            best_d2 = d2;
            best = c as u32;
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Batch scoring (the exact scan)
// ---------------------------------------------------------------------------

/// A query batch laid out for [`chain_lanes`] or [`dot8_rows`].
///
/// Both kernels score a tile of `n` rows against every query and write
/// the score of row `r` against query `q` to `out[q * n8 + r]`, `n8`
/// being `n` rounded up to whole lane groups: one query's scores for
/// eight consecutive rows fill one vector. `out` holds
/// [`QueryLanes::width`] such query rows; the entries for rows past `n`
/// and queries past the batch are unspecified.
pub struct QueryLanes {
    dim: usize,
    /// Query count rounded up to whole lane groups.
    width: usize,
    /// The queries, laid out per constructor; padding holds `0.0`.
    lanes: Vec<f32>,
}

impl QueryLanes {
    /// Layout for [`chain_lanes`]: one lane per query, dimension-major —
    /// `lanes[j * width + q]` is dimension `j` of query `q`.
    pub fn chains(queries: &[f32], dim: usize) -> Self {
        let nq = queries.len() / dim;
        let width = nq.next_multiple_of(LANES);
        let mut lanes = vec![0.0f32; dim * width];
        for (q, row) in queries.chunks_exact(dim).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                lanes[j * width + q] = x;
            }
        }
        Self { dim, width, lanes }
    }

    /// Layout for [`dot8_rows`]: the query rows, each zero-padded to whole
    /// lane groups.
    pub fn dot8(queries: &[f32], dim: usize) -> Self {
        let nq = queries.len() / dim;
        let padded = dim.next_multiple_of(LANES);
        let mut lanes = vec![0.0f32; nq * padded];
        for (dst, q) in lanes
            .chunks_exact_mut(padded)
            .zip(queries.chunks_exact(dim))
        {
            dst[..dim].copy_from_slice(q);
        }
        let width = nq.next_multiple_of(LANES);
        Self { dim, width, lanes }
    }

    /// Query rows in a kernel's output.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// Score a tile of staged rows (`rows`: back to back, `dim` each) against
/// every query of a [`QueryLanes::chains`] batch into `out` (layout on
/// [`QueryLanes`]). Each score is the serial chain `acc = 0.0; for j
/// ascending { acc += row[j] * q[j] }` of
/// [`crate::store::EmbeddingStore::dot`]'s f16 and i8 arms, with no fused
/// multiply-add, so every score that is not NaN has that chain's bits
/// (Rust leaves a NaN result's sign and payload unspecified). One lane per
/// query: an 8-lane `mul` + `add` advances eight queries' chains at once.
#[inline]
pub fn chain_lanes(rows: &[f32], ql: &QueryLanes, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        return unsafe { chain_lanes_avx2(rows, ql, out) };
    }
    chain_lanes_scalar(rows, ql, out)
}

/// Scalar core of [`chain_lanes`]: each row against one lane group at a
/// time — the semantic reference of the AVX2 path and the path on other
/// targets.
#[inline]
pub fn chain_lanes_scalar(rows: &[f32], ql: &QueryLanes, out: &mut [f32]) {
    let n8 = (rows.len() / ql.dim).next_multiple_of(LANES);
    for (r, row) in rows.chunks_exact(ql.dim).enumerate() {
        for g in (0..ql.width).step_by(LANES) {
            let mut acc = [0.0f32; LANES];
            for (&x, qj) in row.iter().zip(ql.lanes.chunks_exact(ql.width)) {
                for l in 0..LANES {
                    acc[l] += x * qj[g + l];
                }
            }
            for (l, &a) in acc.iter().enumerate() {
                out[(g + l) * n8 + r] = a;
            }
        }
    }
}

/// AVX2 path of [`chain_lanes`]: eight rows × one lane group at a time,
/// eight independent 256-bit chains in flight (each the scalar core's
/// lane chain), transposed in registers so each store is one query's
/// scores for the eight rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn chain_lanes_avx2(rows: &[f32], ql: &QueryLanes, out: &mut [f32]) {
    use core::arch::x86_64::*;
    let dim = ql.dim;
    let n8 = (rows.len() / dim).next_multiple_of(LANES);
    for (b, rows8) in row_blocks(rows, dim).enumerate() {
        // Restated so the loop below indexes the rows without bounds checks.
        assert!(rows8.iter().all(|row| row.len() == dim));
        for g in (0..ql.width).step_by(LANES) {
            let mut acc = [_mm256_setzero_ps(); LANES];
            for (j, qj) in (0..dim).zip(ql.lanes.chunks_exact(ql.width)) {
                let y = load8(&qj[g..]);
                for (a, row) in acc.iter_mut().zip(&rows8) {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(_mm256_set1_ps(row[j]), y));
                }
            }
            for (l, t) in transpose8(acc).into_iter().enumerate() {
                store8(&mut out[(g + l) * n8 + b * LANES..], t);
            }
        }
    }
}

/// Score a tile of f32 rows (`rows`: back to back, `dim` each) against
/// every query of a [`QueryLanes::dot8`] batch into `out` (layout on
/// [`QueryLanes`]). Every score that is not NaN has the bits of
/// [`dot8`]`(row, q)`: each (row, query) pair keeps [`dot8`]'s accumulator
/// — dimension `j` into lane `j % 8`, `j` ascending from 0.0, no fused
/// multiply-add — and eight rows close together through the [`hsum8`]
/// tree, so the close leaves one lane per row.
#[inline]
pub fn dot8_rows(rows: &[f32], ql: &QueryLanes, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        return unsafe { dot8_rows_avx2(rows, ql, out) };
    }
    dot8_rows_scalar(rows, ql, out)
}

/// Scalar core of [`dot8_rows`]: [`dot8_scalar`] per (row, query).
#[inline]
pub fn dot8_rows_scalar(rows: &[f32], ql: &QueryLanes, out: &mut [f32]) {
    let dim = ql.dim;
    let n8 = (rows.len() / dim).next_multiple_of(LANES);
    let padded = dim.next_multiple_of(LANES);
    for (r, row) in rows.chunks_exact(dim).enumerate() {
        for (q, y) in ql.lanes.chunks_exact(padded).enumerate() {
            out[q * n8 + r] = dot8_scalar(row, &y[..dim]);
        }
    }
}

/// AVX2 path of [`dot8_rows`]: per eight rows and one query, eight
/// [`dot8_avx2`] accumulators, then the [`hsum8`] tree run on all eight at
/// once. The last `dim % 8` dimensions of each row are staged zero-padded:
/// `0 · 0` adds `+0.0` to a lane, which leaves every lane sum unchanged
/// (it starts at `+0.0` and so is never `-0.0`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot8_rows_avx2(rows: &[f32], ql: &QueryLanes, out: &mut [f32]) {
    use core::arch::x86_64::*;
    let dim = ql.dim;
    let n8 = (rows.len() / dim).next_multiple_of(LANES);
    let done = dim / LANES * LANES;
    let padded = done + if done < dim { LANES } else { 0 };
    for (b, rows8) in row_blocks(rows, dim).enumerate() {
        // Restated so the loops below index the rows without bounds checks.
        assert!(rows8.iter().all(|row| row.len() == dim));
        let mut tails = [[0.0f32; LANES]; LANES];
        for (t, row) in tails.iter_mut().zip(&rows8) {
            t[..dim - done].copy_from_slice(&row[done..]);
        }
        for (q, y) in ql.lanes.chunks_exact(padded).enumerate() {
            let mut acc = [_mm256_setzero_ps(); LANES];
            for c in (0..done).step_by(LANES) {
                let ys = load8(&y[c..]);
                for (a, row) in acc.iter_mut().zip(&rows8) {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(load8(&row[c..]), ys));
                }
            }
            if done < dim {
                let ys = load8(&y[done..]);
                for (a, t) in acc.iter_mut().zip(&tails) {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(load8(t), ys));
                }
            }
            store8(&mut out[q * n8 + b * LANES..], hsum8_rows(acc));
        }
    }
}

/// The rows of a tile eight at a time; a short last block repeats its last
/// row, whose extra scores land in the unspecified part of `out`.
#[cfg(target_arch = "x86_64")]
fn row_blocks(rows: &[f32], dim: usize) -> impl Iterator<Item = [&[f32]; LANES]> {
    let n = rows.len() / dim;
    (0..n).step_by(LANES).map(move |first| {
        std::array::from_fn(|i| {
            let r = (first + i).min(n - 1);
            &rows[r * dim..(r + 1) * dim]
        })
    })
}

/// Eight lanes from the front of `s`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn load8(s: &[f32]) -> core::arch::x86_64::__m256 {
    let s = &s[..LANES];
    // SAFETY: `s` is exactly 8 floats — the width of one unaligned load.
    unsafe { core::arch::x86_64::_mm256_loadu_ps(s.as_ptr()) }
}

/// Eight lanes to the front of `s`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn store8(s: &mut [f32], v: core::arch::x86_64::__m256) {
    let s = &mut s[..LANES];
    // SAFETY: `s` is exactly 8 floats — the width of one unaligned store.
    unsafe { core::arch::x86_64::_mm256_storeu_ps(s.as_mut_ptr(), v) }
}

/// `m[i][l]` → `t[l][i]` for an 8 × 8 block of lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn transpose8(m: [core::arch::x86_64::__m256; LANES]) -> [core::arch::x86_64::__m256; LANES] {
    use core::arch::x86_64::*;
    // Pairs of rows interleaved, then quads, then the 128-bit halves.
    let lo = |a, b| _mm256_unpacklo_ps(a, b);
    let hi = |a, b| _mm256_unpackhi_ps(a, b);
    let (t0, t1, t2, t3) = (
        lo(m[0], m[1]),
        hi(m[0], m[1]),
        lo(m[2], m[3]),
        hi(m[2], m[3]),
    );
    let (t4, t5, t6, t7) = (
        lo(m[4], m[5]),
        hi(m[4], m[5]),
        lo(m[6], m[7]),
        hi(m[6], m[7]),
    );
    let u = [
        _mm256_shuffle_ps::<0x44>(t0, t2),
        _mm256_shuffle_ps::<0xEE>(t0, t2),
        _mm256_shuffle_ps::<0x44>(t1, t3),
        _mm256_shuffle_ps::<0xEE>(t1, t3),
        _mm256_shuffle_ps::<0x44>(t4, t6),
        _mm256_shuffle_ps::<0xEE>(t4, t6),
        _mm256_shuffle_ps::<0x44>(t5, t7),
        _mm256_shuffle_ps::<0xEE>(t5, t7),
    ];
    std::array::from_fn(|l| match l {
        0..4 => _mm256_permute2f128_ps::<0x20>(u[l], u[l + 4]),
        _ => _mm256_permute2f128_ps::<0x31>(u[l - 4], u[l]),
    })
}

/// [`hsum8`] of each of eight vectors, into lane `i` for vector `i`:
/// adjacent lanes pair up, then the pairs, then the two 128-bit halves —
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, the association of
/// [`hsum8`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn hsum8_rows(v: [core::arch::x86_64::__m256; LANES]) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    // [a0+a1, a2+a3, b0+b1, b2+b3 | a4+a5, a6+a7, b4+b5, b6+b7]
    let pairs = |a, b| {
        _mm256_add_ps(
            _mm256_shuffle_ps::<0x88>(a, b),
            _mm256_shuffle_ps::<0xDD>(a, b),
        )
    };
    let p = [
        pairs(v[0], v[1]),
        pairs(v[2], v[3]),
        pairs(v[4], v[5]),
        pairs(v[6], v[7]),
    ];
    // [a0123, b0123, c0123, d0123 | a4567, b4567, c4567, d4567]
    let (s0, s1) = (pairs(p[0], p[1]), pairs(p[2], p[3]));
    _mm256_add_ps(
        _mm256_permute2f128_ps::<0x20>(s0, s1),
        _mm256_permute2f128_ps::<0x31>(s0, s1),
    )
}

// ---------------------------------------------------------------------------
// Row-per-lane chains (the IVF lists)
// ---------------------------------------------------------------------------

/// Quantized rows stored in blocks of [`LANES`] rows, dimension-major:
/// element `(b·dim + j)·8 + r` is dimension `j` of row `8b + r`, so one
/// lane group holds a block's eight codes for one dimension.
#[derive(Clone, Copy, Debug)]
pub enum RowBlocks<'a> {
    /// f16 bit patterns.
    F16(&'a [u16]),
    /// i8 codes, `0..=255`.
    I8(&'a [u8]),
}

/// Score every row of `blocks` against the query `q` (`dim = q.len()`)
/// into `out`, row `r` of block `b` at `out[8b + r]`. Each score is the
/// serial chain `acc = 0.0; for j ascending { acc += row[j] * q[j] }` of
/// [`crate::store::EmbeddingStore::dot`]'s f16 and i8 arms (the i8 arm's
/// affine close is the caller's), with no fused multiply-add, so every
/// score that is not NaN has that chain's bits. One lane per *row*: an
/// 8-lane `mul` + `add` advances a whole block's chains, and four blocks
/// are in flight at once so the adds do not wait on each other.
#[inline]
pub fn chain_rows(blocks: RowBlocks, q: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() && f16c_available() {
        // SAFETY: AVX2 and F16C presence were just verified at runtime.
        return unsafe { chain_rows_avx2(blocks, q, out) };
    }
    chain_rows_scalar(blocks, q, out)
}

/// Scalar core of [`chain_rows`]: one block at a time, one lane per row
/// — the semantic reference of the AVX2 path and the path on other
/// targets.
#[inline]
pub fn chain_rows_scalar(blocks: RowBlocks, q: &[f32], out: &mut [f32]) {
    match blocks {
        RowBlocks::F16(blk) => chain_rows_core(blk, q, out, crate::quant::f16_bits_to_f32),
        RowBlocks::I8(blk) => chain_rows_core(blk, q, out, f32::from),
    }
}

#[inline(always)]
fn chain_rows_core<T: Copy>(blk: &[T], q: &[f32], out: &mut [f32], widen: impl Fn(T) -> f32) {
    for (block, o) in blk
        .chunks_exact(q.len() * LANES)
        .zip(out.chunks_exact_mut(LANES))
    {
        let mut acc = [0.0f32; LANES];
        for (codes, &y) in block.chunks_exact(LANES).zip(q) {
            for r in 0..LANES {
                acc[r] += widen(codes[r]) * y;
            }
        }
        o.copy_from_slice(&acc);
    }
}

/// AVX2 path of [`chain_rows`]: codes widen to eight f32 lanes in
/// registers (`vcvtph2ps` for f16, `vpmovzxbd` + `vcvtdq2ps` for i8),
/// which both give exactly the scalar widening of every non-NaN code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
fn chain_rows_avx2(blocks: RowBlocks, q: &[f32], out: &mut [f32]) {
    use core::arch::x86_64::*;
    match blocks {
        RowBlocks::F16(blk) => chain_blocks(blk.as_chunks().0, q, out, |h: &[u16; LANES]| {
            let [h0, h1, h2, h3, h4, h5, h6, h7] = h.map(|h| h as i16);
            _mm256_cvtph_ps(_mm_set_epi16(h7, h6, h5, h4, h3, h2, h1, h0))
        }),
        RowBlocks::I8(blk) => chain_blocks(blk.as_chunks().0, q, out, |c: &[u8; LANES]| {
            let codes = _mm_cvtsi64_si128(i64::from_le_bytes(*c));
            _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(codes))
        }),
    }
}

/// The blocks of [`chain_rows_avx2`] (each `q.len()` lane groups), four
/// at a time, then the last one to three one at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
fn chain_blocks<T>(
    groups: &[[T; LANES]],
    q: &[f32],
    out: &mut [f32],
    widen: impl Fn(&[T; LANES]) -> core::arch::x86_64::__m256,
) {
    let dim = q.len();
    let mut quads = groups.chunks_exact(4 * dim);
    let mut outs = out.chunks_exact_mut(4 * LANES);
    for (quad, o) in (&mut quads).zip(&mut outs) {
        // Sliced here, not by a closure: a closure here would take this
        // function's target features and not inline into `array::from_fn`.
        let blocks = [
            &quad[..dim],
            &quad[dim..2 * dim],
            &quad[2 * dim..3 * dim],
            &quad[3 * dim..],
        ];
        for (acc, o) in chain_group(blocks, q, &widen)
            .into_iter()
            .zip(o.chunks_exact_mut(LANES))
        {
            store8(o, acc);
        }
    }
    let rest = outs.into_remainder().chunks_exact_mut(LANES);
    for (block, o) in quads.remainder().chunks_exact(dim).zip(rest) {
        let [acc] = chain_group([block], q, &widen);
        store8(o, acc);
    }
}

/// `N` blocks' chains side by side: per dimension, one `mul` + `add` per
/// block against the broadcast query entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
fn chain_group<T, const N: usize>(
    blocks: [&[[T; LANES]]; N],
    q: &[f32],
    widen: &impl Fn(&[T; LANES]) -> core::arch::x86_64::__m256,
) -> [core::arch::x86_64::__m256; N] {
    use core::arch::x86_64::*;
    // Restated so the loop below indexes the blocks without bounds checks.
    assert!(blocks.iter().all(|b| b.len() == q.len()));
    let mut acc = [_mm256_setzero_ps(); N];
    for (j, &y) in q.iter().enumerate() {
        let y = _mm256_set1_ps(y);
        for (a, b) in acc.iter_mut().zip(&blocks) {
            *a = _mm256_add_ps(*a, _mm256_mul_ps(widen(&b[j]), y));
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Lanewise sigmoid
// ---------------------------------------------------------------------------

/// Eight sigmoids at once: the affine transform and clamps compute
/// lanewise (autovectorized), then the knot values gather from the shared
/// table per lane. Bit-identical to eight [`crate::update::fast_sigmoid`]
/// calls, including saturation at `±8` and NaN propagation.
#[inline]
pub fn fast_sigmoid8(xs: &[f32; LANES]) -> [f32; LANES] {
    let tab = crate::update::sigmoid_table();
    let mut idx = [0usize; LANES];
    let mut frac = [0.0f32; LANES];
    for k in 0..LANES {
        let t = (xs[k] + SIGMOID_BOUND) * (SIGMOID_TABLE as f32 / (2.0 * SIGMOID_BOUND));
        idx[k] = (t as usize).min(SIGMOID_TABLE - 1);
        frac[k] = t - idx[k] as f32;
    }
    let mut out = [0.0f32; LANES];
    for k in 0..LANES {
        // The per-lane table gather; interpolation is lanewise again.
        let lo = tab[idx[k]];
        let hi = tab[idx[k] + 1];
        let interp = lo + (hi - lo) * frac[k];
        out[k] = if xs[k] >= SIGMOID_BOUND {
            1.0
        } else if xs[k] <= -SIGMOID_BOUND {
            0.0
        } else {
            interp
        };
    }
    out
}

// ---------------------------------------------------------------------------
// Atomic pair rows (the SharedMatrix cell format)
// ---------------------------------------------------------------------------

/// Load a group of four pair cells into eight f32 lanes.
#[inline(always)]
fn load_group(ws: &[AtomicU64]) -> [f32; LANES] {
    debug_assert_eq!(ws.len(), GROUP_PAIRS);
    let mut out = [0.0f32; LANES];
    for k in 0..GROUP_PAIRS {
        let (lo, hi) = unpack_pair(ws[k].load(Ordering::Relaxed));
        out[2 * k] = lo;
        out[2 * k + 1] = hi;
    }
    out
}

/// Dot product between a staged (padded) source row and an atomic pair
/// row. `src.len()` must be `2 * sample.len()`.
#[inline]
pub fn dot_pairs(src: &[f32], sample: &[AtomicU64]) -> f32 {
    debug_assert_eq!(src.len(), 2 * sample.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        return unsafe { dot_pairs_avx2(src, sample) };
    }
    dot_pairs_scalar(src, sample)
}

/// Scalar core of [`dot_pairs`] — same lane assignment as [`dot8_scalar`]
/// over the unpacked row.
#[inline]
pub fn dot_pairs_scalar(src: &[f32], sample: &[AtomicU64]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut cs = src.chunks_exact(LANES);
    let mut cu = sample.chunks_exact(GROUP_PAIRS);
    for (xs, ws) in (&mut cs).zip(&mut cu) {
        let ys = load_group(ws);
        for k in 0..LANES {
            acc[k] += xs[k] * ys[k];
        }
    }
    let xs = cs.remainder();
    for (i, w) in cu.remainder().iter().enumerate() {
        let (y0, y1) = unpack_pair(w.load(Ordering::Relaxed));
        acc[2 * i] += xs[2 * i] * y0;
        acc[2 * i + 1] += xs[2 * i + 1] * y1;
    }
    hsum8(&acc)
}

/// AVX2 path of [`dot_pairs`]. Pair cells are staged into a `[u64; 4]`
/// via relaxed loads, then reinterpreted as eight f32 lanes — on
/// little-endian x86 the low word of `pack_pair` is the even lane, so the
/// cast is exactly [`load_group`] without the shifts. Going through the
/// staging array keeps every atomic access a plain `load` (no vector
/// access aliases the atomics, so there is no tearing and no UB).
///
/// # Safety
/// The CPU must support AVX2 (callers check [`avx2_available`] first),
/// and `src.len()` must be `2 * sample.len()` (the staged-row contract
/// of [`dot_pairs`], asserted there).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_pairs_avx2(src: &[f32], sample: &[AtomicU64]) -> f32 {
    use core::arch::x86_64::*;
    let groups = sample.len() / GROUP_PAIRS;
    let mut acc = _mm256_setzero_ps();
    for g in 0..groups {
        let mut bits = [0u64; GROUP_PAIRS];
        for k in 0..GROUP_PAIRS {
            bits[k] = sample[GROUP_PAIRS * g + k].load(Ordering::Relaxed);
        }
        // SAFETY: `bits` is a local `[u64; 4]` = 32 bytes = one 8-lane
        // read, and `LANES * g + LANES <= 2 * sample.len() = src.len()`,
        // so both loads stay in bounds.
        let (ys, xs) = unsafe {
            (
                _mm256_loadu_ps(bits.as_ptr().cast::<f32>()),
                _mm256_loadu_ps(src.as_ptr().add(LANES * g)),
            )
        };
        acc = _mm256_add_ps(acc, _mm256_mul_ps(xs, ys));
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: `lanes` is exactly 8 f32s — the width of one vector store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    let done = GROUP_PAIRS * groups;
    for (i, w) in sample[done..].iter().enumerate() {
        let (y0, y1) = unpack_pair(w.load(Ordering::Relaxed));
        lanes[2 * i] += src[LANES * groups + 2 * i] * y0;
        lanes[2 * i + 1] += src[LANES * groups + 2 * i + 1] * y1;
    }
    hsum8(&lanes)
}

/// The two-sided axpy of [`crate::train_cpu::fused_update`]: store
/// `u + score·x` back into each pair cell and update the staged source
/// with `x + score·u`, pre-update values on both sides.
#[inline]
pub fn update_pairs(src: &mut [f32], sample: &[AtomicU64], score: f32) {
    debug_assert_eq!(src.len(), 2 * sample.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        unsafe { update_pairs_avx2(src, sample, score) };
        return;
    }
    update_pairs_scalar(src, sample, score);
}

/// Scalar core of [`update_pairs`].
#[inline]
pub fn update_pairs_scalar(src: &mut [f32], sample: &[AtomicU64], score: f32) {
    let mut cs = src.chunks_exact_mut(LANES);
    let mut cu = sample.chunks_exact(GROUP_PAIRS);
    for (xs, ws) in (&mut cs).zip(&mut cu) {
        let us = load_group(ws);
        for k in 0..GROUP_PAIRS {
            ws[k].store(
                pack_pair(
                    us[2 * k] + score * xs[2 * k],
                    us[2 * k + 1] + score * xs[2 * k + 1],
                ),
                Ordering::Relaxed,
            );
        }
        for k in 0..LANES {
            xs[k] += score * us[k];
        }
    }
    let xs = cs.into_remainder();
    for (i, w) in cu.remainder().iter().enumerate() {
        let (u0, u1) = unpack_pair(w.load(Ordering::Relaxed));
        w.store(
            pack_pair(u0 + score * xs[2 * i], u1 + score * xs[2 * i + 1]),
            Ordering::Relaxed,
        );
        xs[2 * i] += score * u0;
        xs[2 * i + 1] += score * u1;
    }
}

/// AVX2 path of [`update_pairs`] — same staging-array discipline as
/// [`dot_pairs`]: relaxed loads into `[u64; 4]`, vector math on the
/// reinterpreted lanes, vector store back into the staging array, relaxed
/// stores out. `mul` + `add`, lanewise identical to the scalar core.
///
/// # Safety
/// The CPU must support AVX2 (callers check [`avx2_available`] first),
/// and `src.len()` must be `2 * sample.len()` (the staged-row contract
/// of [`update_pairs`], asserted there).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn update_pairs_avx2(src: &mut [f32], sample: &[AtomicU64], score: f32) {
    use core::arch::x86_64::*;
    let groups = sample.len() / GROUP_PAIRS;
    let sv = _mm256_set1_ps(score);
    for g in 0..groups {
        let mut bits = [0u64; GROUP_PAIRS];
        for k in 0..GROUP_PAIRS {
            bits[k] = sample[GROUP_PAIRS * g + k].load(Ordering::Relaxed);
        }
        // SAFETY: `bits` is a local `[u64; 4]` = 32 bytes = one 8-lane
        // group, and `LANES * g + LANES <= 2 * sample.len() = src.len()`,
        // so the in-place pointer stays in bounds for the load and the
        // store below. No vector access touches the atomics directly —
        // only the staging array.
        let (us, xp, xs) = unsafe {
            let us = _mm256_loadu_ps(bits.as_ptr().cast::<f32>());
            let xp = src.as_mut_ptr().add(LANES * g);
            (us, xp, _mm256_loadu_ps(xp))
        };
        let new_u = _mm256_add_ps(us, _mm256_mul_ps(sv, xs));
        let new_x = _mm256_add_ps(xs, _mm256_mul_ps(sv, us));
        // SAFETY: same bounds as the loads above; `xp` was derived from
        // `src` inside this iteration, and `bits` is still 32 bytes.
        unsafe {
            _mm256_storeu_ps(bits.as_mut_ptr().cast::<f32>(), new_u);
            for k in 0..GROUP_PAIRS {
                sample[GROUP_PAIRS * g + k].store(bits[k], Ordering::Relaxed);
            }
            _mm256_storeu_ps(xp, new_x);
        }
    }
    let done = GROUP_PAIRS * groups;
    let xs = &mut src[LANES * groups..];
    for (i, w) in sample[done..].iter().enumerate() {
        let (u0, u1) = unpack_pair(w.load(Ordering::Relaxed));
        w.store(
            pack_pair(u0 + score * xs[2 * i], u1 + score * xs[2 * i + 1]),
            Ordering::Relaxed,
        );
        xs[2 * i] += score * u0;
        xs[2 * i + 1] += score * u1;
    }
}

/// Unpack an atomic pair row into a staged f32 row (`dst.len() == 2 *
/// pairs.len()`), four cells per iteration so the unpack compiles to
/// straight vector moves.
#[inline]
pub fn load_row_pairs(dst: &mut [f32], pairs: &[AtomicU64]) {
    debug_assert_eq!(dst.len(), 2 * pairs.len());
    let mut cd = dst.chunks_exact_mut(LANES);
    let mut cp = pairs.chunks_exact(GROUP_PAIRS);
    for (slot, ws) in (&mut cd).zip(&mut cp) {
        slot.copy_from_slice(&load_group(ws));
    }
    for (slot, w) in cd.into_remainder().chunks_exact_mut(2).zip(cp.remainder()) {
        let (a0, a1) = unpack_pair(w.load(Ordering::Relaxed));
        slot[0] = a0;
        slot[1] = a1;
    }
}

/// Pack a staged f32 row back into its atomic pair row.
#[inline]
pub fn store_row_pairs(pairs: &[AtomicU64], src: &[f32]) {
    debug_assert_eq!(src.len(), 2 * pairs.len());
    let mut cs = src.chunks_exact(LANES);
    let mut cp = pairs.chunks_exact(GROUP_PAIRS);
    for (slot, ws) in (&mut cs).zip(&mut cp) {
        for k in 0..GROUP_PAIRS {
            ws[k].store(pack_pair(slot[2 * k], slot[2 * k + 1]), Ordering::Relaxed);
        }
    }
    for (slot, w) in cs.remainder().chunks_exact(2).zip(cp.remainder()) {
        w.store(pack_pair(slot[0], slot[1]), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::fast_sigmoid;
    use gosh_graph::rng::Xorshift128Plus;

    fn random_vec(rng: &mut Xorshift128Plus, d: usize) -> Vec<f32> {
        (0..d).map(|_| rng.next_f32() - 0.5).collect()
    }

    fn pairs_from(row: &[f32]) -> Vec<AtomicU64> {
        row.chunks(2)
            .map(|c| AtomicU64::new(pack_pair(c[0], *c.get(1).unwrap_or(&0.0))))
            .collect()
    }

    fn pairs_to_vec(pairs: &[AtomicU64]) -> Vec<f32> {
        let mut out = Vec::with_capacity(2 * pairs.len());
        for p in pairs {
            let (a, b) = unpack_pair(p.load(Ordering::Relaxed));
            out.push(a);
            out.push(b);
        }
        out
    }

    #[test]
    fn dot8_intrinsic_matches_scalar_bitwise() {
        let mut rng = Xorshift128Plus::new(7);
        for d in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 127, 128] {
            let a = random_vec(&mut rng, d);
            let b = random_vec(&mut rng, d);
            assert_eq!(
                dot8(&a, &b).to_bits(),
                dot8_scalar(&a, &b).to_bits(),
                "d={d}"
            );
        }
    }

    #[test]
    fn dot8_is_padding_invariant() {
        // Zero-padding to the paired-lane width must not change the bits:
        // this is what lets the staged (padded) source row and the plain
        // reference row produce identical dots.
        let mut rng = Xorshift128Plus::new(8);
        for d in 1usize..=33 {
            let a = random_vec(&mut rng, d);
            let b = random_vec(&mut rng, d);
            let mut ap = a.clone();
            let mut bp = b.clone();
            ap.resize(2 * d.div_ceil(2), 0.0);
            bp.resize(2 * d.div_ceil(2), 0.0);
            assert_eq!(
                dot8_scalar(&a, &b).to_bits(),
                dot8_scalar(&ap, &bp).to_bits(),
                "d={d}"
            );
        }
    }

    #[test]
    fn dot_pairs_matches_dot8_on_unpacked_row() {
        let mut rng = Xorshift128Plus::new(9);
        for d in [1usize, 2, 5, 7, 8, 9, 16, 23, 31, 32, 128] {
            let padded = 2 * d.div_ceil(2);
            let mut src = random_vec(&mut rng, d);
            src.resize(padded, 0.0);
            let mut smp = random_vec(&mut rng, d);
            smp.resize(padded, 0.0);
            let cells = pairs_from(&smp);
            let expect = dot8_scalar(&src, &smp);
            assert_eq!(dot_pairs(&src, &cells).to_bits(), expect.to_bits(), "d={d}");
            assert_eq!(
                dot_pairs_scalar(&src, &cells).to_bits(),
                expect.to_bits(),
                "d={d} scalar"
            );
        }
    }

    #[test]
    fn update_pairs_intrinsic_matches_scalar_bitwise() {
        let mut rng = Xorshift128Plus::new(10);
        for d in [1usize, 2, 5, 8, 9, 16, 31, 32, 100, 128] {
            let padded = 2 * d.div_ceil(2);
            let mut src_a = random_vec(&mut rng, padded);
            let mut src_b = src_a.clone();
            let smp = random_vec(&mut rng, padded);
            let cells_a = pairs_from(&smp);
            let cells_b = pairs_from(&smp);
            update_pairs(&mut src_a, &cells_a, 0.017);
            update_pairs_scalar(&mut src_b, &cells_b, 0.017);
            assert_eq!(src_a, src_b, "d={d} src");
            assert_eq!(pairs_to_vec(&cells_a), pairs_to_vec(&cells_b), "d={d} smp");
        }
    }

    #[test]
    fn nearest_centroid_matches_the_one_at_a_time_loop() {
        let mut rng = Xorshift128Plus::new(13);
        for dim in [1usize, 3, 8, 16, 17] {
            for nlist in [1usize, 7, 8, 9, 40] {
                let mut centroids = random_vec(&mut rng, nlist * dim);
                // A duplicated centroid: the tie must go to the smaller id.
                centroids.copy_within(..dim, (nlist - 1) * dim);
                let ct = transpose_centroids(&centroids, dim);
                assert_eq!(ct.len(), nlist.div_ceil(LANES) * dim * LANES);
                let mut rows: Vec<Vec<f32>> = (0..6).map(|_| random_vec(&mut rng, dim)).collect();
                rows.push(centroids[..dim].to_vec());
                rows.push(vec![f32::NAN; dim]);
                rows.push(vec![f32::INFINITY; dim]);
                for row in &rows {
                    let want = nearest_centroid_reference(row, &centroids);
                    assert_eq!(nearest_centroid(row, &ct), want, "dim={dim} nlist={nlist}");
                    assert_eq!(nearest_centroid_scalar(row, &ct), want);
                }
                assert_eq!(nearest_centroid(&rows[6], &ct), 0, "tie → smaller id");
                assert_eq!(nearest_centroid(&rows[7], &ct), 0, "NaN row → list 0");
            }
        }
    }

    #[test]
    fn batch_kernels_match_the_one_pair_at_a_time_scores() {
        let mut rng = Xorshift128Plus::new(14);
        for dim in [1usize, 7, 8, 13, 17] {
            for n in [1usize, 7, 8, 9, 17] {
                for nq in [1usize, 8, 9] {
                    let rows = random_vec(&mut rng, n * dim);
                    let mut queries = random_vec(&mut rng, nq * dim);
                    // Signed zeros, NaN and infinities must keep their bits.
                    for (i, special) in [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
                        .into_iter()
                        .enumerate()
                    {
                        let at = (i * 5 + 3) % queries.len();
                        queries[at] = special;
                    }
                    let n8 = n.next_multiple_of(LANES);
                    let chains = QueryLanes::chains(&queries, dim);
                    let dots = QueryLanes::dot8(&queries, dim);
                    let mut out = [
                        vec![0.0f32; chains.width() * n8],
                        vec![0.0f32; dots.width() * n8],
                    ];
                    let mut core = out.clone();
                    chain_lanes(&rows, &chains, &mut out[0]);
                    chain_lanes_scalar(&rows, &chains, &mut core[0]);
                    dot8_rows(&rows, &dots, &mut out[1]);
                    dot8_rows_scalar(&rows, &dots, &mut core[1]);
                    // Bits, except that Rust leaves a NaN result's sign and
                    // payload unspecified.
                    let same =
                        |a: f32, b: f32| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan();
                    for (r, row) in rows.chunks_exact(dim).enumerate() {
                        for (q, y) in queries.chunks_exact(dim).enumerate() {
                            let mut chain = 0.0f32;
                            for (&x, &y) in row.iter().zip(y) {
                                chain += x * y;
                            }
                            let at = q * n8 + r;
                            let case = format!("dim={dim} n={n} nq={nq} row {r} query {q}");
                            assert!(same(out[0][at], chain), "chain {case}");
                            assert!(same(core[0][at], chain), "chain core {case}");
                            let dot = dot8(row, y);
                            assert!(same(out[1][at], dot), "dot8 {case}");
                            assert!(same(core[1][at], dot), "dot8 core {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chain_rows_match_the_one_row_at_a_time_chain() {
        use crate::quant::{f16_bits_to_f32, f32_to_f16_bits};
        let mut rng = Xorshift128Plus::new(15);
        // Block counts 1..=9 end the four-block unroll on every tail.
        for dim in 1usize..=70 {
            for nb in 1usize..=9 {
                let n = nb * LANES;
                let mut q = random_vec(&mut rng, dim);
                q[dim / 2] = -0.0;
                let i8s: Vec<u8> = (0..n * dim).map(|_| rng.next_u64() as u8).collect();
                let mut f16s: Vec<u16> = (0..n * dim)
                    .map(|_| f32_to_f16_bits(4.0 * rng.next_f32() - 2.0))
                    .collect();
                // A subnormal, -0, the largest finite value and +∞.
                for (i, special) in [0x0001, 0x8000, 0x7bff, 0x7c00].into_iter().enumerate() {
                    f16s[(i * 37 + 5) % (n * dim)] = special;
                }
                for blocks in [RowBlocks::F16(&f16s), RowBlocks::I8(&i8s)] {
                    let (name, widen): (_, &dyn Fn(usize) -> f32) = match blocks {
                        RowBlocks::F16(h) => ("f16", &|i| f16_bits_to_f32(h[i])),
                        RowBlocks::I8(c) => ("i8", &|i| c[i] as f32),
                    };
                    let (mut out, mut core) = (vec![0.0f32; n], vec![0.0f32; n]);
                    chain_rows(blocks, &q, &mut out);
                    chain_rows_scalar(blocks, &q, &mut core);
                    for r in 0..n {
                        let mut chain = 0.0f32;
                        for (j, &y) in q.iter().enumerate() {
                            chain += widen(((r / LANES) * dim + j) * LANES + r % LANES) * y;
                        }
                        // Bits, except that Rust leaves a NaN result's sign
                        // and payload unspecified.
                        let same =
                            |a: f32| a.to_bits() == chain.to_bits() || a.is_nan() && chain.is_nan();
                        assert!(same(out[r]), "{name} dim={dim} nb={nb} row {r}");
                        assert!(same(core[r]), "{name} core dim={dim} nb={nb} row {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_axpy8_matches_elementwise_reference() {
        let mut rng = Xorshift128Plus::new(11);
        for d in [1usize, 7, 8, 9, 40] {
            let mut src = random_vec(&mut rng, d);
            let mut smp = random_vec(&mut rng, d);
            let mut src_ref = src.clone();
            let mut smp_ref = smp.clone();
            for k in 0..d {
                let s_old = src_ref[k];
                src_ref[k] += 0.03 * smp_ref[k];
                smp_ref[k] += 0.03 * s_old;
            }
            fused_axpy8(&mut src, &mut smp, 0.03);
            assert_eq!(src, src_ref, "d={d}");
            assert_eq!(smp, smp_ref, "d={d}");
        }
    }

    #[test]
    fn fast_sigmoid8_matches_scalar_including_specials() {
        let mut x = -12.0f32;
        while x <= 12.0 {
            let mut lanes = [0.0f32; LANES];
            for (k, slot) in lanes.iter_mut().enumerate() {
                *slot = x + 0.001 * k as f32;
            }
            let got = fast_sigmoid8(&lanes);
            for k in 0..LANES {
                assert_eq!(
                    got[k].to_bits(),
                    fast_sigmoid(lanes[k]).to_bits(),
                    "x={}",
                    lanes[k]
                );
            }
            x += 0.37;
        }
        let specials = [
            SIGMOID_BOUND,
            -SIGMOID_BOUND,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            0.0,
            -0.0,
        ];
        let got = fast_sigmoid8(&specials);
        for k in 0..LANES {
            assert_eq!(got[k].to_bits(), fast_sigmoid(specials[k]).to_bits());
        }
        let nans = [f32::NAN; LANES];
        assert!(fast_sigmoid8(&nans).iter().all(|y| y.is_nan()));
    }

    #[test]
    fn row_pairs_round_trip_preserves_bits() {
        let mut rng = Xorshift128Plus::new(12);
        for pairs_len in [1usize, 3, 4, 5, 8, 64] {
            let row = random_vec(&mut rng, 2 * pairs_len);
            let cells = pairs_from(&row);
            let mut staged = vec![0.0f32; 2 * pairs_len];
            load_row_pairs(&mut staged, &cells);
            assert_eq!(staged, row);
            let zero: Vec<AtomicU64> = (0..pairs_len).map(|_| AtomicU64::new(0)).collect();
            store_row_pairs(&zero, &staged);
            assert_eq!(pairs_to_vec(&zero), row);
        }
    }
}
