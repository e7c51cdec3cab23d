//! The 8-lane dot-product order of Algorithm 1.
//!
//! Every dot product a trainer feeds to the sigmoid — the device's
//! [`crate::warp::Warp::dot_rows`] and the CPU trainer's
//! `gosh_core::simd` paths — sums products into eight lane
//! accumulators and closes them with one fixed tree, so both engines
//! compute the same bits. The order lives here, below both, and exists
//! once; `gosh_core::simd` re-exports it and mirrors it in its AVX2
//! paths.

/// Lane width of the trainer's vector operations.
pub const LANES: usize = 8;

/// The fixed horizontal-sum tree shared by every dot-product path.
///
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` — changing this order changes
/// the bits of every trained embedding, so it exists exactly once.
#[inline(always)]
pub fn hsum8(lanes: &[f32; LANES]) -> f32 {
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
}

/// 8-lane dot product, the scalar core: chunked lane groups the
/// autovectorizer turns into `mulps`/`addps`, remainder elements into
/// lanes `0..r`, then [`hsum8`].
#[inline]
pub fn dot8_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        for k in 0..LANES {
            acc[k] += xs[k] * ys[k];
        }
    }
    for (k, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[k] += x * y;
    }
    hsum8(&acc)
}
