//! The embedding update — Algorithm 1.
//!
//! `score = (b − σ(M[v] · M[sample])) · lr`, then both rows move along each
//! other scaled by `score`. As printed, the paper's line 3 would update the
//! sample with the *already updated* source row; the released GOSH CUDA
//! code (and VERSE before it) uses the pre-update rows for both sides, and
//! we follow the code (see DESIGN.md §6). [`update_embedding_literal`]
//! implements the printed order for comparison.

use std::sync::OnceLock;

/// Table resolution for [`fast_sigmoid`] (513 knots over `[-8, 8]`).
pub(crate) const SIGMOID_TABLE: usize = 512;
/// Saturation bound: `σ(±8)` is within `3.4e-4` of `1`/`0`.
pub(crate) const SIGMOID_BOUND: f32 = 8.0;

pub(crate) fn sigmoid_table() -> &'static [f32; SIGMOID_TABLE + 1] {
    static TABLE: OnceLock<[f32; SIGMOID_TABLE + 1]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0f32; SIGMOID_TABLE + 1];
        for (i, slot) in t.iter_mut().enumerate() {
            let x = -SIGMOID_BOUND + 2.0 * SIGMOID_BOUND * i as f32 / SIGMOID_TABLE as f32;
            *slot = gosh_gpu::warp::sigmoid(x);
        }
        t
    })
}

/// Sigmoid via a 2 KB interpolated lookup table — the word2vec/VERSE
/// trick the paper's CPU lineage uses. `exp` costs ~20 ns per call and
/// sits on the critical path of *every* update; the table with linear
/// interpolation is a few cycles at ~1e-5 absolute error inside the
/// bound (3.4e-4 worst case at the ±8 clamp), far below Hogwild race
/// noise. This is the one sigmoid of every trainer, CPU and device; the
/// exact [`gosh_gpu::warp::sigmoid`] only seeds the table.
#[inline]
pub fn fast_sigmoid(x: f32) -> f32 {
    if x >= SIGMOID_BOUND {
        return 1.0;
    }
    if x <= -SIGMOID_BOUND {
        return 0.0;
    }
    let t = (x + SIGMOID_BOUND) * (SIGMOID_TABLE as f32 / (2.0 * SIGMOID_BOUND));
    // Clamp the knot index: for x just below the bound, `x + 8.0` can
    // round up to exactly 16.0, which would index one past the table.
    let i = (t as usize).min(SIGMOID_TABLE - 1);
    let frac = t - i as f32;
    let tab = sigmoid_table();
    tab[i] + (tab[i + 1] - tab[i]) * frac
}

/// One logistic update between a source row and a sample row, using
/// pre-update values on both sides (the reference-code semantics).
///
/// `b` is 1.0 for a positive sample (drawn from the similarity
/// distribution Q) and 0.0 for a negative one (drawn from the noise
/// distribution), `lr` the current learning rate.
#[inline]
pub fn update_embedding(src: &mut [f32], sample: &mut [f32], b: f32, lr: f32) {
    debug_assert_eq!(src.len(), sample.len());
    let dot = crate::simd::dot8(src, sample);
    let score = (b - fast_sigmoid(dot)) * lr;
    crate::simd::fused_axpy8(src, sample, score);
}

/// Algorithm 1 exactly as printed: the sample update reads the already
/// updated source row. Kept for the ablation test below and for anyone
/// comparing against the paper text.
#[inline]
pub fn update_embedding_literal(src: &mut [f32], sample: &mut [f32], b: f32, lr: f32) {
    debug_assert_eq!(src.len(), sample.len());
    let dot = crate::simd::dot8(src, sample);
    let score = (b - fast_sigmoid(dot)) * lr;
    for (s, m) in src.iter_mut().zip(sample.iter_mut()) {
        *s += score * *m;
        *m += score * *s; // note: *s is the new value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn fast_sigmoid_tracks_exact_sigmoid() {
        let mut x = -12.0f32;
        while x <= 12.0 {
            let exact = gosh_gpu::warp::sigmoid(x);
            let fast = fast_sigmoid(x);
            assert!(
                (exact - fast).abs() < 3.5e-4,
                "x={x}: exact {exact} vs fast {fast}"
            );
            x += 0.013;
        }
        assert_eq!(fast_sigmoid(100.0), 1.0);
        assert_eq!(fast_sigmoid(-100.0), 0.0);
        // Regression: the largest f32 below the bound rounds `x + 8.0`
        // up to exactly 16.0 — must not index past the table.
        let just_below = f32::from_bits(8.0f32.to_bits() - 1);
        assert!(just_below < 8.0);
        let y = fast_sigmoid(just_below);
        assert!((y - 1.0).abs() < 1e-3, "{y}");
        let just_above_neg = f32::from_bits((-8.0f32).to_bits() - 1);
        assert!(fast_sigmoid(just_above_neg) < 1e-3);
    }

    #[test]
    fn fast_sigmoid_clamp_boundaries_are_pinned() {
        // The clamp must fire *inclusively* at the bound: σ is monotone, so
        // any future lanewise rewrite that turned `>=` into `>` (or routed
        // the bound through the table) would show up here.
        assert_eq!(fast_sigmoid(SIGMOID_BOUND), 1.0);
        assert_eq!(fast_sigmoid(-SIGMOID_BOUND), 0.0);
        // Beyond the bound: hard saturation, no table access.
        assert_eq!(fast_sigmoid(SIGMOID_BOUND + 1.0), 1.0);
        assert_eq!(fast_sigmoid(-SIGMOID_BOUND - 1.0), 0.0);
        assert_eq!(fast_sigmoid(f32::MAX), 1.0);
        assert_eq!(fast_sigmoid(f32::MIN), 0.0);
        assert_eq!(fast_sigmoid(f32::INFINITY), 1.0);
        assert_eq!(fast_sigmoid(f32::NEG_INFINITY), 0.0);
        // NaN fails both clamp comparisons and falls through to the table
        // path, where the interpolation propagates it. That propagation is
        // load-bearing: a poisoned dot must not silently become a valid
        // probability.
        assert!(fast_sigmoid(f32::NAN).is_nan());
        // Just inside the bound the table path must stay saturated and
        // in-range (the `min` clamp on the knot index).
        let just_below = f32::from_bits(SIGMOID_BOUND.to_bits() - 1);
        let y = fast_sigmoid(just_below);
        assert!(y > 0.999 && y <= 1.0, "{y}");
        let just_above = f32::from_bits((-SIGMOID_BOUND).to_bits() - 1);
        let z = fast_sigmoid(just_above);
        assert!((0.0..1e-3).contains(&z), "{z}");
    }

    #[test]
    fn dot8_matches_naive_dot_for_all_remainders() {
        for d in 1..=18usize {
            let a: Vec<f32> = (0..d).map(|i| 0.1 * i as f32 - 0.4).collect();
            let b: Vec<f32> = (0..d).map(|i| 0.03 * i as f32 + 0.2).collect();
            let naive = dot(&a, &b);
            let lanes = crate::simd::dot8(&a, &b);
            assert!((naive - lanes).abs() < 1e-5, "d={d}: {naive} vs {lanes}");
        }
    }

    #[test]
    fn positive_update_pulls_rows_together() {
        let mut src = vec![0.1, -0.2, 0.3];
        let mut sam = vec![-0.1, 0.2, 0.1];
        let before = dot(&src, &sam);
        update_embedding(&mut src, &mut sam, 1.0, 0.1);
        let after = dot(&src, &sam);
        assert!(after > before, "{after} <= {before}");
    }

    #[test]
    fn negative_update_pushes_rows_apart() {
        let mut src = vec![0.1, 0.2, 0.3];
        let mut sam = vec![0.1, 0.2, 0.1];
        let before = dot(&src, &sam);
        update_embedding(&mut src, &mut sam, 0.0, 0.1);
        let after = dot(&src, &sam);
        assert!(after < before, "{after} >= {before}");
    }

    #[test]
    fn zero_lr_is_identity() {
        let mut src = vec![0.5, -0.5];
        let mut sam = vec![0.25, 0.75];
        let (s0, m0) = (src.clone(), sam.clone());
        update_embedding(&mut src, &mut sam, 1.0, 0.0);
        assert_eq!(src, s0);
        assert_eq!(sam, m0);
    }

    #[test]
    fn update_is_symmetric_in_magnitude() {
        // With equal rows, both sides must receive the same delta.
        let mut src = vec![0.3, 0.3];
        let mut sam = vec![0.3, 0.3];
        update_embedding(&mut src, &mut sam, 1.0, 0.05);
        assert_eq!(src, sam);
    }

    #[test]
    fn saturated_positive_barely_moves() {
        // σ(dot) ≈ 1 ⇒ score ≈ 0 for b = 1.
        let mut src = vec![10.0, 10.0];
        let mut sam = vec![10.0, 10.0];
        let before = src.clone();
        update_embedding(&mut src, &mut sam, 1.0, 0.1);
        for (a, b) in src.iter().zip(&before) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn literal_variant_differs_second_order() {
        let mut s1 = vec![0.1, 0.2];
        let mut m1 = vec![0.3, 0.4];
        let mut s2 = s1.clone();
        let mut m2 = m1.clone();
        update_embedding(&mut s1, &mut m1, 1.0, 0.5);
        update_embedding_literal(&mut s2, &mut m2, 1.0, 0.5);
        // Source rows agree exactly; sample rows differ by O(score²).
        assert_eq!(s1, s2);
        assert_ne!(m1, m2);
        for (a, b) in m1.iter().zip(&m2) {
            assert!((a - b).abs() < 0.1);
        }
    }

    #[test]
    fn repeated_positive_updates_converge_to_agreement() {
        let mut src = vec![0.01, -0.02, 0.005, 0.01];
        let mut sam = vec![-0.01, 0.03, -0.02, 0.0];
        for _ in 0..2000 {
            update_embedding(&mut src, &mut sam, 1.0, 0.05);
        }
        let d = dot(&src, &sam);
        assert!(
            gosh_gpu::warp::sigmoid(d) > 0.9,
            "σ(dot) = {}",
            gosh_gpu::warp::sigmoid(d)
        );
    }
}
