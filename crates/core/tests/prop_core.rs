//! Property-based tests for the training core: the Algorithm 1 update,
//! the epoch schedule, embedding expansion, and the large-graph path's
//! host-side machinery (sample pools, Belady eviction).

use std::sync::atomic::{AtomicU64, Ordering};

use gosh_coarsen::mapping::Mapping;
use gosh_core::expand::expand_embedding;
use gosh_core::large::pools::NO_SAMPLE;
use gosh_core::large::{farthest_future_victim, generate_pool, inside_out_pairs, Partition};
use gosh_core::model::{pack_pair, unpack_pair, Embedding};
use gosh_core::quant::{
    decode_i8, encode_i8, f16_bits_to_f32, f32_to_f16_bits, i8_scale, le_word, put_le_word,
    quantize_roundtrip, Precision, RowScale,
};
use gosh_core::schedule::{decayed_lr, epoch_distribution};
use gosh_core::simd::{
    chain_lanes, chain_lanes_scalar, dot8, dot8_rows, dot8_rows_scalar, dot8_scalar, dot_pairs,
    dot_pairs_scalar, nearest_centroid, nearest_centroid_scalar, transpose_centroids, update_pairs,
    update_pairs_scalar, QueryLanes,
};
use gosh_core::update::update_embedding;
use gosh_graph::builder::csr_from_edges;
use proptest::prelude::*;

/// A random graph plus a partition of its vertices.
fn graph_and_partition() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, usize)> {
    (8usize..120).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..600);
        let parts = 2usize..=n.min(9);
        (Just(n), edges, parts)
    })
}

fn row(d: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1.0f32..1.0, d..=d)
}

/// Rows of every length around the 8-lane boundaries (1..=40 covers
/// sub-lane, exact-group, and ragged-remainder shapes), values spanning
/// several orders of magnitude so accumulation order actually matters.
fn ragged_row() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..=40)
}

/// Pack an f32 slice (even length) into SharedMatrix pair cells.
fn to_pairs(xs: &[f32]) -> Vec<AtomicU64> {
    xs.chunks(2)
        .map(|p| AtomicU64::new(pack_pair(p[0], p[1])))
        .collect()
}

proptest! {
    #[test]
    fn positive_updates_never_decrease_similarity(
        mut src in row(8),
        mut sam in row(8),
        lr in 0.001f32..0.2,
    ) {
        let before: f32 = src.iter().zip(&sam).map(|(a, b)| a * b).sum();
        update_embedding(&mut src, &mut sam, 1.0, lr);
        let after: f32 = src.iter().zip(&sam).map(|(a, b)| a * b).sum();
        // σ(x) < 1 always, so a positive update moves dot upward (up to
        // second-order effects bounded by lr²; allow tiny slack).
        prop_assert!(after >= before - lr * lr, "{before} -> {after}");
    }

    #[test]
    fn negative_updates_never_increase_similarity(
        mut src in row(8),
        mut sam in row(8),
        lr in 0.001f32..0.2,
    ) {
        let before: f32 = src.iter().zip(&sam).map(|(a, b)| a * b).sum();
        update_embedding(&mut src, &mut sam, 0.0, lr);
        let after: f32 = src.iter().zip(&sam).map(|(a, b)| a * b).sum();
        prop_assert!(after <= before + lr * lr, "{before} -> {after}");
    }

    #[test]
    fn updates_keep_values_finite(
        mut src in row(16),
        mut sam in row(16),
        b in prop::bool::ANY,
        lr in 0.0f32..1.0,
    ) {
        update_embedding(&mut src, &mut sam, if b { 1.0 } else { 0.0 }, lr);
        prop_assert!(src.iter().chain(&sam).all(|x| x.is_finite()));
    }

    #[test]
    fn epoch_distribution_conserves_budget(
        e in 50u32..5000,
        p in 0.0f64..=1.0,
        levels in 1usize..12,
    ) {
        let dist = epoch_distribution(e, p, levels);
        prop_assert_eq!(dist.len(), levels);
        prop_assert!(dist.iter().all(|&x| x >= 1));
        let total: u32 = dist.iter().sum();
        // Rounding each level can drift by at most half an epoch per level.
        let slack = levels as u32 + 1;
        prop_assert!(total >= e.saturating_sub(slack) && total <= e + slack,
            "total {} vs budget {}", total, e);
    }

    #[test]
    fn epoch_distribution_is_monotone_toward_coarse(
        e in 100u32..5000,
        p in 0.0f64..0.99,
        levels in 2usize..10,
    ) {
        let dist = epoch_distribution(e, p, levels);
        for w in dist.windows(2) {
            prop_assert!(w[1] >= w[0], "{:?}", dist);
        }
    }

    #[test]
    fn lr_decay_is_monotone_and_floored(lr in 0.001f32..0.5, e in 1u32..1000) {
        let mut prev = f32::INFINITY;
        for j in 0..=e {
            let cur = decayed_lr(lr, j, e);
            prop_assert!(cur > 0.0);
            prop_assert!(cur <= prev);
            prev = cur;
        }
        prop_assert!(decayed_lr(lr, e, e) >= lr * 1e-4 * 0.99);
    }

    #[test]
    fn expansion_preserves_rows(
        k in 1usize..10,
        d in 1usize..8,
        assignment in prop::collection::vec(0usize..10, 1..50),
    ) {
        let coarse = Embedding::random(k, d, 11);
        let map: Vec<u32> = assignment.iter().map(|&a| (a % k) as u32).collect();
        let mapping = Mapping::new(map.clone(), k);
        let fine = expand_embedding(&coarse, &mapping);
        prop_assert_eq!(fine.num_vertices(), map.len());
        for (v, &c) in map.iter().enumerate() {
            prop_assert_eq!(fine.row(v as u32), coarse.row(c));
        }
    }

    #[test]
    fn pool_targets_live_in_counterpart_or_sentinel(
        (n, edges, k) in graph_and_partition(),
        b in 1usize..7,
        seed in 0u64..1000,
    ) {
        // Every pool entry is either NO_SAMPLE or a *neighbour of its
        // source* inside the counterpart part — across random graphs,
        // partitions, pairs, and batch sizes.
        let g = csr_from_edges(n, &edges);
        let p = Partition::new(n, k);
        for &pair in inside_out_pairs(k).iter() {
            let pool = generate_pool(&g, &p, pair, b, 2, seed);
            let (a, bb) = pair;
            prop_assert_eq!(pool.fwd.len(), p.len(a) * b);
            let range_a = p.range(a);
            let range_b = p.range(bb);
            for (i, chunk) in pool.fwd.chunks(b).enumerate() {
                let v = range_a.start + i as u32;
                for &t in chunk {
                    if t != NO_SAMPLE {
                        prop_assert!(range_b.contains(&t),
                            "fwd target {} of {} outside part {}", t, v, bb);
                        prop_assert!(g.has_edge(v, t), "({},{}) not an edge", v, t);
                    }
                }
            }
            if a == bb {
                prop_assert!(pool.rev.is_empty());
            } else {
                prop_assert_eq!(pool.rev.len(), p.len(bb) * b);
                for (i, chunk) in pool.rev.chunks(b).enumerate() {
                    let v = range_b.start + i as u32;
                    for &t in chunk {
                        if t != NO_SAMPLE {
                            prop_assert!(range_a.contains(&t),
                                "rev target {} of {} outside part {}", t, v, a);
                            prop_assert!(g.has_edge(v, t), "({},{}) not an edge", v, t);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pools_are_identical_for_fixed_seed_across_thread_counts(
        (n, edges, k) in graph_and_partition(),
        b in 1usize..7,
        seed in 0u64..1000,
        t1 in 1usize..9,
        t2 in 1usize..9,
    ) {
        // Chunk-seeded RNG: the pool bytes depend on the seed only,
        // never on which worker claimed which chunk.
        let g = csr_from_edges(n, &edges);
        let p = Partition::new(n, k);
        let pair = *inside_out_pairs(k).last().unwrap();
        let x = generate_pool(&g, &p, pair, b, t1, seed);
        let y = generate_pool(&g, &p, pair, b, t2, seed);
        prop_assert_eq!(x.fwd, y.fwd);
        prop_assert_eq!(x.rev, y.rev);
    }

    #[test]
    fn belady_victim_matches_brute_force_oracle(
        held in prop::collection::vec(0usize..12, 2..6),
        future_raw in prop::collection::vec((0usize..12, 0usize..12), 0..40),
        pinned in prop::collection::vec(0usize..12, 0..3),
    ) {
        // The eviction choice in ensure_resident: among unpinned bins,
        // the held part whose next use is farthest away (never = ∞),
        // ties to the lowest bin. Checked against a direct re-derivation.
        let holds: Vec<Option<usize>> = held.iter().copied().map(Some).collect();
        let future: Vec<(usize, usize)> =
            future_raw.iter().map(|&(a, b)| (a.max(b), a.min(b))).collect();
        let oracle = held
            .iter()
            .enumerate()
            .filter(|(_, p)| !pinned.contains(p))
            .map(|(bin, &p)| {
                let dist = future
                    .iter()
                    .position(|&(x, y)| x == p || y == p)
                    .unwrap_or(usize::MAX);
                (bin, dist)
            })
            // max_by_key returns the *last* max; the planner takes the
            // first, so compare with strict greater-than by hand.
            .fold(None::<(usize, usize)>, |best, (bin, dist)| match best {
                Some((_, bd)) if dist <= bd => best,
                _ => Some((bin, dist)),
            })
            .map(|(bin, _)| bin);
        let got = farthest_future_victim(&holds, &pinned, &future);
        prop_assert_eq!(got, oracle, "holds {:?} pinned {:?}", held, pinned);
    }
}

// ---------------------------------------------------------------------------
// SIMD dispatch vs scalar core — the bit-parity contract of `gosh_core::simd`
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn dot8_dispatch_matches_scalar_core_bitwise(
        a in ragged_row(),
        b in ragged_row(),
    ) {
        // The runtime-dispatched path (AVX2 where detected) must produce
        // the *bits* of the scalar lane-group reference for every row
        // length — sub-lane, full groups, ragged remainders.
        let n = a.len().min(b.len());
        let x = dot8(&a[..n], &b[..n]);
        let y = dot8_scalar(&a[..n], &b[..n]);
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y} at n={n}");
    }

    #[test]
    fn pair_kernels_dispatch_matches_scalar_core_bitwise(
        vals in prop::collection::vec(-100.0f32..100.0, 1..=40),
        sam in prop::collection::vec(-100.0f32..100.0, 1..=40),
        score in -0.2f32..0.2,
    ) {
        // Staged-source-vs-atomic-pair-row kernels, the fused_update hot
        // loop: dot and the two-sided axpy, dispatch vs scalar, across
        // unaligned dims (odd d gets a zero pad lane like train_cpu does).
        let d = vals.len().min(sam.len());
        let pairs = d.div_ceil(2);
        let mut src = vals[..d].to_vec();
        src.resize(2 * pairs, 0.0);
        let mut padded_sam = sam[..d].to_vec();
        padded_sam.resize(2 * pairs, 0.0);

        let cells_a = to_pairs(&padded_sam);
        let cells_b = to_pairs(&padded_sam);
        let da = dot_pairs(&src, &cells_a);
        let db = dot_pairs_scalar(&src, &cells_b);
        prop_assert_eq!(da.to_bits(), db.to_bits(), "dot {da} vs {db} at d={d}");

        let mut src_a = src.clone();
        let mut src_b = src.clone();
        update_pairs(&mut src_a, &cells_a, score);
        update_pairs_scalar(&mut src_b, &cells_b, score);
        for (k, (x, y)) in src_a.iter().zip(&src_b).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "src lane {k} at d={d}");
        }
        for (k, (wa, wb)) in cells_a.iter().zip(&cells_b).enumerate() {
            prop_assert_eq!(
                wa.load(Ordering::Relaxed),
                wb.load(Ordering::Relaxed),
                "sample cell {} at d={}", k, d
            );
        }
    }

    #[test]
    fn nearest_centroid_dispatch_matches_core_and_the_scalar_loop(
        (dim, nlist, vals, rows) in (1usize..=70, 1usize..=40).prop_flat_map(|(dim, nlist)| (
            Just(dim),
            Just(nlist),
            prop::collection::vec(-100.0f32..100.0, nlist * dim..=nlist * dim),
            prop::collection::vec(-100.0f32..100.0, 4 * dim..=4 * dim),
        )),
        dup in 0usize..40,
    ) {
        // The lane-per-centroid kernel (AVX2 where detected), its chunked
        // core, and the one-centroid-at-a-time loop it replaced must pick
        // the same list for every row: ragged dims, ragged last lane
        // block, a duplicated centroid (tie → smaller id), a row sitting
        // on that centroid, and an all-NaN row (→ list 0).
        let mut centroids = vals;
        let from = dup % nlist * dim;
        centroids.copy_within(from..from + dim, (nlist - 1) * dim);
        let ct = transpose_centroids(&centroids, dim);
        let mut rows: Vec<Vec<f32>> = rows.chunks_exact(dim).map(<[f32]>::to_vec).collect();
        rows.push(centroids[from..from + dim].to_vec());
        rows.push(vec![f32::NAN; dim]);
        for row in &rows {
            let mut want = 0u32;
            let mut want_d2 = f32::INFINITY;
            for (c, cen) in centroids.chunks_exact(dim).enumerate() {
                let mut d2 = 0.0f32;
                for (&x, &y) in row.iter().zip(cen) {
                    let d = x - y;
                    d2 += d * d;
                }
                if d2 < want_d2 {
                    want_d2 = d2;
                    want = c as u32;
                }
            }
            prop_assert_eq!(nearest_centroid(row, &ct), want, "dim={} nlist={}", dim, nlist);
            prop_assert_eq!(nearest_centroid_scalar(row, &ct), want, "dim={} nlist={}", dim, nlist);
        }
        prop_assert_eq!(nearest_centroid(&rows[4], &ct) as usize, dup % nlist);
        prop_assert_eq!(nearest_centroid(&rows[5], &ct), 0);
    }

    #[test]
    fn batch_kernels_dispatch_matches_core_and_the_one_pair_scores(
        (dim, rows, queries) in (1usize..=70, 1usize..=20, 1usize..=40).prop_flat_map(|(dim, n, nq)| (
            Just(dim),
            prop::collection::vec(-100.0f32..100.0, n * dim..=n * dim),
            prop::collection::vec((0u8..16, -100.0f32..100.0), nq * dim..=nq * dim),
        )),
    ) {
        // The batch kernels (AVX2 where detected), their scalar cores, and
        // one (row, query) pair at a time — `dot8`, and the serial chain of
        // the f16/i8 `EmbeddingStore::dot` arms — agree on every score:
        // ragged dims, ragged row and query lane groups, and query entries
        // of -0.0, NaN and ±∞. A NaN matches any NaN: Rust leaves a NaN
        // result's sign and payload unspecified.
        let queries: Vec<f32> = queries
            .into_iter()
            .map(|(pick, x)| match pick {
                0 => -0.0,
                1 => f32::NAN,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                _ => x,
            })
            .collect();
        let n8 = (rows.len() / dim).next_multiple_of(8);
        let chains = QueryLanes::chains(&queries, dim);
        let dots = QueryLanes::dot8(&queries, dim);
        let mut out = [vec![0.0f32; chains.width() * n8], vec![0.0f32; dots.width() * n8]];
        let mut core = out.clone();
        chain_lanes(&rows, &chains, &mut out[0]);
        chain_lanes_scalar(&rows, &chains, &mut core[0]);
        dot8_rows(&rows, &dots, &mut out[1]);
        dot8_rows_scalar(&rows, &dots, &mut core[1]);
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan();
        for (r, row) in rows.chunks_exact(dim).enumerate() {
            for (q, y) in queries.chunks_exact(dim).enumerate() {
                let mut chain = 0.0f32;
                for (&x, &y) in row.iter().zip(y) {
                    chain += x * y;
                }
                let dot = dot8(row, y);
                let at = q * n8 + r;
                prop_assert!(same(out[0][at], chain), "chain: row {} query {} dim {}", r, q, dim);
                prop_assert!(same(core[0][at], chain), "chain core: row {} query {}", r, q);
                prop_assert!(same(out[1][at], dot), "dot8: row {} query {} dim {}", r, q, dim);
                prop_assert!(same(core[1][at], dot), "dot8 core: row {} query {}", r, q);
            }
        }
    }

    #[test]
    fn zero_padding_to_lane_width_is_invisible(
        vals in prop::collection::vec(-50.0f32..50.0, 1..=24),
    ) {
        // The staged-row trick train_cpu relies on: padding a row with
        // zeros up to the paired-lane width must not change the dot bits
        // (remainder elements land in lanes 0..r, zeros add nothing).
        let mut padded = vals.clone();
        padded.resize(vals.len().next_multiple_of(8), 0.0);
        let x = dot8(&vals, &vals);
        let y = dot8(&padded, &padded);
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
}

// ---------------------------------------------------------------------------
// Quantized storage round trips — `gosh_core::quant`
// ---------------------------------------------------------------------------

/// One row through the i8 codec: its scale, its codes, its decode.
fn i8_trip(row: &[f32]) -> (RowScale, Vec<u8>, Vec<f32>) {
    let (rs, inv) = i8_scale(row);
    let mut codes = vec![0u8; row.len()];
    encode_i8(row, rs.zero, inv, |i, w| put_le_word(&mut codes, i, w));
    let mut out = vec![0f32; row.len()];
    decode_i8(|i| le_word(&codes, i), rs, &mut out);
    (rs, codes, out)
}

proptest! {
    #[test]
    fn i8_quantization_is_monotone_with_exact_zero_point(
        vals in prop::collection::vec(-1000.0f32..1000.0, 1..=64),
    ) {
        let (rs, codes, out) = i8_trip(&vals);
        prop_assert!(rs.scale.is_finite() && rs.scale >= 0.0);
        prop_assert!(rs.zero.is_finite());

        // Monotone: larger value never gets a smaller code.
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                if vals[i] <= vals[j] {
                    prop_assert!(codes[i] <= codes[j],
                        "x[{}]={} <= x[{}]={} but codes {} > {}",
                        i, vals[i], j, vals[j], codes[i], codes[j]);
                }
            }
        }

        let lo = vals.iter().copied().fold(f32::INFINITY, f32::min);
        for (k, (&y, &x)) in out.iter().zip(&vals).enumerate() {
            prop_assert!(y.is_finite(), "lane {k} decoded non-finite");
            // Zero-point: the row minimum decodes exactly.
            if x == lo {
                prop_assert_eq!(y, x, "min lane {} decoded {} != {}", k, y, x);
            }
            // Nearest-code decode error is half a step plus f32 rounding.
            let tol = rs.scale * 0.5 + lo.abs().max(x.abs()) * 1e-5 + 1e-6;
            prop_assert!((y - x).abs() <= tol, "lane {k}: {y} vs {x} (tol {tol})");
        }
    }

    #[test]
    fn i8_quantization_never_leaks_non_finite(
        raw in prop::collection::vec((0u8..7, -1e30f32..1e30), 1..=32),
    ) {
        // Selectors 4..6 inject NaN/±Inf among ordinary magnitudes.
        let vals: Vec<f32> = raw
            .iter()
            .map(|&(sel, x)| match sel {
                4 => f32::NAN,
                5 => f32::INFINITY,
                6 => f32::NEG_INFINITY,
                _ => x,
            })
            .collect();
        // Rows contaminated with NaN/Inf must still produce finite decode
        // parameters and finite decoded lanes — a poisoned vertex cannot
        // poison the whole shared matrix through its scale pair.
        let (rs, _, out) = i8_trip(&vals);
        prop_assert!(rs.scale.is_finite() && rs.zero.is_finite());
        prop_assert!(out.iter().all(|y| y.is_finite()), "{out:?}");
    }

    #[test]
    fn f16_roundtrip_is_accurate_and_idempotent(
        x in -60000.0f32..60000.0,
    ) {
        let y = f16_bits_to_f32(f32_to_f16_bits(x));
        // RNE to 11 significand bits: relative error ≤ 2^-11 in the
        // normal range, absolute ≤ half the subnormal step below it.
        let tol = (x.abs() * (1.0 / 2048.0)).max(2.0f32.powi(-25));
        prop_assert!((y - x).abs() <= tol, "{x} -> {y}");
        // A second trip is the identity: stores of already-f16 values
        // must not drift.
        let z = f16_bits_to_f32(f32_to_f16_bits(y));
        prop_assert_eq!(z.to_bits(), y.to_bits());
    }

    #[test]
    fn quantize_roundtrip_is_stable(
        rows in 1usize..6,
        d in 1usize..20,
        seed in 0u64..500,
    ) {
        // Repeated quantize∘dequantize must not drift: f16 is exactly
        // idempotent (every decoded value is an f16 value), and i8 — whose
        // second pass re-derives the scale from decoded endpoints, shifting
        // it by an ulp — moves values by at most a few ulps of the row
        // range, orders of magnitude below one quantization step.
        let m = Embedding::random(rows, d, seed);
        for precision in [Precision::F16, Precision::I8] {
            let mut once = m.as_slice().to_vec();
            quantize_roundtrip(&mut once, d, precision);
            prop_assert!(once.iter().all(|x| x.is_finite()));
            let mut twice = once.clone();
            quantize_roundtrip(&mut twice, d, precision);
            if precision == Precision::F16 {
                let same = once.iter().zip(&twice).all(|(a, b)| a.to_bits() == b.to_bits());
                prop_assert!(same, "f16 roundtrip not idempotent");
            } else {
                for (row_a, row_b) in once.chunks(d).zip(twice.chunks(d)) {
                    let lo = row_a.iter().copied().fold(f32::INFINITY, f32::min);
                    let hi = row_a.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let tol = (hi - lo) * 1e-6 + 1e-12;
                    for (a, b) in row_a.iter().zip(row_b) {
                        prop_assert!((a - b).abs() <= tol, "i8 drift {a} -> {b} (tol {tol})");
                    }
                }
            }
        }
    }

    #[test]
    fn pack_pair_roundtrips_bits(a in 0u32..=u32::MAX, b in 0u32..=u32::MAX) {
        // Every bit pattern, NaN payloads and infinities included.
        let (x, y) = unpack_pair(pack_pair(f32::from_bits(a), f32::from_bits(b)));
        prop_assert_eq!(x.to_bits(), a);
        prop_assert_eq!(y.to_bits(), b);
    }
}
