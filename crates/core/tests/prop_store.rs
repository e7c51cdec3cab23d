//! Fuzz-style property tests for the `.embin` reader: the file is
//! untrusted input, so *no* byte-level damage — truncation, bit flips,
//! arbitrary garbage — may ever panic, allocate toward a forged size, or
//! open successfully while inconsistent. Every header byte is covered by
//! a validation rule and the payload by the checksum, so any single-bit
//! flip of a valid store must be rejected, not just "usually caught".
//!
//! The text `.emb` writer's coordinate formatter is pinned here too: its
//! bytes equal `format!("{x:.6}")` for every kind of f32 it can meet. So
//! is the one row codec: an f16 or i8 row decodes to the same bits in
//! every container that holds it.

use std::io::Write;

use gosh_core::model::Embedding;
use gosh_core::quant::{quantize_roundtrip, Precision, QuantizedMatrix};
use gosh_core::serve::search_exact;
use gosh_core::store::{
    push_coord, write_store, EmbeddingStore, EMBIN_HEADER_BYTES, EMBIN_MAGIC, MAX_DIM,
};
use gosh_runtime::TempDir;
use proptest::prelude::*;

/// `push_coord(x)` equals `format!("{x:.6}")`, byte for byte.
fn check_coord(x: f32) {
    let mut got = Vec::new();
    push_coord(&mut got, x);
    assert_eq!(
        String::from_utf8(got).unwrap(),
        format!("{x:.6}"),
        "bits {:#010x}",
        x.to_bits()
    );
}

/// `x`, `-x` and the ±1-ulp neighbours of both.
fn check_with_neighbours(x: f32) {
    for y in [x, -x] {
        for ulp in [-1, 0, 1] {
            check_coord(f32::from_bits(y.to_bits().wrapping_add_signed(ulp)));
        }
    }
}

/// The f32 nearest the 6-decimal halfway point `(k + ½)·10⁻⁶`.
fn halfway(k: u64) -> f32 {
    ((k as f64 + 0.5) * 1e-6) as f32
}

#[test]
fn coord_matches_format_at_every_small_halfway_point() {
    for k in 0..200_000 {
        check_with_neighbours(halfway(k));
    }
}

/// Odd multiples of 2⁻⁷ are the f32s exactly halfway between two
/// 6-decimal values (`t/128` has 7 decimals ending in 5), so they pin
/// ties-to-even rather than the approach to a tie.
#[test]
fn coord_matches_format_on_exact_ties() {
    for t in (1..1 << 18).step_by(2) {
        check_with_neighbours(t as f32 / 128.0);
    }
}

#[test]
fn coord_matches_format_on_zeros_and_non_finite_values() {
    for x in [
        0.0,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN,
    ] {
        check_coord(x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn coord_matches_format_on_any_bit_pattern(bits in 0u32..=u32::MAX) {
        check_coord(f32::from_bits(bits));
    }

    #[test]
    fn coord_matches_format_around_any_halfway_point(k in 0u64..100_000_000) {
        check_with_neighbours(halfway(k));
    }

    #[test]
    fn coord_matches_format_on_subnormals(frac in 0u32..1 << 23) {
        check_with_neighbours(f32::from_bits(frac));
    }

    /// `-x` for `0 < x ≤ 5·10⁻⁷` rounds to zero and keeps its sign.
    #[test]
    fn coord_matches_format_on_negatives_that_round_to_zero(x in 0.0f32..=5e-7) {
        check_with_neighbours(x);
    }

    /// Below 2⁴³ the integer path, from 2⁴³ on the `format!` fallback.
    #[test]
    fn coord_matches_format_on_both_sides_of_the_fallback_bound(delta in 0u32..8192) {
        check_with_neighbours(f32::from_bits(2f32.powi(43).to_bits() + delta - 4096));
    }
}

/// All 2³² bit patterns, sharded over the host's threads: 25 minutes in
/// release on 2 threads. Run with
/// `cargo test --release -p gosh-core --test prop_store -- --ignored`.
#[test]
#[ignore]
fn coord_matches_format_on_every_bit_pattern() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let shard = (1u64 << 32).div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for bits in t * shard..((t + 1) * shard).min(1 << 32) {
                    let x = f32::from_bits(bits as u32);
                    got.clear();
                    want.clear();
                    push_coord(&mut got, x);
                    write!(want, "{x:.6}").unwrap();
                    assert_eq!(got, want, "bits {bits:#010x}");
                }
            });
        }
    });
}

fn precision_from(idx: usize) -> Precision {
    [Precision::F32, Precision::F16, Precision::I8][idx % 3]
}

/// Write a fresh valid store for one proptest case and return its bytes.
fn valid_store_bytes(n: usize, dim: usize, precision: Precision, seed: u64) -> Vec<u8> {
    let dir = TempDir::new("prop-store").unwrap();
    let path = dir.join("gen.embin");
    let m = Embedding::random(n, dim, seed);
    write_store(&path, &m, precision).unwrap();
    std::fs::read(&path).unwrap()
}

/// Round-trip `bytes` through a file and the full open-time validation.
fn open_bytes(bytes: &[u8]) -> std::io::Result<EmbeddingStore> {
    let dir = TempDir::new("prop-store").unwrap();
    let path = dir.join("case.embin");
    std::fs::write(&path, bytes).unwrap();
    EmbeddingStore::open(&path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_is_bit_identical_to_the_canonical_decode(
        n in 1usize..40,
        dim in 1usize..24,
        seed in 0u64..u64::MAX,
        pidx in 0usize..3,
    ) {
        let precision = precision_from(pidx);
        let m = Embedding::random(n, dim, seed);
        let dir = TempDir::new("prop-store").unwrap();
        let path = dir.join("rt.embin");
        write_store(&path, &m, precision).unwrap();
        let store = EmbeddingStore::open(&path).unwrap();
        prop_assert_eq!(store.num_vertices(), n);
        prop_assert_eq!(store.dim(), dim);
        prop_assert_eq!(store.precision(), precision);

        let mut canonical = m.as_slice().to_vec();
        quantize_roundtrip(&mut canonical, dim, precision);
        let decoded = store.to_embedding();
        let want: Vec<u32> = canonical.iter().map(|x| x.to_bits()).collect();
        let got: Vec<u32> = decoded.as_slice().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(want, got);
    }

    #[test]
    fn any_truncation_of_a_valid_store_is_rejected(
        n in 1usize..20,
        dim in 1usize..16,
        seed in 0u64..u64::MAX,
        pidx in 0usize..3,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = valid_store_bytes(n, dim, precision_from(pidx), seed);
        // Any strict prefix: header implies a length the file cannot have.
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(
            open_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes opened",
            bytes.len()
        );
        // Appended garbage is the dual failure: too long, same check.
        let mut long = bytes.clone();
        long.push(0u8);
        prop_assert!(open_bytes(&long).is_err(), "oversize file opened");
    }

    #[test]
    fn any_single_bit_flip_of_a_valid_store_is_rejected(
        n in 1usize..20,
        dim in 1usize..16,
        seed in 0u64..u64::MAX,
        pidx in 0usize..3,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = valid_store_bytes(n, dim, precision_from(pidx), seed);
        let pos = ((bytes.len() - 1) as f64 * flip_frac) as usize;
        bytes[pos] ^= 1 << bit;
        // Header bytes are each pinned by a rule (magic, version,
        // precision code, reserved zeros, counts vs file length, stored
        // checksum); payload bytes are pinned by the checksum. So every
        // flip must surface as InvalidData.
        let err = open_bytes(&bytes);
        prop_assert!(
            err.is_err(),
            "bit {bit} of byte {pos} flipped silently (header is {EMBIN_HEADER_BYTES} bytes)"
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        match open_bytes(&bytes) {
            // Random bytes opening at all requires forging the magic,
            // version, counts matching the length, *and* the checksum.
            Ok(_) => prop_assert!(
                bytes.len() >= EMBIN_HEADER_BYTES && &bytes[..8] == EMBIN_MAGIC,
                "garbage opened without even the magic present"
            ),
            Err(e) => prop_assert!(
                e.kind() == std::io::ErrorKind::InvalidData
                    || e.kind() == std::io::ErrorKind::UnexpectedEof,
                "unexpected error kind {:?}",
                e.kind()
            ),
        }
    }
}

/// A matrix `open` would reject is refused before the path is touched:
/// the store already there keeps its bytes and still opens.
#[test]
fn unopenable_matrices_are_refused_and_the_old_store_survives() {
    let dir = TempDir::new("prop-store").unwrap();
    let path = dir.join("kept.embin");
    let old = Embedding::random(5, 3, 1);
    write_store(&path, &old, Precision::F32).unwrap();
    let before = std::fs::read(&path).unwrap();
    for m in [Embedding::zeros(4, 0), Embedding::zeros(0, MAX_DIM + 1)] {
        for precision in [Precision::F32, Precision::F16, Precision::I8] {
            let err = write_store(&path, &m, precision).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), before);
            let kept = EmbeddingStore::open(&path).unwrap().to_embedding();
            assert_eq!(kept.as_slice(), old.as_slice());
        }
    }
}

/// One row element from a draw: an ordinary value, ±0, an f32 or f16
/// subnormal, f16 overflow, a wide magnitude, ±inf, or any bit pattern.
fn codec_value(kind: u8, r: u32) -> f32 {
    const EDGES: [f32; 14] = [
        0.0,
        -0.0,
        1e-40,
        -1e-40,
        6e-8,
        -6e-8,
        3e-5,
        65504.0,
        65520.0,
        -1e30,
        -3e38,
        3e38,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    match kind {
        0..=3 => r as f32 / u32::MAX as f32 * 2.0 - 1.0,
        4 | 5 => EDGES[r as usize % EDGES.len()],
        _ => f32::from_bits(r),
    }
}

/// One `dim`-wide row: mixed elements, or one value throughout.
fn codec_row(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    (
        0u8..4,
        prop::collection::vec((0u8..7, 0u32..=u32::MAX), dim),
    )
        .prop_map(move |(shape, draws)| {
            let xs: Vec<f32> = draws.iter().map(|&(k, r)| codec_value(k, r)).collect();
            if shape == 0 {
                vec![xs[0]; dim]
            } else {
                xs
            }
        })
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The trainer's cells, the `.embin` payload and `quantize_roundtrip`
    /// give a row the same bits, at every dim and so every partial last
    /// word; and the exact scan scores every row as `EmbeddingStore::dot`.
    #[test]
    fn a_row_decodes_to_the_same_bits_in_every_container(
        (dim, rows, q) in (1usize..=40).prop_flat_map(|dim| (
            Just(dim),
            prop::collection::vec(codec_row(dim), 1..6),
            prop::collection::vec(-1.0f32..1.0, dim),
        )),
        i8 in prop::bool::ANY,
    ) {
        let precision = if i8 { Precision::I8 } else { Precision::F16 };
        let n = rows.len();
        let m = Embedding::from_vec(rows.concat(), n, dim);

        let cells = QuantizedMatrix::from_embedding(&m, precision).to_embedding();
        let dir = TempDir::new("prop-store").unwrap();
        let path = dir.join("codec.embin");
        write_store(&path, &m, precision).unwrap();
        let store = EmbeddingStore::open(&path).unwrap();
        let mut decoded = vec![0f32; n * dim];
        for (v, row) in (0..).zip(decoded.chunks_exact_mut(dim)) {
            store.decode_row(v, row);
        }
        let mut trip = m.as_slice().to_vec();
        quantize_roundtrip(&mut trip, dim, precision);
        prop_assert_eq!(bits(cells.as_slice()), bits(&decoded));
        prop_assert_eq!(bits(&trip), bits(&decoded));

        let q_sum: f32 = q.iter().sum();
        let hits = search_exact(&store, &q, n);
        prop_assert_eq!(hits.len(), n);
        for h in hits {
            prop_assert_eq!(h.score.to_bits(), store.dot(h.id, &q, q_sum).to_bits(), "row {}", h.id);
        }
    }
}
