//! Reduced-precision embedding storage: f16 and per-row-scaled 8-bit rows.
//!
//! f32 rows cap how many vertices fit on a device: `choose_num_parts`
//! prices the Algorithm 5 bins in bytes, so halving (f16) or quartering
//! (i8) the element width fits 2–4x larger graphs per device — the same
//! capacity argument GraphVite makes for its CPU–GPU split. The knob is
//! [`Precision`], selected by `--precision f32|f16|i8` on the CLI and
//! carried by `TrainParams`/`GoshConfig`.
//!
//! * **f16** — IEEE binary16, round-to-nearest-even. The toolchain is
//!   stable, so there is no hardware `f16` type: [`f32_to_f16_bits`] and
//!   [`f16_bits_to_f32`] are the software reference converters.
//! * **i8** — 8-bit integer codes with a **per-row** affine decode
//!   `x = zero + scale · q`, `q ∈ 0..=255`: [`i8_scale`] maps the row's
//!   min to code 0 and its max to code 255, so the two scale parameters
//!   adapt to each vertex's dynamic range (embedding row norms vary by
//!   orders of magnitude between hubs and leaves).
//!
//! This module is the only one that knows either encoding. A row is a
//! run of little-endian 64-bit **words**: word `i` holds f16 elements
//! `4i..4i+4` or i8 codes `8i..8i+8`, the low element in the low bits,
//! and the last word is zero past the row end. The four codecs —
//! [`encode_f16`], [`decode_f16`], [`encode_i8`] (after [`i8_scale`]) and
//! [`decode_i8`] — each have one F16C/AVX2 kernel and one scalar
//! fallback, and read words through a source `get(i)` or write them
//! through a sink `put(i, w)`. So one piece of code serves every
//! container: the trainer's [`QuantizedMatrix`] cells, `.embin` payload
//! bytes ([`le_word`] / [`put_le_word`]), the stack buffer of
//! [`quantize_roundtrip`], and the serving scan's tile staging. The codecs
//! equal the scalar converters on every non-NaN value and map a NaN to
//! some NaN (F16C quiets signalling NaNs).
//!
//! Training at reduced precision keeps all arithmetic in f32 lanes: the
//! one Hogwild engine (`crate::train_cpu`) trains in a [`QuantizedMatrix`]
//! whose rows **dequantize on load** into the f32 registers of
//! [`crate::simd`], update there, and **requantize on store**. At one
//! thread that is bit-identical to the f32 Algorithm 1 reference with a
//! quantize round trip on every row it writes; end to end, the AUC-parity
//! test (`tests/precision_parity.rs`) holds it within 0.08 of f32.

use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::model::{pack_pair, unpack_pair, Embedding};

/// Storage width of embedding rows. `F32` is the reference path (plain
/// IEEE single, bit-exact against `update_embedding`); the other two
/// trade precision for capacity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 4 bytes/element — the reference path.
    #[default]
    F32,
    /// 2 bytes/element, IEEE binary16 via `u16` bits.
    F16,
    /// 1 byte/element plus an 8-byte per-row scale/zero-point pair.
    I8,
}

impl Precision {
    /// True storage width of one embedding element.
    pub fn bytes_per_element(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F16 => 2,
            Precision::I8 => 1,
        }
    }

    /// True storage bytes of one `dim`-wide row, including the per-row
    /// scale/zero-point metadata the i8 format carries.
    pub fn row_bytes(self, dim: usize) -> usize {
        dim * self.bytes_per_element() + self.row_overhead_bytes()
    }

    /// Per-row metadata bytes (scale + zero-point for i8, none otherwise).
    pub fn row_overhead_bytes(self) -> usize {
        match self {
            Precision::I8 => 8,
            _ => 0,
        }
    }
}

impl FromStr for Precision {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(Precision::F32),
            "f16" => Ok(Precision::F16),
            "i8" => Ok(Precision::I8),
            other => Err(format!("unknown precision '{other}' (expected f32|f16|i8)")),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::I8 => "i8",
        })
    }
}

// ---------------------------------------------------------------------------
// Software IEEE binary16
// ---------------------------------------------------------------------------

/// Convert an f32 to IEEE binary16 bits, round-to-nearest-even,
/// overflowing to infinity and flushing sub-2⁻²⁵ magnitudes to zero
/// through the subnormal range.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        // Inf stays Inf; NaN keeps (truncated) payload, forced nonzero.
        if abs == 0x7f80_0000 {
            return sign | 0x7c00;
        }
        let mut payload = ((abs >> 13) & 0x3ff) as u16;
        if payload == 0 {
            payload = 0x200;
        }
        return sign | 0x7c00 | payload;
    }
    let half_exp = (abs >> 23) as i32 - 127 + 15;
    if half_exp >= 0x1f {
        return sign | 0x7c00; // overflow → ±inf
    }
    if half_exp <= 0 {
        if half_exp < -10 {
            return sign; // below half the smallest subnormal → ±0
        }
        // Subnormal: restore the implicit bit, shift out 14..24 bits
        // with round-to-nearest-even (round bit set AND (sticky OR lsb)).
        let man = (abs & 0x007f_ffff) | 0x0080_0000;
        let shift = (14 - half_exp) as u32;
        let round_bit = 1u32 << (shift - 1);
        let mut half_man = man >> shift;
        if man & round_bit != 0 && man & (3 * round_bit - 1) != 0 {
            half_man += 1;
        }
        return sign | half_man as u16;
    }
    // Normal: drop 13 mantissa bits with RNE; a mantissa carry bumps the
    // exponent field, which is exactly the correct rounding to the next
    // binade (or to infinity at the top).
    let man = abs & 0x007f_ffff;
    let mut h = sign | ((half_exp as u16) << 10) | (man >> 13) as u16;
    let round_bit = 0x1000u32;
    if man & round_bit != 0 && man & (3 * round_bit - 1) != 0 {
        h += 1;
    }
    h
}

/// Convert IEEE binary16 bits back to f32 (exact — every f16 value is
/// representable in f32). Branch-free, so a loop over it vectorizes: a
/// subnormal `man · 2^-24` is computed in f32, which holds it exactly.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x3ff) as u32;
    let normal = ((exp + 112) << 23) | (man << 13);
    let inf_nan = 0x7f80_0000 | (man << 13);
    let subnormal = (man as f32 * f32::from_bits(0x3380_0000)).to_bits();
    let mag = match exp {
        0x1f => inf_nan,
        0 => subnormal,
        _ => normal,
    };
    f32::from_bits(sign | mag)
}

// ---------------------------------------------------------------------------
// Row codecs over 64-bit words
// ---------------------------------------------------------------------------

/// Decode parameters of one i8 row: `x = zero + scale · q`. Code 0
/// decodes to the row's minimum exactly; code 255 to its maximum (up to
/// one f32 rounding).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RowScale {
    /// Step between adjacent codes, `(max − min) / 255`.
    pub scale: f32,
    /// Value of code 0 — the row minimum (the zero-point in affine form).
    pub zero: f32,
}

/// The min/max pass of an i8 row: its decode pair and the step
/// `inv = 255 / (max − min)` that [`encode_i8`] multiplies by. Encoding
/// is monotone (`x_i ≤ x_j ⇒ q_i ≤ q_j`) and never emits non-finite
/// decode parameters: a row with no usable range collapses to
/// `scale = 0`, `inv = 0`, every code 0 — decoding to its constant when
/// the row is constant, to 0 when it is empty, holds a non-finite
/// element, or spans more than `f32::MAX`.
#[inline(always)]
pub fn i8_scale(row: &[f32]) -> (RowScale, f32) {
    let (zero, range) = match finite_min_max(row) {
        Some((lo, hi)) if lo < hi && (hi - lo).is_finite() => (lo, hi - lo),
        Some((lo, hi)) if lo == hi => (lo, 0.0),
        _ => (0.0, 0.0),
    };
    let (scale, inv) = (range / 255.0, if range > 0.0 { 255.0 / range } else { 0.0 });
    (RowScale { scale, zero }, inv)
}

/// `(min, max)` of `row`, or `None` if any element is non-finite.
#[inline(always)]
fn finite_min_max(row: &[f32]) -> Option<(f32, f32)> {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        return unsafe { vecq::finite_min_max(row) };
    }
    row.iter()
        .try_fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| {
            x.is_finite().then(|| (lo.min(x), hi.max(x)))
        })
}

/// Encode `row` as f16 words: `put(i, w)` once per word, `i` ascending.
#[inline(always)]
pub fn encode_f16(row: &[f32], put: impl FnMut(usize, u64)) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::f16c_available() {
        // SAFETY: F16C presence was just verified at runtime.
        return unsafe { vecq::encode_f16(row, put) };
    }
    encode_f16_scalar(row, put)
}

/// Decode f16 words `get(i)` into `out`, all `out.len()` elements.
#[inline(always)]
pub fn decode_f16(get: impl Fn(usize) -> u64, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::f16c_available() {
        // SAFETY: F16C presence was just verified at runtime.
        return unsafe { vecq::decode_f16(get, out) };
    }
    decode_f16_scalar(get, out)
}

/// Encode `row` as i8 code words against `(zero, inv)` from [`i8_scale`]:
/// code `clamp(floor((x − zero) · inv + ½), 0, 255)`, `put(i, w)` once
/// per word, `i` ascending.
#[inline(always)]
pub fn encode_i8(row: &[f32], zero: f32, inv: f32, put: impl FnMut(usize, u64)) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        return unsafe { vecq::encode_i8(row, zero, inv, put) };
    }
    encode_i8_scalar(row, zero, inv, put)
}

/// Decode i8 code words `get(i)` into `out` as `zero + scale · q`.
#[inline(always)]
pub fn decode_i8(get: impl Fn(usize) -> u64, rs: RowScale, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        return unsafe { vecq::decode_i8(get, rs, out) };
    }
    decode_i8_scalar(get, rs, out)
}

fn encode_f16_scalar(row: &[f32], mut put: impl FnMut(usize, u64)) {
    for (i, chunk) in row.chunks(4).enumerate() {
        let halves = chunk.iter().map(|&x| f32_to_f16_bits(x) as u64);
        put(i, halves.rev().fold(0, |w, h| w << 16 | h));
    }
}

fn decode_f16_scalar(get: impl Fn(usize) -> u64, out: &mut [f32]) {
    for (i, chunk) in out.chunks_mut(4).enumerate() {
        let w = get(i);
        for (k, y) in chunk.iter_mut().enumerate() {
            *y = f16_bits_to_f32((w >> (16 * k)) as u16);
        }
    }
}

fn encode_i8_scalar(row: &[f32], zero: f32, inv: f32, mut put: impl FnMut(usize, u64)) {
    // `as u8` maps the NaN of a collapsed row's `∞ · 0` to code 0, as the
    // vector kernel's `max` does.
    let code = |&x: &f32| ((x - zero) * inv + 0.5).floor().clamp(0.0, 255.0) as u8 as u64;
    for (i, chunk) in row.chunks(8).enumerate() {
        put(i, chunk.iter().map(code).rev().fold(0, |w, c| w << 8 | c));
    }
}

fn decode_i8_scalar(get: impl Fn(usize) -> u64, rs: RowScale, out: &mut [f32]) {
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        for (y, c) in chunk.iter_mut().zip(get(i).to_le_bytes()) {
            *y = rs.zero + rs.scale * c as f32;
        }
    }
}

/// Word `i` of a row stored as little-endian `bytes`, zero past the end.
#[inline]
pub fn le_word(bytes: &[u8], i: usize) -> u64 {
    let rest = &bytes[8 * i..];
    let mut w = [0u8; 8];
    match rest.first_chunk::<8>() {
        Some(full) => w = *full,
        None => w[..rest.len()].copy_from_slice(rest),
    }
    u64::from_le_bytes(w)
}

/// Store word `i` into a row stored as little-endian `bytes`, dropping
/// the bytes past the end.
#[inline]
pub fn put_le_word(bytes: &mut [u8], i: usize, w: u64) {
    let rest = &mut bytes[8 * i..];
    let n = rest.len().min(8);
    rest[..n].copy_from_slice(&w.to_le_bytes()[..n]);
}

/// F16C / AVX2 kernels of the four codecs. Each equals its scalar
/// fallback bit for bit on every non-NaN value, and maps a NaN to some
/// NaN (F16C quiets signalling NaNs; the scalar converters keep them):
///
/// * f16 uses `vcvtps2ph`/`vcvtph2ps` with static round-to-nearest-even,
///   the rounding of [`super::f32_to_f16_bits`];
/// * the i8 encode is the scalar `floor(t + ½)` lane for lane, and its
///   `max` sends the NaN of a collapsed row's `∞ · 0` to code 0;
/// * the i8 decode is the scalar widen→mul→add (no fma contraction).
///
/// A short last group of eight lanes is zero-padded on the way in and
/// truncated on the way out, so every element takes the vector path.
/// Callers verify feature presence through
/// [`crate::simd::avx2_available`] / [`crate::simd::f16c_available`].
#[cfg(target_arch = "x86_64")]
mod vecq {
    use core::arch::x86_64::*;

    use super::RowScale;

    /// Eight lanes as one vector.
    #[target_feature(enable = "avx")]
    fn load8(x: &[f32; 8]) -> __m256 {
        // SAFETY: `x` is exactly 8 floats — the width of one unaligned load.
        unsafe { _mm256_loadu_ps(x.as_ptr()) }
    }

    /// One vector as eight lanes.
    #[target_feature(enable = "avx")]
    fn store8(y: &mut [f32; 8], v: __m256) {
        // SAFETY: `y` is exactly 8 floats — the width of one unaligned store.
        unsafe { _mm256_storeu_ps(y.as_mut_ptr(), v) }
    }

    /// `f(g, lanes, n)` for each group `g` of eight elements of `row`:
    /// its `n` elements, zero-padded to eight lanes.
    #[target_feature(enable = "avx")]
    fn each_group(row: &[f32], mut f: impl FnMut(usize, __m256, usize)) {
        let (full, tail) = row.as_chunks::<8>();
        for (g, x) in full.iter().enumerate() {
            f(g, load8(x), 8);
        }
        if !tail.is_empty() {
            let mut x = [0.0; 8];
            x[..tail.len()].copy_from_slice(tail);
            f(full.len(), load8(&x), tail.len());
        }
    }

    /// Group `g` of eight elements of `out` from the lanes of `f(g)`.
    #[target_feature(enable = "avx")]
    fn fill_groups(out: &mut [f32], mut f: impl FnMut(usize) -> __m256) {
        let (full, tail) = out.as_chunks_mut::<8>();
        let last = full.len();
        for (g, y) in full.iter_mut().enumerate() {
            store8(y, f(g));
        }
        if !tail.is_empty() {
            let mut y = [0.0; 8];
            store8(&mut y, f(last));
            tail.copy_from_slice(&y[..tail.len()]);
        }
    }

    /// Vector [`super::encode_f16`]: two words per conversion.
    #[target_feature(enable = "f16c")]
    pub fn encode_f16(row: &[f32], mut put: impl FnMut(usize, u64)) {
        each_group(row, |g, x, n| {
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
            put(2 * g, _mm_cvtsi128_si64(h) as u64);
            if n > 4 {
                put(2 * g + 1, _mm_extract_epi64::<1>(h) as u64);
            }
        })
    }

    /// Vector [`super::decode_f16`]: two words per conversion.
    #[target_feature(enable = "f16c")]
    pub fn decode_f16(get: impl Fn(usize) -> u64, out: &mut [f32]) {
        let words = out.len().div_ceil(4);
        fill_groups(out, |g| {
            let hi = if 2 * g + 1 < words { get(2 * g + 1) } else { 0 };
            _mm256_cvtph_ps(_mm_set_epi64x(hi as i64, get(2 * g) as i64))
        })
    }

    /// Lanewise min/max with a finiteness check fused into the same pass:
    /// `None` if any element is non-finite, else the exact `(lo, hi)`
    /// (selection is order-independent for finite values).
    #[target_feature(enable = "avx2")]
    pub fn finite_min_max(row: &[f32]) -> Option<(f32, f32)> {
        let (full, tail) = row.as_chunks::<8>();
        let mut vlo = _mm256_set1_ps(f32::INFINITY);
        let mut vhi = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut vok = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
        let zero = _mm256_setzero_ps();
        for x in full {
            let x = load8(x);
            vlo = _mm256_min_ps(vlo, x);
            vhi = _mm256_max_ps(vhi, x);
            // x − x == 0 exactly iff x is finite (∞−∞ and NaN are NaN).
            vok = _mm256_and_ps(vok, _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_sub_ps(x, x), zero));
        }
        if _mm256_movemask_ps(vok) != 0xff {
            return None;
        }
        let (mut los, mut his) = ([0f32; 8], [0f32; 8]);
        store8(&mut los, vlo);
        store8(&mut his, vhi);
        let mut lo = los.iter().copied().fold(f32::INFINITY, f32::min);
        let mut hi = his.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for &x in tail {
            if !x.is_finite() {
                return None;
            }
            lo = lo.min(x);
            hi = hi.max(x);
        }
        Some((lo, hi))
    }

    /// Vector [`super::encode_i8`]: one word per eight lanes.
    #[target_feature(enable = "avx2")]
    pub fn encode_i8(row: &[f32], zero: f32, inv: f32, mut put: impl FnMut(usize, u64)) {
        let (vz, vinv) = (_mm256_set1_ps(zero), _mm256_set1_ps(inv));
        each_group(row, |g, x, n| {
            let t = _mm256_add_ps(
                _mm256_mul_ps(_mm256_sub_ps(x, vz), vinv),
                _mm256_set1_ps(0.5),
            );
            let r = _mm256_round_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(t);
            let c = _mm256_min_ps(_mm256_max_ps(r, _mm256_setzero_ps()), _mm256_set1_ps(255.0));
            let i = _mm256_cvtps_epi32(c);
            let p16 = _mm_packus_epi32(_mm256_castsi256_si128(i), _mm256_extracti128_si256::<1>(i));
            let w = _mm_cvtsi128_si64(_mm_packus_epi16(p16, p16)) as u64;
            // Padding lanes are zero past the row end.
            put(g, w & (u64::MAX >> (64 - 8 * n)));
        })
    }

    /// Vector [`super::decode_i8`]: one word per eight lanes.
    #[target_feature(enable = "avx2")]
    pub fn decode_i8(get: impl Fn(usize) -> u64, rs: RowScale, out: &mut [f32]) {
        let (vs, vz) = (_mm256_set1_ps(rs.scale), _mm256_set1_ps(rs.zero));
        fill_groups(out, |g| {
            let q = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(get(g) as i64));
            _mm256_add_ps(vz, _mm256_mul_ps(vs, _mm256_cvtepi32_ps(q)))
        })
    }
}

/// Pass `data` (row-major, `dim`-wide rows) through one encode→decode
/// round trip in place, a stack buffer of words at a time. This is how
/// the simulated GPU paths model quantized *storage*: transfers and
/// allocations are priced at the true byte width, and the matrix values
/// carry the precision loss of the storage format, while the kernel
/// arithmetic stays f32 (mixed-precision style — f32 accumulate over
/// narrow rows).
pub fn quantize_roundtrip(data: &mut [f32], dim: usize, precision: Precision) {
    /// Elements per pass through the buffer, a whole number of words.
    const SPAN: usize = 256;
    let mut words = [0u64; SPAN / 4];
    match precision {
        Precision::F32 => {}
        Precision::F16 => {
            for part in data.chunks_mut(SPAN) {
                encode_f16(part, |i, w| words[i] = w);
                decode_f16(|i| words[i], part);
            }
        }
        Precision::I8 => {
            for row in data.chunks_mut(dim.max(1)) {
                let (rs, inv) = i8_scale(row);
                for part in row.chunks_mut(SPAN) {
                    encode_i8(part, rs.zero, inv, |i, w| words[i] = w);
                    decode_i8(|i| words[i], rs, part);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared quantized matrix (the reduced-precision SharedMatrix)
// ---------------------------------------------------------------------------

/// Lock-free shared embedding matrix in a reduced-precision row format —
/// the quantized counterpart of [`crate::model::SharedMatrix`] and the
/// Hogwild engine's second row store. Updates are whole-row: the engine
/// loads a row into f32 lanes, updates it there and stores it back.
///
/// Each cell is one `AtomicU64` row word (four f16 or eight i8 codes); an
/// i8 row additionally carries one atomic metadata cell holding
/// its `(scale, zero)` pair, so the two decode parameters are always
/// mutually consistent. Row stores are cell-granular and relaxed, exactly
/// the HOGWILD! discipline of the f32 row store: concurrent writers may
/// interleave cells (lost updates, bounded race noise — a code decoded
/// against a neighbor store's scale still lands inside that row's value
/// range) but no load ever observes a torn float.
pub struct QuantizedMatrix {
    precision: Precision,
    cells: Box<[AtomicU64]>,
    /// One `(scale, zero)` pair per row; empty for f16.
    meta: Box<[AtomicU64]>,
    num_vertices: usize,
    dim: usize,
    cells_per_row: usize,
}

impl QuantizedMatrix {
    /// Quantize `m` into shared storage. Panics on `Precision::F32` —
    /// f32 rows live in `SharedMatrix`.
    pub fn from_embedding(m: &Embedding, precision: Precision) -> Self {
        assert_ne!(
            precision,
            Precision::F32,
            "f32 rows live in SharedMatrix, not QuantizedMatrix"
        );
        let dim = m.dim();
        let n = m.num_vertices();
        // One cell per row word: four f16 or eight i8 codes.
        let cells_per_row = (dim * precision.bytes_per_element()).div_ceil(8).max(1);
        let cells: Box<[AtomicU64]> = (0..n * cells_per_row).map(|_| AtomicU64::new(0)).collect();
        let meta: Box<[AtomicU64]> = match precision {
            Precision::I8 => (0..n).map(|_| AtomicU64::new(0)).collect(),
            _ => Box::new([]),
        };
        let q = Self {
            precision,
            cells,
            meta,
            num_vertices: n,
            dim,
            cells_per_row,
        };
        for v in 0..n as u32 {
            q.store_row(v, m.row(v));
        }
        q
    }

    /// Number of rows.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Row width in f32 lanes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// True storage footprint of the quantized representation (what the
    /// capacity math prices), not the atomic cells' in-simulation size.
    pub fn memory_bytes(&self) -> usize {
        self.num_vertices * self.precision.row_bytes(self.dim)
    }

    /// The atomic cells of one row — for cache prefetch hints.
    pub fn row_cells(&self, v: u32) -> &[AtomicU64] {
        let start = v as usize * self.cells_per_row;
        &self.cells[start..start + self.cells_per_row]
    }

    /// Dequantize row `v` into f32 lanes, one cell load per 4–8
    /// elements. `out.len()` must be `dim`.
    pub fn load_row(&self, v: u32, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        let cells = self.row_cells(v);
        let get = |i: usize| cells[i].load(Ordering::Relaxed);
        match self.precision {
            Precision::F16 => decode_f16(get, out),
            Precision::I8 => {
                let (scale, zero) = unpack_pair(self.meta[v as usize].load(Ordering::Relaxed));
                decode_i8(get, RowScale { scale, zero }, out);
            }
            Precision::F32 => unreachable!(),
        }
    }

    /// Requantize `row` into row `v`'s cells, one relaxed cell store per
    /// 4–8 elements. An i8 row publishes its fresh scale pair first, so
    /// racing readers decode new codes against the new row range.
    pub fn store_row(&self, v: u32, row: &[f32]) {
        debug_assert_eq!(row.len(), self.dim);
        let cells = self.row_cells(v);
        let put = |i: usize, w: u64| cells[i].store(w, Ordering::Relaxed);
        match self.precision {
            Precision::F16 => encode_f16(row, put),
            Precision::I8 => {
                let (rs, inv) = i8_scale(row);
                self.meta[v as usize].store(pack_pair(rs.scale, rs.zero), Ordering::Relaxed);
                encode_i8(row, rs.zero, inv, put);
            }
            Precision::F32 => unreachable!(),
        }
    }

    /// Decode the whole matrix back to an f32 embedding.
    pub fn to_embedding(&self) -> Embedding {
        let mut out = vec![0.0f32; self.num_vertices * self.dim];
        for (v, row) in out.chunks_mut(self.dim.max(1)).enumerate() {
            if !row.is_empty() {
                self.load_row(v as u32, row);
            }
        }
        Embedding::from_vec(out, self.num_vertices, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_parses_and_prices() {
        assert_eq!("f32".parse::<Precision>().unwrap(), Precision::F32);
        assert_eq!("f16".parse::<Precision>().unwrap(), Precision::F16);
        assert_eq!("i8".parse::<Precision>().unwrap(), Precision::I8);
        assert!("fp8".parse::<Precision>().is_err());
        assert_eq!(Precision::F32.row_bytes(128), 512);
        assert_eq!(Precision::F16.row_bytes(128), 256);
        assert_eq!(Precision::I8.row_bytes(128), 136); // 128 codes + scale pair
        assert_eq!(Precision::I8.to_string(), "i8");
    }

    #[test]
    fn f16_round_trips_every_bit_pattern() {
        // f16 → f32 → f16 must be the identity for every one of the
        // 65536 bit patterns (NaN payloads included — the converter
        // preserves them in both directions).
        for h in 0..=u16::MAX {
            let back = f32_to_f16_bits(f16_bits_to_f32(h));
            assert_eq!(back, h, "h={h:#06x}");
        }
    }

    /// The branchy converter `f16_bits_to_f32` replaced: the oracle its
    /// bits are held to.
    fn f16_bits_to_f32_reference(h: u16) -> f32 {
        let sign = ((h & 0x8000) as u32) << 16;
        let exp = ((h >> 10) & 0x1f) as u32;
        let man = (h & 0x3ff) as u32;
        if exp == 0x1f {
            return f32::from_bits(sign | 0x7f80_0000 | (man << 13));
        }
        if exp == 0 {
            if man == 0 {
                return f32::from_bits(sign);
            }
            let p = 31 - man.leading_zeros();
            let man32 = (man << (23 - p)) & 0x007f_ffff;
            return f32::from_bits(sign | ((p + 103) << 23) | man32);
        }
        f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
    }

    #[test]
    fn f16_to_f32_matches_the_branchy_reference_on_every_bit_pattern() {
        for h in 0..=u16::MAX {
            let (got, want) = (f16_bits_to_f32(h), f16_bits_to_f32_reference(h));
            assert_eq!(got.to_bits(), want.to_bits(), "h={h:#06x}");
        }
    }

    #[test]
    fn f16_conversion_rounds_to_nearest_even() {
        // 1 + 2^-11 sits exactly between 1.0 and the next f16 (1 + 2^-10):
        // ties go to the even mantissa, i.e. down to 1.0.
        assert_eq!(f32_to_f16_bits(1.0 + 0.000_488_281_25), 0x3c00);
        // 1 + 3·2^-11 ties between 1+2^-10 and 1+2^-9: even is 1+2^-9.
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 0.000_488_281_25), 0x3c02);
        // Just above a tie rounds up.
        assert_eq!(f32_to_f16_bits(1.0 + 0.000_489), 0x3c01);
        // Overflow and specials.
        assert_eq!(f32_to_f16_bits(1e6), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Max finite f16 and first overflow.
        assert_eq!(f16_bits_to_f32(0x7bff), 65504.0);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00); // ties away? no: 65520 ties → even → inf
                                                      // Subnormals: smallest positive f16 is 2^-24.
        assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24));
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-24)), 0x0001);
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-26)), 0x0000);
    }

    /// One row through the i8 codec: its scale, its codes, its decode.
    fn i8_trip(row: &[f32]) -> (RowScale, Vec<u8>, Vec<f32>) {
        let (rs, inv) = i8_scale(row);
        let mut codes = vec![0u8; row.len()];
        encode_i8(row, rs.zero, inv, |i, w| put_le_word(&mut codes, i, w));
        let mut out = vec![0f32; row.len()];
        decode_i8(|i| le_word(&codes, i), rs, &mut out);
        (rs, codes, out)
    }

    #[test]
    fn i8_row_codes_hit_endpoints_exactly() {
        let row = [-0.3f32, 0.1, 0.7, 0.0];
        let (rs, codes, out) = i8_trip(&row);
        assert_eq!(codes[0], 0); // min → code 0
        assert_eq!(codes[2], 255); // max → code 255
        assert_eq!(out[0], -0.3); // zero-point: min decodes exactly
        assert!((out[2] - 0.7).abs() < 1e-6);
        for (y, x) in out.iter().zip(&row) {
            assert!((y - x).abs() <= rs.scale * 0.5 + 1e-7, "{y} vs {x}");
        }
    }

    #[test]
    fn degenerate_rows_quantize_safely() {
        // Constant row.
        let (_, _, out) = i8_trip(&[0.25; 3]);
        assert_eq!(out, [0.25; 3]);
        // Non-finite contamination must not escape as NaN/Inf. A NaN
        // collapses the row like ±inf does: `f32::min`/`max` skip NaN, so
        // a min/max fold alone would encode `[1, 2, NaN]` as `[0, 255, 0]`.
        for row in [[f32::NAN, 1.0, f32::INFINITY], [1.0, 2.0, f32::NAN]] {
            let (rs, codes, out) = i8_trip(&row);
            assert_eq!((rs.scale, codes), (0.0, vec![0; 3]), "{row:?}");
            assert!(rs.zero.is_finite(), "{row:?}");
            assert!(out.iter().all(|y| y.is_finite()), "{row:?}");
        }
        // A range wider than f32::MAX has no finite scale either.
        assert_eq!(i8_trip(&[-f32::MAX, f32::MAX]).0.scale, 0.0);
    }

    /// Bits equal, or both NaN: what the codec promises against the
    /// scalar converters.
    fn same_or_both_nan(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The f16 halves of two word rows agree, up to which NaN a NaN is.
    fn same_f16_words(a: &[u64], b: &[u64]) -> bool {
        let halves = |&w: &u64| (0..4).map(move |k| f16_bits_to_f32((w >> (16 * k)) as u16));
        a.len() == b.len()
            && a.iter()
                .flat_map(halves)
                .zip(b.iter().flat_map(halves))
                .all(|(x, y)| same_or_both_nan(x, y))
    }

    /// f32s at every edge of the f16 conversion: signed zeros, the f16
    /// subnormal and overflow boundaries and their neighbours, exact
    /// rounding ties, f32 subnormals, infinities, quiet and signalling
    /// NaNs, plus a sweep of bit patterns.
    fn f16_edge_f32s() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN_POSITIVE,
        ];
        xs.extend(
            [
                0x7fc0_0000u32,
                0x7f80_0001,
                0xffa0_0000,
                0x7f80_2000,
                0x7fff_ffff,
                1,
                0x807f_ffff,
            ]
            .map(f32::from_bits),
        );
        for edge in [
            65504.0f32,
            65520.0,
            2f32.powi(-14),
            2f32.powi(-24),
            2f32.powi(-25),
            1.0 + 2f32.powi(-11),
        ] {
            for d in -2i32..=2 {
                let x = f32::from_bits(edge.to_bits().wrapping_add_signed(d));
                xs.extend([x, -x]);
            }
        }
        let mut bits = 0x9e37_79b9u32;
        for _ in 0..4096 {
            bits = bits
                .wrapping_mul(0x0101_0101)
                .wrapping_add(0x6d2b_79f5)
                .rotate_left(7);
            xs.push(f32::from_bits(bits));
        }
        xs
    }

    #[test]
    fn f16_codec_matches_the_scalar_converters() {
        // Decode: every one of the 65 536 patterns, four to a word.
        let halves: Vec<u16> = (0..=u16::MAX).collect();
        let words: Vec<u64> = halves
            .chunks(4)
            .map(|c| c.iter().rev().fold(0, |w, &h| w << 16 | h as u64))
            .collect();
        let mut out = vec![0f32; halves.len()];
        decode_f16(|i| words[i], &mut out);
        for (&h, &y) in halves.iter().zip(&out) {
            assert!(same_or_both_nan(y, f16_bits_to_f32(h)), "h={h:#06x}: {y}");
        }
        // Encode: the f32 edge cases.
        let xs = f16_edge_f32s();
        let mut got = vec![0u64; xs.len().div_ceil(4)];
        encode_f16(&xs, |i, w| got[i] = w);
        for (&x, i) in xs.iter().zip(0..) {
            let h = (got[i / 4] >> (16 * (i % 4))) as u16;
            let want = f32_to_f16_bits(x);
            assert!(
                h == want || (x.is_nan() && f16_bits_to_f32(h).is_nan()),
                "x={:#010x}: {h:#06x} vs {want:#06x}",
                x.to_bits()
            );
        }
    }

    /// Rows for the kernel pairs: random, wide, constant, signed zeros,
    /// and f16/i8 edge values, at every partial last word.
    fn kernel_rows() -> Vec<Vec<f32>> {
        let mut rng = gosh_graph::rng::Xorshift128Plus::new(21);
        let mut rows: Vec<Vec<f32>> = vec![
            vec![0.25; 19],
            vec![0.0, -0.0, 0.0, -0.0, 1e-40, -1e-40, 5.0],
            // i8 ties at scale 1: `floor(t + ½)`, where `t + ½` itself
            // rounds for the first (half away from zero would give 0).
            vec![
                0.5 - 2f32.powi(-25),
                0.5,
                1.5,
                2.5,
                254.5,
                255.5,
                256.0,
                -0.5,
                127.49999,
            ],
            f16_edge_f32s()
                .into_iter()
                .filter(|x| x.is_finite())
                .take(41)
                .collect(),
        ];
        for len in 0..=40 {
            rows.push((0..len).map(|_| (rng.next_f32() - 0.5) * 1e3).collect());
        }
        rows
    }

    #[test]
    fn f16_kernels_match_the_scalar_fallbacks() {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::f16c_available() {
            let xs = f16_edge_f32s();
            for row in kernel_rows().iter().map(|r| &r[..]).chain([&xs[..]]) {
                let words = row.len().div_ceil(4);
                let (mut want, mut got) = (vec![0u64; words], vec![0u64; words]);
                encode_f16_scalar(row, |i, w| want[i] = w);
                // SAFETY: F16C presence was just verified at runtime.
                unsafe { vecq::encode_f16(row, |i, w| got[i] = w) };
                assert!(same_f16_words(&got, &want), "encode, len {}", row.len());

                let (mut want, mut got) = (vec![0f32; row.len()], vec![0f32; row.len()]);
                let words: Vec<u64> = (1..=words as u64)
                    .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    .collect();
                decode_f16_scalar(|i| words[i], &mut want);
                // SAFETY: F16C presence was just verified at runtime.
                unsafe { vecq::decode_f16(|i| words[i], &mut got) };
                for (y, x) in got.iter().zip(&want) {
                    assert!(
                        same_or_both_nan(*y, *x),
                        "decode, len {}: {y} vs {x}",
                        row.len()
                    );
                }
            }
        }
    }

    #[test]
    fn i8_kernels_match_the_scalar_fallbacks() {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2_available() {
            let poisoned = vec![
                1.0,
                f32::NAN,
                -2.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.5,
                3.0,
                4.0,
                f32::NAN,
            ];
            for row in kernel_rows().iter().chain([&poisoned]) {
                let words = row.len().div_ceil(8);
                let (rs, inv) = i8_scale(row);
                // The row's own scale, scale 1, a collapsed one, and one
                // whose step overflows to infinity.
                let scales = [
                    (rs.zero, inv),
                    (0.0, 1.0),
                    (0.0, 0.0),
                    (-1e-40, f32::INFINITY),
                ];
                for (zero, inv) in scales {
                    let (mut want, mut got) = (vec![0u64; words], vec![0u64; words]);
                    encode_i8_scalar(row, zero, inv, |i, w| want[i] = w);
                    // SAFETY: AVX2 presence was just verified at runtime.
                    unsafe { vecq::encode_i8(row, zero, inv, |i, w| got[i] = w) };
                    assert_eq!(got, want, "encode, len {}, inv {inv}", row.len());
                }
                let words: Vec<u64> = (1..=words as u64)
                    .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    .collect();
                for rs in [
                    rs,
                    RowScale {
                        scale: 1.0,
                        zero: 0.0,
                    },
                ] {
                    let (mut want, mut got) = (vec![0f32; row.len()], vec![0f32; row.len()]);
                    decode_i8_scalar(|i| words[i], rs, &mut want);
                    // SAFETY: AVX2 presence was just verified at runtime.
                    unsafe { vecq::decode_i8(|i| words[i], rs, &mut got) };
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "decode, len {}", row.len());
                }
            }
        }
    }

    #[test]
    fn quantized_matrix_round_trips_within_format_error() {
        let m = Embedding::random(17, 9, 42); // odd dim, not a cell multiple
        for precision in [Precision::F16, Precision::I8] {
            let q = QuantizedMatrix::from_embedding(&m, precision);
            let back = q.to_embedding();
            assert_eq!(back.num_vertices(), 17);
            assert_eq!(back.dim(), 9);
            for v in 0..17u32 {
                let (orig, got) = (m.row(v), back.row(v));
                // Row values are in [-0.5/d, 0.5/d); format error is far
                // below the value scale for both widths.
                for (a, b) in orig.iter().zip(got) {
                    assert!((a - b).abs() < 1e-3, "{precision}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn quantized_matrix_prices_true_bytes() {
        let m = Embedding::random(10, 8, 1);
        assert_eq!(
            QuantizedMatrix::from_embedding(&m, Precision::F16).memory_bytes(),
            10 * 8 * 2
        );
        assert_eq!(
            QuantizedMatrix::from_embedding(&m, Precision::I8).memory_bytes(),
            10 * (8 + 8)
        );
    }

    #[test]
    fn store_then_load_is_a_fixed_point() {
        // Requantizing an already-dequantized row must be lossless —
        // otherwise every Hogwild store would drift the matrix.
        let m = Embedding::random(4, 33, 7);
        for precision in [Precision::F16, Precision::I8] {
            let q = QuantizedMatrix::from_embedding(&m, precision);
            let mut once = vec![0f32; 33];
            q.load_row(2, &mut once);
            q.store_row(2, &once);
            let mut twice = vec![0f32; 33];
            q.load_row(2, &mut twice);
            assert_eq!(once, twice, "{precision}");
        }
    }
}
