//! Reduced-precision embedding storage: f16 and per-row-scaled 8-bit rows.
//!
//! f32 rows cap how many vertices fit on a device: `choose_num_parts`
//! prices the Algorithm 5 bins in bytes, so halving (f16) or quartering
//! (i8) the element width fits 2–4x larger graphs per device — the same
//! capacity argument GraphVite makes for its CPU–GPU split. The knob is
//! [`Precision`], selected by `--precision f32|f16|i8` on the CLI and
//! carried by `TrainParams`/`GoshConfig`.
//!
//! * **f16** — IEEE binary16 stored as `u16` bit patterns (the toolchain
//!   is stable, so there is no hardware `f16` type; the conversions here
//!   are software, round-to-nearest-even).
//! * **i8** — 8-bit integer codes with a **per-row** affine decode
//!   `x = zero + scale · q`, `q ∈ 0..=255`: [`quantize_row_i8`] maps the
//!   row's min to code 0 and its max to code 255, so the two scale
//!   parameters adapt to each vertex's dynamic range (embedding row
//!   norms vary by orders of magnitude between hubs and leaves).
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
// Vector conversion kernels (x86_64)
// ---------------------------------------------------------------------------

/// AVX2 / F16C batch paths for the conversion loops above — the scalar
/// converters are the semantic reference, and every kernel here is
/// bit-compatible with them for finite (and infinite) inputs:
///
/// * f16 uses `vcvtps2ph`/`vcvtph2ps` with static round-to-nearest-even,
///   the same rounding as [`f32_to_f16_bits`] (NaN payloads may differ in
///   hardware quieting — training matrices are asserted finite);
/// * the i8 encode computes `floor(t + 0.5)`, which equals the scalar
///   `t.round()` (half away from zero) exactly for `t ∈ [0, 256)` where
///   `t + 0.5` is exactly representable;
/// * decodes are the same widen→mul→add sequence as the scalar loop
///   (separate `mul`/`add`, no fma contraction).
///
/// Rows containing non-finite values bail out to the scalar path, which
/// owns the degenerate collapse. Callers verify feature presence through
/// [`crate::simd::avx2_available`] / [`crate::simd::f16c_available`].
#[cfg(target_arch = "x86_64")]
mod vecq {
    use core::arch::x86_64::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::RowScale;
    use crate::model::pack_pair;

    /// In-place f32→f16→f32 round trip, eight lanes per conversion.
    ///
    /// # Safety
    /// The CPU must support F16C (callers check
    /// [`crate::simd::f16c_available`] first).
    #[target_feature(enable = "f16c")]
    pub unsafe fn f16_roundtrip_f16c(data: &mut [f32]) {
        let chunks = data.len() / 8;
        for g in 0..chunks {
            // SAFETY: `8 * g + 8 <= data.len()`, so the in-place 8-lane
            // load/convert/store stays inside the slice.
            unsafe {
                let p = data.as_mut_ptr().add(8 * g);
                let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(p));
                _mm256_storeu_ps(p, _mm256_cvtph_ps(h));
            }
        }
        for x in &mut data[8 * chunks..] {
            *x = super::f16_bits_to_f32(super::f32_to_f16_bits(*x));
        }
    }

    /// Dequantize an f16 cell row (4 codes per cell) into f32 lanes, two
    /// cells per conversion. The `[u64; 2]` staging keeps every atomic
    /// access a plain `load`, like the pair kernels in `crate::simd`.
    ///
    /// # Safety
    /// The CPU must support F16C (callers check
    /// [`crate::simd::f16c_available`] first), and `cells` must hold at
    /// least `ceil(out.len() / 4)` cells (the [`super::QuantizedMatrix`]
    /// row layout).
    #[target_feature(enable = "f16c")]
    pub unsafe fn load_f16_cells(cells: &[AtomicU64], out: &mut [f32]) {
        let groups = out.len() / 8;
        for g in 0..groups {
            let bits = [
                cells[2 * g].load(Ordering::Relaxed),
                cells[2 * g + 1].load(Ordering::Relaxed),
            ];
            // SAFETY: `bits` is a local `[u64; 2]` = one 128-bit load,
            // and `8 * g + 8 <= out.len()` bounds the 8-lane store.
            unsafe {
                let h = _mm_loadu_si128(bits.as_ptr().cast());
                _mm256_storeu_ps(out.as_mut_ptr().add(8 * g), _mm256_cvtph_ps(h));
            }
        }
        for (k, y) in out[8 * groups..].iter_mut().enumerate() {
            let idx = 8 * groups + k;
            let w = cells[idx / 4].load(Ordering::Relaxed);
            *y = super::f16_bits_to_f32((w >> (16 * (idx % 4))) as u16);
        }
    }

    /// Requantize f32 lanes into f16 cells.
    ///
    /// # Safety
    /// The CPU must support F16C (callers check
    /// [`crate::simd::f16c_available`] first), and `cells` must hold at
    /// least `ceil(row.len() / 4)` cells (the [`super::QuantizedMatrix`]
    /// row layout).
    #[target_feature(enable = "f16c")]
    pub unsafe fn store_f16_cells(cells: &[AtomicU64], row: &[f32]) {
        let groups = row.len() / 8;
        for g in 0..groups {
            let mut bits = [0u64; 2];
            // SAFETY: `8 * g + 8 <= row.len()` bounds the 8-lane load,
            // and `bits` is a local `[u64; 2]` = one 128-bit store.
            unsafe {
                let v = _mm256_loadu_ps(row.as_ptr().add(8 * g));
                let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
                _mm_storeu_si128(bits.as_mut_ptr().cast(), h);
            }
            cells[2 * g].store(bits[0], Ordering::Relaxed);
            cells[2 * g + 1].store(bits[1], Ordering::Relaxed);
        }
        for (ci, chunk) in row[8 * groups..].chunks(4).enumerate() {
            let mut bits = 0u64;
            for (k, &x) in chunk.iter().enumerate() {
                bits |= (super::f32_to_f16_bits(x) as u64) << (16 * k);
            }
            cells[2 * groups + ci].store(bits, Ordering::Relaxed);
        }
    }

    /// Lanewise min/max with a finiteness check fused into the same pass.
    /// Returns `None` if any element is non-finite; otherwise the exact
    /// `(lo, hi)` (selection is order-independent for finite values).
    ///
    /// Safe `#[target_feature]` fn: callable without `unsafe` only from
    /// the AVX2-enabled fns below, which is exactly its call set.
    #[target_feature(enable = "avx2")]
    fn minmax_finite(row: &[f32]) -> Option<(f32, f32)> {
        let chunks = row.len() / 8;
        let mut vlo = _mm256_set1_ps(f32::INFINITY);
        let mut vhi = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut vok = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
        let zero = _mm256_setzero_ps();
        for g in 0..chunks {
            // SAFETY: `8 * g + 8 <= row.len()` bounds the 8-lane load.
            let x = unsafe { _mm256_loadu_ps(row.as_ptr().add(8 * g)) };
            vlo = _mm256_min_ps(vlo, x);
            vhi = _mm256_max_ps(vhi, x);
            // x − x == 0 exactly iff x is finite (∞−∞ and NaN are NaN).
            vok = _mm256_and_ps(vok, _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_sub_ps(x, x), zero));
        }
        if _mm256_movemask_ps(vok) != 0xff {
            return None;
        }
        let mut los = [0f32; 8];
        let mut his = [0f32; 8];
        // SAFETY: `los`/`his` are exactly 8 f32s — one vector store each.
        unsafe {
            _mm256_storeu_ps(los.as_mut_ptr(), vlo);
            _mm256_storeu_ps(his.as_mut_ptr(), vhi);
        }
        let mut lo = los.iter().copied().fold(f32::INFINITY, f32::min);
        let mut hi = his.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for &x in &row[8 * chunks..] {
            if !x.is_finite() {
                return None;
            }
            lo = lo.min(x);
            hi = hi.max(x);
        }
        Some((lo, hi))
    }

    /// Eight codes from eight lanes: `clamp(floor(t + 0.5), 0, 255)`
    /// packed into one little-endian code word.
    ///
    /// Safe `#[target_feature]` fn — register-only, no memory operands.
    #[target_feature(enable = "avx2")]
    fn encode8(x: __m256, vlo: __m256, vinv: __m256) -> u64 {
        let t = _mm256_mul_ps(_mm256_sub_ps(x, vlo), vinv);
        let r = _mm256_round_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(_mm256_add_ps(
            t,
            _mm256_set1_ps(0.5),
        ));
        let c = _mm256_min_ps(_mm256_max_ps(r, _mm256_setzero_ps()), _mm256_set1_ps(255.0));
        let i = _mm256_cvtps_epi32(c);
        let p16 = _mm_packus_epi32(_mm256_castsi256_si128(i), _mm256_extracti128_si256::<1>(i));
        let p8 = _mm_packus_epi16(p16, p16);
        _mm_cvtsi128_si64(p8) as u64
    }

    /// Eight affine decodes from one packed code word.
    ///
    /// Safe `#[target_feature]` fn — register-only, no memory operands.
    #[target_feature(enable = "avx2")]
    fn decode8(w: u64, vs: __m256, vz: __m256) -> __m256 {
        let q = _mm_cvtsi64_si128(w as i64);
        let f = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(q));
        _mm256_add_ps(vz, _mm256_mul_ps(vs, f))
    }

    /// Vector [`super::quantize_row_i8`] writing into a byte scratch.
    /// `None` when the row is degenerate or contains non-finite values.
    ///
    /// # Safety
    /// The CPU must support AVX2 (callers check
    /// [`crate::simd::avx2_available`] first); `codes.len()` must be at
    /// least `row.len()` (asserted by [`super::quantize_row_i8`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_row_i8_avx2(row: &[f32], codes: &mut [u8]) -> Option<RowScale> {
        let (lo, hi) = minmax_finite(row)?;
        // Finiteness is already established, so `>=` is a total order here.
        if lo >= hi {
            return None;
        }
        let inv = 255.0 / (hi - lo);
        let vlo = _mm256_set1_ps(lo);
        let vinv = _mm256_set1_ps(inv);
        let chunks = row.len() / 8;
        for g in 0..chunks {
            // SAFETY: `8 * g + 8 <= row.len()` bounds the 8-lane load.
            let x = unsafe { _mm256_loadu_ps(row.as_ptr().add(8 * g)) };
            let w = encode8(x, vlo, vinv);
            codes[8 * g..8 * g + 8].copy_from_slice(&w.to_le_bytes());
        }
        for (c, &x) in codes[8 * chunks..].iter_mut().zip(&row[8 * chunks..]) {
            *c = (((x - lo) * inv).round()).clamp(0.0, 255.0) as u8;
        }
        Some(RowScale {
            scale: (hi - lo) / 255.0,
            zero: lo,
        })
    }

    /// Vector [`super::dequantize_row_i8`] from a byte slice.
    ///
    /// # Safety
    /// The CPU must support AVX2 (callers check
    /// [`crate::simd::avx2_available`] first); `codes.len()` must be at
    /// least `out.len()` (asserted by [`super::dequantize_row_i8`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_i8_avx2(codes: &[u8], rs: RowScale, out: &mut [f32]) {
        let vs = _mm256_set1_ps(rs.scale);
        let vz = _mm256_set1_ps(rs.zero);
        let chunks = out.len() / 8;
        for g in 0..chunks {
            let w = u64::from_le_bytes(codes[8 * g..8 * g + 8].try_into().unwrap());
            // SAFETY: `8 * g + 8 <= out.len()` bounds the 8-lane store.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(8 * g), decode8(w, vs, vz)) };
        }
        for (y, &c) in out[8 * chunks..].iter_mut().zip(&codes[8 * chunks..]) {
            *y = rs.zero + rs.scale * c as f32;
        }
    }

    /// Dequantize an i8 cell row (8 codes per cell), one decode per cell.
    ///
    /// # Safety
    /// The CPU must support AVX2 (callers check
    /// [`crate::simd::avx2_available`] first), and `cells` must hold at
    /// least `ceil(out.len() / 8)` cells (the [`super::QuantizedMatrix`]
    /// row layout).
    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_i8_cells(cells: &[AtomicU64], rs: RowScale, out: &mut [f32]) {
        let vs = _mm256_set1_ps(rs.scale);
        let vz = _mm256_set1_ps(rs.zero);
        let full = out.len() / 8;
        for (g, cell) in cells.iter().enumerate().take(full) {
            let w = cell.load(Ordering::Relaxed);
            // SAFETY: `8 * g + 8 <= out.len()` bounds the 8-lane store.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(8 * g), decode8(w, vs, vz)) };
        }
        let tail = &mut out[8 * full..];
        if !tail.is_empty() {
            let bytes = cells[full].load(Ordering::Relaxed).to_le_bytes();
            for (k, y) in tail.iter_mut().enumerate() {
                *y = rs.zero + rs.scale * bytes[k] as f32;
            }
        }
    }

    /// The whole i8 row store: min/max pass, scale publish (before the
    /// codes, so racing readers decode against the fresh range), then one
    /// cell store per eight codes. `false` when the row needs the scalar
    /// degenerate path.
    ///
    /// # Safety
    /// The CPU must support AVX2 (callers check
    /// [`crate::simd::avx2_available`] first), and `cells` must hold at
    /// least `ceil(row.len() / 8)` cells (the [`super::QuantizedMatrix`]
    /// row layout).
    #[target_feature(enable = "avx2")]
    pub unsafe fn store_i8_cells(cells: &[AtomicU64], meta: &AtomicU64, row: &[f32]) -> bool {
        let Some((lo, hi)) = minmax_finite(row) else {
            return false;
        };
        if lo >= hi {
            return false;
        }
        let inv = 255.0 / (hi - lo);
        meta.store(pack_pair((hi - lo) / 255.0, lo), Ordering::Relaxed);
        let vlo = _mm256_set1_ps(lo);
        let vinv = _mm256_set1_ps(inv);
        let full = row.len() / 8;
        for (g, cell) in cells.iter().enumerate().take(full) {
            // SAFETY: `8 * g + 8 <= row.len()` bounds the 8-lane load.
            let x = unsafe { _mm256_loadu_ps(row.as_ptr().add(8 * g)) };
            cell.store(encode8(x, vlo, vinv), Ordering::Relaxed);
        }
        let tail = &row[8 * full..];
        if !tail.is_empty() {
            let mut bytes = [0u8; 8];
            for (k, &x) in tail.iter().enumerate() {
                bytes[k] = (((x - lo) * inv).round()).clamp(0.0, 255.0) as u8;
            }
            cells[full].store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Per-row affine 8-bit codes
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

/// Quantize one row to byte codes, returning its decode parameters.
/// Quantization is monotone (`x_i ≤ x_j ⇒ q_i ≤ q_j`) and never emits
/// non-finite decode parameters: a degenerate row (constant, empty, or
/// containing non-finite values) collapses to `scale = 0` with every
/// element at code 0.
pub fn quantize_row_i8(row: &[f32], codes: &mut [u8]) -> RowScale {
    debug_assert_eq!(row.len(), codes.len());
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        if let Some(rs) = unsafe { vecq::quantize_row_i8_avx2(row, codes) } {
            return rs;
        }
        // Degenerate or non-finite row: the scalar path owns the collapse.
    }
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in row {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if !(lo.is_finite() && hi.is_finite() && lo < hi) {
        codes.fill(0);
        let zero = if lo.is_finite() { lo } else { 0.0 };
        return RowScale { scale: 0.0, zero };
    }
    let scale = (hi - lo) / 255.0;
    let inv = 255.0 / (hi - lo);
    for (c, &x) in codes.iter_mut().zip(row) {
        *c = (((x - lo) * inv).round()).clamp(0.0, 255.0) as u8;
    }
    RowScale { scale, zero: lo }
}

/// Decode byte codes back to f32 lanes.
pub fn dequantize_row_i8(codes: &[u8], rs: RowScale, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_available() {
        // SAFETY: AVX2 presence was just verified at runtime.
        unsafe { vecq::decode_i8_avx2(codes, rs, out) };
        return;
    }
    for (y, &c) in out.iter_mut().zip(codes) {
        *y = rs.zero + rs.scale * c as f32;
    }
}

/// Pass `data` (row-major, `dim`-wide rows) through one
/// quantize→dequantize round trip in place. This is how the simulated
/// GPU paths model quantized *storage*: transfers and allocations are
/// priced at the true byte width, and the matrix values carry the
/// precision loss of the storage format, while the kernel arithmetic
/// stays f32 (mixed-precision style — f32 accumulate over narrow rows).
pub fn quantize_roundtrip(data: &mut [f32], dim: usize, precision: Precision) {
    match precision {
        Precision::F32 => {}
        Precision::F16 => {
            #[cfg(target_arch = "x86_64")]
            if crate::simd::f16c_available() {
                // SAFETY: F16C presence was just verified at runtime.
                unsafe { vecq::f16_roundtrip_f16c(data) };
                return;
            }
            for x in data.iter_mut() {
                *x = f16_bits_to_f32(f32_to_f16_bits(*x));
            }
        }
        Precision::I8 => {
            let d = dim.max(1);
            let mut codes = vec![0u8; d];
            for row in data.chunks_mut(d) {
                let cs = &mut codes[..row.len()];
                let rs = quantize_row_i8(row, cs);
                dequantize_row_i8(cs, rs, row);
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
/// Codes pack into `AtomicU64` cells (four f16 or eight i8 codes per
/// cell); an i8 row additionally carries one atomic metadata cell holding
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

/// f16 codes per atomic cell.
const F16_PER_CELL: usize = 4;
/// i8 codes per atomic cell.
const I8_PER_CELL: usize = 8;

impl QuantizedMatrix {
    /// Codes per cell for a precision.
    fn codes_per_cell(precision: Precision) -> usize {
        match precision {
            Precision::F16 => F16_PER_CELL,
            Precision::I8 => I8_PER_CELL,
            Precision::F32 => panic!("f32 rows live in SharedMatrix, not QuantizedMatrix"),
        }
    }

    /// Quantize `m` into shared storage. Panics on `Precision::F32` —
    /// f32 rows live in `SharedMatrix`.
    pub fn from_embedding(m: &Embedding, precision: Precision) -> Self {
        let per_cell = Self::codes_per_cell(precision);
        let dim = m.dim();
        let n = m.num_vertices();
        let cells_per_row = dim.div_ceil(per_cell).max(1);
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
        match self.precision {
            Precision::F16 => {
                #[cfg(target_arch = "x86_64")]
                if crate::simd::f16c_available() {
                    // SAFETY: F16C presence was just verified at runtime.
                    unsafe { vecq::load_f16_cells(cells, out) };
                    return;
                }
                for (c, chunk) in cells.iter().zip(out.chunks_mut(F16_PER_CELL)) {
                    let bits = c.load(Ordering::Relaxed);
                    for (k, y) in chunk.iter_mut().enumerate() {
                        *y = f16_bits_to_f32((bits >> (16 * k)) as u16);
                    }
                }
            }
            Precision::I8 => {
                let (scale, zero) = unpack_pair(self.meta[v as usize].load(Ordering::Relaxed));
                #[cfg(target_arch = "x86_64")]
                if crate::simd::avx2_available() {
                    // SAFETY: AVX2 presence was just verified at runtime.
                    unsafe { vecq::decode_i8_cells(cells, RowScale { scale, zero }, out) };
                    return;
                }
                for (c, chunk) in cells.iter().zip(out.chunks_mut(I8_PER_CELL)) {
                    let codes = c.load(Ordering::Relaxed).to_le_bytes();
                    // The affine decode is lanewise mul-add over the
                    // widened codes — autovectorizes like an axpy.
                    for (k, y) in chunk.iter_mut().enumerate() {
                        *y = zero + scale * codes[k] as f32;
                    }
                }
            }
            Precision::F32 => unreachable!(),
        }
    }

    /// [`Self::store_row`] with a caller-owned code scratch (`scratch.len()
    /// == dim`) so the Hogwild hot loop never allocates.
    pub fn store_row_scratch(&self, v: u32, row: &[f32], scratch: &mut [u8]) {
        debug_assert_eq!(row.len(), self.dim);
        let cells = self.row_cells(v);
        match self.precision {
            Precision::F16 => {
                #[cfg(target_arch = "x86_64")]
                if crate::simd::f16c_available() {
                    // SAFETY: F16C presence was just verified at runtime.
                    unsafe { vecq::store_f16_cells(cells, row) };
                    return;
                }
                for (c, chunk) in cells.iter().zip(row.chunks(F16_PER_CELL)) {
                    let mut bits = 0u64;
                    for (k, &x) in chunk.iter().enumerate() {
                        bits |= (f32_to_f16_bits(x) as u64) << (16 * k);
                    }
                    c.store(bits, Ordering::Relaxed);
                }
            }
            Precision::I8 => {
                debug_assert_eq!(scratch.len(), self.dim);
                #[cfg(target_arch = "x86_64")]
                if crate::simd::avx2_available()
                    // SAFETY: AVX2 presence was just verified at runtime.
                    && unsafe { vecq::store_i8_cells(cells, &self.meta[v as usize], row) }
                {
                    return;
                }
                let mut codes = [0u8; I8_PER_CELL];
                let rs = quantize_row_i8(row, scratch);
                // Publish the fresh scale pair first so racing readers
                // decode new codes against the new row range.
                self.meta[v as usize].store(pack_pair(rs.scale, rs.zero), Ordering::Relaxed);
                for (c, chunk) in cells.iter().zip(scratch.chunks(I8_PER_CELL)) {
                    codes.fill(0);
                    codes[..chunk.len()].copy_from_slice(chunk);
                    c.store(u64::from_le_bytes(codes), Ordering::Relaxed);
                }
            }
            Precision::F32 => unreachable!(),
        }
    }

    /// Requantize `row` into row `v`'s cells (and its scale metadata for
    /// i8). Cell stores are relaxed.
    pub fn store_row(&self, v: u32, row: &[f32]) {
        let mut scratch = vec![0u8; self.dim];
        self.store_row_scratch(v, row, &mut scratch);
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

    #[test]
    fn i8_row_codes_hit_endpoints_exactly() {
        let row = [-0.3f32, 0.1, 0.7, 0.0];
        let mut codes = [0u8; 4];
        let rs = quantize_row_i8(&row, &mut codes);
        assert_eq!(codes[0], 0); // min → code 0
        assert_eq!(codes[2], 255); // max → code 255
        let mut out = [0f32; 4];
        dequantize_row_i8(&codes, rs, &mut out);
        assert_eq!(out[0], -0.3); // zero-point: min decodes exactly
        assert!((out[2] - 0.7).abs() < 1e-6);
        for (y, x) in out.iter().zip(&row) {
            assert!((y - x).abs() <= rs.scale * 0.5 + 1e-7, "{y} vs {x}");
        }
    }

    #[test]
    fn degenerate_rows_quantize_safely() {
        let mut codes = [0u8; 3];
        // Constant row.
        let rs = quantize_row_i8(&[0.25; 3], &mut codes);
        let mut out = [0f32; 3];
        dequantize_row_i8(&codes, rs, &mut out);
        assert_eq!(out, [0.25; 3]);
        // Non-finite contamination must not escape as NaN/Inf.
        let rs = quantize_row_i8(&[f32::NAN, 1.0, f32::INFINITY], &mut codes);
        dequantize_row_i8(&codes, rs, &mut out);
        assert!(out.iter().all(|y| y.is_finite()));
        assert!(rs.scale.is_finite() && rs.zero.is_finite());
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
