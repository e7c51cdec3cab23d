//! Both embedding files: the text `.emb` ([`write_text`]) and the
//! `.embin` exact embedding store, the artifact the text format cannot be.
//!
//! Text output truncates every coordinate to six decimals — fine for
//! eyeballing, fatal for round-tripping (subnormals vanish, values that
//! differ only past 1e-6 collapse). `.embin` stores the bits training
//! produced: f32 rows verbatim, f16/i8 rows in their canonical quantized
//! encoding, so `open(write(m)).to_embedding()` is bit-identical to the
//! precision's canonical decode ([`crate::quant::quantize_roundtrip`]).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic "GOSHEMB1"
//!      8     4  version (= 1)
//!     12     1  precision (0 = f32, 1 = f16, 2 = i8)
//!     13     3  reserved, must be zero
//!     16     8  num_vertices (u64)
//!     24     8  dim (u64)
//!     32     8  FNV-1a-64 checksum of the payload
//!     40     —  payload: num_vertices rows of `precision.row_bytes(dim)`
//! ```
//!
//! Row encodings are the trainer's words ([`crate::quant`]): f32 →
//! `dim × f32`; f16 → the words of [`crate::quant::encode_f16`], cut to
//! `2·dim` bytes; i8 → `scale f32, zero f32`, then the code words of
//! [`crate::quant::encode_i8`] cut to `dim` bytes. Rows are encoded and
//! decoded by the codecs of [`crate::quant`] through [`le_word`] /
//! [`put_le_word`]; only [`EmbeddingStore::dot`], the scoring oracle,
//! reads elements itself. The 40-byte header is 8-byte aligned, so with
//! an aligned base (mmap returns page-aligned; the heap fallback
//! allocates `u64`s) every f32 row is naturally aligned and
//! [`EmbeddingStore`] hands out zero-copy f32 row views. An i8 store is
//! read *directly* — rows are scored without decoding to f32, so serving
//! holds 4x the vectors in RAM.
//!
//! The reader treats the file as untrusted, with the same discipline as
//! `gosh_graph::io::read_binary`: checked header arithmetic, exact
//! length-vs-payload consistency before any allocation, checksum
//! verification, and finite-scale validation for every i8 row. Corrupt
//! input is an [`io::ErrorKind::InvalidData`] error, never a panic.

use std::fs::File;
use std::io::{self, ErrorKind, Read, Write};
use std::path::Path;

use crate::model::Embedding;
use crate::quant::{
    decode_f16, decode_i8, encode_f16, encode_i8, i8_scale, le_word, put_le_word, Precision,
    RowScale,
};

/// Magic bytes opening every `.embin` file (sibling of `GOSHCSR1`).
pub const EMBIN_MAGIC: &[u8; 8] = b"GOSHEMB1";
/// Current format version.
pub const EMBIN_VERSION: u32 = 1;
/// Header size in bytes; the payload starts here, 8-byte aligned.
pub const EMBIN_HEADER_BYTES: usize = 40;
/// Widest row a store holds; a store's dimension lies in `1..=MAX_DIM`.
pub const MAX_DIM: usize = 1 << 24;

/// Derive the `.embin` sibling path for a text embedding output:
/// `x.emb → x.embin`, anything else gets `.embin` appended.
pub fn embin_path_for(out: &str) -> String {
    match out.strip_suffix(".emb") {
        Some(stem) => format!("{stem}.embin"),
        None => format!("{out}.embin"),
    }
}

/// FNV-1a 64 over `bytes` — cheap, streaming, and good enough to catch
/// the truncation/bit-rot this header field exists for.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn precision_code(p: Precision) -> u8 {
    match p {
        Precision::F32 => 0,
        Precision::F16 => 1,
        Precision::I8 => 2,
    }
}

fn precision_from_code(code: u8) -> Option<Precision> {
    match code {
        0 => Some(Precision::F32),
        1 => Some(Precision::F16),
        2 => Some(Precision::I8),
        _ => None,
    }
}

/// `x`, or `f32::NAN` if `x` is any NaN: the one NaN a query score can
/// be (see [`EmbeddingStore::dot`]).
#[inline(always)]
pub(crate) fn canonical_nan(x: f32) -> f32 {
    if x.is_nan() {
        f32::NAN
    } else {
        x
    }
}

/// Split one raw i8 row into its decode parameters and its codes.
fn i8_row(raw: &[u8]) -> (RowScale, &[u8]) {
    let rs = RowScale {
        scale: f32::from_le_bytes(raw[..4].try_into().unwrap()), // audit:allow(unwrap): fixed 4-byte slice
        zero: f32::from_le_bytes(raw[4..8].try_into().unwrap()), // audit:allow(unwrap): fixed 4-byte slice
    };
    (rs, &raw[8..])
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

/// Encode `m` as an `.embin` payload at `precision` (header excluded).
fn encode_payload(m: &Embedding, precision: Precision) -> Vec<u8> {
    let row_bytes = precision.row_bytes(m.dim());
    let mut payload = vec![0u8; m.num_vertices() * row_bytes];
    for (v, dst) in (0..).zip(payload.chunks_exact_mut(row_bytes)) {
        let row = m.row(v);
        match precision {
            Precision::F32 => {
                for (d, x) in dst.chunks_exact_mut(4).zip(row) {
                    d.copy_from_slice(&x.to_le_bytes());
                }
            }
            Precision::F16 => encode_f16(row, |i, w| put_le_word(dst, i, w)),
            Precision::I8 => {
                let (rs, inv) = i8_scale(row);
                let (head, codes) = dst.split_at_mut(8);
                head[..4].copy_from_slice(&rs.scale.to_le_bytes());
                head[4..].copy_from_slice(&rs.zero.to_le_bytes());
                encode_i8(row, rs.zero, inv, |i, w| put_le_word(codes, i, w));
            }
        }
    }
    payload
}

/// Write `m` to `path` as a versioned, checksummed `.embin` store. The
/// file is replaced whole ([`gosh_runtime::replace_file`]), so a server
/// that has the old store mapped keeps reading the old rows. A matrix
/// [`EmbeddingStore::open`] would reject — dim outside `1..=MAX_DIM`,
/// more than `u32::MAX` rows — is [`io::ErrorKind::InvalidInput`], and
/// `path` is left untouched.
pub fn write_store(path: impl AsRef<Path>, m: &Embedding, precision: Precision) -> io::Result<()> {
    let (n, dim) = (m.num_vertices(), m.dim());
    if !(1..=MAX_DIM).contains(&dim) || n > u32::MAX as usize {
        let msg = format!("{n} x {dim}: a store holds dim 1..={MAX_DIM} and u32-indexed rows");
        return Err(io::Error::new(ErrorKind::InvalidInput, msg));
    }
    let payload = encode_payload(m, precision);
    let mut header = [0u8; EMBIN_HEADER_BYTES];
    header[..8].copy_from_slice(EMBIN_MAGIC);
    header[8..12].copy_from_slice(&EMBIN_VERSION.to_le_bytes());
    header[12] = precision_code(precision);
    // bytes 13..16 reserved, zero
    header[16..24].copy_from_slice(&(n as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(dim as u64).to_le_bytes());
    header[32..40].copy_from_slice(&fnv1a64(&payload).to_le_bytes());

    gosh_runtime::replace_file(path, |w| {
        w.write_all(&header)?;
        w.write_all(&payload)
    })
}

/// The bytes backing an open store: a read-only private mmap when the
/// platform provides one, a heap copy otherwise. Both keep the file's
/// byte 0 at an 8-aligned base so the 40-byte header leaves the payload
/// aligned for zero-copy f32/f16 row views.
///
/// Under Miri the raw `mmap`/`munmap` FFI is uninterpretable, so the
/// whole mapping arm is compiled out (`not(miri)`) and the store runs
/// on the heap copy — same bytes, same alignment, checkable by Miri.
enum Backing {
    #[cfg(all(unix, not(miri)))]
    Mmap {
        ptr: *mut u8,
        len: usize,
    },
    Heap(Vec<u64>, usize),
}

// SAFETY: the mapping is PROT_READ + MAP_PRIVATE over a file this
// process opened — immutable shared bytes, safe to read from any thread.
unsafe impl Send for Backing {}
// SAFETY: as for `Send` — the backing bytes are immutable for the life
// of the mapping, so shared cross-thread reads cannot race.
unsafe impl Sync for Backing {}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, not(miri)))]
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; unmapped only in Drop.
            Backing::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(words, len) => {
                // SAFETY: u64 storage reinterpreted as bytes; `len` never
                // exceeds `words.len() * 8` by construction.
                let all = unsafe {
                    std::slice::from_raw_parts(words.as_ptr() as *const u8, words.len() * 8)
                };
                &all[..*len]
            }
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(all(unix, not(miri)))]
        if let Backing::Mmap { ptr, len } = self {
            // SAFETY: exactly the region mmap returned; dropped once.
            unsafe { sys::munmap(*ptr as *mut core::ffi::c_void, *len) };
        }
    }
}

#[cfg(all(unix, not(miri)))]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// Map (or read) a whole file. Returns the backing and its length.
fn map_file(file: &File, len: usize) -> io::Result<Backing> {
    #[cfg(all(unix, not(miri)))]
    {
        use std::os::unix::io::AsRawFd;
        if len > 0 {
            // SAFETY: read-only private mapping of `len` bytes of an open
            // fd; the result is checked against MAP_FAILED before use.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize != -1 {
                return Ok(Backing::Mmap {
                    ptr: ptr as *mut u8,
                    len,
                });
            }
            // mmap refused (odd filesystem, exhausted maps): fall through
            // to the heap copy rather than failing the open.
        }
    }
    let mut words = vec![0u64; len.div_ceil(8)];
    // SAFETY: the u64 buffer viewed as bytes; we read at most `len` of
    // the `words.len() * 8` available.
    let dst =
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8) };
    let mut r = io::BufReader::new(file);
    r.read_exact(&mut dst[..len])?;
    Ok(Backing::Heap(words, len))
}

/// A read-only, mmap-backed `.embin` store with zero-copy row access.
///
/// Opening validates the whole file (header arithmetic, payload length,
/// checksum, i8 scale finiteness), so every accessor after a successful
/// [`EmbeddingStore::open`] is infallible. Rows are served straight from
/// the mapping — an i8 store never materializes f32 rows.
pub struct EmbeddingStore {
    backing: Backing,
    num_vertices: usize,
    dim: usize,
    precision: Precision,
    row_bytes: usize,
}

impl std::fmt::Debug for EmbeddingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingStore")
            .field("num_vertices", &self.num_vertices)
            .field("dim", &self.dim)
            .field("precision", &self.precision)
            .finish_non_exhaustive()
    }
}

impl EmbeddingStore {
    /// Open and fully validate `path`. The file is untrusted: any
    /// inconsistency is [`io::ErrorKind::InvalidData`], never a panic.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < EMBIN_HEADER_BYTES as u64 {
            return Err(bad(format!(
                "embin file is {file_len} bytes, smaller than the {EMBIN_HEADER_BYTES}-byte header"
            )));
        }
        // The header bounds how much a lying length field can cost us:
        // we map exactly the real file, never an attacker-claimed size.
        if file_len > usize::MAX as u64 {
            return Err(bad("embin file larger than the address space"));
        }
        let backing = map_file(&file, file_len as usize)?;
        let store = Self::validate(backing, file_len as usize)?;
        Ok(store)
    }

    fn validate(backing: Backing, file_len: usize) -> io::Result<Self> {
        let bytes = backing.bytes();
        let header = &bytes[..EMBIN_HEADER_BYTES];
        if &header[..8] != EMBIN_MAGIC {
            return Err(bad("not an embin file (bad magic)"));
        }
        // audit:allow(unwrap): fixed 4-byte slice into a 4-byte array
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != EMBIN_VERSION {
            return Err(bad(format!(
                "unsupported embin version {version} (expected {EMBIN_VERSION})"
            )));
        }
        let precision = precision_from_code(header[12])
            .ok_or_else(|| bad(format!("unknown precision code {}", header[12])))?;
        if header[13..16] != [0, 0, 0] {
            return Err(bad("reserved header bytes are not zero"));
        }
        let num_vertices = u64::from_le_bytes(header[16..24].try_into().unwrap()); // audit:allow(unwrap): fixed 8-byte slice
        let dim = u64::from_le_bytes(header[24..32].try_into().unwrap()); // audit:allow(unwrap): fixed 8-byte slice
        let checksum = u64::from_le_bytes(header[32..40].try_into().unwrap()); // audit:allow(unwrap): fixed 8-byte slice

        // Row ids are u32 everywhere else in the codebase; a header
        // claiming more vertices is corrupt, not ambitious.
        if num_vertices > u32::MAX as u64 {
            return Err(bad(format!(
                "num_vertices {num_vertices} exceeds u32 range"
            )));
        }
        if dim == 0 || dim > MAX_DIM as u64 {
            return Err(bad(format!("dim {dim} out of range (1..={MAX_DIM})")));
        }
        // All size arithmetic checked: a forged header must not be able
        // to overflow its way past the length comparison.
        let row_bytes = dim
            .checked_mul(precision.bytes_per_element() as u64)
            .and_then(|b| b.checked_add(precision.row_overhead_bytes() as u64))
            .ok_or_else(|| bad("row size overflows"))?;
        let payload_len = num_vertices
            .checked_mul(row_bytes)
            .and_then(|p| p.checked_add(EMBIN_HEADER_BYTES as u64))
            .ok_or_else(|| bad("payload size overflows"))?;
        if payload_len != file_len as u64 {
            return Err(bad(format!(
                "file is {file_len} bytes but header implies {payload_len}"
            )));
        }

        let payload = &bytes[EMBIN_HEADER_BYTES..];
        let actual = fnv1a64(payload);
        if actual != checksum {
            return Err(bad(format!(
                "payload checksum mismatch: header says {checksum:#018x}, payload hashes to {actual:#018x}"
            )));
        }

        let store = Self {
            num_vertices: num_vertices as usize,
            dim: dim as usize,
            precision,
            row_bytes: row_bytes as usize,
            backing,
        };

        // i8 rows carry decode parameters in-band; reject non-finite
        // scales now so scoring never has to re-validate.
        if store.precision == Precision::I8 {
            for v in 0..store.num_vertices as u32 {
                let (rs, _) = store.row_i8(v);
                if !rs.scale.is_finite() || !rs.zero.is_finite() {
                    return Err(bad(format!("row {v} has a non-finite i8 scale/zero")));
                }
            }
        }
        Ok(store)
    }

    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes of the store's whole payload (excludes the header).
    pub fn payload_bytes(&self) -> usize {
        self.num_vertices * self.row_bytes
    }

    /// The bytes of `count` rows from row `first` on.
    #[inline]
    pub(crate) fn rows_raw(&self, first: u32, count: usize) -> &[u8] {
        let o = EMBIN_HEADER_BYTES + first as usize * self.row_bytes;
        &self.backing.bytes()[o..o + count * self.row_bytes]
    }

    /// Zero-copy f32 row view. Panics if the store is not f32 — callers
    /// branch on [`EmbeddingStore::precision`] first.
    pub fn row_f32(&self, v: u32) -> &[f32] {
        self.rows_f32(v, 1)
    }

    /// Zero-copy view of `count` f32 rows from row `first` on, back to back.
    #[inline]
    pub(crate) fn rows_f32(&self, first: u32, count: usize) -> &[f32] {
        assert_eq!(self.precision, Precision::F32, "row_f32 on a non-f32 store");
        // SAFETY: payload base is 8-aligned (mmap page / u64 heap) and
        // f32 rows start at multiples of 4 bytes from it, so the
        // reinterpretation is aligned; any f32 bit pattern is valid.
        let (pre, mid, post) = unsafe { self.rows_raw(first, count).align_to::<f32>() };
        debug_assert!(pre.is_empty() && post.is_empty());
        mid
    }

    /// Zero-copy i8 row view: decode parameters plus the byte codes.
    #[inline]
    pub fn row_i8(&self, v: u32) -> (RowScale, &[u8]) {
        assert_eq!(self.precision, Precision::I8, "row_i8 on a non-i8 store");
        i8_row(self.rows_raw(v, 1))
    }

    /// Zero-copy views of `count` i8 rows from row `first` on, in order.
    pub(crate) fn rows_i8(
        &self,
        first: u32,
        count: usize,
    ) -> impl Iterator<Item = (RowScale, &[u8])> {
        assert_eq!(self.precision, Precision::I8, "row_i8 on a non-i8 store");
        self.rows_raw(first, count)
            .chunks_exact(self.row_bytes)
            .map(i8_row)
    }

    /// Decode row `v` into `out` (any precision).
    pub fn decode_row(&self, v: u32, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "decode_row buffer shape mismatch");
        match self.precision {
            Precision::F32 => out.copy_from_slice(self.row_f32(v)),
            Precision::F16 => {
                let raw = self.rows_raw(v, 1);
                decode_f16(|i| le_word(raw, i), out);
            }
            Precision::I8 => {
                let (rs, codes) = self.row_i8(v);
                decode_i8(|i| le_word(codes, i), rs, out);
            }
        }
    }

    /// Inner product of row `v` with query `q`, straight off the mapped
    /// bytes. `q_sum` must be `q.iter().sum()` — precomputed once per
    /// query so the i8 path can use the affine identity
    /// `dot(q, zero + scale·c) = zero·Σq + scale·Σ q_j·c_j`
    /// and never materialize an f32 row.
    ///
    /// This is the oracle of both query engines, which score rows a tile
    /// at a time and must give every (row, query) pair these bits: f32 is
    /// [`crate::simd::dot8`]; f16 and i8 are the serial chain `acc +=
    /// row_j · q_j`, `j` ascending, i8 then closing with
    /// `zero·Σq + scale·acc`. Any NaN score is returned as `f32::NAN`:
    /// Rust leaves the sign and payload of a NaN result unspecified, and
    /// the sign decides where `total_cmp` ranks it.
    #[inline]
    pub fn dot(&self, v: u32, q: &[f32], q_sum: f32) -> f32 {
        debug_assert_eq!(q.len(), self.dim);
        canonical_nan(match self.precision {
            Precision::F32 => crate::simd::dot8(self.row_f32(v), q),
            Precision::F16 => {
                let mut acc = 0.0f32;
                for (h, &x) in self.rows_raw(v, 1).chunks_exact(2).zip(q) {
                    let h = u16::from_le_bytes([h[0], h[1]]);
                    acc += crate::quant::f16_bits_to_f32(h) * x;
                }
                acc
            }
            Precision::I8 => {
                let (rs, codes) = self.row_i8(v);
                let mut acc = 0.0f32;
                for (&c, &x) in codes.iter().zip(q) {
                    acc += c as f32 * x;
                }
                rs.zero * q_sum + rs.scale * acc
            }
        })
    }

    /// Decode the whole store into an [`Embedding`] (the canonical
    /// quantized decode for f16/i8 stores, the original bits for f32).
    pub fn to_embedding(&self) -> Embedding {
        let mut data = vec![0.0f32; self.num_vertices * self.dim];
        for (v, chunk) in data.chunks_exact_mut(self.dim.max(1)).enumerate() {
            self.decode_row(v as u32, chunk);
        }
        Embedding::from_vec(data, self.num_vertices, self.dim)
    }
}

/// Write `m` to `path` as the text embedding: a header line `n d`, then
/// one line `v x_0 … x_{d-1}` per row, each coordinate byte-for-byte
/// what `format!("{x:.6}")` prints (see [`push_coord`]). The file is
/// replaced whole ([`gosh_runtime::replace_file`]), and every error, from
/// creating the file to the final rename, names `path`.
///
/// Hand-rolled because the `format!` writer (a `String` per coordinate,
/// then a `Vec<String>` and a `join` per row) was most of the time `gosh
/// update` spends outside its named stages: 0.15 s for 32 768 × 32
/// coordinates on a 2-core x86-64 VM, against 0.03 s for this one.
/// Rows stream through one reused line buffer, so the whole file is
/// never held in memory.
pub fn write_text(path: impl AsRef<Path>, m: &Embedding) -> io::Result<()> {
    gosh_runtime::replace_file(path, |w| write_text_rows(w, m))
}

fn write_text_rows(w: &mut impl Write, m: &Embedding) -> io::Result<()> {
    writeln!(w, "{} {}", m.num_vertices(), m.dim())?;
    let mut line = Vec::new();
    for v in 0..m.num_vertices() as u32 {
        line.clear();
        write!(line, "{v} ")?;
        for (j, &x) in m.row(v).iter().enumerate() {
            if j > 0 {
                line.push(b' ');
            }
            push_coord(&mut line, x);
        }
        line.push(b'\n');
        w.write_all(&line)?;
    }
    w.flush()
}

/// `DIGIT_PAIRS[k]` is `k` in two ASCII digits, `"00"` to `"99"`.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut t = [[0u8; 2]; 100];
    let mut k = 0;
    while k < 100 {
        t[k] = [b'0' + (k / 10) as u8, b'0' + (k % 10) as u8];
        k += 1;
    }
    t
};

/// Write `n` in decimal to end just before `buf[end]`; return where it
/// starts.
fn put_uint(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    while n >= 100 {
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[(n % 100) as usize]);
        n /= 100;
    }
    if n >= 10 {
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[n as usize]);
    } else {
        end -= 1;
        buf[end] = b'0' + n as u8;
    }
    end
}

/// Append `x` exactly as `format!("{x:.6}")` prints it: the exact binary
/// value rounded to 6 fraction digits, ties to even, the sign kept (so
/// `-0.0` and negatives that round to zero print `-0.000000`).
///
/// With `x = m·2^e` (`m < 2^24`), `m·10^6 < 2^44` is the value in
/// millionths before scaling by `2^e`, so the rounding is integer
/// arithmetic: a left shift for `e ≥ 0`, a right shift rounding the
/// remainder half to even for `e < 0`. Non-finite values and
/// `|x| ≥ 2^43`, whose millionths would overflow a `u64`, go through
/// `format!` itself.
pub fn push_coord(out: &mut Vec<u8>, x: f32) {
    let bits = x.to_bits();
    let biased = (bits >> 23) & 0xff;
    // 127 + 43: the biased exponent of 2^43; 255 (inf, NaN) is above it.
    if biased >= 127 + 43 {
        write!(out, "{x:.6}").expect("writing to a Vec cannot fail");
        return;
    }
    let (m, e) = match biased {
        0 => (bits & 0x7f_ffff, -149),
        _ => ((bits & 0x7f_ffff) | 1 << 23, biased as i32 - 150),
    };
    let millionths = m as u64 * 1_000_000;
    let q = if e >= 0 {
        millionths << e
    } else {
        let s = e.unsigned_abs();
        if s >= 64 {
            0
        } else {
            let q = millionths >> s;
            let rem = millionths & ((1 << s) - 1);
            let half = 1 << (s - 1);
            q + u64::from(rem > half || (rem == half && q & 1 == 1))
        }
    };
    // Right to left into `-` + at most 13 integer digits (q < 2^43·10^6)
    // + `.` + 6 fraction digits, then one append.
    let mut buf = [0u8; 21];
    let f = (q % 1_000_000) as usize;
    buf[15..17].copy_from_slice(&DIGIT_PAIRS[f / 10_000]);
    buf[17..19].copy_from_slice(&DIGIT_PAIRS[f / 100 % 100]);
    buf[19..21].copy_from_slice(&DIGIT_PAIRS[f % 100]);
    buf[14] = b'.';
    let mut start = put_uint(&mut buf, 14, q / 1_000_000);
    if bits >> 31 == 1 {
        start -= 1;
        buf[start] = b'-';
    }
    out.extend_from_slice(&buf[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_roundtrip;
    use gosh_runtime::TempDir;
    use proptest::prelude::*;

    /// The writer [`write_text`] replaced: a `format!` per coordinate and
    /// a `join` per row. Kept as the reference its bytes must equal.
    fn write_text_reference(path: &Path, m: &Embedding) -> io::Result<()> {
        let mut w = std::io::BufWriter::new(File::create(path)?);
        writeln!(w, "{} {}", m.num_vertices(), m.dim())?;
        for v in 0..m.num_vertices() as u32 {
            let row: Vec<String> = m.row(v).iter().map(|x| format!("{x:.6}")).collect();
            writeln!(w, "{v} {}", row.join(" "))?;
        }
        w.flush()
    }

    /// Coordinates that stress [`push_coord`]: arbitrary bit patterns;
    /// the f32s nearest `±(k + ½)·10⁻⁶` and their ±1-ulp neighbours;
    /// exact ties (odd multiples of 2⁻⁷); and fixed hard cases — signed
    /// zeros, subnormals, negatives that round to zero, non-finite
    /// values, and both sides of the 2⁴³ fallback bound.
    fn hard_coord() -> impl Strategy<Value = f32> {
        let two43 = 2f32.powi(43);
        let fixed = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x7f_ffff),
            f32::MIN_POSITIVE,
            -4e-7,
            -5e-7,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            two43,
            -two43,
            f32::from_bits(two43.to_bits() - 1),
            -f32::from_bits(two43.to_bits() - 1),
        ];
        (0u8..4, 0u32..=u32::MAX, 0u32..3).prop_map(move |(kind, r, ulp)| {
            let x = match kind {
                0 => return f32::from_bits(r),
                1 => ((r % 20_000_000) as f64 * 1e-6 + 0.5e-6) as f32,
                2 => (2 * (r % 100_000) + 1) as f32 / 128.0,
                _ => return fixed[r as usize % fixed.len()],
            };
            let x = f32::from_bits((x.to_bits() + ulp).wrapping_sub(1));
            if r >> 31 == 1 {
                -x
            } else {
                x
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The whole file, header and row lines included, is the old
        /// writer's byte for byte.
        #[test]
        fn write_text_equals_the_format_writer(
            (n, dim, data) in (0usize..12, 1usize..10).prop_flat_map(|(n, dim)| {
                (Just(n), Just(dim), proptest::collection::vec(hard_coord(), n * dim))
            }),
        ) {
            let m = Embedding::from_vec(data, n, dim);
            let dir = TempDir::new("store-text").unwrap();
            let (got, want) = (dir.join("new.emb"), dir.join("old.emb"));
            write_text(&got, &m).unwrap();
            write_text_reference(&want, &m).unwrap();
            prop_assert_eq!(std::fs::read(&got).unwrap(), std::fs::read(&want).unwrap());
        }
    }

    #[test]
    fn write_text_errors_name_the_path() {
        let dir = TempDir::new("store-text").unwrap();
        let path = dir.join("missing-dir").join("out.emb");
        let err = write_text(&path, &Embedding::zeros(2, 2)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
        assert!(err.to_string().contains(&*path.to_string_lossy()), "{err}");
    }

    /// Adversarial rows for the precision-loss regression: subnormals,
    /// values separated only past the 6th decimal, huge magnitudes text
    /// rounds identically.
    fn adversarial() -> Embedding {
        let rows = vec![
            1.0e-40f32, // subnormal — prints as 0.000000
            f32::MIN_POSITIVE,
            1.000_000_1,
            1.000_000_2, // differs from the previous only past 1e-6
            -0.000_000_4,
            123_456_791.0, // consecutive f32s this large collide at 6 decimals
            123_456_792.0,
            0.1 + 0.2, // classic not-representable sum
        ];
        let dim = rows.len();
        Embedding::from_vec(rows, 1, dim)
    }

    #[test]
    fn f32_roundtrip_is_bitwise_exact() {
        let m = adversarial();
        let dir = TempDir::new("store").unwrap();
        let path = dir.join("f32.embin");
        write_store(&path, &m, Precision::F32).unwrap();
        let store = EmbeddingStore::open(&path).unwrap();
        assert_eq!(store.precision(), Precision::F32);
        let bits_in: Vec<u32> = m.as_slice().iter().map(|x| x.to_bits()).collect();
        let bits_out: Vec<u32> = store
            .to_embedding()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(bits_in, bits_out);
    }

    #[test]
    fn quantized_roundtrip_matches_canonical_decode_bitwise() {
        for precision in [Precision::F16, Precision::I8] {
            let m = Embedding::random(37, 12, 99);
            let dir = TempDir::new("store").unwrap();
            let path = dir.join(format!("{precision}.embin"));
            write_store(&path, &m, precision).unwrap();
            let store = EmbeddingStore::open(&path).unwrap();
            let mut canonical = m.as_slice().to_vec();
            quantize_roundtrip(&mut canonical, 12, precision);
            let decoded = store.to_embedding();
            let a: Vec<u32> = canonical.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = decoded.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "{precision} decode diverged from quantize_roundtrip");
        }
    }

    /// The ISSUE regression: the text format loses the adversarial rows,
    /// the binary store does not.
    #[test]
    fn text_roundtrip_loses_what_the_binary_store_keeps() {
        let m = adversarial();
        // The text path, exactly as `write_text` formats it.
        let text_roundtrip: Vec<f32> = m
            .as_slice()
            .iter()
            .map(|x| format!("{x:.6}").parse::<f32>().unwrap())
            .collect();
        assert_ne!(
            text_roundtrip,
            m.as_slice(),
            "adversarial rows survived text formatting — pick harder ones"
        );

        let dir = TempDir::new("store").unwrap();
        let path = dir.join("adversarial.embin");
        write_store(&path, &m, Precision::F32).unwrap();
        let binary_roundtrip = EmbeddingStore::open(&path).unwrap().to_embedding();
        assert_eq!(binary_roundtrip.as_slice(), m.as_slice());
    }

    #[test]
    fn i8_store_is_4x_smaller_and_scores_without_decoding() {
        let dim = 32;
        let m = Embedding::random(64, dim, 5);
        let dir = TempDir::new("store").unwrap();
        let p32 = dir.join("size32.embin");
        let p8 = dir.join("size8.embin");
        write_store(&p32, &m, Precision::F32).unwrap();
        write_store(&p8, &m, Precision::I8).unwrap();
        let s32 = EmbeddingStore::open(&p32).unwrap();
        let s8 = EmbeddingStore::open(&p8).unwrap();
        let ratio = s32.payload_bytes() as f64 / s8.payload_bytes() as f64;
        assert!(ratio > 3.0, "i8 payload only {ratio:.2}x smaller");

        // Direct i8 scoring equals dot(decoded_row, q) exactly: the
        // affine identity is algebra, but accumulation differs, so allow
        // only tiny float slack.
        let q: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let q_sum: f32 = q.iter().sum();
        let mut row = vec![0.0f32; dim];
        for v in 0..64u32 {
            let direct = s8.dot(v, &q, q_sum);
            s8.decode_row(v, &mut row);
            let via_decode: f32 = row.iter().zip(&q).map(|(a, b)| a * b).sum();
            assert!(
                (direct - via_decode).abs() <= 1e-3 * (1.0 + via_decode.abs()),
                "v{v}: direct {direct} vs decoded {via_decode}"
            );
        }
    }

    #[test]
    fn truncated_and_corrupted_files_error_cleanly() {
        let m = Embedding::random(10, 8, 3);
        let dir = TempDir::new("store").unwrap();
        let path = dir.join("corrupt.embin");
        write_store(&path, &m, Precision::F32).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncations at every interesting boundary.
        for cut in [0, 7, 39, 40, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(EmbeddingStore::open(&path).is_err(), "cut at {cut} opened");
        }
        // A flipped payload bit must trip the checksum.
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let err = EmbeddingStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // A header lying about num_vertices must fail the length check
        // (and must not allocate toward the forged size).
        let mut lying = good.clone();
        lying[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &lying).unwrap();
        assert!(EmbeddingStore::open(&path).is_err());
    }

    #[test]
    fn i8_store_rejects_non_finite_scales() {
        let m = Embedding::random(4, 4, 11);
        let dir = TempDir::new("store").unwrap();
        let path = dir.join("nan-scale.embin");
        write_store(&path, &m, Precision::I8).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Poison row 2's scale with NaN, then re-stamp the checksum so
        // only the finiteness check can catch it.
        let row_off = EMBIN_HEADER_BYTES + 2 * Precision::I8.row_bytes(4);
        bytes[row_off..row_off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let sum = fnv1a64(&bytes[EMBIN_HEADER_BYTES..]);
        bytes[32..40].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = EmbeddingStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    /// Rewriting the path a live store maps (what `gosh update` does to a
    /// store `gosh serve` is answering from) replaces the file instead of
    /// truncating the mapped one: the old store keeps its rows bit for bit.
    #[test]
    fn rewriting_a_mapped_store_leaves_the_mapping_its_rows() {
        let dir = TempDir::new("store-rewrite").unwrap();
        let path = dir.join("live.embin");
        let (old, new) = (Embedding::random(300, 8, 1), Embedding::random(40, 4, 2));
        write_store(&path, &old, Precision::F32).unwrap();
        let mapped = EmbeddingStore::open(&path).unwrap();
        write_store(&path, &new, Precision::I8).unwrap();

        let bits = |m: &Embedding| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&mapped.to_embedding()), bits(&old));
        let fresh = EmbeddingStore::open(&path).unwrap();
        assert_eq!(fresh.precision(), Precision::I8);
        let mut want = new.as_slice().to_vec();
        quantize_roundtrip(&mut want, 4, Precision::I8);
        assert_eq!(
            bits(&fresh.to_embedding()),
            bits(&Embedding::from_vec(want, 40, 4))
        );
        let names: Vec<_> = std::fs::read_dir(dir.join("")).unwrap().collect();
        assert_eq!(names.len(), 1, "a temp file was left behind");
    }

    #[test]
    fn embin_path_derivation() {
        assert_eq!(embin_path_for("out.emb"), "out.embin");
        assert_eq!(embin_path_for("dir/x.emb"), "dir/x.embin");
        assert_eq!(embin_path_for("plain"), "plain.embin");
    }
}
