//! Top-k query serving over an [`EmbeddingStore`] — ROADMAP item 1's
//! query layer, built from the pieces the trainer already has.
//!
//! Three layers:
//!
//! * **Execution** — exact search ([`search_exact`], and [`search_batch`]
//!   with `nprobe == 0`) and [`IvfIndex`] (an inverted-file coarse
//!   quantizer: ~√n Lloyd-iterated centroids, rows bucketed by nearest
//!   centroid, queries probing only the `nprobe` most promising lists).
//!   Every score has the bits [`EmbeddingStore::dot`] gives its (row,
//!   query) pair. The exact scan makes one pass over the rows per request:
//!   a tile of rows at a time, scored against the whole batch at once —
//!   f16/i8 rows one lane per query ([`crate::simd::chain_lanes`]), f32
//!   rows eight at a time through [`crate::simd::dot8`]'s own accumulators
//!   ([`crate::simd::dot8_rows`]) — and an exact floor test keeps almost
//!   every score away from the heaps. Rows are read straight off the
//!   mapped store bytes; i8 rows are scored from their codes and never
//!   dequantized. The IVF index keeps a list-major copy of the rows, in
//!   the store's encoding, so a probed list is one contiguous run: f32
//!   rows back to back, scored by `dot8_rows`; f16 and i8 codes in blocks
//!   of eight rows, dimension-major, scored one lane per *row*
//!   ([`crate::simd::chain_rows`], four blocks in flight), i8 then closing
//!   with its row's `(scale, zero)`, kept in list order. The copy costs
//!   one more store payload of heap (1.3 MB for 32 768 i8 rows of 32
//!   dimensions, 6.3 MB for 98 304 f32 rows of 16).
//! * **Batching** — [`search_batch`] runs a batch across the worker team.
//!   The exact scan shards *rows*: each job scans its contiguous span for
//!   the whole batch, and the per-span lists merge under [`cmp_best`]. IVF
//!   shards *queries*: each job searches one query row in place, and
//!   `map_jobs` restores job order. Either way batched results are
//!   bit-identical to one-at-a-time at any thread count.
//! * **Wire** — a tagged request/response protocol over the runtime's
//!   frame format, carried on one
//!   [`gosh_runtime::transport::FramedConn`] per client. [`Server`]
//!   answers from the moment [`Server::bind`] returns: the IVF index is
//!   built on a thread of its own ([`IndexBuild`]), exact requests never
//!   wait for it, and IVF requests wait for it and get the bits a
//!   synchronous build would give. Each connection has a thread of its
//!   own, up to [`MAX_CONNECTIONS`] (one more is told the server is
//!   busy). A peer that sends nothing for the read timeout (120 s), or
//!   drains nothing for the write timeout (30 s), is dropped; that, or a
//!   client dying mid-request, is a logged
//!   [`gosh_runtime::transport::TransportError`], never a hang or a
//!   crash. A shutdown frame is acknowledged, every other connection's
//!   socket is shut down, their threads are joined, and
//!   [`Server::run`] returns.
//!
//! The index build is k-means assignment — every row against every
//! centroid, five passes — and runs on
//! [`crate::simd::nearest_centroid`]: the centroids are transposed once
//! per pass into blocks of eight, dimension-major
//! (`ct[(b·dim + j)·8 + lane]` = dimension `j` of centroid `8b + lane`),
//! so one 8-lane `sub`/`mul`/`add` advances eight distances at once.
//! Each lane is the scalar chain of a one-centroid-at-a-time loop (from
//! 0.0, `j` ascending, no fused multiply-add) and the argmin walks the
//! lanes in centroid order under strict `<`, so the index has the bits a
//! scalar build would give it, on every target and thread count.
//!
//! Determinism is the same contract as everywhere else in the
//! workspace: all selection runs under a *total* order — score by
//! `total_cmp`, ties to the smaller vertex id — so the top-k of a set
//! of hits does not depend on scan order, thread count, or which probe
//! list produced a hit first. Every score, a row's or a centroid's, is
//! ranked with any NaN replaced by `f32::NAN` (`canonical_nan`): Rust
//! leaves a NaN result's sign unspecified, `total_cmp` ranks +NaN first
//! and −NaN last, and without the rule the lists a query holding NaN or
//! `±∞` probes would depend on the kernel that scored the centroids.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gosh_runtime::transport::{FramedConn, TransportError};

use crate::quant::{decode_f16, decode_i8, le_word, Precision, RowScale};
use crate::simd::{chain_rows, QueryLanes, RowBlocks, LANES};
use crate::store::{canonical_nan, EmbeddingStore};

/// Frame tag: a top-k query batch, client → server.
pub const TAG_QUERY: u32 = 0x51;
/// Frame tag: the per-query hit lists, server → client.
pub const TAG_HITS: u32 = 0x48;
/// Frame tag: a rejected request (payload = UTF-8 reason).
pub const TAG_ERROR: u32 = 0x45;
/// Frame tag: shutdown request, client → server.
pub const TAG_SHUTDOWN: u32 = 0x5D;
/// Frame tag: shutdown acknowledged, server → client.
pub const TAG_OK: u32 = 0x4F;

/// One scored result row.
#[derive(Clone, Copy, Debug)]
pub struct Hit {
    /// Vertex id of the stored row.
    pub id: u32,
    /// Inner product with the query.
    pub score: f32,
}

impl PartialEq for Hit {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.score.to_bits() == other.score.to_bits()
    }
}
impl Eq for Hit {}

/// The total order all selection runs under: higher score first,
/// score ties to the smaller id (`Less` = better). Total because
/// `total_cmp` is — NaN scores cannot poison a heap.
pub fn cmp_best(a: &Hit, b: &Hit) -> Ordering {
    b.score.total_cmp(&a.score).then(a.id.cmp(&b.id))
}

/// Wrapper whose max-heap maximum is the *worst* retained hit.
struct WorstFirst(Hit);
impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        cmp_best(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_best(&self.0, &other.0)
    }
}

/// A bounded best-k accumulator under [`cmp_best`]. Insertion order
/// never changes the result: the retained set is the k smallest
/// elements of a total order.
struct TopK {
    k: usize,
    heap: BinaryHeap<WorstFirst>,
}

impl TopK {
    fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    #[inline]
    fn push(&mut self, h: Hit) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(h));
        } else {
            let mut worst = self.heap.peek_mut().expect("nonempty");
            if cmp_best(&h, &worst.0) == Ordering::Less {
                // One sift-down in place of a pop and a push.
                *worst = WorstFirst(h);
            }
        }
    }

    /// Order key of the worst retained score: a hit arriving after every
    /// retained id belongs in the list iff its key is strictly above this.
    fn floor(&self) -> i32 {
        order_key(self.heap.peek().expect("nonempty").0.score)
    }

    /// Put `h`, which passed the [`TopK::floor`] test, in place of the
    /// worst retained hit; returns the new floor.
    fn replace_worst(&mut self, h: Hit) -> i32 {
        *self.heap.peek_mut().expect("nonempty") = WorstFirst(h);
        self.floor()
    }

    /// Best-first.
    fn finish(self) -> Vec<Hit> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|w| w.0)
            .collect()
    }
}

/// `f32::total_cmp` as an integer: `order_key(a) < order_key(b)` iff
/// `a.total_cmp(&b)` is `Less`, so `±0` and NaNs keep the selection order.
#[inline(always)]
fn order_key(x: f32) -> i32 {
    let b = x.to_bits() as i32;
    b ^ (((b >> 31) as u32) >> 1) as i32
}

/// Exact top-k: brute-force score of every stored row — the one-query
/// case of the batch scan behind [`search_batch`].
pub fn search_exact(store: &EmbeddingStore, q: &[f32], k: usize) -> Vec<Hit> {
    assert_eq!(q.len(), store.dim(), "query dimension mismatch");
    scan_exact(store, q, k, 1).pop().expect("one query")
}

/// Exact top-k for every query of a packed batch in one pass over the
/// rows. The rows are sharded contiguously across `threads` jobs; each
/// job scores its span a tile of rows at a time against the whole batch
/// (the bits of [`EmbeddingStore::dot`]), and the per-span lists merge
/// under [`cmp_best`] — a total order, so the result does not depend on
/// `threads`.
fn scan_exact(store: &EmbeddingStore, queries: &[f32], k: usize, threads: usize) -> Vec<Vec<Hit>> {
    let dim = store.dim();
    let nq = queries.len() / dim;
    let k = k.min(store.num_vertices());
    let ql = match store.precision() {
        Precision::F32 => QueryLanes::dot8(queries, dim),
        Precision::F16 | Precision::I8 => QueryLanes::chains(queries, dim),
    };
    let sums: Vec<f32> = queries.chunks_exact(dim).map(|q| q.iter().sum()).collect();

    let shards = gosh_runtime::shard_ranges(store.num_vertices(), threads.max(1));
    let mut parts = gosh_runtime::map_jobs(threads.max(1), shards.len(), |t| {
        let span = shards[t].clone();
        let mut staged = vec![0.0f32; TILE * dim];
        let (mut zeros, mut scales) = ([0.0f32; TILE], [0.0f32; TILE]);
        match store.precision() {
            Precision::F32 => select(nq, &ql, k, span, |rows, out| {
                crate::simd::dot8_rows(store.rows_f32(rows.start, rows.len()), &ql, out);
            }),
            Precision::F16 => select(nq, &ql, k, span, |rows, out| {
                // f16 rows lie back to back: the tile is one run of words.
                let staged = &mut staged[..rows.len() * dim];
                let raw = store.rows_raw(rows.start, rows.len());
                decode_f16(|i| le_word(raw, i), staged);
                crate::simd::chain_lanes(staged, &ql, out);
            }),
            Precision::I8 => select(nq, &ql, k, span, |rows, out| {
                let n = rows.len();
                let staged = &mut staged[..n * dim];
                let views = store.rows_i8(rows.start, n);
                for (((x, zero), scale), (rs, codes)) in staged
                    .chunks_exact_mut(dim)
                    .zip(&mut zeros)
                    .zip(&mut scales)
                    .zip(views)
                {
                    // Scale 1, zero 0: the codes themselves, exactly.
                    decode_i8(
                        |i| le_word(codes, i),
                        RowScale {
                            scale: 1.0,
                            zero: 0.0,
                        },
                        x,
                    );
                    (*zero, *scale) = (rs.zero, rs.scale);
                }
                crate::simd::chain_lanes(staged, &ql, out);
                // The affine close of `EmbeddingStore::dot`'s i8 arm.
                for (s, &q_sum) in out.chunks_exact_mut(n.next_multiple_of(LANES)).zip(&sums) {
                    for ((s, &zero), &scale) in s[..n].iter_mut().zip(&zeros).zip(&scales) {
                        *s = zero * q_sum + scale * *s;
                    }
                }
            }),
        }
    });
    if parts.len() == 1 {
        return parts.pop().expect("one span");
    }
    (0..nq)
        .map(|q| {
            let mut top = TopK::new(k);
            for part in &parts {
                for &h in &part[q] {
                    top.push(h);
                }
            }
            top.finish()
        })
        .collect()
}

/// Rows the scan scores per kernel call: a whole number of lane groups.
const TILE: usize = 64;

/// The best `k` rows of `span` for each of `nq` queries. `score(rows,
/// out)` scores a tile of at most [`TILE`] rows into `out` in the layout
/// of [`QueryLanes`]: query `q`'s score for row `rows.start + r` at
/// `out[q * n8 + r]`, `n8` being the tile's row count rounded up to whole
/// lane groups.
///
/// Rows arrive in ascending id, so once a list holds `k` hits a new one
/// belongs in it iff its score is strictly above the worst retained score
/// under `total_cmp` — an equal score loses on the larger id. One integer
/// compare per score settles that, eight rows at a time, and almost no
/// score reaches a heap.
fn select(
    nq: usize,
    ql: &QueryLanes,
    k: usize,
    span: Range<usize>,
    mut score: impl FnMut(Range<u32>, &mut [f32]),
) -> Vec<Vec<Hit>> {
    let k = k.min(span.len());
    let mut tops: Vec<TopK> = (0..nq).map(|_| TopK::new(k)).collect();
    if k == 0 {
        return tops.into_iter().map(TopK::finish).collect();
    }
    let mut scores = vec![0.0f32; ql.width() * TILE];
    // The first `k` rows fill every list; the rest are floor-tested.
    let fill = span.start + k;
    for (filling, part) in [(true, span.start..fill), (false, fill..span.end)] {
        for first in part.clone().step_by(TILE) {
            let rows = first as u32..part.end.min(first + TILE) as u32;
            let n8 = rows.len().next_multiple_of(LANES);
            let out = &mut scores[..ql.width() * n8];
            score(rows.clone(), out);
            for (s, top) in out.chunks_exact_mut(n8).zip(&mut tops) {
                let s = &mut s[..rows.len()];
                // The one NaN `EmbeddingStore::dot` returns.
                for x in s.iter_mut() {
                    *x = canonical_nan(*x);
                }
                if filling {
                    for (id, &score) in rows.clone().zip(&*s) {
                        top.push(Hit { id, score });
                    }
                } else {
                    admit(top, rows.start, s);
                }
            }
        }
    }
    tops.into_iter().map(TopK::finish).collect()
}

/// Offer the scores of rows `first..` to a full `top`, in id order.
fn admit(top: &mut TopK, first: u32, scores: &[f32]) {
    let mut floor = top.floor();
    for (c, s) in scores.chunks(LANES).enumerate() {
        // Eight rows are ruled out with one vector test.
        if let Ok(s8) = <&[f32; LANES]>::try_from(s) {
            if !s8.iter().fold(false, |any, &x| any | above(x, floor)) {
                continue;
            }
        }
        for (id, &score) in (first + (c * LANES) as u32..).zip(s) {
            if above(score, floor) {
                floor = top.replace_worst(Hit { id, score });
            }
        }
    }
}

/// The floor test: `score` is strictly above the worst retained score
/// whose order key is `floor`.
#[inline(always)]
fn above(score: f32, floor: i32) -> bool {
    order_key(score) > floor
}

/// The floor test of [`offer`]: `score` is at or above the worst retained
/// score whose order key is `floor`.
#[inline(always)]
fn at_or_above(score: f32, floor: i32) -> bool {
    order_key(score) >= floor
}

/// An inverted-file (IVF) coarse quantizer over a store: ~√n centroids
/// refined by a few Lloyd iterations, each row filed under its nearest
/// centroid. A query scores all centroids, probes the `nprobe` best
/// lists, and runs exact scoring only inside them.
///
/// The build is deterministic at every thread count: assignment is a
/// pure per-row function (fanned out in contiguous shards), centroid
/// accumulation walks rows in id order on one thread (float addition
/// order is part of the result), and member lists are a counting-sort
/// CSR in ascending id — the same discipline as the graph builders.
pub struct IvfIndex {
    dim: usize,
    /// `nlist × dim` centroid rows.
    centroids: Vec<f32>,
    /// CSR offsets into `members`, length `nlist + 1`.
    offsets: Vec<usize>,
    /// Row ids, grouped by list, ascending inside each list.
    members: Vec<u32>,
    /// First [`RowBlocks`] block of each list in `rows` (f16 and i8 lists
    /// start on a whole block), length `nlist + 1`.
    blocks: Vec<usize>,
    /// The members' rows again, list by list: what a probe scores.
    rows: ListRows,
}

/// A list-major copy of a store's rows, in the store's own encoding, laid
/// out for the kernel that scores it: a probed list is one contiguous run.
enum ListRows {
    /// f32 rows back to back, for [`crate::simd::dot8_rows`].
    F32(Vec<f32>),
    /// f16 bit patterns in [`RowBlocks`] blocks of eight rows, for
    /// [`crate::simd::chain_rows`].
    F16(Vec<u16>),
    /// i8 codes in [`RowBlocks`] blocks of eight rows, and each row's
    /// decode pair in list order.
    I8(Vec<u8>, Vec<RowScale>),
}

impl IvfIndex {
    /// Number of inverted lists [`IvfIndex::build`] makes for `n` rows:
    /// ⌈√n⌉, which is never more than `n`.
    pub fn default_nlist(n: usize) -> usize {
        (n as f64).sqrt().ceil() as usize
    }

    /// Build over every row of `store` using `threads` workers.
    pub fn build(store: &EmbeddingStore, threads: usize) -> Self {
        let n = store.num_vertices();
        let dim = store.dim();
        let nlist = Self::default_nlist(n);
        if n == 0 || nlist == 0 {
            return Self::with_rows(store, Vec::new(), vec![0], Vec::new());
        }

        // Evenly spaced rows seed the centroids: deterministic, spread
        // across the id range, and already on the data manifold.
        let mut centroids = vec![0.0f32; nlist * dim];
        for c in 0..nlist {
            let v = (c * n / nlist) as u32;
            store.decode_row(v, &mut centroids[c * dim..(c + 1) * dim]);
        }

        let mut assign = vec![0u32; n];
        let mut sums = vec![0.0f64; nlist * dim];
        let mut counts = vec![0usize; nlist];
        let mut row = vec![0.0f32; dim];
        const LLOYD_ITERS: usize = 4;
        for _ in 0..LLOYD_ITERS {
            assign_rows(store, &centroids, threads, &mut assign);
            // Accumulate sequentially in row id order: cheap next to the
            // parallel assignment, and it keeps float addition order —
            // hence the centroids — independent of the thread count.
            sums.fill(0.0);
            counts.fill(0);
            for v in 0..n as u32 {
                let c = assign[v as usize] as usize;
                store.decode_row(v, &mut row);
                let s = &mut sums[c * dim..(c + 1) * dim];
                for (acc, &x) in s.iter_mut().zip(&row) {
                    *acc += x as f64;
                }
                counts[c] += 1;
            }
            for c in 0..nlist {
                if counts[c] == 0 {
                    continue; // empty list keeps its previous centroid
                }
                let inv = 1.0f64 / counts[c] as f64;
                for (out, &s) in centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(&sums[c * dim..])
                {
                    *out = (s * inv) as f32;
                }
            }
        }
        assign_rows(store, &centroids, threads, &mut assign);

        // Counting-sort CSR: ascending row id inside each list because
        // the scatter walks ids in order.
        let mut offsets = vec![0usize; nlist + 1];
        for &c in &assign {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..nlist {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut members = vec![0u32; n];
        for (v, &c) in assign.iter().enumerate() {
            members[cursor[c as usize]] = v as u32;
            cursor[c as usize] += 1;
        }
        Self::with_rows(store, centroids, offsets, members)
    }

    /// The index over these lists, with the list-major copy of their rows.
    fn with_rows(
        store: &EmbeddingStore,
        centroids: Vec<f32>,
        offsets: Vec<usize>,
        members: Vec<u32>,
    ) -> Self {
        let dim = store.dim();
        let mut blocks = vec![0usize; offsets.len()];
        for (c, list) in offsets.windows(2).enumerate() {
            blocks[c + 1] = blocks[c] + (list[1] - list[0]).div_ceil(LANES);
        }
        let rows = match store.precision() {
            Precision::F32 => {
                let mut rows = Vec::with_capacity(members.len() * dim);
                for &v in &members {
                    rows.extend_from_slice(store.row_f32(v));
                }
                ListRows::F32(rows)
            }
            Precision::F16 => {
                ListRows::F16(list_blocks(&offsets, &members, &blocks, dim, |v, row| {
                    for (h, x) in store.rows_raw(v, 1).chunks_exact(2).zip(row) {
                        *x = u16::from_le_bytes([h[0], h[1]]);
                    }
                }))
            }
            Precision::I8 => ListRows::I8(
                list_blocks(&offsets, &members, &blocks, dim, |v, row| {
                    let (_, codes) = store.row_i8(v);
                    row.copy_from_slice(&codes[..dim]);
                }),
                members.iter().map(|&v| store.row_i8(v).0).collect(),
            ),
        };
        Self {
            dim,
            centroids,
            offsets,
            members,
            blocks,
            rows,
        }
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Top-k via the `nprobe` most promising lists. `nprobe >= nlist`
    /// degenerates to exact search (every row is in some list).
    ///
    /// Every score has the bits of [`EmbeddingStore::dot`]: the probed
    /// lists are read from the index's list-major copy of the rows, a tile
    /// at a time, f32 rows through [`crate::simd::dot8_rows`] and f16 and
    /// i8 rows through [`crate::simd::chain_rows`] (then, for i8, `dot`'s
    /// affine close).
    pub fn search(&self, store: &EmbeddingStore, q: &[f32], k: usize, nprobe: usize) -> Vec<Hit> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let nlist = self.nlist();
        // A client's `k` must not size the heap past the rows it can hold.
        let k = k.min(store.num_vertices());
        if nlist == 0 || k == 0 {
            return Vec::new();
        }
        let dim = self.dim;
        let ql = QueryLanes::dot8(q, dim);
        let mut scores = vec![0.0f32; nlist.next_multiple_of(LANES).max(TILE)];
        // Rank lists by centroid inner product under the same total order
        // and NaN rule as row selection (centroid id standing in for row id).
        crate::simd::dot8_rows(&self.centroids, &ql, &mut scores);
        let mut ranked = TopK::new(nprobe.clamp(1, nlist));
        for (c, &score) in scores[..nlist].iter().enumerate() {
            ranked.push(Hit {
                id: c as u32,
                score: canonical_nan(score),
            });
        }
        let q_sum: f32 = q.iter().sum();
        let mut top = TopK::new(k);
        for probe in ranked.finish() {
            let c = probe.id as usize;
            let list = self.offsets[c]..self.offsets[c + 1];
            for first in list.clone().step_by(TILE) {
                let n = TILE.min(list.end - first);
                let out = &mut scores[..n.next_multiple_of(LANES)];
                // The tile's first block: lists start on whole blocks.
                let b = self.blocks[c] + (first - list.start) / LANES;
                let blocks = b * dim * LANES..(b * LANES + out.len()) * dim;
                match &self.rows {
                    ListRows::F32(rows) => {
                        crate::simd::dot8_rows(&rows[first * dim..(first + n) * dim], &ql, out)
                    }
                    ListRows::F16(blk) => chain_rows(RowBlocks::F16(&blk[blocks]), q, out),
                    ListRows::I8(blk, scales) => {
                        chain_rows(RowBlocks::I8(&blk[blocks]), q, out);
                        // The affine close of `EmbeddingStore::dot`'s i8 arm.
                        for (s, rs) in out.iter_mut().zip(&scales[first..first + n]) {
                            *s = rs.zero * q_sum + rs.scale * *s;
                        }
                    }
                }
                offer(&mut top, &self.members[first..first + n], &mut out[..n]);
            }
        }
        top.finish()
    }
}

/// Offer rows `ids` with `scores` to `top`, whose retained hits may come
/// from rows of any id: lists arrive in probe order, not id order. Once
/// `top` is full a score can belong in it only if its order key is at or
/// above the floor — an equal score may still win on a smaller id — and
/// [`TopK::push`] settles that under [`cmp_best`].
fn offer(top: &mut TopK, ids: &[u32], scores: &mut [f32]) {
    // The one NaN `EmbeddingStore::dot` returns.
    for x in scores.iter_mut() {
        *x = canonical_nan(*x);
    }
    let fill = (top.k - top.heap.len()).min(ids.len());
    for (&id, &score) in ids[..fill].iter().zip(&scores[..fill]) {
        top.push(Hit { id, score });
    }
    if fill == ids.len() {
        return;
    }
    let mut floor = top.floor();
    for (ids, s) in ids[fill..].chunks(LANES).zip(scores[fill..].chunks(LANES)) {
        // Eight rows are ruled out with one vector test.
        if !s.iter().fold(false, |any, &x| any | at_or_above(x, floor)) {
            continue;
        }
        for (&id, &score) in ids.iter().zip(s) {
            if at_or_above(score, floor) {
                top.push(Hit { id, score });
                floor = top.floor();
            }
        }
    }
}

/// The rows of `members`, list by list (`offsets`), as [`RowBlocks`]
/// codes: row `i` of list `c` is lane `i % 8` of block `blocks[c] + i / 8`,
/// and padding lanes hold 0. `codes(v, row)` writes row `v`'s `dim` codes.
fn list_blocks<T: Copy + Default>(
    offsets: &[usize],
    members: &[u32],
    blocks: &[usize],
    dim: usize,
    mut codes: impl FnMut(u32, &mut [T]),
) -> Vec<T> {
    let mut blk = vec![T::default(); blocks[blocks.len() - 1] * dim * LANES];
    let mut row = vec![T::default(); dim];
    for (c, list) in offsets.windows(2).enumerate() {
        for (i, &v) in members[list[0]..list[1]].iter().enumerate() {
            codes(v, &mut row);
            let at = (blocks[c] + i / LANES) * dim * LANES + i % LANES;
            for (j, &x) in row.iter().enumerate() {
                blk[at + j * LANES] = x;
            }
        }
    }
    blk
}

/// Parallel nearest-centroid assignment (squared L2, ties to the
/// smaller centroid id). Pure per row, sharded contiguously — the
/// result is independent of `threads`. The centroids are transposed
/// once per pass into the lane-per-centroid blocks the kernel scans.
fn assign_rows(store: &EmbeddingStore, centroids: &[f32], threads: usize, assign: &mut [u32]) {
    let n = store.num_vertices();
    let dim = store.dim();
    let ct = crate::simd::transpose_centroids(centroids, dim);
    let shards = gosh_runtime::shard_ranges(n, threads.max(1));
    let parts = gosh_runtime::map_jobs(threads.max(1), shards.len(), |t| {
        let span = shards[t].clone();
        let mut out = Vec::with_capacity(span.len());
        let mut row = vec![0.0f32; dim];
        for v in span {
            store.decode_row(v as u32, &mut row);
            out.push(crate::simd::nearest_centroid(&row, &ct));
        }
        out
    });
    let mut w = 0usize;
    for part in parts {
        assign[w..w + part.len()].copy_from_slice(&part);
        w += part.len();
    }
}

/// Run a query batch across the worker team. `queries` is `nq` rows of
/// `store.dim()` packed densely; `nprobe == 0` (or no `index`) means
/// exact search: one pass over the rows for the whole batch, sharded by
/// row. IVF queries are one job each, a pure function of the query row,
/// and `map_jobs` restores job order. Either way results are bit-identical to calling
/// [`search_exact`]/[`IvfIndex::search`] per query, at any `threads`.
pub fn search_batch(
    store: &EmbeddingStore,
    index: Option<&IvfIndex>,
    queries: &[f32],
    k: usize,
    nprobe: usize,
    threads: usize,
) -> Vec<Vec<Hit>> {
    // Store validation pins dim >= 1, so the division is well-defined.
    let dim = store.dim();
    assert_eq!(queries.len() % dim, 0, "ragged query batch");
    let ivf = match (nprobe, index) {
        (0, _) | (_, None) => return scan_exact(store, queries, k, threads),
        (_, Some(ivf)) => ivf,
    };
    gosh_runtime::map_jobs(threads.max(1), queries.len() / dim, |i| {
        ivf.search(store, &queries[i * dim..(i + 1) * dim], k, nprobe)
    })
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

/// A decoded [`TAG_QUERY`] payload.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    /// Results per query.
    pub k: u32,
    /// Probed IVF lists; 0 = exact brute force.
    pub nprobe: u32,
    /// Query row width (must equal the served store's dim).
    pub dim: u32,
    /// `nq × dim` packed query rows.
    pub queries: Vec<f32>,
}

impl QueryRequest {
    pub fn num_queries(&self) -> usize {
        if self.dim == 0 {
            0
        } else {
            self.queries.len() / self.dim as usize
        }
    }

    /// Encode as a [`TAG_QUERY`] payload:
    /// `[k u32][nprobe u32][nq u32][dim u32][nq·dim × f32]`, all LE.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * self.queries.len());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.nprobe.to_le_bytes());
        out.extend_from_slice(&(self.num_queries() as u32).to_le_bytes());
        out.extend_from_slice(&self.dim.to_le_bytes());
        for &x in &self.queries {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Decode an untrusted payload: every length cross-checked before
    /// use, errors instead of panics.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        if payload.len() < 16 {
            return Err(format!("query header is {} bytes, need 16", payload.len()));
        }
        let k = u32::from_le_bytes(payload[0..4].try_into().unwrap());
        let nprobe = u32::from_le_bytes(payload[4..8].try_into().unwrap());
        let nq = u32::from_le_bytes(payload[8..12].try_into().unwrap());
        let dim = u32::from_le_bytes(payload[12..16].try_into().unwrap());
        let want = (nq as u64)
            .checked_mul(dim as u64)
            .and_then(|x| x.checked_mul(4))
            .ok_or("query size overflows")?;
        let have = payload.len() as u64 - 16;
        if want != have {
            return Err(format!(
                "query claims {nq} x {dim} rows ({want} bytes) but carries {have}"
            ));
        }
        let queries: Vec<f32> = payload[16..]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Self {
            k,
            nprobe,
            dim,
            queries,
        })
    }
}

/// Encode hit lists as a [`TAG_HITS`] payload:
/// `[nq u32]` then per query `[cnt u32]` + `cnt × ([id u32][score f32])`.
pub fn encode_hits(results: &[Vec<Hit>]) -> Vec<u8> {
    let total: usize = results.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(4 + 4 * results.len() + 8 * total);
    out.extend_from_slice(&(results.len() as u32).to_le_bytes());
    for hits in results {
        out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
        for h in hits {
            out.extend_from_slice(&h.id.to_le_bytes());
            out.extend_from_slice(&h.score.to_le_bytes());
        }
    }
    out
}

/// Decode a [`TAG_HITS`] payload (untrusted: the server is a peer too).
pub fn decode_hits(payload: &[u8]) -> Result<Vec<Vec<Hit>>, String> {
    let take4 = |off: usize| -> Result<u32, String> {
        payload
            .get(off..off + 4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .ok_or_else(|| format!("hits payload truncated at byte {off}"))
    };
    let nq = take4(0)? as usize;
    let mut off = 4usize;
    let mut out = Vec::new();
    for _ in 0..nq {
        let cnt = take4(off)? as usize;
        off += 4;
        let mut hits = Vec::with_capacity(cnt.min(1 << 16));
        for _ in 0..cnt {
            let id = take4(off)?;
            let score = f32::from_le_bytes(
                payload
                    .get(off + 4..off + 8)
                    .ok_or_else(|| format!("hits payload truncated at byte {off}"))?
                    .try_into()
                    .unwrap(),
            );
            off += 8;
            hits.push(Hit { id, score });
        }
        out.push(hits);
    }
    if off != payload.len() {
        return Err(format!(
            "hits payload has {} trailing bytes",
            payload.len() - off
        ));
    }
    Ok(out)
}

/// Most connections a [`Server`] serves at once. The next one is sent a
/// [`TAG_ERROR`] "server busy" frame and closed.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a server-side read waits for the peer's next byte, between
/// frames or inside one: a silent or stalled peer is dropped after this.
const READ_TIMEOUT: Duration = if cfg!(test) {
    Duration::from_secs(3)
} else {
    Duration::from_secs(120)
};

/// How long a server-side write waits for the peer to drain its socket:
/// a peer that stops reading replies is dropped after this.
const WRITE_TIMEOUT: Duration = if cfg!(test) {
    Duration::from_secs(1)
} else {
    Duration::from_secs(30)
};

/// Server-side knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker team for batched query execution and the IVF build.
    pub threads: usize,
    /// Build the IVF index at startup (exact search always works).
    pub build_ivf: bool,
    /// Print per-connection lifecycle to stderr.
    pub verbose: bool,
    /// Runs on the build thread before the IVF build: a test holds the
    /// build back with it, or makes it fail.
    #[cfg(test)]
    pub build_gate: Option<fn()>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            build_ivf: true,
            verbose: false,
            #[cfg(test)]
            build_gate: None,
        }
    }
}

/// The IVF index a [`Server`] builds on a thread of its own, published
/// once. Clones share the one build.
#[derive(Clone)]
pub struct IndexBuild(Arc<OnceLock<Option<(IvfIndex, f64)>>>);

impl IndexBuild {
    /// Run [`IvfIndex::build`] over `store` with `cfg.threads` workers on
    /// a new thread.
    fn start(store: Arc<EmbeddingStore>, cfg: &ServeConfig) -> io::Result<Self> {
        let built = Arc::new(OnceLock::new());
        let publish = built.clone();
        let threads = cfg.threads;
        #[cfg(test)]
        let gate = cfg.build_gate;
        std::thread::Builder::new()
            .name("gosh-serve-ivf".into())
            .spawn(move || {
                // The whole body runs under `catch_unwind`, so the thread
                // publishes on every path out: a panicked build as `None`,
                // which IVF requests answer with an error instead of
                // waiting forever.
                let index = catch_unwind(AssertUnwindSafe(|| {
                    #[cfg(test)]
                    if let Some(gate) = gate {
                        gate();
                    }
                    let t0 = Instant::now();
                    let ivf = IvfIndex::build(&store, threads);
                    (ivf, t0.elapsed().as_secs_f64())
                }));
                let _ = publish.set(index.ok());
            })?;
        Ok(Self(built))
    }

    /// Block until the build is done: the index and the seconds it took,
    /// or `None` if the build panicked.
    pub fn wait(&self) -> Option<(&IvfIndex, f64)> {
        self.0.wait().as_ref().map(|(ivf, secs)| (ivf, *secs))
    }
}

/// A serving endpoint: one listener, one store, an optional IVF index.
///
/// It answers from the moment [`Server::bind`] returns. The IVF index is
/// built off the answer path ([`IndexBuild`]); exact requests never touch
/// it, and IVF requests wait for it. Each connection gets a thread of its
/// own, up to [`MAX_CONNECTIONS`], so a slow or idle client delays no one
/// else; parallelism inside a batch is the worker team's.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// What the connection threads share.
struct Shared {
    store: Arc<EmbeddingStore>,
    index: Option<IndexBuild>,
    cfg: ServeConfig,
    /// The listener's address: a stopping connection dials it to wake the
    /// accept loop.
    addr: SocketAddr,
    conns: Mutex<Conns>,
}

/// A handle on each live connection's socket, one per slot, and whether
/// the server is stopping.
struct Conns {
    slots: Vec<Option<TcpStream>>,
    stopping: bool,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the IVF
    /// build. Returns as soon as the listener is bound.
    pub fn bind<A: ToSocketAddrs>(
        store: EmbeddingStore,
        addr: A,
        cfg: ServeConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let store = Arc::new(store);
        let index = cfg
            .build_ivf
            .then(|| IndexBuild::start(store.clone(), &cfg))
            .transpose()?;
        let conns = Conns {
            slots: (0..MAX_CONNECTIONS).map(|_| None).collect(),
            stopping: false,
        };
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                store,
                index,
                cfg,
                addr,
                conns: Mutex::new(conns),
            }),
        })
    }

    /// The bound address (where clients should connect).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn store(&self) -> &EmbeddingStore {
        &self.shared.store
    }

    /// The IVF build, unless the server was bound with `build_ivf: false`.
    pub fn index_build(&self) -> Option<IndexBuild> {
        self.shared.index.clone()
    }

    /// Serve until a client sends [`TAG_SHUTDOWN`]. Each accepted
    /// connection is handed to a thread of its own. A client that dies,
    /// stalls or stops reading drops its own connection (a
    /// [`TransportError`] on stderr when verbose), and the server keeps
    /// accepting — a dead peer is an error, not a crash.
    ///
    /// On shutdown the requesting connection is acknowledged, every other
    /// connection's socket is shut down (a thread blocked reading it wakes
    /// to EOF; a request in flight finishes and its reply fails), and
    /// `run` joins every connection thread before it returns.
    pub fn run(self) -> io::Result<()> {
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        let accepted = loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) => break Err(e),
            };
            if lock(&self.shared.conns).stopping {
                break Ok(());
            }
            threads.retain(|t| !t.is_finished());
            threads.extend(self.shared.open(stream));
        };
        self.shared.shut_all();
        for t in threads {
            let _ = t.join();
        }
        accepted
    }
}

fn lock(conns: &Mutex<Conns>) -> MutexGuard<'_, Conns> {
    // Every critical section is a slot store or a socket shutdown: a
    // poisoned lock still guards consistent slots.
    conns.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Frees its connection slot when the connection thread ends, however it
/// ends.
struct SlotGuard<'a> {
    shared: &'a Shared,
    slot: usize,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        lock(&self.shared.conns).slots[self.slot] = None;
    }
}

impl Shared {
    fn log(&self, what: std::fmt::Arguments) {
        if self.cfg.verbose {
            eprintln!("serve: {what}");
        }
    }

    /// Give an accepted stream a slot and a thread, or tell it the server
    /// is busy. `None` when no thread was started.
    fn open(self: &Arc<Self>, stream: TcpStream) -> Option<JoinHandle<()>> {
        let conn = stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)))
            .and_then(|()| Ok((stream.try_clone()?, FramedConn::from_stream(stream)?)));
        let (socket, mut conn) = match conn {
            Ok(c) => c,
            Err(e) => {
                self.log(format_args!("rejected connection: {e}"));
                return None;
            }
        };
        let slot = {
            let mut conns = lock(&self.conns);
            if conns.stopping {
                return None;
            }
            let free = conns.slots.iter().position(Option::is_none);
            if let Some(i) = free {
                conns.slots[i] = Some(socket);
            }
            free
        };
        let Some(slot) = slot else {
            let busy = format!("server busy: {MAX_CONNECTIONS} connections open; try again later");
            self.log(format_args!("client {} turned away: {busy}", conn.peer()));
            if let Err(e) = conn.send(TAG_ERROR, busy.as_bytes()) {
                self.log(format_args!("client {} dropped: {e}", conn.peer()));
            }
            return None;
        };
        let this = self.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("gosh-serve-{slot}"))
            .spawn(move || this.serve_conn(slot, conn));
        match spawned {
            Ok(thread) => Some(thread),
            Err(e) => {
                lock(&self.conns).slots[slot] = None;
                self.log(format_args!("no thread for a connection: {e}"));
                None
            }
        }
    }

    /// A connection thread: answer frames until the peer leaves, fails or
    /// asks for shutdown.
    fn serve_conn(&self, slot: usize, mut conn: FramedConn) {
        let guard = SlotGuard { shared: self, slot };
        let outcome = self.handle_conn(&mut conn);
        drop(guard);
        match outcome {
            Ok(true) => {
                self.shut_all();
                // Wake the accept loop, which then joins every thread.
                let mut wake = self.addr;
                if wake.ip().is_unspecified() {
                    wake.set_ip(match wake {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                if let Err(e) = TcpStream::connect(wake) {
                    self.log(format_args!(
                        "could not wake the accept loop at {wake}: {e}"
                    ));
                }
            }
            Ok(false) => {}
            Err(e) => self.log(format_args!("client {} dropped: {e}", conn.peer())),
        }
    }

    /// The poison pill: mark the server stopping and shut down every live
    /// connection's socket.
    fn shut_all(&self) {
        let mut conns = lock(&self.conns);
        conns.stopping = true;
        for socket in conns.slots.iter().flatten() {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }

    /// Live connections.
    #[cfg(test)]
    fn live(&self) -> usize {
        lock(&self.conns).slots.iter().flatten().count()
    }

    /// Handle one connection to completion. Returns `Ok(true)` when the
    /// client requested shutdown.
    fn handle_conn(&self, conn: &mut FramedConn) -> Result<bool, TransportError> {
        while let Some((tag, payload)) = conn.recv_opt()? {
            match tag {
                TAG_QUERY => match self.answer(&payload) {
                    Ok(body) => conn.send(TAG_HITS, &body)?,
                    Err(reason) => conn.send(TAG_ERROR, reason.as_bytes())?,
                },
                TAG_SHUTDOWN => {
                    conn.send(TAG_OK, &[])?;
                    return Ok(true);
                }
                other => {
                    conn.send(
                        TAG_ERROR,
                        format!("unknown frame tag {other:#x}").as_bytes(),
                    )?;
                }
            }
        }
        Ok(false)
    }

    /// Validate and execute one query payload. Only an IVF request
    /// (`nprobe > 0`) looks at the index, and it waits for the build.
    fn answer(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let req = QueryRequest::decode(payload)?;
        if req.dim as usize != self.store.dim() {
            return Err(format!(
                "query dim {} does not match the served store's dim {}",
                req.dim,
                self.store.dim()
            ));
        }
        let index = match (req.nprobe, &self.index) {
            (0, _) => None,
            (_, None) => return Err("server has no IVF index; use nprobe 0 (exact)".into()),
            (_, Some(build)) => match build.wait() {
                Some((ivf, _)) => Some(ivf),
                None => return Err("the IVF index build failed; use nprobe 0 (exact)".into()),
            },
        };
        let results = search_batch(
            &self.store,
            index,
            &req.queries,
            req.k as usize,
            req.nprobe as usize,
            self.cfg.threads,
        );
        Ok(encode_hits(&results))
    }
}

/// Client side of the protocol: one framed connection, synchronous
/// request/response. It sets no read timeout: an IVF request may wait for
/// the server's index build.
pub struct ServeClient {
    conn: FramedConn,
}

impl ServeClient {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Ok(Self {
            conn: FramedConn::connect(addr)?,
        })
    }

    /// Run one query batch. `queries` is `nq` packed rows of `dim`. A `k`
    /// or `nprobe` past `u32::MAX` is sent as `u32::MAX`: the server clamps
    /// both to what there is, so "more than there are" still means "all".
    pub fn query(
        &mut self,
        queries: &[f32],
        dim: usize,
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Vec<Hit>>, TransportError> {
        let saturate = |x: usize| u32::try_from(x).unwrap_or(u32::MAX);
        let req = QueryRequest {
            k: saturate(k),
            nprobe: saturate(nprobe),
            dim: dim as u32,
            queries: queries.to_vec(),
        };
        self.conn.send(TAG_QUERY, &req.encode())?;
        let (tag, body) = self.conn.recv()?;
        match tag {
            TAG_HITS => decode_hits(&body).map_err(|detail| TransportError {
                op: "recv",
                peer: self.conn.peer().to_string(),
                tag: Some(TAG_HITS),
                detail,
            }),
            TAG_ERROR => Err(TransportError {
                op: "recv",
                peer: self.conn.peer().to_string(),
                tag: Some(TAG_ERROR),
                detail: String::from_utf8_lossy(&body).into_owned(),
            }),
            other => Err(TransportError {
                op: "recv",
                peer: self.conn.peer().to_string(),
                tag: Some(other),
                detail: "unexpected response tag".into(),
            }),
        }
    }

    /// Ask the server to exit; resolves once it acknowledges.
    pub fn shutdown(&mut self) -> Result<(), TransportError> {
        self.conn.send(TAG_SHUTDOWN, &[])?;
        let (tag, _) = self.conn.recv()?;
        if tag == TAG_OK {
            Ok(())
        } else {
            Err(TransportError {
                op: "recv",
                peer: self.conn.peer().to_string(),
                tag: Some(tag),
                detail: "unexpected shutdown response".into(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Embedding;
    use crate::quant::Precision;
    use crate::store::write_store;
    use gosh_runtime::TempDir;
    use proptest::prelude::*;
    use std::io::{Read, Write};
    use std::sync::{Barrier, Weak};

    /// The returned store outlives its file: the directory guard unlinks
    /// it on return, and an unlinked file stays readable through an open
    /// mapping.
    fn store_from(m: &Embedding, precision: Precision, name: &str) -> EmbeddingStore {
        let dir = TempDir::new(name).unwrap();
        let path = dir.join("m.embin");
        write_store(&path, m, precision).unwrap();
        EmbeddingStore::open(&path).unwrap()
    }

    fn naive_topk(m: &Embedding, q: &[f32], k: usize) -> Vec<u32> {
        let mut scored: Vec<Hit> = (0..m.num_vertices() as u32)
            .map(|v| Hit {
                id: v,
                score: m.row(v).iter().zip(q).map(|(a, b)| a * b).sum(),
            })
            .collect();
        scored.sort_by(cmp_best);
        scored.truncate(k);
        scored.into_iter().map(|h| h.id).collect()
    }

    #[test]
    fn exact_search_matches_a_naive_scan() {
        let m = Embedding::random(200, 16, 7);
        let store = store_from(&m, Precision::F32, "exact");
        let q: Vec<f32> = m.row(13).to_vec();
        let hits = search_exact(&store, &q, 10);
        assert_eq!(hits.len(), 10);
        // Row 13 scores itself highest on this data.
        assert_eq!(hits[0].id, naive_topk(&m, &q, 1)[0]);
        let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, naive_topk(&m, &q, 10));
        // Best-first order under the total order.
        for w in hits.windows(2) {
            assert_eq!(cmp_best(&w[0], &w[1]), Ordering::Less);
        }
    }

    #[test]
    fn topk_ties_break_toward_the_smaller_id() {
        // Identical rows → identical scores; the order must be by id.
        let m = Embedding::from_vec(vec![1.0; 5 * 4], 5, 4);
        let store = store_from(&m, Precision::F32, "ties");
        let hits = search_exact(&store, &[1.0, 1.0, 1.0, 1.0], 3);
        let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn ivf_with_full_probe_is_exact() {
        let m = Embedding::random(300, 12, 9);
        let store = store_from(&m, Precision::F32, "fullprobe");
        let ivf = IvfIndex::build(&store, 2);
        let q: Vec<f32> = m.row(42).to_vec();
        let exact = search_exact(&store, &q, 10);
        let probed = ivf.search(&store, &q, 10, ivf.nlist());
        assert_eq!(exact, probed);
    }

    #[test]
    fn ivf_lists_partition_the_rows() {
        let m = Embedding::random(257, 8, 3);
        let store = store_from(&m, Precision::F32, "partition");
        let ivf = IvfIndex::build(&store, 3);
        let mut seen: Vec<u32> = ivf.members.clone();
        seen.sort_unstable();
        let want: Vec<u32> = (0..257).collect();
        assert_eq!(seen, want);
        assert_eq!(*ivf.offsets.last().unwrap(), 257);
        // The count `gosh serve` announces before the build is the one
        // it builds, down to one row.
        for n in [1, 2, 3, 257] {
            let store = store_from(&Embedding::random(n, 4, 3), Precision::F32, "nlist");
            assert_eq!(
                IvfIndex::build(&store, 2).nlist(),
                IvfIndex::default_nlist(n)
            );
        }
    }

    #[test]
    fn ivf_build_is_thread_count_invariant() {
        let m = Embedding::random(400, 8, 21);
        for precision in [Precision::F32, Precision::I8] {
            let store = store_from(&m, precision, "ivf-threads");
            let a = IvfIndex::build(&store, 1);
            let b = IvfIndex::build(&store, 4);
            assert_eq!(a.centroids, b.centroids);
            assert_eq!(a.offsets, b.offsets);
            assert_eq!(a.members, b.members);
        }
    }

    /// `IvfIndex::build` as it stood before the lane-per-centroid kernel:
    /// one thread, the one-centroid-at-a-time assignment loop, fresh
    /// accumulators every Lloyd iteration.
    fn reference_build(store: &EmbeddingStore) -> IvfIndex {
        let (n, dim) = (store.num_vertices(), store.dim());
        let nlist = IvfIndex::default_nlist(n).min(n);
        let mut centroids = vec![0.0f32; nlist * dim];
        for c in 0..nlist {
            store.decode_row(
                (c * n / nlist) as u32,
                &mut centroids[c * dim..(c + 1) * dim],
            );
        }
        let assign_all = |centroids: &[f32]| -> Vec<u32> {
            let mut row = vec![0.0f32; dim];
            let nearest = |v| {
                store.decode_row(v, &mut row);
                crate::simd::nearest_centroid_reference(&row, centroids)
            };
            (0..n as u32).map(nearest).collect()
        };
        for _ in 0..4 {
            let assign = assign_all(&centroids);
            let mut sums = vec![0.0f64; nlist * dim];
            let mut counts = vec![0usize; nlist];
            let mut row = vec![0.0f32; dim];
            for v in 0..n as u32 {
                let c = assign[v as usize] as usize;
                store.decode_row(v, &mut row);
                for (acc, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(&row) {
                    *acc += x as f64;
                }
                counts[c] += 1;
            }
            for c in (0..nlist).filter(|&c| counts[c] > 0) {
                let inv = 1.0f64 / counts[c] as f64;
                for j in 0..dim {
                    centroids[c * dim + j] = (sums[c * dim + j] * inv) as f32;
                }
            }
        }
        let assign = assign_all(&centroids);
        let mut offsets = vec![0usize; nlist + 1];
        let mut members = Vec::with_capacity(n);
        for c in 0..nlist as u32 {
            members.extend((0..n as u32).filter(|&v| assign[v as usize] == c));
            offsets[c as usize + 1] = members.len();
        }
        IvfIndex::with_rows(store, centroids, offsets, members)
    }

    /// `IvfIndex::search` as it stood before the list-major copy: lists
    /// ranked by `dot8` (with the rows' NaN rule), then every member of
    /// each probed list scored on its own by `EmbeddingStore::dot` and
    /// pushed to the heap — the oracle the list-major search is held to.
    fn reference_search(
        ivf: &IvfIndex,
        store: &EmbeddingStore,
        q: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Vec<Hit> {
        let nlist = ivf.nlist();
        if nlist == 0 {
            return Vec::new();
        }
        let mut ranked = TopK::new(nprobe.clamp(1, nlist));
        for (c, centroid) in ivf.centroids.chunks_exact(ivf.dim).enumerate() {
            ranked.push(Hit {
                id: c as u32,
                score: canonical_nan(crate::simd::dot8(centroid, q)),
            });
        }
        let q_sum: f32 = q.iter().sum();
        let mut top = TopK::new(k.min(store.num_vertices()));
        for probe in ranked.finish() {
            let c = probe.id as usize;
            for &v in &ivf.members[ivf.offsets[c]..ivf.offsets[c + 1]] {
                top.push(Hit {
                    id: v,
                    score: store.dot(v, q, q_sum),
                });
            }
        }
        top.finish()
    }

    /// A query entry: mostly a plain value, sometimes `-0.0`, NaN or `±∞`.
    fn query_entry() -> impl Strategy<Value = f32> {
        (0u8..16, -1.0f32..1.0).prop_map(|(pick, x)| match pick {
            0 => -0.0,
            1 => f32::NAN,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The list-major search gives every query the ids and score bits
        /// of the per-row reference: all three precisions, dims around
        /// every lane boundary, lists of every length mod 8 and past one
        /// 64-row tile (four in five rows copy one of `dups` rows, so a
        /// few lists are long), two equal rows, `k` and `nprobe` at both
        /// ends, and queries holding `-0.0`, NaN and `±∞` (the first is
        /// all `-0.0`: it ties rows across lists, which arrive out of id
        /// order).
        #[test]
        fn ivf_search_equals_the_per_row_reference(
            (n, dim, queries) in (1usize..700, 1usize..=70, 1usize..=5).prop_flat_map(|(n, dim, nq)| (
                Just(n),
                Just(dim),
                prop::collection::vec(query_entry(), nq * dim..=nq * dim),
            )),
            dups in 0usize..4,
            twins in (0usize..700, 0usize..700),
            kpick in 0usize..5,
            mid in 2usize..12,
            probe in 0usize..1000,
            seed in 0u64..u64::MAX,
            pidx in 0usize..3,
        ) {
            let mut m = Embedding::random(n, dim, seed);
            for v in (0..n).filter(|v| dups > 0 && v % 5 != 0) {
                let base = m.row((v % dups) as u32).to_vec();
                m.row_mut(v as u32).copy_from_slice(&base);
            }
            let twin = m.row((twins.0 % n) as u32).to_vec();
            m.row_mut((twins.1 % n) as u32).copy_from_slice(&twin);
            let precision = [Precision::F32, Precision::F16, Precision::I8][pidx];
            let store = store_from(&m, precision, "ivf-prop");
            let ivf = IvfIndex::build(&store, 2);
            let mut queries = queries;
            queries[..dim].fill(-0.0);
            let k = [0, 1, mid, n, n + 3][kpick];
            let nprobe = 1 + probe % (ivf.nlist() + 3);
            let want: Vec<Vec<Hit>> = queries
                .chunks_exact(dim)
                .map(|q| reference_search(&ivf, &store, q, k, nprobe))
                .collect();
            for threads in [1usize, 3] {
                let got = search_batch(&store, Some(&ivf), &queries, k, nprobe, threads);
                prop_assert_eq!(&got, &want, "{} x{} k {} nprobe {}", precision, threads, k, nprobe);
            }
            for (q, want) in queries.chunks_exact(dim).zip(&want) {
                prop_assert_eq!(&ivf.search(&store, q, k, nprobe), want);
            }
        }
    }

    #[test]
    fn ivf_build_matches_the_scalar_reference_build_bit_for_bit() {
        // 700 rows → 27 lists (a ragged last lane block), dim 11 (a
        // ragged row). Rows 25 and 51 seed centroids 1 and 2: made equal,
        // the first pass ties on every row and leaves list 2 empty.
        let mut m = Embedding::random(700, 11, 33);
        let twin = m.row(25).to_vec();
        m.row_mut(51).copy_from_slice(&twin);
        for precision in [Precision::F32, Precision::F16, Precision::I8] {
            let store = store_from(&m, precision, "ivf-reference");
            let want = reference_build(&store);
            for threads in [1, 3] {
                let got = IvfIndex::build(&store, threads);
                assert_eq!(got.centroids, want.centroids, "{precision} x{threads}");
                assert_eq!(got.offsets, want.offsets, "{precision} x{threads}");
                assert_eq!(got.members, want.members, "{precision} x{threads}");
            }
        }
    }

    #[test]
    fn request_and_hits_survive_the_wire_encoding() {
        let req = QueryRequest {
            k: 5,
            nprobe: 3,
            dim: 4,
            queries: vec![0.5, -1.0, 3.25, f32::MIN_POSITIVE, 0.0, 1.0, 2.0, 3.0],
        };
        assert_eq!(QueryRequest::decode(&req.encode()).unwrap(), req);

        let hits = vec![
            vec![Hit { id: 3, score: 0.75 }, Hit { id: 9, score: -0.5 }],
            vec![],
        ];
        assert_eq!(decode_hits(&encode_hits(&hits)).unwrap(), hits);
    }

    #[test]
    fn malformed_requests_error_instead_of_panicking() {
        assert!(QueryRequest::decode(&[]).is_err());
        assert!(QueryRequest::decode(&[0u8; 15]).is_err());
        // Header claims more rows than the payload carries.
        let mut bad = QueryRequest {
            k: 1,
            nprobe: 0,
            dim: 4,
            queries: vec![0.0; 8],
        }
        .encode();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(QueryRequest::decode(&bad).is_err());
        // Truncated hits payload.
        let body = encode_hits(&[vec![Hit { id: 1, score: 2.0 }]]);
        assert!(decode_hits(&body[..body.len() - 2]).is_err());
        assert!(decode_hits(&[9, 0, 0, 0]).is_err());
    }

    #[test]
    fn server_answers_queries_and_shuts_down_over_loopback() {
        let m = Embedding::random(120, 8, 5);
        let store = store_from(&m, Precision::F32, "server");
        let server = Server::bind(
            store,
            "127.0.0.1:0",
            ServeConfig {
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());

        let mut client = ServeClient::connect(addr).unwrap();
        let q: Vec<f32> = m.row(7).to_vec();
        let exact = client.query(&q, 8, 5, 0).unwrap();
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0][0].id, 7);
        let ivf = client.query(&q, 8, 5, 4).unwrap();
        assert_eq!(ivf.len(), 1);
        assert!(!ivf[0].is_empty());

        // A wrong-dim query is a protocol error, not a dropped server.
        let err = client.query(&[1.0, 2.0], 2, 3, 0).unwrap_err();
        assert!(err.detail.contains("dim"), "{err}");
        // The connection survives the error.
        assert_eq!(client.query(&q, 8, 1, 0).unwrap()[0][0].id, 7);

        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn a_client_k_past_the_row_count_is_clamped_to_it() {
        let m = Embedding::random(90, 8, 4);
        let store = store_from(&m, Precision::F32, "huge-k");
        let n = store.num_vertices();
        let q: Vec<f32> = m.row(5).to_vec();
        // The index the server builds, built the same way in-process.
        let probed = IvfIndex::build(&store, 1).search(&store, &q, n, 1);
        let exact = search_exact(&store, &q, n);
        let server = Server::bind(store, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());

        let mut client = ServeClient::connect(addr).unwrap();
        let huge = u32::MAX as usize;
        // One probed list: every row in it, as a `k = n` search returns.
        assert_eq!(client.query(&q, 8, huge, 1).unwrap(), vec![probed]);
        assert_eq!(client.query(&q, 8, huge, 0).unwrap(), vec![exact.clone()]);
        // The server is still answering.
        assert_eq!(client.query(&q, 8, 3, 0).unwrap()[0], exact[..3]);
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    /// `k` and `nprobe` past `u32::MAX` saturate on the wire instead of
    /// wrapping: 2³² + 1 probes every list (not one) and returns every row
    /// (not one), and `nprobe` 2³² stays an IVF request (not 0, exact) —
    /// which a server without an index refuses.
    #[test]
    fn a_client_k_or_nprobe_past_u32_saturates_instead_of_wrapping() {
        let m = Embedding::random(90, 8, 4);
        let store = store_from(&m, Precision::F32, "wide-args");
        let n = store.num_vertices();
        let q: Vec<f32> = m.row(5).to_vec();
        let ivf = IvfIndex::build(&store, 1);
        let full = ivf.search(&store, &q, 5, ivf.nlist());
        let every = search_exact(&store, &q, n);
        let (addr, _, server) = spawn_server(store, ServeConfig::default());
        let mut client = ServeClient::connect(addr).unwrap();
        let past = u32::MAX as usize + 2;
        assert_eq!(client.query(&q, 8, 5, past).unwrap(), vec![full]);
        assert_eq!(client.query(&q, 8, past, 0).unwrap(), vec![every]);
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();

        let store = store_from(&m, Precision::F32, "wide-args-exact");
        let cfg = ServeConfig {
            build_ivf: false,
            ..Default::default()
        };
        let (addr, _, server) = spawn_server(store, cfg);
        let mut client = ServeClient::connect(addr).unwrap();
        let err = client.query(&q, 8, 5, u32::MAX as usize + 1).unwrap_err();
        assert!(err.detail.contains("no IVF index"), "{err}");
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn server_survives_a_client_that_vanishes_mid_conversation() {
        let m = Embedding::random(60, 8, 1);
        let store = store_from(&m, Precision::F32, "vanish");
        let server = Server::bind(store, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());

        // First client connects and dies without a word.
        drop(ServeClient::connect(addr).unwrap());
        // Second client must still get service.
        let mut client = ServeClient::connect(addr).unwrap();
        let q = vec![0.25f32; 8];
        assert_eq!(client.query(&q, 8, 3, 0).unwrap()[0].len(), 3);
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    /// A server on an ephemeral loopback port, running on a thread of its
    /// own: its address, its shared state, and that thread.
    fn spawn_server(
        store: EmbeddingStore,
        cfg: ServeConfig,
    ) -> (SocketAddr, Weak<Shared>, JoinHandle<io::Result<()>>) {
        let server = Server::bind(store, "127.0.0.1:0", cfg).unwrap();
        let addr = server.local_addr().unwrap();
        let shared = Arc::downgrade(&server.shared);
        (addr, shared, std::thread::spawn(move || server.run()))
    }

    /// Poll `cond` every 10 ms until it holds or `within` has passed.
    fn eventually(within: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let t0 = Instant::now();
        while !cond() {
            if t0.elapsed() > within {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// Exact requests are answered while the IVF build is held back. An
    /// IVF request sent before them, on a connection of its own, waits for
    /// the build and then gets the bits of an in-process build + search.
    #[test]
    fn ivf_requests_wait_for_a_held_build_and_exact_ones_do_not() {
        // The build thread and the test meet here; one server at a time.
        static GATE: Barrier = Barrier::new(2);
        let m = Embedding::random(500, 12, 8);
        let (k, nprobe) = (7, 3);
        for precision in [Precision::F32, Precision::F16, Precision::I8] {
            for threads in [1, 3] {
                let store = store_from(&m, precision, "held-build");
                let queries = pick_queries(&store, 6);
                let ivf = IvfIndex::build(&store, threads);
                let want_ivf = search_batch(&store, Some(&ivf), &queries, k, nprobe, threads);
                let want_exact = search_batch(&store, None, &queries, k, 0, threads);
                let cfg = ServeConfig {
                    threads,
                    build_gate: Some(|| {
                        GATE.wait();
                    }),
                    ..Default::default()
                };
                let (addr, _, server) = spawn_server(store, cfg);

                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                let mut waiting = FramedConn::from_stream(stream.try_clone().unwrap()).unwrap();
                let request = QueryRequest {
                    k: k as u32,
                    nprobe: nprobe as u32,
                    dim: 12,
                    queries: queries.clone(),
                };
                waiting.send(TAG_QUERY, &request.encode()).unwrap();

                let mut client = ServeClient::connect(addr).unwrap();
                assert_eq!(client.query(&queries, 12, k, 0).unwrap(), want_exact);
                let held = waiting.recv().unwrap_err();
                assert!(held.detail.contains("timed out"), "{held}");

                stream.set_read_timeout(None).unwrap();
                GATE.wait();
                let (tag, body) = waiting.recv().unwrap();
                assert_eq!(tag, TAG_HITS, "{}", String::from_utf8_lossy(&body));
                assert_eq!(
                    decode_hits(&body).unwrap(),
                    want_ivf,
                    "{precision} x{threads}"
                );
                client.shutdown().unwrap();
                server.join().unwrap().unwrap();
            }
        }
    }

    /// A build that panics is published as failed: IVF requests get an
    /// error frame instead of waiting forever, and exact ones still work.
    #[test]
    fn a_failed_build_answers_ivf_requests_with_an_error() {
        let m = Embedding::random(100, 8, 4);
        let cfg = ServeConfig {
            build_gate: Some(|| panic!("IVF build fails on purpose")),
            ..Default::default()
        };
        let store = store_from(&m, Precision::F32, "failed-build");
        let q = m.row(3).to_vec();
        let want = search_exact(&store, &q, 3);
        let (addr, _, server) = spawn_server(store, cfg);
        let mut client = ServeClient::connect(addr).unwrap();
        let err = client.query(&q, 8, 3, 2).unwrap_err();
        assert_eq!(err.tag, Some(TAG_ERROR), "{err}");
        assert!(err.detail.contains("build failed"), "{err}");
        assert_eq!(client.query(&q, 8, 3, 0).unwrap()[0], want);
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
    }

    /// The regression for the accept loop that served one connection to
    /// completion before accepting the next: with a client connected and
    /// silent, another is served, and the silent one is still connected.
    #[test]
    fn an_idle_client_does_not_hold_up_another() {
        let m = Embedding::random(200, 8, 3);
        let store = store_from(&m, Precision::F32, "idle");
        let q = m.row(9).to_vec();
        let want = search_exact(&store, &q, 3);
        let (addr, _, server) = spawn_server(store, ServeConfig::default());

        let mut idle = ServeClient::connect(addr).unwrap();
        assert_eq!(idle.query(&q, 8, 3, 0).unwrap()[0], want);
        let mut other = ServeClient::connect(addr).unwrap();
        assert_eq!(other.query(&q, 8, 3, 0).unwrap()[0], want);
        assert_eq!(other.query(&q, 8, 3, 2).unwrap()[0].len(), 3);
        assert_eq!(idle.query(&q, 8, 3, 0).unwrap()[0], want);
        other.shutdown().unwrap();
        server.join().unwrap().unwrap();
    }

    /// `SHUTDOWN` with an idle client connected: `run` shuts the idle
    /// socket instead of waiting out its read timeout, and no connection
    /// thread outlives it.
    #[test]
    fn shutdown_with_an_idle_client_connected_returns_promptly() {
        let m = Embedding::random(100, 8, 2);
        let (addr, shared, server) = spawn_server(
            store_from(&m, Precision::F32, "stop"),
            ServeConfig::default(),
        );
        let q = m.row(0).to_vec();
        let mut idle = ServeClient::connect(addr).unwrap();
        idle.query(&q, 8, 2, 0).unwrap();

        let t0 = Instant::now();
        ServeClient::connect(addr).unwrap().shutdown().unwrap();
        server.join().unwrap().unwrap();
        assert!(t0.elapsed() < READ_TIMEOUT, "run took {:?}", t0.elapsed());
        assert!(
            shared.upgrade().is_none(),
            "a connection thread outlived run"
        );
        assert!(idle.query(&q, 8, 2, 0).is_err());
    }

    /// Connection `MAX_CONNECTIONS + 1` gets a typed "server busy" error
    /// while the others keep answering, and a slot given back is reused.
    #[test]
    fn one_connection_past_the_bound_is_turned_away() {
        let m = Embedding::random(100, 4, 6);
        let store = store_from(&m, Precision::F32, "busy");
        let q = m.row(1).to_vec();
        let want = search_exact(&store, &q, 2);
        let (addr, shared, server) = spawn_server(store, ServeConfig::default());
        let live = || shared.upgrade().map_or(0, |s| s.live());

        let mut clients: Vec<ServeClient> = (0..MAX_CONNECTIONS)
            .map(|_| ServeClient::connect(addr).unwrap())
            .collect();
        for c in &mut clients {
            assert_eq!(c.query(&q, 4, 2, 0).unwrap()[0], want);
        }
        let err = ServeClient::connect(addr)
            .unwrap()
            .query(&q, 4, 2, 0)
            .unwrap_err();
        assert_eq!(err.tag, Some(TAG_ERROR), "{err}");
        assert!(err.detail.contains("server busy"), "{err}");
        for c in &mut clients {
            assert_eq!(c.query(&q, 4, 2, 0).unwrap()[0], want);
        }

        drop(clients.pop());
        assert!(eventually(Duration::from_secs(5), || live() == MAX_CONNECTIONS - 1));
        let mut next = ServeClient::connect(addr).unwrap();
        assert_eq!(next.query(&q, 4, 2, 0).unwrap()[0], want);
        next.shutdown().unwrap();
        server.join().unwrap().unwrap();
    }

    /// A peer that stalls inside a frame header and one that stops reading
    /// its replies are each dropped after a timeout, giving back their
    /// slots, while another client is served throughout.
    #[test]
    fn stalled_peers_are_dropped_and_their_slots_returned() {
        let m = Embedding::random(2000, 4, 12);
        let store = store_from(&m, Precision::F32, "stalled");
        let q = m.row(0).to_vec();
        let want = search_exact(&store, &q, 3);
        let cfg = ServeConfig {
            verbose: true,
            ..Default::default()
        };
        let (addr, shared, server) = spawn_server(store, cfg);
        let live = || shared.upgrade().map_or(0, |s| s.live());

        // Six bytes of a twelve-byte header, then silence.
        let mut half = TcpStream::connect(addr).unwrap();
        half.write_all(&[TAG_QUERY as u8, 0, 0, 0, 64, 0]).unwrap();
        // Thirty-two requests for 1 MB replies, none of them read: more
        // than the loopback socket buffers hold.
        let mut deaf = FramedConn::connect(addr).unwrap();
        let request = QueryRequest {
            k: 2000,
            nprobe: 0,
            dim: 4,
            queries: m.as_slice()[..64 * 4].to_vec(),
        };
        for _ in 0..32 {
            deaf.send(TAG_QUERY, &request.encode()).unwrap();
        }

        let mut client = ServeClient::connect(addr).unwrap();
        let served = eventually(READ_TIMEOUT * 4, || {
            assert_eq!(client.query(&q, 4, 3, 0).unwrap()[0], want);
            live() == 1
        });
        assert!(served, "{} connections still live", live());
        half.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(half.read(&mut [0u8; 1]).unwrap(), 0, "not closed");
        // Cut off mid-stream by the write timeout, not served to the end.
        let replies = std::iter::from_fn(|| deaf.recv().ok()).count();
        assert!(replies < 32, "all {replies} replies were written");
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn i8_store_serves_without_decoding() {
        let m = Embedding::random(150, 16, 77);
        let store = store_from(&m, Precision::I8, "i8serve");
        assert_eq!(store.precision(), Precision::I8);
        let q: Vec<f32> = m.row(31).to_vec();
        let hits = search_exact(&store, &q, 5);
        assert_eq!(hits.len(), 5);
        // Quantization moves scores a little; the query's own row must
        // still land in the top 5.
        assert!(hits.iter().any(|h| h.id == 31), "{hits:?}");
    }

    /// Evenly spaced stored rows, decoded, as a flat query batch.
    fn pick_queries(store: &EmbeddingStore, count: usize) -> Vec<f32> {
        let n = store.num_vertices();
        let dim = store.dim();
        let mut queries = vec![0.0f32; count * dim];
        for (i, chunk) in queries.chunks_exact_mut(dim).enumerate() {
            store.decode_row((i * n / count) as u32, chunk);
        }
        queries
    }

    /// Mean |exact ∩ ivf| / k over paired per-query hit lists.
    fn mean_recall(exact: &[Vec<Hit>], ivf: &[Vec<Hit>]) -> f64 {
        assert_eq!(exact.len(), ivf.len());
        let mut total = 0.0f64;
        for (e, a) in exact.iter().zip(ivf) {
            let got = a.iter().filter(|h| e.iter().any(|x| x.id == h.id)).count();
            total += got as f64 / e.len() as f64;
        }
        total / exact.len() as f64
    }

    /// IVF recall@10 ≥ 0.9 against exact search on a `gen::suite` graph
    /// embedding, probing a quarter of the lists.
    #[test]
    fn ivf_recall_at_10_clears_090_on_a_suite_graph_embedding() {
        use crate::config::{GoshConfig, Preset};
        let g = gosh_graph::gen::dataset("dblp-like")
            .expect("suite graph")
            .generate(11);
        let mut gcfg = GoshConfig::preset(Preset::Normal, false)
            .with_dim(16)
            .with_epochs(30)
            .with_threads(4)
            .with_backend(crate::backend::BackendChoice::Cpu);
        gcfg.seed = 11;
        let device = gosh_gpu::Device::new(gosh_gpu::DeviceConfig::titan_x());
        let (m, _) = crate::pipeline::embed(&g, &gcfg, &device);
        let store = store_from(&m, Precision::F32, "recall");

        let ivf = IvfIndex::build(&store, 4);
        let nprobe = (ivf.nlist() / 4).max(1);
        let queries = pick_queries(&store, 64);
        let exact = search_batch(&store, None, &queries, 10, 0, 4);
        let approx = search_batch(&store, Some(&ivf), &queries, 10, nprobe, 4);
        let recall = mean_recall(&exact, &approx);
        assert!(
            recall >= 0.9,
            "IVF recall@10 = {recall:.3} with nprobe {nprobe}/{} lists",
            ivf.nlist()
        );
    }
}
