//! Parallel streaming edge-list ingestion.
//!
//! [`crate::io::read_edge_list`] is the sequential reference: one thread,
//! one line at a time, one global interner. This module is the production
//! path for multi-million-edge SNAP/KONECT files — a worker team over
//! newline-aligned chunks whose output is **byte-identical** to the
//! sequential parser (graph, `original_ids`, and [`ParseStats`]),
//! enforced by proptest across thread counts and chunk sizes:
//!
//! 1. **Chunk** — the input splits into newline-aligned byte ranges of
//!    roughly [`IngestConfig::chunk_bytes`] each; workers claim chunks
//!    through an atomic cursor. One worker's default is one chunk.
//! 2. **Parse** — each chunk is scanned as raw bytes (no per-line
//!    `String`, no UTF-8 pass) by a single-pass fast scanner for the hot
//!    `u v` / `u v w` shapes; anything else falls back to the shared
//!    [`crate::io::parse_edge_line`] grammar, so format (and error)
//!    semantics live in one place. Vertex ids intern into a
//!    *chunk-local* interner: ids below a bound proportional to the
//!    chunk's byte length index a direct table (the dense `0..n` ids
//!    generators and converters write never hash), every other id goes
//!    to an open-addressed map (multiply-shift hashing — much cheaper
//!    than the reference parser's SipHash `HashMap`). The result is local
//!    arcs plus the chunk's raw ids in local first-seen order.
//! 3. **Shard merge** — raw ids hash-partition across one shard map per
//!    worker; each shard records the earliest `(chunk, position)`
//!    occurrence of its ids. No locks: a shard is owned by one worker.
//! 4. **Stable resolution** — an id's global dense id is determined by
//!    its earliest occurrence: chunks are numbered in document order and
//!    positions in local first-seen order, so ranking winners by
//!    `(chunk, position)` reproduces the sequential first-seen order
//!    exactly. A prefix sum over per-chunk win counts turns ranks into
//!    dense ids, per-chunk translation tables rewrite the local arcs,
//!    and `original_ids` concatenates the winners. Phases 3–4 are the
//!    identity on a single chunk and are skipped there.
//! 5. **Build** — the remapped arc chunks feed the parallel
//!    counting-sort CSR build ([`crate::builder`]): an atomic-free
//!    scatter/gather in the spirit of the fused coarsener, with static
//!    arc spans, private per-worker counts turned into private scatter
//!    cursors by a (vertex, worker) prefix sum, in-place sort + dedup
//!    over arc-mass-balanced vertex ranges, and memcpy assembly.
//!
//! Errors are deterministic too: the first malformed line in document
//! order is reported with the same message and line number the
//! sequential parser would produce.

use std::io;
use std::path::Path;

use crate::builder::build_csr_parallel;
use crate::csr::VertexId;
use crate::io::{bad_line, parse_edge_line, EdgeLine, LoadedGraph, ParseStats};
use crate::rng::mix64;

/// Knobs for the parallel ingestion path.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Worker threads for every phase.
    pub threads: usize,
    /// Target bytes per newline-aligned chunk (actual chunks extend to
    /// the next newline). Small values exist for tests; the team default
    /// keeps per-chunk interners cache-resident while giving the team
    /// enough chunks to balance, and one worker's default is the whole
    /// input as one chunk.
    pub chunk_bytes: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self::with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
        )
    }
}

impl IngestConfig {
    /// A config with `threads` workers and the default chunk size: 1 MiB
    /// for a team, and for one worker the whole input, so the id
    /// resolution of phases 3–4 (the identity on one chunk) is skipped.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            chunk_bytes: if threads <= 1 { usize::MAX } else { 1 << 20 },
        }
    }
}

/// Parse an in-memory edge list with a worker team. Output is
/// byte-identical to [`crate::io::read_edge_list`] on the same bytes.
pub fn read_edge_list_parallel(data: &[u8], cfg: &IngestConfig) -> io::Result<LoadedGraph> {
    let threads = cfg.threads.max(1);
    let bounds = chunk_bounds(data, cfg.chunk_bytes.max(1));
    let nc = bounds.len();

    // Phase 2: parse chunks.
    let mut chunks: Vec<ChunkParse> = map_jobs(threads, nc, |c| {
        parse_chunk(&data[bounds[c].0..bounds[c].1])
    });

    // The first malformed line in document order wins, with the global
    // line number the sequential parser would report.
    let mut line_base = 0usize;
    for ch in &chunks {
        if let Some((local, msg)) = ch.error {
            return Err(bad_line(line_base + local, msg));
        }
        line_base += ch.lines;
    }

    // Phases 3–4 turn chunk-local ids into global first-seen ids. For a
    // single chunk they are the identity: its local first-seen order is
    // the document's, so its ids and arcs are final as parsed.
    let (original_ids, arc_lists) = if nc == 1 {
        let ch = &mut chunks[0];
        (
            std::mem::take(&mut ch.firsts),
            vec![std::mem::take(&mut ch.arcs)],
        )
    } else {
        resolve_chunks(&mut chunks, threads)
    };
    let n = original_ids.len();
    if n > u32::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{n} distinct vertex ids exceed the u32 vertex-id space"),
        ));
    }

    // Phase 5: parallel counting-sort CSR build over the arc chunks.
    let refs: Vec<&[(VertexId, VertexId)]> = arc_lists.iter().map(|v| v.as_slice()).collect();
    let graph = build_csr_parallel(n, &refs, threads);

    let mut stats = ParseStats::default();
    for ch in &chunks {
        stats.edge_lines += ch.edge_lines;
        stats.weighted_lines += ch.weighted_lines;
        stats.self_loops_dropped += ch.self_loops;
    }
    stats.duplicates_dropped =
        stats.edge_lines - stats.self_loops_dropped - graph.num_undirected_edges();

    Ok(LoadedGraph {
        graph,
        original_ids,
        stats,
    })
}

/// Phases 3–4 for two or more chunks: resolve every chunk's local ids to
/// global dense ids in document first-seen order. Returns
/// `original_ids` and the per-chunk arc lists rewritten to global ids.
fn resolve_chunks(
    chunks: &mut [ChunkParse],
    threads: usize,
) -> (Vec<u64>, Vec<Vec<(VertexId, VertexId)>>) {
    let nc = chunks.len();

    // Phase 3: shard merge. Each shard map records the earliest
    // (chunk, position) occurrence of the raw ids that hash to it.
    let num_shards = threads.next_power_of_two();
    let shards: Vec<RawMap> = map_jobs(threads, num_shards, |sh| {
        let mut m = RawMap::with_capacity(64);
        for (c, ch) in chunks.iter().enumerate() {
            for (p, &raw) in ch.firsts.iter().enumerate() {
                if shard_of(raw, num_shards) == sh {
                    m.insert_if_absent(raw, pack(c, p));
                }
            }
        }
        m
    });
    let owner_of = |raw: u64| {
        shards[shard_of(raw, num_shards)]
            .get(raw)
            .expect("interned id missing from its shard")
    };

    // Phase 4a: per chunk, which first-seen entries are global wins, and
    // their rank among the chunk's wins (in position order).
    let wins: Vec<WinInfo> = map_jobs(threads, nc, |c| {
        let ch = &chunks[c];
        let mut rank = vec![NOT_A_WIN; ch.firsts.len()];
        let mut w = 0u32;
        for (p, &raw) in ch.firsts.iter().enumerate() {
            if owner_of(raw) == pack(c, p) {
                rank[p] = w;
                w += 1;
            }
        }
        WinInfo {
            rank,
            wins: w as usize,
        }
    });
    let mut base = vec![0usize; nc + 1];
    for c in 0..nc {
        base[c + 1] = base[c] + wins[c].wins;
    }

    // Phase 4b: per-chunk original-id runs and local→global translation
    // tables. Winners take `base[chunk] + rank`; losers resolve through
    // their owning chunk's rank. (Ids past `u32::MAX` wrap here; the
    // caller rejects that many ids before anything reads the arcs.)
    let parts: Vec<(Vec<u64>, Vec<VertexId>)> = map_jobs(threads, nc, |c| {
        let ch = &chunks[c];
        let rank = &wins[c].rank;
        let mut ids: Vec<u64> = Vec::with_capacity(wins[c].wins);
        let mut trans: Vec<VertexId> = Vec::with_capacity(ch.firsts.len());
        for (p, &raw) in ch.firsts.iter().enumerate() {
            let g = if rank[p] != NOT_A_WIN {
                ids.push(raw);
                base[c] + rank[p] as usize
            } else {
                let (oc, op) = unpack(owner_of(raw));
                base[oc] + wins[oc].rank[op] as usize
            };
            trans.push(g as VertexId);
        }
        (ids, trans)
    });

    // Phase 4c: remap each chunk's local arcs to global dense ids — in
    // place, so arc storage is never duplicated (the lists are moved out
    // of the chunks and rewritten where they sit). Chunk groups are
    // contiguous, so each worker owns a disjoint `&mut` window.
    let mut arc_lists: Vec<Vec<(VertexId, VertexId)>> = chunks
        .iter_mut()
        .map(|ch| std::mem::take(&mut ch.arcs))
        .collect();
    let group = nc.div_ceil(threads).max(1);
    let windows: Vec<std::sync::Mutex<Option<Window<'_>>>> = arc_lists
        .chunks_mut(group)
        .zip(parts.chunks(group))
        .map(|w| std::sync::Mutex::new(Some(w)))
        .collect();
    map_jobs(threads, windows.len(), |i| {
        let (lists, trs) = windows[i]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("window claimed once");
        for (arcs, (_, trans)) in lists.iter_mut().zip(trs) {
            for a in arcs.iter_mut() {
                *a = (trans[a.0 as usize], trans[a.1 as usize]);
            }
        }
    });

    let mut original_ids: Vec<u64> = Vec::with_capacity(base[nc]);
    for (ids, _) in &parts {
        original_ids.extend_from_slice(ids);
    }
    (original_ids, arc_lists)
}

/// Load an edge-list file through the parallel path.
///
/// The file is read into memory once and then processed at chunk
/// granularity — newline-aligned chunking needs random access, so
/// "streaming" here means the *work* (parse, validate, intern, build)
/// flows through bounded per-chunk state, not that the input bytes do.
/// Peak memory is the file plus one `(u32, u32)` arc per edge line.
pub fn load_edge_list_parallel<P: AsRef<Path>>(
    path: P,
    cfg: &IngestConfig,
) -> io::Result<LoadedGraph> {
    let data = std::fs::read(path)?;
    read_edge_list_parallel(&data, cfg)
}

/// One chunk's parse result: locally interned arcs plus raw ids in local
/// first-seen order.
struct ChunkParse {
    /// Raw ids in local first-seen order.
    firsts: Vec<u64>,
    /// Arcs over local ids (indices into `firsts`).
    arcs: Vec<(u32, u32)>,
    /// Lines in this chunk (for global line numbers).
    lines: usize,
    /// Edge lines parsed.
    edge_lines: usize,
    /// Lines with a validated weight column.
    weighted_lines: usize,
    /// Edge lines with `u == v`.
    self_loops: usize,
    /// First malformed line: (chunk-local 0-based line, message).
    error: Option<(usize, &'static str)>,
}

/// Rank sentinel: this first-seen entry lost to an earlier chunk.
const NOT_A_WIN: u32 = u32::MAX;

/// Per-chunk win bookkeeping for the stable resolution pass.
struct WinInfo {
    /// For winning positions, the rank among the chunk's wins; else
    /// [`NOT_A_WIN`].
    rank: Vec<u32>,
    /// Number of wins (new dense ids this chunk introduces).
    wins: usize,
}

#[inline]
fn pack(chunk: usize, pos: usize) -> u64 {
    (chunk as u64) << 32 | pos as u64
}

#[inline]
fn unpack(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize)
}

#[inline]
fn shard_of(raw: u64, num_shards: usize) -> usize {
    // High mix bits pick the shard; the shard maps index with the low
    // bits, so the two decisions stay independent.
    (mix64(raw) >> 33) as usize & (num_shards - 1)
}

/// Split `data` into newline-aligned `(start, end)` ranges of roughly
/// `target` bytes: every chunk but the last ends just past a `'\n'`.
fn chunk_bounds(data: &[u8], target: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < data.len() {
        let mut end = start.saturating_add(target).min(data.len());
        if end < data.len() && data[end - 1] != b'\n' {
            end = match data[end..].iter().position(|&b| b == b'\n') {
                Some(i) => end + i + 1,
                None => data.len(),
            };
        }
        out.push((start, end));
        start = end;
    }
    out
}

/// Byte-scan one chunk: fast-path scanner with the shared grammar as
/// the fallback oracle, feeding the local interner.
fn parse_chunk(data: &[u8]) -> ChunkParse {
    // Every edge line ends in a newline except perhaps the last, so this
    // bounds the arc count without a doubling vector spanning the input.
    // (Byte sums over 255-byte blocks cannot overflow and vectorize.)
    let max_lines = data
        .chunks(255)
        .map(|c| c.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>() as usize)
        .sum::<usize>()
        + 1;
    let mut cp = ChunkParse {
        firsts: Vec::new(),
        arcs: Vec::with_capacity(max_lines),
        lines: 0,
        edge_lines: 0,
        weighted_lines: 0,
        self_loops: 0,
        error: None,
    };
    let mut interner = Interner::new(data.len() / DIRECT_BYTES_PER_ID);
    let mut pos = 0usize;
    while pos < data.len() {
        let scanned = match scan_line(data, pos) {
            Scan::Skip { next } => {
                cp.lines += 1;
                pos = next;
                continue;
            }
            Scan::Edge {
                u,
                v,
                weighted,
                next,
            } => {
                pos = next;
                Ok(EdgeLine::Edge { u, v, weighted })
            }
            Scan::Fallback { line_end, next } => {
                let line = &data[pos..line_end];
                pos = next;
                parse_edge_line(line)
            }
        };
        match scanned {
            Ok(EdgeLine::Skip) => {}
            Ok(EdgeLine::Edge { u, v, weighted }) => {
                cp.edge_lines += 1;
                cp.weighted_lines += usize::from(weighted);
                cp.self_loops += usize::from(u == v);
                let ui = interner.intern(&mut cp.firsts, u);
                let vi = interner.intern(&mut cp.firsts, v);
                cp.arcs.push((ui, vi));
            }
            Err(msg) => {
                if cp.error.is_none() {
                    cp.error = Some((cp.lines, msg));
                }
            }
        }
        cp.lines += 1;
    }
    cp
}

/// Input bytes per direct-index slot: a chunk of `len` bytes interns ids
/// below `len / DIRECT_BYTES_PER_ID` through [`Interner::direct`]. Every
/// edge line takes at least four bytes and names at most two new ids, so
/// a file whose ids are `0..n` — what generators and `gosh convert` write
/// — stays below the bound unless its lines average under eight bytes
/// per distinct id.
const DIRECT_BYTES_PER_ID: usize = 4;

/// A chunk's raw-id → local-id interner. Small ids index a table
/// directly (one load, no hash, and dense ids touch it sequentially);
/// every other id goes through the open-addressed [`RawMap`]. Both paths
/// hand out local ids in first-seen order.
struct Interner {
    /// `direct[raw]` is the local id of `raw` plus one, or 0 if `raw` has
    /// not been seen. Grows by doubling up to `bound` entries, so its
    /// size follows the largest small id seen, not the chunk.
    direct: Vec<u32>,
    /// Exclusive upper bound on the ids `direct` may hold.
    bound: u64,
    /// Every id at or above `bound`.
    map: RawMap,
}

impl Interner {
    fn new(bound: usize) -> Self {
        Self {
            direct: Vec::new(),
            bound: bound as u64,
            map: RawMap::with_capacity(256),
        }
    }

    /// The local id of `raw`, appending it to `firsts` on first sight.
    /// Local ids past `u32::MAX` wrap; the caller rejects that many ids.
    #[inline]
    fn intern(&mut self, firsts: &mut Vec<u64>, raw: u64) -> u32 {
        if raw < self.bound {
            let i = raw as usize;
            if i >= self.direct.len() {
                let len = (i + 1).next_power_of_two().max(1024);
                self.direct.resize(len.min(self.bound as usize), 0);
            }
            let slot = &mut self.direct[i];
            if *slot == 0 {
                *slot = (firsts.len() as u32).wrapping_add(1);
                firsts.push(raw);
            }
            return slot.wrapping_sub(1);
        }
        let (val, inserted) = self.map.get_or_insert(raw, firsts.len() as u64);
        if inserted {
            firsts.push(raw);
        }
        val as u32
    }
}

/// One fast-scanned line.
enum Scan {
    /// Blank or comment; `next` is the start of the following line.
    Skip { next: usize },
    /// A proven `u v` / `u v w` line.
    Edge {
        u: u64,
        v: u64,
        weighted: bool,
        next: usize,
    },
    /// Anything the fast path does not prove — exotic number forms,
    /// malformed fields — re-parsed by [`parse_edge_line`] so semantics
    /// (and error messages) stay defined in exactly one place.
    Fallback { line_end: usize, next: usize },
}

/// ASCII whitespace that can appear *inside* a line (everything
/// `u8::is_ascii_whitespace` accepts except `\n`, which terminates it).
#[inline]
fn is_line_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0C)
}

/// Scan one line starting at `pos` in a single left-to-right pass. The
/// hot case — optionally padded `digits ws digits`, with an optional
/// numeric third column — is decided without the generic trim/split
/// machinery of [`parse_edge_line`]; every other shape falls back to it.
fn scan_line(data: &[u8], pos: usize) -> Scan {
    let len = data.len();
    let fallback = |from: usize| {
        let line_end = from
            + data[from..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap_or(len - from);
        Scan::Fallback {
            line_end,
            next: (line_end + 1).min(len),
        }
    };
    let mut i = pos;
    while i < len && is_line_ws(data[i]) {
        i += 1;
    }
    if i >= len {
        return Scan::Skip { next: len };
    }
    match data[i] {
        b'\n' => return Scan::Skip { next: i + 1 },
        b'#' | b'%' => {
            while i < len && data[i] != b'\n' {
                i += 1;
            }
            return Scan::Skip {
                next: (i + 1).min(len),
            };
        }
        _ => {}
    }
    let Some((u, j)) = scan_u64(data, i) else {
        return fallback(pos);
    };
    let mut i = j;
    if i >= len || !is_line_ws(data[i]) {
        // Lone token, `12x`-style junk, or `u\n`: all grammar errors.
        return fallback(pos);
    }
    while i < len && is_line_ws(data[i]) {
        i += 1;
    }
    let Some((v, j)) = scan_u64(data, i) else {
        return fallback(pos);
    };
    let mut i = j;
    if i < len && !is_line_ws(data[i]) && data[i] != b'\n' {
        return fallback(pos);
    }
    while i < len && is_line_ws(data[i]) {
        i += 1;
    }
    if i >= len || data[i] == b'\n' {
        return Scan::Edge {
            u,
            v,
            weighted: false,
            next: (i + 1).min(len),
        };
    }
    // Third column: must be a number, and must be the last field.
    let w_start = i;
    while i < len && !is_line_ws(data[i]) && data[i] != b'\n' {
        i += 1;
    }
    let weight_ok = std::str::from_utf8(&data[w_start..i])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .is_some();
    if !weight_ok {
        return fallback(pos);
    }
    while i < len && is_line_ws(data[i]) {
        i += 1;
    }
    if i < len && data[i] != b'\n' {
        return fallback(pos); // fourth field: grammar error
    }
    Scan::Edge {
        u,
        v,
        weighted: true,
        next: (i + 1).min(len),
    }
}

/// Scan a plain decimal run at `pos`: returns the value and the index
/// one past the digits, or `None` when the token does not start with a
/// digit or overflows `u64` (the fallback path decides what that means).
#[inline]
fn scan_u64(data: &[u8], pos: usize) -> Option<(u64, usize)> {
    let mut i = pos;
    let mut x: u64 = 0;
    while i < data.len() && data[i].is_ascii_digit() {
        x = x.checked_mul(10)?.checked_add(u64::from(data[i] - b'0'))?;
        i += 1;
    }
    (i > pos).then_some((x, i))
}

/// Indexed typed tasks on the global runtime's team, results restored
/// to job order — the runtime's `map_jobs`, used for every ingest phase.
use gosh_runtime::map_jobs;

/// One phase-4c work window: a worker's disjoint `&mut` group of arc
/// chunk lists plus the matching translation tables.
type Window<'a> = (
    &'a mut [Vec<(VertexId, VertexId)>],
    &'a [(Vec<u64>, Vec<VertexId>)],
);

/// Value slot marking an empty [`RawMap`] bucket. Safe as a sentinel:
/// interner values are local ids `< 2^32`, and shard values are
/// `pack(chunk, pos)` with `chunk` far below `2^32`, so a stored value
/// never equals `u64::MAX` (keys, in contrast, may be any `u64` —
/// `u64::MAX` is a legal vertex id — which is why the sentinel lives on
/// the value side).
const VACANT: u64 = u64::MAX;

/// Open-addressed `u64 → u64` map with multiply-shift hashing and linear
/// probing. The reference parser's `HashMap` pays SipHash per token;
/// this is the ingestion-grade replacement (one `mix64`, one probe in
/// the common case).
struct RawMap {
    /// `(key, value)` slots; a slot is empty iff `value == VACANT`.
    slots: Vec<(u64, u64)>,
    mask: usize,
    len: usize,
}

impl RawMap {
    fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(16);
        Self {
            slots: vec![(0, VACANT); cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Existing value, or insert `new_val`; the flag reports insertion.
    fn get_or_insert(&mut self, key: u64, new_val: u64) -> (u64, bool) {
        debug_assert_ne!(new_val, VACANT, "VACANT is reserved");
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = (mix64(key) as usize) & self.mask;
        loop {
            let (k, v) = self.slots[i];
            if v == VACANT {
                self.slots[i] = (key, new_val);
                self.len += 1;
                return (new_val, true);
            }
            if k == key {
                return (v, false);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn insert_if_absent(&mut self, key: u64, val: u64) {
        let _ = self.get_or_insert(key, val);
    }

    fn get(&self, key: u64) -> Option<u64> {
        let mut i = (mix64(key) as usize) & self.mask;
        loop {
            let (k, v) = self.slots[i];
            if v == VACANT {
                return None;
            }
            if k == key {
                return Some(v);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let doubled = vec![(0, VACANT); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.mask = self.slots.len() - 1;
        self.len = 0;
        for (k, v) in old {
            if v != VACANT {
                let mut i = (mix64(k) as usize) & self.mask;
                while self.slots[i].1 != VACANT {
                    i = (i + 1) & self.mask;
                }
                self.slots[i] = (k, v);
                self.len += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::read_edge_list;
    use std::io::Cursor;

    fn assert_matches_sequential(text: &str, threads: usize, chunk_bytes: usize) {
        let seq = read_edge_list(Cursor::new(text)).unwrap();
        let cfg = IngestConfig {
            threads,
            chunk_bytes,
        };
        let par = read_edge_list_parallel(text.as_bytes(), &cfg).unwrap();
        assert_eq!(par.graph, seq.graph, "t={threads} cb={chunk_bytes}");
        assert_eq!(par.original_ids, seq.original_ids);
        assert_eq!(par.stats, seq.stats);
    }

    #[test]
    fn matches_sequential_on_messy_input() {
        let text = "# header\n% konect\n1000000 5\n5 7\n\n7 7\n5 1000000 2.5\r\n9 5\n5 9\n42 5\n";
        for threads in [1, 2, 4, 8] {
            for chunk_bytes in [1, 7, 64, 1 << 20] {
                assert_matches_sequential(text, threads, chunk_bytes);
            }
        }
    }

    #[test]
    fn cross_chunk_interning_is_first_seen_stable() {
        // Ids deliberately recur across many tiny chunks; the winner must
        // always be the document-order first occurrence.
        let mut text = String::new();
        for i in 0..200u64 {
            let a = (i * 7919) % 31; // heavy reuse from a small pool
            let b = (i * 104729) % 31;
            text.push_str(&format!("{} {}\n", a * 1_000_003, b * 1_000_003));
        }
        for chunk_bytes in [1, 13, 64, 255] {
            assert_matches_sequential(&text, 4, chunk_bytes);
        }
    }

    #[test]
    fn error_line_numbers_match_sequential() {
        let text = "1 2\n2 3\nbogus line here\n3 4\n";
        let seq_err = read_edge_list(Cursor::new(text)).unwrap_err();
        for chunk_bytes in [1, 6, 1 << 20] {
            let cfg = IngestConfig {
                threads: 4,
                chunk_bytes,
            };
            let par_err = read_edge_list_parallel(text.as_bytes(), &cfg).unwrap_err();
            assert_eq!(par_err.to_string(), seq_err.to_string(), "cb={chunk_bytes}");
        }
        // Two errors: the document-order first one is reported.
        let text2 = "1 2\nbad\n3 4\nworse worse worse worse\n";
        let cfg = IngestConfig {
            threads: 4,
            chunk_bytes: 4,
        };
        let err = read_edge_list_parallel(text2.as_bytes(), &cfg).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn empty_and_trailing_newline_edge_cases() {
        for text in ["", "\n", "# only comments\n% more\n", "1 2", "1 2\n"] {
            for chunk_bytes in [1, 3, 1 << 20] {
                assert_matches_sequential(text, 3, chunk_bytes);
            }
        }
    }

    #[test]
    fn u64_max_is_a_legal_vertex_id() {
        let text = format!("{} 7\n7 {}\n{0} {0}\n", u64::MAX, u64::MAX - 1);
        for chunk_bytes in [1, 1 << 20] {
            assert_matches_sequential(&text, 2, chunk_bytes);
        }
    }

    #[test]
    fn ids_around_the_direct_table_bound_match_sequential() {
        // Zero-padded ids give every line the same 18 bytes, so the
        // whole-input chunk's table bound is exactly 18 * 100 / 4 = 450:
        // ids 449, 450 and 451 land on both sides of it.
        let ids = [449u64, 3, 450, 451, 0, 98_765_432, 449, 451, 2, 450];
        let mut text = String::new();
        for i in 0..100 {
            let (u, v) = (ids[i % ids.len()], ids[(i * 7 + 3) % ids.len()]);
            text.push_str(&format!("{u:08} {v:08}\n"));
        }
        assert_eq!(text.len() / DIRECT_BYTES_PER_ID, 450);
        for threads in [1, 2] {
            assert_matches_sequential(&text, threads, usize::MAX);
        }
        assert_matches_sequential(&text, 2, 1 << 20);
    }

    #[test]
    fn one_worker_defaults_to_one_chunk() {
        assert_eq!(IngestConfig::with_threads(1).chunk_bytes, usize::MAX);
        assert_eq!(IngestConfig::with_threads(4).chunk_bytes, 1 << 20);
        assert_eq!(chunk_bounds(b"1 2\n3 4\n", usize::MAX), vec![(0, 8)]);
    }

    #[test]
    fn interner_hands_out_first_seen_ids() {
        let mut interner = Interner::new(100);
        let mut firsts = Vec::new();
        let mut reference: std::collections::HashMap<u64, u32> = Default::default();
        let mut x = 0x9876u64;
        for _ in 0..5_000 {
            x = mix64(x);
            // Below, at and above the bound, plus the largest ids.
            let raw = match x % 4 {
                0 => x % 100,
                1 => 95 + x % 10,
                2 => x >> 40,
                _ => u64::MAX - x % 3,
            };
            let next = reference.len() as u32;
            let want = *reference.entry(raw).or_insert(next);
            assert_eq!(interner.intern(&mut firsts, raw), want, "raw id {raw}");
        }
        assert_eq!(firsts.len(), reference.len());
        for (i, raw) in firsts.iter().enumerate() {
            assert_eq!(reference[raw], i as u32);
        }
        assert!(interner.direct.len() <= 100);
    }

    #[test]
    fn chunk_bounds_are_newline_aligned_and_exhaustive() {
        let data = b"aa\nbbbb\nc\n\ndddddd\nee";
        for target in 1..=data.len() + 1 {
            let bounds = chunk_bounds(data, target);
            assert_eq!(bounds.first().map(|b| b.0), Some(0));
            assert_eq!(bounds.last().map(|b| b.1), Some(data.len()));
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
                assert_eq!(data[w[0].1 - 1], b'\n', "aligned at {:?}", w[0]);
            }
        }
        assert!(chunk_bounds(b"", 8).is_empty());
    }

    #[test]
    fn raw_map_behaves_like_a_map() {
        let mut m = RawMap::with_capacity(4);
        let mut reference = std::collections::HashMap::new();
        let mut x = 0x12345u64;
        for i in 0..10_000u64 {
            x = mix64(x);
            let key = x % 4096; // force collisions and repeats
            let (v, inserted) = m.get_or_insert(key, i);
            match reference.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    assert!(!inserted);
                    assert_eq!(v, *e.get());
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    assert!(inserted);
                    assert_eq!(v, i);
                    e.insert(i);
                }
            }
        }
        for (&k, &v) in &reference {
            assert_eq!(m.get(k), Some(v));
        }
        assert_eq!(m.get(999_999_999), None);
        assert_eq!(m.len, reference.len());
    }
}
