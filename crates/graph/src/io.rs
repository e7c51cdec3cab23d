//! Edge-list I/O.
//!
//! Reads the whitespace-separated edge-list format used by SNAP and KONECT
//! (the paper's data sources): one `u v` pair — or a weighted KONECT
//! `u v w` triple — per line, `#` or `%` comment lines ignored. Vertex ids
//! are compacted to a dense `0..n` range, which is what the SNAP graphs
//! require (their ids are sparse). A matching writer allows round-tripping
//! graphs to disk, preserving the original file ids when the
//! [`LoadedGraph`] mapping is supplied.
//!
//! This module is the *sequential reference* parser; the parallel
//! streaming path in [`crate::ingest`] must produce output byte-identical
//! to [`read_edge_list`] (enforced by proptest). Both share one byte-level
//! line parser, [`parse_edge_line`], so format decisions live in exactly
//! one place.

use std::collections::HashMap;
use std::io::{self, BufRead, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};

/// What the parser dropped or tolerated while loading an edge list.
///
/// The counts make silently-cleaned input visible: a SNAP file with a
/// million duplicate lines and a KONECT file with a weight column load to
/// the same clean CSR, but the caller can now tell the difference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Edge lines parsed (comments and blanks excluded).
    pub edge_lines: usize,
    /// Lines carrying a third (weight) column, KONECT style. The weight
    /// is validated as a number and discarded (GOSH is unweighted).
    pub weighted_lines: usize,
    /// Edge lines with `u == v`, dropped during CSR construction.
    pub self_loops_dropped: usize,
    /// Non-loop edge lines beyond the first occurrence of their
    /// undirected edge (`u v` and `v u` count as the same edge).
    pub duplicates_dropped: usize,
}

/// Result of loading an edge list: the graph plus the mapping from original
/// file ids to the dense ids used internally, plus what was dropped.
#[derive(Debug)]
pub struct LoadedGraph {
    /// The graph with dense vertex ids.
    pub graph: Csr,
    /// `original_ids[v]` is the id vertex `v` had in the input file.
    pub original_ids: Vec<u64>,
    /// Dropped self-loop/duplicate counts and format observations.
    pub stats: ParseStats,
}

/// One parsed edge-list line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeLine {
    /// Blank or comment line.
    Skip,
    /// An edge, with `weighted` set when a third (weight) column was
    /// present and validated.
    Edge { u: u64, v: u64, weighted: bool },
}

/// Parse one line of the edge-list format. Shared by the sequential
/// parser and the parallel chunks of [`crate::ingest`], so both accept
/// exactly the same language: `u v`, or `u v w` with a numeric KONECT
/// weight; anything else on an edge line is an error, not silently
/// ignored trailing text.
pub fn parse_edge_line(line: &[u8]) -> Result<EdgeLine, &'static str> {
    let line = line.trim_ascii();
    if line.is_empty() || line[0] == b'#' || line[0] == b'%' {
        return Ok(EdgeLine::Skip);
    }
    let mut tokens = line
        .split(|b: &u8| b.is_ascii_whitespace())
        .filter(|t| !t.is_empty());
    let u = parse_u64_token(tokens.next()).ok_or("expected an integer vertex id")?;
    let v = parse_u64_token(tokens.next()).ok_or("expected `u v` or `u v weight`")?;
    let weighted = match tokens.next() {
        None => false,
        Some(w) => {
            // KONECT third column: must be a number (the weight is
            // discarded — GOSH is unweighted — but garbage is rejected).
            std::str::from_utf8(w)
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or("non-numeric edge weight")?;
            true
        }
    };
    if tokens.next().is_some() {
        return Err("too many fields (expected `u v` or `u v weight`)");
    }
    Ok(EdgeLine::Edge { u, v, weighted })
}

/// Parse a vertex-id token. Fast path for plain digit runs (the hot case
/// on multi-million-line files); anything else falls back to the standard
/// parser so accepted forms match `str::parse::<u64>` exactly.
fn parse_u64_token(tok: Option<&[u8]>) -> Option<u64> {
    let tok = tok?;
    let mut x: u64 = 0;
    for &b in tok {
        if !b.is_ascii_digit() {
            return std::str::from_utf8(tok).ok()?.parse().ok();
        }
        x = x.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    if tok.is_empty() {
        None
    } else {
        Some(x)
    }
}

pub(crate) fn bad_line(lineno: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed edge list at line {}: {msg}", lineno + 1),
    )
}

/// Parse an edge list from a reader. Ids are compacted in first-seen order.
///
/// This is the sequential reference implementation; for large files use
/// [`crate::ingest::read_edge_list_parallel`], which produces identical
/// output from a parallel worker team.
pub fn read_edge_list<R: BufRead>(mut reader: R) -> io::Result<LoadedGraph> {
    let mut ids: HashMap<u64, VertexId> = HashMap::new();
    let mut original_ids: Vec<u64> = Vec::new();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut stats = ParseStats::default();

    let mut intern = |raw: u64, orig: &mut Vec<u64>| {
        *ids.entry(raw).or_insert_with(|| {
            let id = orig.len() as VertexId;
            orig.push(raw);
            id
        })
    };

    let mut line = Vec::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        match parse_edge_line(&line).map_err(|msg| bad_line(lineno, msg))? {
            EdgeLine::Skip => {}
            EdgeLine::Edge { u, v, weighted } => {
                stats.edge_lines += 1;
                stats.weighted_lines += usize::from(weighted);
                stats.self_loops_dropped += usize::from(u == v);
                let ui = intern(u, &mut original_ids);
                let vi = intern(v, &mut original_ids);
                edges.push((ui, vi));
            }
        }
        lineno += 1;
    }

    let mut b = GraphBuilder::new(original_ids.len());
    b.extend(edges);
    let graph = b.build();
    stats.duplicates_dropped =
        stats.edge_lines - stats.self_loops_dropped - graph.num_undirected_edges();
    Ok(LoadedGraph {
        graph,
        original_ids,
        stats,
    })
}

/// Load an edge-list file from disk (sequential reference path).
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> io::Result<LoadedGraph> {
    let file = std::fs::File::open(path)?;
    read_edge_list(io::BufReader::new(file))
}

/// Write a graph as an edge list (each undirected edge once, `u <= v`),
/// using the dense internal ids.
///
/// When the graph came from [`read_edge_list`], use
/// [`write_edge_list_with_ids`] with the loaded `original_ids` instead —
/// writing dense ids silently relabels the vertices of a SNAP/KONECT
/// graph on round trip.
pub fn write_edge_list<P: AsRef<Path>>(path: P, graph: &Csr) -> io::Result<()> {
    gosh_runtime::replace_file(path, |w| {
        writeln!(w, "# gosh-rs edge list: {} vertices", graph.num_vertices())?;
        for (u, v) in graph.undirected_edges() {
            writeln!(w, "{u} {v}")?;
        }
        Ok(())
    })
}

/// Write a graph as an edge list under its *original* file ids:
/// `original_ids[v]` (the [`LoadedGraph`] mapping) is written wherever
/// the dense id `v` would appear, so a loaded SNAP graph round-trips
/// without relabeling its vertices.
pub fn write_edge_list_with_ids<P: AsRef<Path>>(
    path: P,
    graph: &Csr,
    original_ids: &[u64],
) -> io::Result<()> {
    assert_eq!(
        original_ids.len(),
        graph.num_vertices(),
        "one original id per vertex"
    );
    gosh_runtime::replace_file(path, |w| {
        writeln!(w, "# gosh-rs edge list: {} vertices", graph.num_vertices())?;
        for (u, v) in graph.undirected_edges() {
            writeln!(
                w,
                "{} {}",
                original_ids[u as usize], original_ids[v as usize]
            )?;
        }
        Ok(())
    })
}

impl LoadedGraph {
    /// Write the graph back as an edge list under its original file ids.
    pub fn write_edge_list<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        write_edge_list_with_ids(path, &self.graph, &self.original_ids)
    }
}

/// Magic header of the binary CSR format.
const BINARY_MAGIC: &[u8; 8] = b"GOSHCSR1";

/// Bytes of the streaming read buffer for the binary loader.
const BINARY_CHUNK: usize = 64 * 1024;

/// Write a graph in the binary CSR format: magic, |V| and |arcs| as
/// little-endian u64, then `xadj` (u64 each) and `adj` (u32 each).
/// Loading a binary CSR skips the parse + build of the text path, which
/// matters when the experiment harness re-reads multi-million-edge
/// graphs.
pub fn write_binary<P: AsRef<Path>>(path: P, graph: &Csr) -> io::Result<()> {
    gosh_runtime::replace_file(path, |w| {
        w.write_all(BINARY_MAGIC)?;
        w.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
        w.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
        for &x in graph.xadj() {
            w.write_all(&(x as u64).to_le_bytes())?;
        }
        for &u in graph.adj() {
            w.write_all(&u.to_le_bytes())?;
        }
        Ok(())
    })
}

/// Load a graph written by [`write_binary`].
///
/// The header is untrusted: sizes are computed with checked arithmetic
/// (a crafted `|V|` near `u64::MAX` must return `InvalidData`, not
/// overflow) and cross-checked against the real file length *before*
/// anything is allocated. The body is then **streamed** through a fixed
/// chunk buffer — never slurped whole — with validation on the fly:
/// `xadj` must start at 0, be monotone, and end at `|arcs|`, and every
/// `adj` entry must be a valid vertex id, so a malicious file can never
/// make a later neighbour lookup index out of bounds, and a bad file is
/// rejected at the first offending entry instead of after a full read.
pub fn load_binary<P: AsRef<Path>>(path: P) -> io::Result<Csr> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    read_binary(io::BufReader::with_capacity(BINARY_CHUNK, file), file_len)
}

/// Streaming-validated binary CSR read from any reader; `total_len` is
/// the byte length the source claims (file size), cross-checked against
/// the header before any allocation.
pub fn read_binary<R: Read>(mut r: R, total_len: u64) -> io::Result<Csr> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if total_len < 24 {
        return Err(bad("not a gosh binary CSR file"));
    }
    let mut header = [0u8; 24];
    r.read_exact(&mut header)?;
    if &header[0..8] != BINARY_MAGIC {
        return Err(bad("not a gosh binary CSR file"));
    }
    let n64 = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let arcs64 = u64::from_le_bytes(header[16..24].try_into().unwrap());
    // Checked: 24 + (n + 1) * 8 + arcs * 4, all in u64.
    let expect = n64
        .checked_add(1)
        .and_then(|x| x.checked_mul(8))
        .and_then(|x| x.checked_add(arcs64.checked_mul(4)?))
        .and_then(|x| x.checked_add(24));
    if expect != Some(total_len) {
        return Err(bad("truncated or oversized binary CSR file"));
    }
    // The size check bounds both counts by the actual source length, so
    // the usize conversions below cannot truncate and the `Vec`
    // capacities are backed by real bytes.
    let n = n64 as usize;
    let arcs = arcs64 as usize;
    let mut buf = [0u8; BINARY_CHUNK];

    let mut xadj: Vec<usize> = Vec::with_capacity(n + 1);
    let mut prev = 0usize;
    let mut remaining = n + 1;
    while remaining > 0 {
        let take = remaining.min(buf.len() / 8);
        let bytes = &mut buf[..take * 8];
        r.read_exact(bytes)?;
        for chunk in bytes.chunks_exact(8) {
            let x = u64::from_le_bytes(chunk.try_into().unwrap()) as usize;
            if xadj.is_empty() && x != 0 {
                return Err(bad("inconsistent xadj/adj lengths"));
            }
            if x < prev {
                return Err(bad("xadj is not monotone"));
            }
            prev = x;
            xadj.push(x);
        }
        remaining -= take;
    }
    if prev != arcs {
        return Err(bad("inconsistent xadj/adj lengths"));
    }

    let mut adj: Vec<VertexId> = Vec::with_capacity(arcs);
    let mut remaining = arcs;
    while remaining > 0 {
        let take = remaining.min(buf.len() / 4);
        let bytes = &mut buf[..take * 4];
        r.read_exact(bytes)?;
        for chunk in bytes.chunks_exact(4) {
            let u = u32::from_le_bytes(chunk.try_into().unwrap());
            if u as usize >= n {
                return Err(bad("adj entry out of vertex range"));
            }
            adj.push(u);
        }
        remaining -= take;
    }
    // Every invariant was enforced during the stream (start at 0,
    // monotone, ends at |arcs|, neighbour ids in range); debug builds
    // still re-validate inside `from_raw_trusted`.
    Ok(Csr::from_raw_trusted(xadj, adj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosh_runtime::TempDir;
    use std::io::Cursor;

    #[test]
    fn parses_with_comments_and_blanks() {
        let text = "# header\n% konect style\n\n10 20\n20 30\n10 30\n";
        let loaded = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_undirected_edges(), 3);
        assert_eq!(loaded.original_ids, vec![10, 20, 30]);
        assert_eq!(loaded.stats.edge_lines, 3);
        assert_eq!(loaded.stats.weighted_lines, 0);
        assert_eq!(loaded.stats.self_loops_dropped, 0);
        assert_eq!(loaded.stats.duplicates_dropped, 0);
    }

    #[test]
    fn compacts_sparse_ids_first_seen() {
        let text = "1000000 5\n5 7\n";
        let loaded = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(loaded.original_ids, vec![1_000_000, 5, 7]);
        assert!(loaded.graph.has_edge(0, 1));
        assert!(loaded.graph.has_edge(1, 2));
    }

    #[test]
    fn rejects_malformed_lines() {
        let text = "1 2\nbogus\n";
        let err = read_edge_list(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let text2 = "1\n";
        assert!(read_edge_list(Cursor::new(text2)).is_err());
    }

    #[test]
    fn accepts_weighted_konect_lines() {
        let text = "1 2 1.5\n2 3 -3\n3 1 2e-4\n1 4\n";
        let loaded = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(loaded.graph.num_undirected_edges(), 4);
        assert_eq!(loaded.stats.edge_lines, 4);
        assert_eq!(loaded.stats.weighted_lines, 3);
    }

    #[test]
    fn rejects_garbage_third_column_and_extra_fields() {
        // The seed parser silently ignored everything after the second
        // token; both of these loaded as `1 2` then.
        let err = read_edge_list(Cursor::new("1 2 not-a-weight\n")).unwrap_err();
        assert!(err.to_string().contains("weight"), "{err}");
        let err = read_edge_list(Cursor::new("1 2 3.0 4\n")).unwrap_err();
        assert!(err.to_string().contains("too many fields"), "{err}");
    }

    #[test]
    fn counts_dropped_self_loops_and_duplicates() {
        let text = "1 1\n1 2\n2 1\n1 2 9.0\n2 3\n3 3\n";
        let loaded = read_edge_list(Cursor::new(text)).unwrap();
        // Clean graph: edges {1-2, 2-3}.
        assert_eq!(loaded.graph.num_undirected_edges(), 2);
        assert_eq!(loaded.stats.edge_lines, 6);
        assert_eq!(loaded.stats.self_loops_dropped, 2);
        assert_eq!(loaded.stats.duplicates_dropped, 2);
        assert_eq!(loaded.stats.weighted_lines, 1);
        // Self-loop endpoints intern like any other: the `1 1` line is
        // what makes 1 the first-seen id.
        assert_eq!(loaded.original_ids, vec![1, 2, 3]);
    }

    #[test]
    fn crlf_lines_parse_cleanly() {
        let text = "# dos file\r\n10 20\r\n20 30 1.0\r\n\r\n30 10\r\n";
        let loaded = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(loaded.graph.num_undirected_edges(), 3);
        assert_eq!(loaded.original_ids, vec![10, 20, 30]);
        assert_eq!(loaded.stats.weighted_lines, 1);
    }

    #[test]
    fn round_trip_through_disk() {
        let g = crate::builder::csr_from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]);
        let dir = TempDir::new("io").unwrap();
        let path = dir.join("roundtrip.txt");
        write_edge_list(&path, &g).unwrap();
        let loaded = load_edge_list(&path).unwrap();
        assert_eq!(
            loaded.graph.num_undirected_edges(),
            g.num_undirected_edges()
        );
        assert_eq!(loaded.graph.num_vertices(), g.num_vertices());
    }

    #[test]
    fn round_trip_preserves_original_ids() {
        // Sparse SNAP-style ids. The seed writer dropped the mapping and
        // silently relabelled everything to dense 0..n on round trip.
        let text = "# snap-ish\n9000001 17\n17 400\n400 9000001\n400 52\n";
        let loaded = read_edge_list(Cursor::new(text)).unwrap();
        let dir = TempDir::new("io").unwrap();
        let path = dir.join("orig_ids.txt");
        loaded.write_edge_list(&path).unwrap();
        let reloaded = load_edge_list(&path).unwrap();
        // Same vertex set under original ids…
        let mut a = loaded.original_ids.clone();
        let mut b = reloaded.original_ids.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // …and the same edge set under original ids.
        let edge_set = |l: &LoadedGraph| {
            let mut set: Vec<(u64, u64)> = l
                .graph
                .undirected_edges()
                .map(|(u, v)| {
                    let (a, b) = (l.original_ids[u as usize], l.original_ids[v as usize]);
                    (a.min(b), a.max(b))
                })
                .collect();
            set.sort_unstable();
            set
        };
        assert_eq!(edge_set(&loaded), edge_set(&reloaded));
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let g = crate::gen::erdos_renyi(300, 1200, 5);
        let dir = TempDir::new("io").unwrap();
        let path = dir.join("roundtrip.csr");
        write_binary(&path, &g).unwrap();
        let loaded = load_binary(&path).unwrap();
        assert_eq!(loaded, g);
    }

    #[test]
    fn binary_rejects_garbage() {
        let dir = TempDir::new("io").unwrap();
        let path = dir.join("garbage.csr");
        std::fs::write(&path, b"not a graph at all").unwrap();
        assert!(load_binary(&path).is_err());
        // Truncated file with a valid magic.
        let g = crate::builder::csr_from_edges(4, &[(0, 1), (2, 3)]);
        write_binary(&path, &g).unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        assert!(load_binary(&path).is_err());
    }

    #[test]
    fn binary_rejects_overflowing_header() {
        // |V| near u64::MAX must fail cleanly, not overflow-panic while
        // computing the expected file size.
        let dir = TempDir::new("io").unwrap();
        let path = dir.join("overflow.csr");
        let mut bytes = BINARY_MAGIC.to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // |V|
        bytes.extend_from_slice(&0u64.to_le_bytes()); // arcs
        std::fs::write(&path, &bytes).unwrap();
        let err = load_binary(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    fn raw_csr_file(xadj: &[u64], adj: &[u32]) -> (TempDir, std::path::PathBuf) {
        let dir = TempDir::new("io").unwrap();
        let path = dir.join("raw.csr");
        let mut bytes = BINARY_MAGIC.to_vec();
        bytes.extend_from_slice(&((xadj.len() - 1) as u64).to_le_bytes());
        bytes.extend_from_slice(&(adj.len() as u64).to_le_bytes());
        for &x in xadj {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        for &u in adj {
            bytes.extend_from_slice(&u.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        (dir, path)
    }

    #[test]
    fn binary_rejects_nonmonotone_xadj() {
        // Right length, last entry matches |arcs| — but the middle offset
        // points past the adj array, which the seed loader accepted.
        let (_dir, path) = raw_csr_file(&[0, 3, 2], &[1, 0]);
        let err = load_binary(&path).unwrap_err();
        assert!(err.to_string().contains("monotone"), "{err}");
    }

    #[test]
    fn binary_rejects_out_of_range_adj() {
        let (_dir, path) = raw_csr_file(&[0, 1, 2], &[5, 0]);
        let err = load_binary(&path).unwrap_err();
        assert!(err.to_string().contains("vertex range"), "{err}");
    }

    #[test]
    fn binary_rejects_nonzero_xadj_start() {
        let (_dir, path) = raw_csr_file(&[1, 1, 2], &[1, 0]);
        assert!(load_binary(&path).is_err());
    }

    #[test]
    fn binary_rejects_short_xadj_tail() {
        // xadj monotone but ends below |arcs|: the stream must flag the
        // mismatch instead of mis-slicing adj.
        let (_dir, path) = raw_csr_file(&[0, 1, 1], &[1, 0]);
        let err = load_binary(&path).unwrap_err();
        assert!(err.to_string().contains("inconsistent"), "{err}");
    }

    #[test]
    fn binary_streams_large_files_in_chunks() {
        // Bigger than one 64 KiB chunk on both arrays: exercises the
        // chunk-boundary arithmetic of the streaming loader.
        let g = crate::gen::erdos_renyi(20_000, 60_000, 11);
        assert!(g.num_vertices() * 8 > BINARY_CHUNK);
        assert!(g.num_edges() * 4 > BINARY_CHUNK);
        let dir = TempDir::new("io").unwrap();
        let path = dir.join("big.csr");
        write_binary(&path, &g).unwrap();
        assert_eq!(load_binary(&path).unwrap(), g);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let loaded = read_edge_list(Cursor::new("# nothing\n")).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 0);
        assert_eq!(loaded.graph.num_edges(), 0);
        assert_eq!(loaded.stats, ParseStats::default());
    }

    #[test]
    fn final_line_without_newline_parses() {
        let loaded = read_edge_list(Cursor::new("1 2\n2 3")).unwrap();
        assert_eq!(loaded.graph.num_undirected_edges(), 2);
    }
}
