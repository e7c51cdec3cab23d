//! Edge-delta streaming layer — dynamic graphs as batched epochs.
//!
//! GOSH embeds static snapshots; this module is the ingestion side of the
//! streaming mode: edge insertions and deletions arrive as text lines,
//! are batched into *epochs* (the unit the incremental coarsening repair
//! and warm-start retraining consume), and are applied to an existing CSR
//! as a per-vertex sorted merge that is **byte-identical** to rebuilding
//! the graph from scratch with [`GraphBuilder`](crate::builder::GraphBuilder)
//! over the edited edge set — the invariant the `prop_stream` proptests
//! pin.
//!
//! Two id spaces are involved, mirroring [`crate::ingest`]: delta files
//! carry *raw* (file) ids, which [`resolve_delta`] interns against a
//! loaded graph's `original_ids` map in first-seen order — unknown ids in
//! insertions become fresh dense vertices, deletions naming unknown ids
//! are counted and dropped. [`EdgeDelta`] itself always holds dense ids.
//!
//! Batch semantics within one epoch: the resulting undirected edge set is
//! `(E ∪ I) \ D` — a deletion wins over an insertion of the same edge in
//! the *same* epoch. Order across epochs is preserved by applying them
//! one at a time (`delete e` then `insert e` in a *later* epoch restores
//! the edge).

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use crate::csr::{Csr, VertexId};
use crate::io::{bad_line, parse_edge_line, EdgeLine};

/// A batch of edge insertions and deletions over *dense* vertex ids.
///
/// Self-loops are dropped on entry (the CSR never stores them) and pairs
/// are kept unordered — `insert(u, v)` and `insert(v, u)` are the same
/// undirected edge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    ins: Vec<(VertexId, VertexId)>,
    del: Vec<(VertexId, VertexId)>,
    min_vertices: usize,
}

impl EdgeDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an insertion of undirected edge `{u, v}`. Self-loops are
    /// ignored (beyond growing the vertex bound).
    pub fn insert(&mut self, u: VertexId, v: VertexId) {
        self.min_vertices = self.min_vertices.max(u.max(v) as usize + 1);
        if u != v {
            self.ins.push((u, v));
        }
    }

    /// Record a deletion of undirected edge `{u, v}`.
    pub fn delete(&mut self, u: VertexId, v: VertexId) {
        self.min_vertices = self.min_vertices.max(u.max(v) as usize + 1);
        if u != v {
            self.del.push((u, v));
        }
    }

    /// True when no insertion or deletion was recorded.
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }

    /// Recorded insertion pairs (raw, as given).
    pub fn num_insertions(&self) -> usize {
        self.ins.len()
    }

    /// Recorded deletion pairs (raw, as given).
    pub fn num_deletions(&self) -> usize {
        self.del.len()
    }

    /// The minimum vertex count any graph this delta applies to must end
    /// up with: one past the largest id named by the delta.
    pub fn min_vertices(&self) -> usize {
        self.min_vertices
    }

    /// Raise the vertex bound without recording an edge (used when the
    /// target graph is known to have at least `n` vertices).
    pub fn grow_to(&mut self, n: usize) {
        self.min_vertices = self.min_vertices.max(n);
    }

    /// The *dirty set* of this delta against a graph of `old_n` vertices:
    /// every endpoint of an inserted or deleted edge, plus every new
    /// vertex (`id >= old_n`), sorted and deduplicated. This is the seed
    /// the incremental coarsening repair and warm-start retraining grow
    /// their work regions from.
    pub fn dirty_vertices(&self, old_n: usize) -> Vec<VertexId> {
        let mut dirty: Vec<VertexId> = self
            .ins
            .iter()
            .chain(self.del.iter())
            .flat_map(|&(u, v)| [u, v])
            .collect();
        dirty.extend((old_n as VertexId)..(self.min_vertices.max(old_n) as VertexId));
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Directed sorted-unique arc lists `(ins_arcs, del_arcs)` — each
    /// undirected pair contributes both directions.
    #[allow(clippy::type_complexity)]
    fn arc_lists(&self) -> (Vec<(VertexId, VertexId)>, Vec<(VertexId, VertexId)>) {
        let expand = |pairs: &[(VertexId, VertexId)]| {
            let mut arcs: Vec<(VertexId, VertexId)> = Vec::with_capacity(2 * pairs.len());
            for &(u, v) in pairs {
                arcs.push((u, v));
                arcs.push((v, u));
            }
            arcs.sort_unstable();
            arcs.dedup();
            arcs
        };
        (expand(&self.ins), expand(&self.del))
    }
}

/// Merge one vertex's sorted-unique neighbour list with its sorted-unique
/// insert and delete lists: the result is `(old ∪ ins) \ del`, emitted in
/// sorted order — exactly the per-vertex invariant `GraphBuilder`
/// produces, which is what makes [`apply_delta`] byte-identical to a
/// rebuild.
fn merge_into(out: &mut Vec<VertexId>, old: &[VertexId], ins: &[VertexId], del: &[VertexId]) {
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    loop {
        let next = match (old.get(i), ins.get(j)) {
            (Some(&a), Some(&b)) => {
                if a < b {
                    i += 1;
                    a
                } else if b < a {
                    j += 1;
                    b
                } else {
                    i += 1;
                    j += 1;
                    a
                }
            }
            (Some(&a), None) => {
                i += 1;
                a
            }
            (None, Some(&b)) => {
                j += 1;
                b
            }
            (None, None) => break,
        };
        while k < del.len() && del[k] < next {
            k += 1;
        }
        if k < del.len() && del[k] == next {
            continue;
        }
        out.push(next);
    }
}

/// The destinations of `arcs` whose source is `v`, assuming `arcs` is
/// sorted by `(src, dst)`; `cursor` advances monotonically across calls
/// with increasing `v`.
fn arcs_of<'a>(
    arcs: &'a [(VertexId, VertexId)],
    v: VertexId,
    cursor: &mut usize,
) -> &'a [(VertexId, VertexId)] {
    let start = *cursor;
    while *cursor < arcs.len() && arcs[*cursor].0 == v {
        *cursor += 1;
    }
    &arcs[start..*cursor]
}

/// Apply `delta` to `g`, returning the edited graph.
///
/// The result covers `max(g.num_vertices(), delta.min_vertices())`
/// vertices and its undirected edge set is `(E(g) ∪ I) \ D`: inserting an
/// existing edge and deleting a missing one are no-ops, a deletion beats
/// an insertion of the same edge within the batch. Requires `g`'s
/// neighbour lists sorted and deduplicated (the `GraphBuilder` /
/// coarsening invariant; checked in debug builds).
///
/// Byte-identical to `GraphBuilder` over the edited edge set — the
/// structural part of `delta-apply ≡ rebuild-from-scratch`.
pub fn apply_delta(g: &Csr, delta: &EdgeDelta) -> Csr {
    let n_old = g.num_vertices();
    let n_new = n_old.max(delta.min_vertices());
    debug_assert!(
        (0..n_old as VertexId).all(|v| g.neighbors(v).windows(2).all(|w| w[0] < w[1])),
        "apply_delta requires sorted, deduplicated neighbour lists"
    );
    let (ins_arcs, del_arcs) = delta.arc_lists();
    let mut xadj = Vec::with_capacity(n_new + 1);
    xadj.push(0usize);
    let mut adj: Vec<VertexId> = Vec::with_capacity(g.num_edges() + ins_arcs.len());
    let (mut ic, mut dc) = (0usize, 0usize);
    let dsts =
        |arcs: &[(VertexId, VertexId)]| -> Vec<VertexId> { arcs.iter().map(|&(_, d)| d).collect() };
    for v in 0..n_new as VertexId {
        let old = if (v as usize) < n_old {
            g.neighbors(v)
        } else {
            &[]
        };
        let ins = dsts(arcs_of(&ins_arcs, v, &mut ic));
        let del = dsts(arcs_of(&del_arcs, v, &mut dc));
        merge_into(&mut adj, old, &ins, &del);
        xadj.push(adj.len());
    }
    Csr::from_raw_trusted(xadj, adj)
}

// ---------------------------------------------------------------------------
// Delta files: raw-id epochs on disk.
// ---------------------------------------------------------------------------

/// One epoch of a delta file, in *raw* (file) ids — resolve against a
/// graph's `original_ids` with [`resolve_delta`] before applying.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RawDelta {
    /// Inserted undirected edges, file order.
    pub ins: Vec<(u64, u64)>,
    /// Deleted undirected edges, file order.
    pub del: Vec<(u64, u64)>,
}

impl RawDelta {
    /// True when the epoch records nothing.
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }
}

/// What the delta parser saw (the [`crate::io::ParseStats`] analogue).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// `+ u v` lines parsed.
    pub insert_lines: usize,
    /// `- u v` lines parsed.
    pub delete_lines: usize,
    /// Explicit `commit` epoch boundaries.
    pub commits: usize,
}

/// One parsed delta-file line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaLine {
    /// Blank or comment line.
    Skip,
    /// Epoch boundary.
    Commit,
    /// `+ u v` — insert the undirected edge.
    Insert(u64, u64),
    /// `- u v` — delete the undirected edge.
    Delete(u64, u64),
}

/// Parse one line of the delta format: `+ u v`, `- u v` (an optional
/// third numeric column is accepted and discarded, matching the edge-list
/// grammar), `commit` as an epoch boundary, `#`/`%` comments and blanks
/// skipped. The `u v` tail is parsed by [`parse_edge_line`] so the two
/// formats accept exactly the same id and weight language.
pub fn parse_delta_line(line: &[u8]) -> Result<DeltaLine, &'static str> {
    let line = line.trim_ascii();
    if line.is_empty() || line[0] == b'#' || line[0] == b'%' {
        return Ok(DeltaLine::Skip);
    }
    if line == b"commit" {
        return Ok(DeltaLine::Commit);
    }
    let (op, rest) = match line[0] {
        b'+' => (b'+', &line[1..]),
        b'-' => (b'-', &line[1..]),
        _ => return Err("expected `+ u v`, `- u v`, or `commit`"),
    };
    match parse_edge_line(rest)? {
        EdgeLine::Edge { u, v, .. } => Ok(if op == b'+' {
            DeltaLine::Insert(u, v)
        } else {
            DeltaLine::Delete(u, v)
        }),
        EdgeLine::Skip => Err("missing vertex ids after +/-"),
    }
}

/// Parse a delta stream into its epochs. A trailing epoch without an
/// explicit `commit` is included when non-empty; empty epochs (e.g. a
/// double `commit`) are preserved so epoch indices match the file.
pub fn read_delta<R: BufRead>(mut reader: R) -> io::Result<(Vec<RawDelta>, DeltaStats)> {
    let mut epochs = Vec::new();
    let mut current = RawDelta::default();
    let mut stats = DeltaStats::default();
    let mut buf: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        match parse_delta_line(&buf).map_err(|e| bad_line(lineno, e))? {
            DeltaLine::Skip => {}
            DeltaLine::Commit => {
                stats.commits += 1;
                epochs.push(std::mem::take(&mut current));
            }
            DeltaLine::Insert(u, v) => {
                stats.insert_lines += 1;
                current.ins.push((u, v));
            }
            DeltaLine::Delete(u, v) => {
                stats.delete_lines += 1;
                current.del.push((u, v));
            }
        }
        lineno += 1;
    }
    if !current.is_empty() {
        epochs.push(current);
    }
    Ok((epochs, stats))
}

/// [`read_delta`] from a file path.
pub fn load_delta<P: AsRef<Path>>(path: P) -> io::Result<(Vec<RawDelta>, DeltaStats)> {
    read_delta(BufReader::new(File::open(path)?))
}

/// Write epochs in the delta format (each epoch `commit`-terminated).
pub fn write_delta<P: AsRef<Path>>(path: P, epochs: &[RawDelta]) -> io::Result<()> {
    gosh_runtime::replace_file(path, |w| {
        writeln!(w, "# gosh-rs edge delta: {} epochs", epochs.len())?;
        for epoch in epochs {
            for &(u, v) in &epoch.ins {
                writeln!(w, "+ {u} {v}")?;
            }
            for &(u, v) in &epoch.del {
                writeln!(w, "- {u} {v}")?;
            }
            writeln!(w, "commit")?;
        }
        Ok(())
    })
}

/// A [`RawDelta`] resolved into a graph's dense id space.
#[derive(Clone, Debug)]
pub struct ResolvedDelta {
    /// The delta in dense ids, ready for [`apply_delta`].
    pub delta: EdgeDelta,
    /// Raw ids of fresh vertices the delta introduced, in first-seen
    /// order — append to `original_ids` after applying.
    pub new_original_ids: Vec<u64>,
    /// Deletions dropped because an endpoint named an unknown raw id
    /// (the edge cannot exist).
    pub dropped_deletions: usize,
}

/// Resolve a raw-id epoch against the interning state of a loaded graph:
/// `original_ids[dense] = raw`, exactly the map [`crate::io::read_edge_list`]
/// and the parallel ingest produce. Unknown raw ids in insertions are
/// interned as fresh dense vertices in first-seen order; deletions with
/// unknown endpoints are dropped and counted.
pub fn resolve_delta(raw: &RawDelta, original_ids: &[u64]) -> ResolvedDelta {
    let mut ids: HashMap<u64, VertexId> =
        HashMap::with_capacity(original_ids.len() + raw.ins.len());
    for (dense, &orig) in original_ids.iter().enumerate() {
        ids.insert(orig, dense as VertexId);
    }
    let mut new_original_ids: Vec<u64> = Vec::new();
    let mut delta = EdgeDelta::new();
    let mut next = original_ids.len() as VertexId;
    let mut intern = |raw_id: u64, ids: &mut HashMap<u64, VertexId>, new: &mut Vec<u64>| {
        *ids.entry(raw_id).or_insert_with(|| {
            let d = next;
            new.push(raw_id);
            next += 1;
            d
        })
    };
    for &(u, v) in &raw.ins {
        let du = intern(u, &mut ids, &mut new_original_ids);
        let dv = intern(v, &mut ids, &mut new_original_ids);
        delta.insert(du, dv);
    }
    let mut dropped = 0usize;
    for &(u, v) in &raw.del {
        match (ids.get(&u), ids.get(&v)) {
            (Some(&du), Some(&dv)) => delta.delete(du, dv),
            _ => dropped += 1,
        }
    }
    // A delta may name no new ids yet still apply to the whole graph.
    delta.grow_to(original_ids.len() + new_original_ids.len());
    ResolvedDelta {
        delta,
        new_original_ids,
        dropped_deletions: dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{csr_from_edges, GraphBuilder};
    use crate::gen::erdos_renyi;

    fn rebuild(n: usize, edges: &[(VertexId, VertexId)]) -> Csr {
        let mut b = GraphBuilder::new(n);
        b.extend(edges.iter().copied());
        b.build()
    }

    #[test]
    fn insert_into_empty_graph() {
        let g = Csr::empty(3);
        let mut d = EdgeDelta::new();
        d.insert(0, 1);
        d.insert(2, 1);
        let out = apply_delta(&g, &d);
        assert_eq!(out, rebuild(3, &[(0, 1), (1, 2)]));
    }

    #[test]
    fn delete_and_insert_mixed() {
        let g = csr_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut d = EdgeDelta::new();
        d.delete(1, 2);
        d.insert(0, 3);
        let out = apply_delta(&g, &d);
        assert_eq!(out, rebuild(4, &[(0, 1), (2, 3), (0, 3)]));
    }

    #[test]
    fn deletion_wins_within_a_batch() {
        let g = csr_from_edges(3, &[(0, 1)]);
        let mut d = EdgeDelta::new();
        d.insert(1, 2);
        d.delete(1, 2);
        let out = apply_delta(&g, &d);
        assert_eq!(out, rebuild(3, &[(0, 1)]));
    }

    #[test]
    fn reinsert_in_later_epoch_restores_edge() {
        let g = csr_from_edges(3, &[(0, 1), (1, 2)]);
        let mut e1 = EdgeDelta::new();
        e1.delete(0, 1);
        let g1 = apply_delta(&g, &e1);
        let mut e2 = EdgeDelta::new();
        e2.insert(0, 1);
        let g2 = apply_delta(&g1, &e2);
        assert_eq!(g2, g);
    }

    #[test]
    fn new_vertices_are_appended() {
        let g = csr_from_edges(2, &[(0, 1)]);
        let mut d = EdgeDelta::new();
        d.insert(1, 4);
        let out = apply_delta(&g, &d);
        assert_eq!(out.num_vertices(), 5);
        assert_eq!(out, rebuild(5, &[(0, 1), (1, 4)]));
        assert_eq!(d.dirty_vertices(2), vec![1, 2, 3, 4]);
    }

    #[test]
    fn noop_inserts_and_deletes() {
        let g = csr_from_edges(3, &[(0, 1), (1, 2)]);
        let mut d = EdgeDelta::new();
        d.insert(0, 1); // already present
        d.delete(0, 2); // never existed
        d.insert(1, 1); // self-loop: dropped
        let out = apply_delta(&g, &d);
        assert_eq!(out, g);
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = erdos_renyi(100, 400, 7);
        assert_eq!(apply_delta(&g, &EdgeDelta::new()), g);
    }

    #[test]
    fn reverse_direction_pairs_are_the_same_edge() {
        let g = csr_from_edges(3, &[(0, 1)]);
        let mut d = EdgeDelta::new();
        d.delete(1, 0);
        assert_eq!(apply_delta(&g, &d), rebuild(3, &[]));
    }

    #[test]
    fn parse_delta_lines() {
        assert_eq!(parse_delta_line(b"+ 3 5"), Ok(DeltaLine::Insert(3, 5)));
        assert_eq!(parse_delta_line(b"- 7 2"), Ok(DeltaLine::Delete(7, 2)));
        assert_eq!(parse_delta_line(b"+ 3 5 1.5"), Ok(DeltaLine::Insert(3, 5)));
        assert_eq!(parse_delta_line(b"commit"), Ok(DeltaLine::Commit));
        assert_eq!(parse_delta_line(b"# note"), Ok(DeltaLine::Skip));
        assert_eq!(parse_delta_line(b"  "), Ok(DeltaLine::Skip));
        assert_eq!(parse_delta_line(b"+ 3 5\r"), Ok(DeltaLine::Insert(3, 5)));
        assert!(parse_delta_line(b"3 5").is_err());
        assert!(parse_delta_line(b"+ 3").is_err());
        assert!(parse_delta_line(b"+ 3 x").is_err());
        assert!(parse_delta_line(b"commit now").is_err());
    }

    #[test]
    fn read_delta_epochs_round_trip() {
        let text = b"# header\n+ 1 2\n- 3 4\ncommit\n+ 5 6\n";
        let (epochs, stats) = read_delta(&text[..]).unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].ins, vec![(1, 2)]);
        assert_eq!(epochs[0].del, vec![(3, 4)]);
        assert_eq!(epochs[1].ins, vec![(5, 6)]);
        assert_eq!(stats.insert_lines, 2);
        assert_eq!(stats.delete_lines, 1);
        assert_eq!(stats.commits, 1);
    }

    #[test]
    fn read_delta_rejects_garbage_with_line_number() {
        let err = read_delta(&b"+ 1 2\nwhat\n"[..]).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn write_then_load_delta() {
        let dir = gosh_runtime::TempDir::new("delta").unwrap();
        let path = dir.join("d.delta");
        let epochs = vec![
            RawDelta {
                ins: vec![(10, 20), (30, 40)],
                del: vec![(10, 50)],
            },
            RawDelta {
                ins: vec![(20, 50)],
                del: vec![],
            },
        ];
        write_delta(&path, &epochs).unwrap();
        let (back, _) = load_delta(&path).unwrap();
        assert_eq!(back, epochs);
    }

    #[test]
    fn resolve_interns_new_ids_first_seen() {
        // Graph with raw ids 100, 200, 300 at dense 0, 1, 2.
        let original = vec![100u64, 200, 300];
        let raw = RawDelta {
            ins: vec![(100, 999), (999, 888), (200, 300)],
            del: vec![(100, 200), (100, 777)],
        };
        let r = resolve_delta(&raw, &original);
        assert_eq!(r.new_original_ids, vec![999, 888]);
        assert_eq!(r.dropped_deletions, 1); // 777 unknown
        assert_eq!(r.delta.num_insertions(), 3);
        assert_eq!(r.delta.num_deletions(), 1);
        assert_eq!(r.delta.min_vertices(), 5);
    }

    #[test]
    fn resolved_delta_applies_cleanly() {
        let original = vec![7u64, 8, 9];
        let g = csr_from_edges(3, &[(0, 1), (1, 2)]);
        let raw = RawDelta {
            ins: vec![(7, 42)],
            del: vec![(8, 9)],
        };
        let r = resolve_delta(&raw, &original);
        let out = apply_delta(&g, &r.delta);
        assert_eq!(out, rebuild(4, &[(0, 1), (0, 3)]));
    }
}
