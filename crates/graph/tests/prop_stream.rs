//! Property-based tests for the edge-delta streaming layer: applying a
//! delta to a CSR must be **byte-identical** to rebuilding the graph
//! from scratch over the edited edge set — the invariant that lets the
//! incremental pipeline share baselines with the static one. Delta files
//! are untrusted input: arbitrary bytes, truncations and bit flips of a
//! valid file parse to a result or an error, never a panic.

use std::collections::HashSet;

use gosh_graph::builder::csr_from_edges;
use gosh_graph::stream::{apply_delta, read_delta, write_delta, EdgeDelta, RawDelta};
use gosh_runtime::TempDir;
use proptest::prelude::*;

/// Strategy: a base edge list over up to 48 vertices plus a random
/// insert/delete sequence that may also name up to 16 new vertices.
#[allow(clippy::type_complexity)]
fn base_and_ops() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, Vec<(bool, u32, u32)>)> {
    (4usize..48).prop_flat_map(|n| {
        let base = prop::collection::vec((0..n as u32, 0..n as u32), 0..192);
        let hi = n as u32 + 16;
        let ops = prop::collection::vec((prop::bool::ANY, 0..hi, 0..hi), 0..96);
        (Just(n), base, ops)
    })
}

/// The normalized undirected edge `{u, v}` (loops excluded by callers).
fn norm(u: u32, v: u32) -> (u32, u32) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// The model: `(E ∪ I) \ D` over normalized undirected pairs.
fn edited_edge_set(
    base: &[(u32, u32)],
    ops: &[(bool, u32, u32)],
) -> (HashSet<(u32, u32)>, EdgeDelta) {
    let mut set: HashSet<(u32, u32)> = base
        .iter()
        .filter(|&&(u, v)| u != v)
        .map(|&(u, v)| norm(u, v))
        .collect();
    let mut delta = EdgeDelta::new();
    let mut ins: HashSet<(u32, u32)> = HashSet::new();
    let mut del: HashSet<(u32, u32)> = HashSet::new();
    for &(is_insert, u, v) in ops {
        if is_insert {
            delta.insert(u, v);
            if u != v {
                ins.insert(norm(u, v));
            }
        } else {
            delta.delete(u, v);
            if u != v {
                del.insert(norm(u, v));
            }
        }
    }
    set.extend(&ins);
    for e in &del {
        set.remove(e);
    }
    (set, delta)
}

/// Strategy: up to four epochs of raw-id insertions and deletions over
/// the whole `u64` id space.
fn raw_epochs() -> impl Strategy<Value = Vec<RawDelta>> {
    let pairs = || prop::collection::vec((0..=u64::MAX, 0..=u64::MAX), 0..6);
    prop::collection::vec(
        (pairs(), pairs()).prop_map(|(ins, del)| RawDelta { ins, del }),
        0..4,
    )
}

/// The bytes of the delta format's own grammar.
const ALPHABET: &[u8] = b"+- 0123456789\ncommit#%\r\t.e";

/// The bytes `write_delta` puts on disk for `epochs`.
fn delta_file(epochs: &[RawDelta]) -> Vec<u8> {
    let dir = TempDir::new("prop-delta").unwrap();
    let path = dir.join("d.delta");
    write_delta(&path, epochs).unwrap();
    std::fs::read(&path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `write_delta → read_delta` returns the epochs it was given,
    /// empty epochs included, and counts every line.
    #[test]
    fn write_delta_then_read_delta_round_trips(epochs in raw_epochs()) {
        let (back, stats) = read_delta(&delta_file(&epochs)[..]).unwrap();
        prop_assert_eq!(&back, &epochs);
        prop_assert_eq!(stats.commits, epochs.len());
        prop_assert_eq!(stats.insert_lines, epochs.iter().map(|e| e.ins.len()).sum::<usize>());
        prop_assert_eq!(stats.delete_lines, epochs.iter().map(|e| e.del.len()).sum::<usize>());
    }

    /// Arbitrary bytes, and bytes over the format's own alphabet (which
    /// reach the id and weight parsers), never panic the reader.
    #[test]
    fn read_delta_never_panics_on_arbitrary_bytes(
        raw in prop::collection::vec(0..=u8::MAX, 0..512),
        near in prop::collection::vec((0..ALPHABET.len()).prop_map(|i| ALPHABET[i]), 0..512),
    ) {
        let _ = read_delta(&raw[..]);
        let _ = read_delta(&near[..]);
    }

    /// Every truncation and every single-bit flip of a valid delta file
    /// parses to epochs or an error, never a panic.
    #[test]
    fn damaged_delta_files_never_panic(
        epochs in raw_epochs(),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let bytes = delta_file(&epochs);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let _ = read_delta(&bytes[..cut]);
        let mut flipped = bytes;
        let pos = ((flipped.len() - 1) as f64 * flip_frac) as usize;
        flipped[pos] ^= 1 << bit;
        let _ = read_delta(&flipped[..]);
    }

    /// The tentpole invariant: `apply_delta` equals a from-scratch build
    /// of the edited edge set, byte for byte (deletion wins inside one
    /// batch; new vertices extend the id range).
    #[test]
    fn apply_delta_is_byte_identical_to_rebuild((n, base, ops) in base_and_ops()) {
        let g = csr_from_edges(n, &base);
        let (set, delta) = edited_edge_set(&base, &ops);
        let n_final = n.max(delta.min_vertices());
        let edited: Vec<(u32, u32)> = set.iter().copied().collect();
        let rebuilt = csr_from_edges(n_final, &edited);
        let applied = apply_delta(&g, &delta);
        prop_assert_eq!(&applied, &rebuilt);
        // And the result upholds the CSR contract independently.
        prop_assert!(applied.is_symmetric());
        prop_assert!(applied.has_no_self_loops());
    }

    /// Epochs compose: applying two deltas one after the other equals a
    /// rebuild over the sequentially edited set — a deletion followed by
    /// a later-epoch insertion restores the edge.
    #[test]
    fn sequential_epochs_compose(
        (n, base, ops) in base_and_ops(),
        ops2 in prop::collection::vec((prop::bool::ANY, 0u32..64, 0u32..64), 0..64)
    ) {
        let g = csr_from_edges(n, &base);
        let (set1, d1) = edited_edge_set(&base, &ops);
        let g1 = apply_delta(&g, &d1);
        let mid: Vec<(u32, u32)> = set1.iter().copied().collect();
        let (set2, d2) = edited_edge_set(&mid, &ops2);
        let g2 = apply_delta(&g1, &d2);
        let n_final = g1.num_vertices().max(d2.min_vertices());
        let edited: Vec<(u32, u32)> = set2.iter().copied().collect();
        prop_assert_eq!(&g2, &csr_from_edges(n_final, &edited));
    }

    /// The dirty set covers every named endpoint and every new vertex.
    #[test]
    fn dirty_set_covers_endpoints_and_new_vertices((n, base, ops) in base_and_ops()) {
        let (_, delta) = edited_edge_set(&base, &ops);
        let dirty = gosh_graph::stream::EdgeDelta::dirty_vertices(&delta, n);
        prop_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "not sorted-unique");
        let have: HashSet<u32> = dirty.into_iter().collect();
        for &(_, u, v) in &ops {
            if u != v {
                prop_assert!(have.contains(&u) && have.contains(&v));
            }
        }
        for v in n..delta.min_vertices() {
            prop_assert!(have.contains(&(v as u32)), "new vertex {} not dirty", v);
        }
    }
}
