//! Determinism proptests for the parallel ingestion path: for any input
//! the worker-team parser must be byte-identical to the sequential
//! reference `read_edge_list` — same CSR, same `original_ids`, same
//! reported counts — across thread counts and chunk sizes, including
//! comment/blank/CRLF-heavy inputs with sparse recurring ids, weight
//! columns, self loops, and duplicates.

use std::io::Cursor;

use gosh_graph::ingest::{read_edge_list_parallel, IngestConfig};
use gosh_graph::io::read_edge_list;
use proptest::prelude::*;

/// One encoded line: `kind` 0 = blank, 1–2 = comment, otherwise an edge
/// `u v` (ids drawn from a small pool then sparsified so the same id
/// recurs across chunks), optionally weighted (`w >= 40`, rendered as
/// `w - 40` so negative weights appear too), optionally padded with
/// leading whitespace.
type LineSpec = ((usize, u64), (u64, u64), bool);

fn line_specs() -> impl Strategy<Value = Vec<LineSpec>> {
    prop::collection::vec(
        (
            (0usize..16, 0u64..24),
            (0u64..24, 0u64..140),
            prop::bool::ANY,
        ),
        0..64,
    )
}

fn render(lines: &[LineSpec], crlf: bool, trailing: bool) -> String {
    let sep = if crlf { "\r\n" } else { "\n" };
    let mut text = String::new();
    for (i, &((kind, u), (v, w), pad)) in lines.iter().enumerate() {
        if i > 0 {
            text.push_str(sep);
        }
        match kind {
            0 => {}
            1 => text.push_str(&format!("# comment {u} {v}")),
            2 => text.push_str(&format!("% konect header {w}")),
            _ => {
                if pad {
                    text.push_str("  \t");
                }
                // Sparsify: SNAP-style non-contiguous ids.
                text.push_str(&format!("{} {}", u * 1_000_003 + 17, v * 1_000_003 + 17));
                if w >= 40 {
                    text.push_str(&format!("\t{}.25", w as i64 - 80));
                }
            }
        }
    }
    if trailing && !text.is_empty() {
        text.push_str(sep);
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_parse_is_byte_identical_to_sequential(
        lines in line_specs(),
        crlf in prop::bool::ANY,
        trailing in prop::bool::ANY,
    ) {
        let text = render(&lines, crlf, trailing);
        let seq = read_edge_list(Cursor::new(text.as_bytes())).unwrap();
        for threads in [1usize, 2, 4, 8] {
            for chunk_bytes in [1usize, 9, 57, 1 << 16] {
                let cfg = IngestConfig { threads, chunk_bytes };
                let par = read_edge_list_parallel(text.as_bytes(), &cfg).unwrap();
                prop_assert_eq!(&par.graph, &seq.graph,
                    "graph diverged at threads={} chunk_bytes={}", threads, chunk_bytes);
                prop_assert_eq!(&par.original_ids, &seq.original_ids,
                    "ids diverged at threads={} chunk_bytes={}", threads, chunk_bytes);
                prop_assert_eq!(par.stats, seq.stats,
                    "stats diverged at threads={} chunk_bytes={}", threads, chunk_bytes);
            }
        }
    }

    #[test]
    fn parallel_errors_match_sequential(
        lines in line_specs(),
        bad_at in 0usize..64,
        bad_kind in 0usize..4,
    ) {
        // Splice a malformed line into the document: both parsers must
        // reject it with the same message and line number.
        let text = render(&lines, false, true);
        let bad = match bad_kind {
            0 => "bogus",
            1 => "12 noninteger",
            2 => "1 2 not-a-weight",
            _ => "1 2 3.0 too many",
        };
        let mut doc_lines: Vec<&str> = text.lines().collect();
        let at = bad_at.min(doc_lines.len());
        doc_lines.insert(at, bad);
        let broken = doc_lines.join("\n");
        let seq_msg = read_edge_list(Cursor::new(broken.as_bytes()))
            .unwrap_err()
            .to_string();
        for threads in [1usize, 3, 8] {
            for chunk_bytes in [1usize, 23, 1 << 16] {
                let cfg = IngestConfig { threads, chunk_bytes };
                let err = read_edge_list_parallel(broken.as_bytes(), &cfg).unwrap_err();
                prop_assert_eq!(err.to_string(), seq_msg.clone());
            }
        }
    }
}

/// Both parsers' outcome on `bytes` at threads 1, 2 and 4, each with the
/// default chunking (one chunk at one thread) and with 7-byte chunks:
/// the same graph, `original_ids` and stats, or the same error message
/// and kind.
fn assert_same_outcome(bytes: &[u8]) {
    let seq = read_edge_list(Cursor::new(bytes));
    for threads in [1usize, 2, 4] {
        for cfg in [
            IngestConfig::with_threads(threads),
            IngestConfig {
                threads,
                chunk_bytes: 7,
            },
        ] {
            let par = read_edge_list_parallel(bytes, &cfg);
            match (&seq, &par) {
                (Ok(s), Ok(p)) => {
                    assert_eq!(&p.graph, &s.graph, "graph at {cfg:?}");
                    assert_eq!(&p.original_ids, &s.original_ids, "ids at {cfg:?}");
                    assert_eq!(p.stats, s.stats, "stats at {cfg:?}");
                }
                (Err(s), Err(p)) => {
                    assert_eq!(p.to_string(), s.to_string(), "error at {cfg:?}");
                    assert_eq!(p.kind(), s.kind(), "error kind at {cfg:?}");
                }
                _ => panic!(
                    "outcomes differ at {cfg:?}: sequential {:?}, parallel {:?}",
                    seq.as_ref().map(|l| l.stats),
                    par.as_ref().map(|l| l.stats)
                ),
            }
        }
    }
}

/// One id token: `class` 0 is a small contiguous id (0–47, the direct
/// table's home), 1 an id below 2048 (on both sides of the table bound,
/// which is a quarter of the chunk's byte length), 2 one of the two
/// largest `u64`s, 3 a sparse id `x·1 000 003 + 17`.
type IdSpec = (usize, u64);

fn render_id((class, x): IdSpec, only_small: bool) -> u64 {
    match if only_small { 0 } else { class } {
        0 => x % 48,
        1 => x % 2048,
        2 => u64::MAX - x % 2,
        _ => x % 4096 * 1_000_003 + 17,
    }
}

fn id_lines() -> impl Strategy<Value = Vec<(IdSpec, IdSpec)>> {
    prop::collection::vec(
        ((0usize..4, 0u64..1 << 20), (0usize..4, 0u64..1 << 20)),
        0..96,
    )
}

fn render_ids(lines: &[(IdSpec, IdSpec)], only_small: bool) -> String {
    let mut text = String::new();
    for &(u, v) in lines {
        text.push_str(&format!(
            "{} {}\n",
            render_id(u, only_small),
            render_id(v, only_small)
        ));
    }
    text
}

/// Bytes that are mostly edge-list material (digits, field and line
/// separators, comment and sign characters, exponent letters) with
/// arbitrary bytes mixed in.
fn noisy_bytes() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"0123456789 \t\r\n\n\n#%-+.eE";
    prop::collection::vec((0usize..4, 0u8..=255), 0..256).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(class, b)| {
                if class == 0 {
                    b
                } else {
                    ALPHABET[b as usize % ALPHABET.len()]
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interner_id_classes_match_sequential(
        lines in id_lines(),
        only_small in prop::bool::ANY,
    ) {
        // Small contiguous ids, ids straddling the direct-table bound,
        // `u64::MAX` and sparse ids, alone and mixed inside one chunk
        // (default chunking) and across chunks (7-byte chunks).
        let text = render_ids(&lines, only_small);
        assert_same_outcome(text.as_bytes());
    }

    #[test]
    fn arbitrary_bytes_match_sequential(bytes in noisy_bytes()) {
        assert_same_outcome(&bytes);
    }

    #[test]
    fn truncated_and_bit_flipped_edge_lists_match_sequential(
        lines in id_lines(),
        cut in 0usize..4096,
        flip_at in 0usize..4096,
        flip_bit in 0u32..8,
    ) {
        let text = render_ids(&lines, false).into_bytes();
        let cut = cut % (text.len() + 1);
        assert_same_outcome(&text[..cut]);
        if !text.is_empty() {
            let mut flipped = text.clone();
            flipped[flip_at % text.len()] ^= 1 << flip_bit;
            assert_same_outcome(&flipped);
        }
    }
}
