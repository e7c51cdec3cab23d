//! Fuzz tests for the binary `.csr` reader: truncations and single-bit
//! flips of a valid file must come back as `InvalidData` or as a graph
//! that passes `Csr::from_raw`, never as a panic — and a header that
//! claims more than the file holds must be rejected before anything of
//! the claimed size is allocated.

use std::io::{Cursor, ErrorKind};

use gosh_graph::builder::csr_from_edges;
use gosh_graph::csr::Csr;
use gosh_graph::io::{read_binary, write_binary};
use gosh_runtime::TempDir;
use proptest::prelude::*;

/// The `.csr` bytes `write_binary` produces for `g`.
fn csr_bytes(g: &Csr) -> Vec<u8> {
    let dir = TempDir::new("prop-binary").unwrap();
    let path = dir.join("g.csr");
    write_binary(&path, g).unwrap();
    std::fs::read(&path).unwrap()
}

/// A random graph over up to 40 vertices.
fn graphs() -> impl Strategy<Value = Csr> {
    (1usize..40).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 0..120)
            .prop_map(move |edges| csr_from_edges(n, &edges))
    })
}

/// `read_binary` over `bytes`, which claim `bytes.len()` bytes: either
/// `InvalidData` or a graph whose arrays pass `Csr::from_raw`.
fn assert_invalid_or_valid(bytes: &[u8]) {
    match read_binary(Cursor::new(bytes), bytes.len() as u64) {
        Ok(g) => {
            let checked = Csr::from_raw(g.xadj().to_vec(), g.adj().to_vec());
            assert_eq!(checked, g);
        }
        Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_files_round_trip(g in graphs()) {
        let bytes = csr_bytes(&g);
        let back = read_binary(Cursor::new(&bytes), bytes.len() as u64).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn truncations_are_invalid_data(g in graphs(), cut in 0usize..1 << 16) {
        let bytes = csr_bytes(&g);
        let cut = cut % bytes.len();
        let err = read_binary(Cursor::new(&bytes[..cut]), cut as u64).unwrap_err();
        prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
        // A source shorter than the length it claims is a read error.
        prop_assert!(read_binary(Cursor::new(&bytes[..cut]), bytes.len() as u64).is_err());
    }

    #[test]
    fn bit_flips_are_invalid_data_or_a_valid_graph(
        g in graphs(),
        at in 0usize..1 << 16,
        bit in 0u32..8,
    ) {
        let mut bytes = csr_bytes(&g);
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        assert_invalid_or_valid(&bytes);
    }
}

#[test]
fn every_header_bit_flip_is_rejected_before_allocating() {
    // Flipping a bit of |V| or |arcs| changes the size the header claims
    // — up to 2^63 entries — so the length check must reject it before
    // either array is allocated (an allocation of the claimed size would
    // abort the process, not return).
    let g = csr_from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
    let bytes = csr_bytes(&g);
    for at in 8..24 {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << bit;
            let err = read_binary(Cursor::new(&flipped), flipped.len() as u64).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "byte {at} bit {bit}");
        }
    }
}
