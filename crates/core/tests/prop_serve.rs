//! Property-based tests for the query engines: batching and the worker
//! team are pure execution detail. One batch through `search_batch` at
//! any thread count must be bit-identical (ids *and* score bits) to the
//! same queries answered one at a time — scores accumulate in a fixed
//! order per `(store, row, query)` and ties break on the row id total
//! order, so nothing observable may depend on scheduling.

use gosh_core::model::Embedding;
use gosh_core::quant::Precision;
use gosh_core::serve::{search_batch, search_exact, IvfIndex};
use gosh_core::store::{write_store, EmbeddingStore};
use gosh_runtime::TempDir;
use proptest::prelude::*;

fn precision_from(idx: usize) -> Precision {
    [Precision::F32, Precision::F16, Precision::I8][idx % 3]
}

/// The returned store outlives its file: the directory guard unlinks it
/// on return, and an unlinked file stays readable through an open mapping.
fn store_for(n: usize, dim: usize, precision: Precision, seed: u64) -> EmbeddingStore {
    let dir = TempDir::new("prop-serve").unwrap();
    let path = dir.join("case.embin");
    let m = Embedding::random(n, dim, seed);
    write_store(&path, &m, precision).unwrap();
    EmbeddingStore::open(&path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ISSUE satellite: batched execution is bit-identical to
    /// one-at-a-time across worker teams of 1, 2, 4, and 8 threads,
    /// for both engines and all three stored precisions.
    #[test]
    fn batched_queries_are_bit_identical_across_thread_counts(
        n in 2usize..150,
        dim in 1usize..24,
        nq in 1usize..10,
        k in 1usize..12,
        seed in 0u64..u64::MAX,
        pidx in 0usize..3,
    ) {
        let store = store_for(n, dim, precision_from(pidx), seed);
        let queries = Embedding::random(nq, dim, seed ^ 0x9E37_79B9).as_slice().to_vec();
        let index = IvfIndex::build(&store, 2);
        let nprobe = (index.nlist() / 2).max(1);

        // One-at-a-time references, single-threaded.
        let exact_ref: Vec<_> = queries
            .chunks_exact(dim)
            .map(|q| search_exact(&store, q, k))
            .collect();
        let ivf_ref: Vec<_> = queries
            .chunks_exact(dim)
            .map(|q| index.search(&store, q, k, nprobe))
            .collect();

        for threads in [1usize, 2, 4, 8] {
            let exact = search_batch(&store, None, &queries, k, 0, threads);
            prop_assert_eq!(&exact, &exact_ref, "exact diverged at {} threads", threads);
            let ivf = search_batch(&store, Some(&index), &queries, k, nprobe, threads);
            prop_assert_eq!(&ivf, &ivf_ref, "ivf diverged at {} threads", threads);
        }
    }

    /// Probing every list makes IVF a partition-ordered exact search:
    /// same ids, same score bits, any thread count.
    #[test]
    fn full_probe_ivf_equals_exact(
        n in 2usize..100,
        dim in 1usize..16,
        k in 1usize..8,
        seed in 0u64..u64::MAX,
        pidx in 0usize..3,
    ) {
        let store = store_for(n, dim, precision_from(pidx), seed);
        let q = Embedding::random(1, dim, seed ^ 0x51F0).as_slice().to_vec();
        let index = IvfIndex::build(&store, 4);
        let exact = search_exact(&store, &q, k);
        let full = index.search(&store, &q, k, index.nlist());
        prop_assert_eq!(exact, full);
    }
}
