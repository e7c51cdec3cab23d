//! Property-based tests for the query engines: batching and the worker
//! team are pure execution detail. One batch through `search_batch` at
//! any thread count must be bit-identical (ids *and* score bits) to the
//! same queries answered one at a time — scores accumulate in a fixed
//! order per `(store, row, query)` and ties break on the row id total
//! order, so nothing observable may depend on scheduling. Query and hit
//! frames are untrusted input: they round-trip, and arbitrary bytes,
//! truncations and bit flips decode to a value or an error, never a
//! panic.

use gosh_core::model::Embedding;
use gosh_core::quant::Precision;
use gosh_core::serve::{
    cmp_best, decode_hits, encode_hits, search_batch, search_exact, Hit, IvfIndex, QueryRequest,
    ServeClient, ServeConfig, Server,
};
use gosh_core::store::{write_store, EmbeddingStore};
use gosh_runtime::TempDir;
use proptest::prelude::*;

fn precision_from(idx: usize) -> Precision {
    [Precision::F32, Precision::F16, Precision::I8][idx % 3]
}

/// The returned store outlives its file: the directory guard unlinks it
/// on return, and an unlinked file stays readable through an open mapping.
fn store_for(n: usize, dim: usize, precision: Precision, seed: u64) -> EmbeddingStore {
    store_of(&Embedding::random(n, dim, seed), precision)
}

fn store_of(m: &Embedding, precision: Precision) -> EmbeddingStore {
    let dir = TempDir::new("prop-serve").unwrap();
    let path = dir.join("case.embin");
    write_store(&path, m, precision).unwrap();
    EmbeddingStore::open(&path).unwrap()
}

/// The scan's oracle: every row scored on its own by
/// `EmbeddingStore::dot`, sorted under `cmp_best`, cut to `k`.
fn per_row_reference(store: &EmbeddingStore, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
    queries
        .chunks_exact(store.dim())
        .map(|q| {
            let q_sum: f32 = q.iter().sum();
            let mut hits: Vec<Hit> = (0..store.num_vertices() as u32)
                .map(|id| Hit {
                    id,
                    score: store.dot(id, q, q_sum),
                })
                .collect();
            hits.sort_by(cmp_best);
            hits.truncate(k);
            hits
        })
        .collect()
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

/// Any `f32` bit pattern, NaN payloads included.
fn any_f32() -> impl Strategy<Value = f32> {
    (0..=u32::MAX).prop_map(f32::from_bits)
}

/// A well-formed query request: `nq` rows of width `dim`.
fn query_request() -> impl Strategy<Value = QueryRequest> {
    (0..=u32::MAX, 0..=u32::MAX, 1u32..9, 0usize..5).prop_flat_map(|(k, nprobe, dim, nq)| {
        let len = nq * dim as usize;
        prop::collection::vec(any_f32(), len..=len).prop_map(move |queries| QueryRequest {
            k,
            nprobe,
            dim,
            queries,
        })
    })
}

/// Hit lists as a server sends them.
fn hit_lists() -> impl Strategy<Value = Vec<Vec<Hit>>> {
    let hit = (0..=u32::MAX, any_f32()).prop_map(|(id, score)| Hit { id, score });
    prop::collection::vec(prop::collection::vec(hit, 0..6), 0..5)
}

/// Decode a request and keep its fields with the rows as bits (NaN is
/// not equal to itself as an `f32`).
fn request_bits(payload: &[u8]) -> Result<(u32, u32, u32, Vec<u32>), String> {
    QueryRequest::decode(payload).map(|r| {
        (
            r.k,
            r.nprobe,
            r.dim,
            r.queries.iter().map(|x| x.to_bits()).collect(),
        )
    })
}

/// `bytes` with bit `bit` of the byte at `frac` of its length flipped.
fn flip(mut bytes: Vec<u8>, frac: f64, bit: u8) -> Vec<u8> {
    let pos = ((bytes.len() - 1) as f64 * frac) as usize;
    bytes[pos] ^= 1 << bit;
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `encode → decode` is the identity on requests and on hit lists,
    /// down to the bits of every float.
    #[test]
    fn query_and_hit_frames_round_trip(req in query_request(), hits in hit_lists()) {
        let want = (req.k, req.nprobe, req.dim, req.queries.iter().map(|x| x.to_bits()).collect());
        prop_assert_eq!(request_bits(&req.encode()), Ok(want));
        prop_assert_eq!(decode_hits(&encode_hits(&hits)), Ok(hits));
    }

    /// Arbitrary bytes never panic either decoder.
    #[test]
    fn frame_decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(0..=u8::MAX, 0..256),
    ) {
        let _ = QueryRequest::decode(&bytes);
        let _ = decode_hits(&bytes);
    }

    /// Every proper prefix of a valid frame is an error (each length is
    /// cross-checked), and a single-bit flip decodes or errs — neither
    /// panics.
    #[test]
    fn damaged_frames_are_errors_not_panics(
        req in query_request(),
        hits in hit_lists(),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let query = req.encode();
        let cut = (query.len() as f64 * cut_frac) as usize;
        prop_assert!(QueryRequest::decode(&query[..cut]).is_err());
        let _ = QueryRequest::decode(&flip(query, flip_frac, bit));

        let frame = encode_hits(&hits);
        let cut = (frame.len() as f64 * cut_frac) as usize;
        prop_assert!(decode_hits(&frame[..cut]).is_err());
        let _ = decode_hits(&flip(frame, flip_frac, bit));
    }
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
        nq in 1usize..40,
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

    /// One pass over the rows for the whole batch gives every query the
    /// ids and score bits of scoring each row on its own with
    /// `EmbeddingStore::dot`: dims around every lane boundary, batches
    /// across every lane-group boundary, `k` at both ends, two equal rows
    /// so scores tie, and queries with `-0.0`, NaN and `±∞` entries (an
    /// all-`-0.0` query ties every row; NaN and infinities make NaN scores).
    #[test]
    fn batch_scan_is_bit_identical_to_the_per_row_reference(
        (n, dim, queries) in (1usize..150, 1usize..=70, 1usize..=40).prop_flat_map(|(n, dim, nq)| (
            Just(n),
            Just(dim),
            prop::collection::vec(query_entry(), nq * dim..=nq * dim),
        )),
        twins in (0usize..150, 0usize..150),
        kpick in 0usize..5,
        mid in 2usize..12,
        seed in 0u64..u64::MAX,
        pidx in 0usize..3,
    ) {
        let mut m = Embedding::random(n, dim, seed);
        let twin = m.row((twins.0 % n) as u32).to_vec();
        m.row_mut((twins.1 % n) as u32).copy_from_slice(&twin);
        let store = store_of(&m, precision_from(pidx));
        let mut queries = queries;
        queries[..dim].fill(-0.0);
        let k = [0, 1, mid, n, n + 3][kpick];
        let want = per_row_reference(&store, &queries, k);
        for threads in [1usize, 3] {
            let got = search_batch(&store, None, &queries, k, 0, threads);
            prop_assert_eq!(&got, &want, "{} threads, k {}", threads, k);
        }
        // The one-query entry runs the same scan.
        let last = &queries[queries.len() - dim..];
        prop_assert_eq!(&search_exact(&store, last, k), want.last().unwrap());
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

    /// Over the wire, from the moment `bind` returns: an IVF client and an
    /// exact client, on two connections at once, get the hits of an
    /// in-process build and search bit for bit, whether or not the IVF
    /// request arrived before the index was built.
    #[test]
    fn wire_answers_from_bind_equal_in_process_search(
        n in 2usize..400,
        dim in 1usize..20,
        nq in 1usize..6,
        k in 1usize..12,
        threads in 1usize..=3,
        seed in 0u64..u64::MAX,
        pidx in 0usize..3,
    ) {
        let store = store_for(n, dim, precision_from(pidx), seed);
        let queries = Embedding::random(nq, dim, seed ^ 0x7A11).as_slice().to_vec();
        let index = IvfIndex::build(&store, threads);
        let nprobe = (index.nlist() / 3).max(1);
        let want_ivf = search_batch(&store, Some(&index), &queries, k, nprobe, threads);
        let want_exact = search_batch(&store, None, &queries, k, 0, threads);

        let cfg = ServeConfig { threads, ..Default::default() };
        let server = Server::bind(store, "127.0.0.1:0", cfg).unwrap();
        let addr = server.local_addr().unwrap();
        let running = std::thread::spawn(move || server.run());
        let (ivf, exact) = std::thread::scope(|s| {
            let ivf = s.spawn(|| ServeClient::connect(addr).unwrap().query(&queries, dim, k, nprobe));
            let exact = s.spawn(|| ServeClient::connect(addr).unwrap().query(&queries, dim, k, 0));
            (ivf.join().unwrap().unwrap(), exact.join().unwrap().unwrap())
        });
        ServeClient::connect(addr).unwrap().shutdown().unwrap();
        running.join().unwrap().unwrap();
        prop_assert_eq!(ivf, want_ivf);
        prop_assert_eq!(exact, want_exact);
    }
}
