//! Property-based tests: coarsening invariants over randomized graphs.

use gosh_coarsen::build::build_coarse_sequential;
use gosh_coarsen::fused::{build_fused, CoarsenWorkspace};
use gosh_coarsen::hierarchy::{coarsen_hierarchy, CoarsenConfig};
use gosh_coarsen::mapping::{Mapping, UNMAPPED};
use gosh_coarsen::sequential::map_sequential;
use gosh_graph::builder::csr_from_edges;
use gosh_graph::csr::Csr;
use proptest::prelude::*;

/// The CSR validity contract every hierarchy level must satisfy:
/// monotone `xadj` anchored at 0 and |adj|, neighbour ids in range, no
/// self-loops, and no duplicate entry within a neighbour list.
fn assert_valid_level_csr(g: &Csr) {
    let (xadj, adj) = g.clone().into_raw();
    assert_eq!(xadj[0], 0);
    assert_eq!(*xadj.last().unwrap(), adj.len());
    for w in xadj.windows(2) {
        assert!(w[0] <= w[1], "xadj not monotone");
    }
    let n = xadj.len() - 1;
    for &u in &adj {
        assert!((u as usize) < n, "neighbour {u} out of range {n}");
    }
    for v in 0..n as u32 {
        let nbrs = g.neighbors(v);
        for w in nbrs.windows(2) {
            assert!(w[0] < w[1], "vertex {v} list not strictly sorted");
        }
        assert!(!nbrs.contains(&v), "self-loop at {v}");
    }
}

fn edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4usize..80).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..400);
        (Just(n), edges)
    })
}

/// A graph from [`edge_list`] with an arbitrary compact mapping of its
/// vertices: k in 1..=n clusters, every id used. Every such mapping is
/// a valid builder input, so the builders are checked on more mappings
/// than the matcher ever emits.
fn graph_and_mapping() -> impl Strategy<Value = (Csr, Mapping)> {
    edge_list()
        .prop_flat_map(|(n, edges)| {
            let ids = (1..=n).prop_flat_map(move |k| {
                prop::collection::vec(0..k as u32, n).prop_map(move |ids| (k, ids))
            });
            (Just(edges), ids, prop::collection::vec(0..u64::MAX, n))
        })
        .prop_map(|(edges, (k, mut ids), keys)| {
            // k vertices in random order found the k clusters, so every
            // id is used; the rest keep their random draw.
            let n = ids.len();
            let mut founders: Vec<usize> = (0..n).collect();
            founders.sort_by_key(|&v| keys[v]);
            for (c, &v) in founders.iter().take(k).enumerate() {
                ids[v] = c as u32;
            }
            (csr_from_edges(n, &edges), Mapping::new(ids, k))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sequential_mapping_is_total_and_compact((n, edges) in edge_list()) {
        let g = csr_from_edges(n, &edges);
        let m = map_sequential(&g);
        prop_assert_eq!(m.num_fine(), n);
        // Total: every vertex mapped; compact: every cluster id < k and
        // every id in 0..k used.
        let k = m.num_clusters();
        let mut used = vec![false; k];
        for v in 0..n as u32 {
            let c = m.cluster_of(v);
            prop_assert!(c != UNMAPPED);
            prop_assert!((c as usize) < k);
            used[c as usize] = true;
        }
        prop_assert!(used.iter().all(|&u| u));
    }

    #[test]
    fn clusters_never_merge_two_hubs((n, edges) in edge_list()) {
        let g = csr_from_edges(n, &edges);
        let delta = g.density();
        let m = map_sequential(&g);
        let (offsets, members) = m.members();
        for c in 0..m.num_clusters() {
            let mem = &members[offsets[c]..offsets[c + 1]];
            let hubs = mem.iter().filter(|&&v| g.degree(v) as f64 > delta).count();
            // Hubs-first order maps every hub before any small vertex
            // founds a cluster, and a hub founder pulls in small vertices
            // only, so no cluster holds a second hub.
            prop_assert!(hubs <= 1, "cluster {c} holds {hubs} hubs");
        }
    }

    #[test]
    fn coarse_builders_agree((n, edges) in edge_list(), threads in 1usize..5) {
        let g = csr_from_edges(n, &edges);
        let m = map_sequential(&g);
        let seq = build_coarse_sequential(&g, &m);
        let par = build_fused(&g, &m, threads, &mut CoarsenWorkspace::new());
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn hierarchy_vertex_counts_telescope((n, edges) in edge_list()) {
        let g = csr_from_edges(n, &edges);
        let h = coarsen_hierarchy(g, &CoarsenConfig { threshold: 2, ..Default::default() });
        for i in 0..h.maps.len() {
            prop_assert_eq!(h.maps[i].num_fine(), h.graphs[i].num_vertices());
            prop_assert_eq!(h.maps[i].num_clusters(), h.graphs[i + 1].num_vertices());
            prop_assert!(h.graphs[i + 1].num_vertices() <= h.graphs[i].num_vertices());
        }
    }

    #[test]
    fn coarse_graphs_stay_clean((n, edges) in edge_list()) {
        let g = csr_from_edges(n, &edges);
        let h = coarsen_hierarchy(g, &CoarsenConfig::default());
        for cg in &h.graphs {
            prop_assert!(cg.is_symmetric());
            prop_assert!(cg.has_no_self_loops());
        }
    }

    #[test]
    fn fused_build_byte_identical_to_sequential_across_thread_counts(
        (g, m) in graph_and_mapping(),
    ) {
        // The builder contract: the fused parallel coarse-CSR
        // construction is byte-identical to `build_coarse_sequential`
        // on the same mapping for threads 1/2/4/8 — on any compact
        // mapping, and with workspace reuse between calls.
        let oracle = build_coarse_sequential(&g, &m);
        let mut ws = CoarsenWorkspace::new();
        for threads in [1usize, 2, 4, 8] {
            let fused = build_fused(&g, &m, threads, &mut ws);
            prop_assert_eq!(&oracle, &fused, "threads = {}", threads);
        }
    }

    #[test]
    fn fused_hierarchy_levels_are_valid_csrs(
        (n, edges) in edge_list(),
        threads in 2usize..6,
    ) {
        // Every level a full fused hierarchy produces must be a valid
        // CSR: monotone xadj, in-range adj, no self-loops, no duplicate
        // neighbours — and each level must agree with the sequential
        // oracle applied to the same (graph, mapping) pair.
        let g = csr_from_edges(n, &edges);
        let h = coarsen_hierarchy(
            g,
            &CoarsenConfig { threshold: 2, threads, ..Default::default() },
        );
        for cg in &h.graphs {
            assert_valid_level_csr(cg);
        }
        for i in 0..h.maps.len() {
            prop_assert_eq!(
                &h.graphs[i + 1],
                &build_coarse_sequential(&h.graphs[i], &h.maps[i])
            );
        }
    }

    #[test]
    fn fused_step_pair_is_consistent((g, m) in graph_and_mapping(), threads in 1usize..5) {
        // The builder's coarse graph is consistent with the mapping it
        // was given and matches the oracle builder.
        let coarse = build_fused(&g, &m, threads, &mut CoarsenWorkspace::new());
        prop_assert_eq!(coarse.num_vertices(), m.num_clusters());
        assert_valid_level_csr(&coarse);
        prop_assert_eq!(&coarse, &build_coarse_sequential(&g, &m));
    }

    #[test]
    fn coarse_builders_agree_on_parallel_mappings(
        (g, m) in graph_and_mapping(),
        build_threads in 1usize..5,
    ) {
        // Bit-identical CSRs from both builders on the *same* mapping,
        // for any compact mapping, not only the ones the matcher emits.
        let seq = build_coarse_sequential(&g, &m);
        let par = build_fused(&g, &m, build_threads, &mut CoarsenWorkspace::new());
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn hierarchy_identical_across_thread_counts((n, edges) in edge_list()) {
        // One matcher at every thread count and a builder whose output
        // does not depend on it: the whole hierarchy is the same.
        let g = csr_from_edges(n, &edges);
        let cfg = |threads| CoarsenConfig { threshold: 2, threads, ..Default::default() };
        let reference = coarsen_hierarchy(g.clone(), &cfg(1));
        for threads in [2usize, 3, 4, 8] {
            let h = coarsen_hierarchy(g.clone(), &cfg(threads));
            prop_assert_eq!(&h.graphs, &reference.graphs, "threads = {}", threads);
            prop_assert_eq!(&h.maps, &reference.maps, "threads = {}", threads);
        }
    }
}
