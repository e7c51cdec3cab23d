//! Property-based tests: coarsening invariants over randomized graphs.

use gosh_coarsen::build::build_coarse_sequential;
use gosh_coarsen::fused::{build_fused, coarsen_step_fused, map_fused, CoarsenWorkspace};
use gosh_coarsen::hierarchy::{coarsen_hierarchy, CoarsenConfig};
use gosh_coarsen::mapping::UNMAPPED;
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
    fn parallel_mapping_is_total_and_compact((n, edges) in edge_list(), threads in 1usize..5) {
        let g = csr_from_edges(n, &edges);
        let m = map_fused(&g, threads, &mut CoarsenWorkspace::new());
        prop_assert_eq!(m.num_fine(), n);
        let k = m.num_clusters();
        let mut used = vec![false; k];
        for v in 0..n as u32 {
            let c = m.cluster_of(v);
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
            // The hub that founded the cluster may be big; everyone pulled
            // in must satisfy the rule, so a second hub can only appear if
            // the founder was small. Two *big* vertices both above δ can
            // coexist only if one was the small-side founder; three cannot.
            prop_assert!(hubs <= 2, "cluster {c} holds {hubs} hubs");
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
    fn parallel_mapping_valid_across_thread_counts(
        (n, edges) in edge_list(),
        threads in 1usize..9,
    ) {
        // The full validity contract in one place: every vertex mapped,
        // cluster ids dense (every id in 0..k used, none out of range),
        // no matter how many threads raced over the claim CAS loop.
        let g = csr_from_edges(n, &edges);
        let m = map_fused(&g, threads, &mut CoarsenWorkspace::new());
        prop_assert_eq!(m.num_fine(), n);
        let k = m.num_clusters();
        prop_assert!(k >= 1 || n == 0);
        let mut used = vec![false; k];
        for v in 0..n as u32 {
            let c = m.cluster_of(v);
            prop_assert!(c != UNMAPPED, "vertex {} unmapped", v);
            prop_assert!((c as usize) < k, "vertex {} has cluster {} >= {}", v, c, k);
            used[c as usize] = true;
        }
        prop_assert!(used.iter().all(|&u| u), "cluster ids not dense");
    }

    #[test]
    fn parallel_mapping_never_merges_two_hubs(
        (n, edges) in edge_list(),
        threads in 1usize..9,
    ) {
        // The density rule of Algorithm 4 line 12, under races: a merge
        // only happens through an edge whose endpoints are not both
        // above δ. So whenever a cluster holds two hubs, the founder
        // must have been small — i.e. some member with degree ≤ δ is
        // adjacent to every other member. A cluster of hubs only, with
        // no small founder, would mean a hub claimed a hub directly.
        let g = csr_from_edges(n, &edges);
        let delta = g.density();
        let m = map_fused(&g, threads, &mut CoarsenWorkspace::new());
        let (offsets, members) = m.members();
        for c in 0..m.num_clusters() {
            let mem = &members[offsets[c]..offsets[c + 1]];
            let hubs = mem.iter().filter(|&&v| g.degree(v) as f64 > delta).count();
            if hubs >= 2 {
                let small_founder = mem.iter().any(|&f| {
                    (g.degree(f) as f64) <= delta
                        && mem
                            .iter()
                            .filter(|&&x| x != f)
                            .all(|&x| g.neighbors(f).contains(&x))
                });
                prop_assert!(
                    small_founder,
                    "cluster {} holds {} hubs with no small founder: {:?}",
                    c, hubs, mem
                );
            }
        }
    }

    #[test]
    fn fused_build_byte_identical_to_sequential_across_thread_counts(
        (n, edges) in edge_list(),
        map_threads in 1usize..5,
    ) {
        // The satellite contract: the fused parallel coarse-CSR
        // construction is byte-identical to `build_coarse_sequential`
        // on the same mapping for threads 1/2/4/8 — including mappings
        // produced by the racy parallel matcher, and including
        // workspace reuse between differently-shaped calls.
        let g = csr_from_edges(n, &edges);
        let m = map_fused(&g, map_threads, &mut CoarsenWorkspace::new());
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
    fn fused_step_pair_is_consistent((n, edges) in edge_list(), threads in 1usize..5) {
        // One fused step returns a (mapping, coarse) pair that is
        // internally consistent and matches the oracle builder.
        let g = csr_from_edges(n, &edges);
        let mut ws = CoarsenWorkspace::new();
        let (m, coarse) = coarsen_step_fused(&g, threads, &mut ws);
        prop_assert_eq!(m.num_fine(), g.num_vertices());
        prop_assert_eq!(coarse.num_vertices(), m.num_clusters());
        assert_valid_level_csr(&coarse);
        prop_assert_eq!(&coarse, &build_coarse_sequential(&g, &m));
    }

    #[test]
    fn coarse_builders_agree_on_parallel_mappings(
        (n, edges) in edge_list(),
        map_threads in 1usize..5,
        build_threads in 1usize..5,
    ) {
        // Bit-identical CSRs from both builders on the *same* mapping,
        // including mappings produced by the racy parallel mapper — the
        // build phase must be deterministic given its input even when
        // the input itself came from a nondeterministic race.
        let g = csr_from_edges(n, &edges);
        let m = map_fused(&g, map_threads, &mut CoarsenWorkspace::new());
        let seq = build_coarse_sequential(&g, &m);
        let par = build_fused(&g, &m, build_threads, &mut CoarsenWorkspace::new());
        prop_assert_eq!(seq, par);
    }
}
