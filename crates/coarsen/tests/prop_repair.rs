//! Property-based tests for incremental hierarchy repair: over random
//! graphs and random deltas, the repaired hierarchy must be a valid
//! coarsening hierarchy, byte-identical across thread counts, and — when
//! the dirty fraction forces the fallback — identical to coarsening the
//! new graph from scratch.

use gosh_coarsen::hierarchy::{coarsen_hierarchy, CoarsenConfig};
use gosh_coarsen::mapping::UNMAPPED;
use gosh_coarsen::repair::{repair_hierarchy, RepairConfig, RepairStats};
use gosh_graph::builder::csr_from_edges;
use gosh_graph::csr::Csr;
use gosh_graph::stream::{apply_delta, EdgeDelta};
use proptest::prelude::*;

/// Random base graph + delta ops (with up to 8 appended vertices).
#[allow(clippy::type_complexity)]
fn graph_and_ops() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, Vec<(bool, u32, u32)>)> {
    (8usize..64).prop_flat_map(|n| {
        let base = prop::collection::vec((0..n as u32, 0..n as u32), n..4 * n);
        let hi = n as u32 + 8;
        let ops = prop::collection::vec((prop::bool::ANY, 0..hi, 0..hi), 0..24);
        (Just(n), base, ops)
    })
}

fn build_delta(ops: &[(bool, u32, u32)]) -> EdgeDelta {
    let mut d = EdgeDelta::new();
    for &(is_insert, u, v) in ops {
        if is_insert {
            d.insert(u, v);
        } else {
            d.delete(u, v);
        }
    }
    d
}

/// A threshold of 4 (default 100) gives these 8–63-vertex graphs
/// levels to repair.
fn coarsen_cfg(threads: usize) -> CoarsenConfig {
    CoarsenConfig {
        threads,
        threshold: 4,
        ..Default::default()
    }
}

/// Validity contract of any hierarchy: per level, the mapping is total
/// and compact over the fine graph, and the coarse CSR upholds the CSR
/// invariants (symmetric, sorted-unique lists, no self-loops).
fn assert_valid_hierarchy(h: &gosh_coarsen::hierarchy::Hierarchy) {
    assert_eq!(h.graphs.len(), h.maps.len() + 1);
    for (i, m) in h.maps.iter().enumerate() {
        let fine = &h.graphs[i];
        let coarse = &h.graphs[i + 1];
        assert_eq!(m.num_fine(), fine.num_vertices());
        assert_eq!(m.num_clusters(), coarse.num_vertices());
        let mut used = vec![false; m.num_clusters()];
        for v in 0..fine.num_vertices() as u32 {
            let c = m.cluster_of(v);
            assert!(c != UNMAPPED && (c as usize) < m.num_clusters());
            used[c as usize] = true;
        }
        assert!(used.iter().all(|&u| u), "empty cluster at level {i}");
        assert!(coarse.is_symmetric());
        assert!(coarse.has_no_self_loops());
        for v in 0..coarse.num_vertices() as u32 {
            assert!(coarse.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
    }
}

fn hierarchies_equal(
    a: &gosh_coarsen::hierarchy::Hierarchy,
    b: &gosh_coarsen::hierarchy::Hierarchy,
) -> bool {
    a.graphs == b.graphs && a.maps == b.maps
}

/// Everything a repair returns except its wall-clock seconds.
#[allow(clippy::type_complexity)]
fn repair_outcome(
    h: &gosh_coarsen::hierarchy::Hierarchy,
    st: &RepairStats,
) -> (
    Vec<(usize, usize, usize)>,
    usize,
    bool,
    Vec<f64>,
    Vec<usize>,
    Vec<Vec<u32>>,
) {
    (
        h.stats
            .iter()
            .map(|s| (s.level, s.vertices, s.edges))
            .collect(),
        st.repaired_levels,
        st.fell_back,
        st.dirty_fractions.clone(),
        st.dissolved_clusters.clone(),
        st.dirty_per_level.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Repair produces a valid hierarchy whose fine graph is the edited
    /// graph, for any delta.
    #[test]
    fn repair_yields_a_valid_hierarchy((n, base, ops) in graph_and_ops()) {
        let g: Csr = csr_from_edges(n, &base);
        let old = coarsen_hierarchy(g.clone(), &coarsen_cfg(4));
        let delta = build_delta(&ops);
        let g_new = apply_delta(&g, &delta);
        let dirty = delta.dirty_vertices(n);
        let cfg = RepairConfig { coarsen: coarsen_cfg(4), ..Default::default() };
        let (h, stats) = repair_hierarchy(&old, g_new.clone(), &dirty, &cfg);
        prop_assert_eq!(&h.graphs[0], &g_new);
        assert_valid_hierarchy(&h);
        prop_assert_eq!(stats.dirty_per_level.len(), h.depth());
    }

    /// The ISSUE invariant: cluster maps (and coarse graphs) are
    /// byte-identical at threads 1/2/4/8.
    #[test]
    fn repair_is_byte_identical_across_thread_counts((n, base, ops) in graph_and_ops()) {
        let g: Csr = csr_from_edges(n, &base);
        let old = coarsen_hierarchy(g.clone(), &coarsen_cfg(1));
        let delta = build_delta(&ops);
        let g_new = apply_delta(&g, &delta);
        let dirty = delta.dirty_vertices(n);
        let reference = repair_hierarchy(
            &old,
            g_new.clone(),
            &dirty,
            &RepairConfig { coarsen: coarsen_cfg(1), ..Default::default() },
        ).0;
        for threads in [2usize, 4, 8] {
            let h = repair_hierarchy(
                &old,
                g_new.clone(),
                &dirty,
                &RepairConfig { coarsen: coarsen_cfg(threads), ..Default::default() },
            ).0;
            prop_assert!(
                hierarchies_equal(&h, &reference),
                "repair diverged at {} threads", threads
            );
        }
    }

    /// `gosh update` at any `--threads`: coarsening the old graph and
    /// repairing it both at `threads` gives the same hierarchy and the
    /// same `RepairStats` (seconds aside) at 1, 2 and 4 threads.
    #[test]
    fn repair_end_to_end_is_identical_across_thread_counts((n, base, ops) in graph_and_ops()) {
        let g: Csr = csr_from_edges(n, &base);
        let delta = build_delta(&ops);
        let g_new = apply_delta(&g, &delta);
        let dirty = delta.dirty_vertices(n);
        let run = |threads| {
            let coarsen = coarsen_cfg(threads);
            let old = coarsen_hierarchy(g.clone(), &coarsen);
            repair_hierarchy(&old, g_new.clone(), &dirty, &RepairConfig { coarsen, ..Default::default() })
        };
        let (reference, ref_stats) = run(1);
        for threads in [2usize, 4] {
            let (h, st) = run(threads);
            prop_assert!(hierarchies_equal(&h, &reference), "threads = {}", threads);
            prop_assert_eq!(
                repair_outcome(&h, &st),
                repair_outcome(&reference, &ref_stats),
                "threads = {}", threads
            );
        }
    }

    /// With a zero fallback threshold and a non-empty dirty set, repair
    /// degenerates to coarsening the new graph from scratch.
    #[test]
    fn forced_fallback_equals_full_recoarsen((n, base, ops) in graph_and_ops()) {
        prop_assume!(!ops.iter().all(|&(_, u, v)| u == v));
        let g: Csr = csr_from_edges(n, &base);
        let old = coarsen_hierarchy(g.clone(), &coarsen_cfg(4));
        let delta = build_delta(&ops);
        let g_new = apply_delta(&g, &delta);
        let dirty = delta.dirty_vertices(n);
        prop_assume!(!dirty.is_empty());
        let cfg = RepairConfig {
            fallback_fraction: 0.0,
            coarsen: coarsen_cfg(4),
        };
        let (h, stats) = repair_hierarchy(&old, g_new.clone(), &dirty, &cfg);
        let fresh = coarsen_hierarchy(g_new, &coarsen_cfg(4));
        prop_assert!(stats.fell_back || old.maps.is_empty());
        prop_assert!(hierarchies_equal(&h, &fresh), "fallback != from-scratch coarsen");
    }

    /// An empty delta repairs to the old hierarchy unchanged.
    #[test]
    fn empty_delta_preserves_the_hierarchy((n, base, _) in graph_and_ops()) {
        let g: Csr = csr_from_edges(n, &base);
        let old = coarsen_hierarchy(g.clone(), &coarsen_cfg(4));
        let cfg = RepairConfig { coarsen: coarsen_cfg(4), ..Default::default() };
        let (h, stats) = repair_hierarchy(&old, g.clone(), &[], &cfg);
        prop_assert!(hierarchies_equal(&h, &old));
        prop_assert!(!stats.fell_back);
        prop_assert!(stats.dissolved_clusters.iter().all(|&d| d == 0));
    }
}
