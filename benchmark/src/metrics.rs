//! The metric names, units and directions the harness reports.
//! `../../BENCHMARK.json` is the hand-written contract; a test under
//! `tests/` checks that it lists exactly these names and units.

/// name, unit, better, regression bound (share of the parent's median).
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("embed_s", "s", "lower", 0.25),
    ("file_to_query_s", "s", "lower", 0.25),
    ("query_exact32_p50_ms", "ms", "lower", 0.25),
    ("query_ivf32_p50_ms", "ms", "lower", 0.25),
    ("update_s", "s", "lower", 0.25),
    ("auc", "ratio", "higher", 0.03),
    ("update_auc", "ratio", "higher", 0.03),
    ("recall_at_10", "ratio", "higher", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.20),
];

/// Metrics that must repeat exactly from run to run of one seed.
pub const EXACT_QUALITY: &[&str] = &["auc", "update_auc", "recall_at_10"];
pub const EXACT_COUNTS: &[&str] = &["coarsen.levels", "train.updates"];

/// name, unit, better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // graph::ingest
    ("ingest.seconds", "s", "lower"),
    ("ingest.bytes", "B", "lower"),
    ("ingest.edges_per_s", "1/s", "higher"),
    // coarsen
    ("coarsen.seconds", "s", "lower"),
    ("coarsen.levels", "count", "lower"),
    ("coarsen.vertices_collapsed_per_s", "1/s", "higher"),
    // core::backend / train_cpu / train_gpu
    ("train.seconds", "s", "lower"),
    ("train.level0_seconds", "s", "lower"),
    ("train.coarse_seconds", "s", "lower"),
    ("train.updates", "count", "lower"),
    ("train.updates_per_s", "1/s", "higher"),
    ("train.levels_cpu", "count", "lower"),
    ("train.levels_device", "count", "higher"),
    ("train.levels_partitioned", "count", "lower"),
    ("train.computed_gb_per_s", "GB/s", "higher"),
    ("host.triad_gb_per_s", "GB/s", "higher"),
    // gpu + core::large
    ("device.kernels", "count", "lower"),
    ("device.h2d_bytes", "B", "lower"),
    ("device.d2h_bytes", "B", "lower"),
    ("large.rotations", "count", "lower"),
    ("large.loads", "count", "lower"),
    ("large.prefetches", "count", "higher"),
    ("large.evictions", "count", "lower"),
    ("large.prefetch_ratio", "ratio", "higher"),
    ("large.transfer_stall_seconds", "s", "lower"),
    ("large.pool_stall_seconds", "s", "lower"),
    // core::expand
    ("expand.seconds", "s", "lower"),
    ("expand.rows", "count", "lower"),
    // core::store
    ("store.write_seconds", "s", "lower"),
    ("store.bytes", "B", "lower"),
    ("store.write_mb_per_s", "MB/s", "higher"),
    ("store.open_seconds", "s", "lower"),
    // cli (the remainder)
    ("embed.unattributed_seconds", "s", "lower"),
    ("update.unattributed_seconds", "s", "lower"),
    // core::serve + runtime::transport
    ("serve.ready_seconds", "s", "lower"),
    ("serve.ivf_build_seconds", "s", "lower"),
    ("serve.exact_us", "us", "lower"),
    ("serve.ivf_us", "us", "lower"),
    ("serve.exact1_p50_ms", "ms", "lower"),
    ("serve.ivf1_p50_ms", "ms", "lower"),
    ("serve.wire_overhead_us", "us", "lower"),
    ("serve.exact_p99_ms", "ms", "lower"),
    ("serve.ivf_p99_ms", "ms", "lower"),
    ("serve.batch32_qps", "1/s", "higher"),
    ("serve.request_bytes", "B", "lower"),
    ("serve.response_bytes", "B", "lower"),
    // graph::stream
    ("stream.apply_seconds", "s", "lower"),
    ("stream.delta_edges", "count", "lower"),
    ("stream.dirty_vertices", "count", "lower"),
    // coarsen::repair + core::warm
    ("repair.seconds", "s", "lower"),
    ("repair.levels_repaired", "count", "higher"),
    ("repair.fallback_rounds", "count", "lower"),
    ("warm.train_seconds", "s", "lower"),
    ("warm.epochs", "count", "lower"),
    ("warm.trained_sources", "count", "lower"),
    // the harness itself: |replay seconds / the program's own report of
    // the same stages - 1|
    ("trace.replay_drift", "ratio", "lower"),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for (i, name) in names.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!names[..i].contains(name), "{name} is used twice");
        }
        for (name, unit, better, bound) in END_TO_END {
            assert!(
                valid_unit(unit) && ["lower", "higher"].contains(better),
                "{name}"
            );
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}");
        }
        for (name, unit, better) in PER_LAYER {
            assert!(
                valid_unit(unit) && ["lower", "higher"].contains(better),
                "{name}"
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
