//! The whole journey at smoke scale (2^12 vertices) for all four
//! workloads, through the same code `run.sh` runs: every named metric is
//! present and finite, no operation fails, the spans nest and cover their
//! parents, and `BENCHMARK.json` says what the harness reports.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use gosh_benchmark::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use gosh_benchmark::run::{run_traced, run_untraced, Context};
use gosh_benchmark::workload::{self, Workload};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

/// The release `gosh` binary: one already built by `run.sh` or the tier-1
/// build, else built here (offline, like everything else).
fn gosh_binary() -> &'static str {
    static BIN: OnceLock<String> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = repo_root();
        let target = std::env::var("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| root.join("target"));
        let bin = target.join("release/gosh");
        if !bin.is_file() {
            let status = Command::new("cargo")
                .args([
                    "build",
                    "--release",
                    "--offline",
                    "--quiet",
                    "-p",
                    "gosh-cli",
                ])
                .arg("--manifest-path")
                .arg(root.join("Cargo.toml"))
                .env("CARGO_TARGET_DIR", &target)
                .status()
                .expect("cargo is on PATH");
            assert!(status.success(), "building the gosh binary failed");
        }
        bin.to_string_lossy().into_owned()
    })
}

/// Each test gets its own output directory: libtest runs them in parallel.
fn context(tag: &str) -> Context {
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}"));
    std::fs::create_dir_all(&out).expect("creating the test output directory");
    Context {
        gosh: gosh_binary().to_string(),
        out,
    }
}

fn smoke_workloads() -> Vec<Workload> {
    workload::all().into_iter().map(Workload::smoke).collect()
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric() {
    let ctx = context("untraced");
    for w in smoke_workloads() {
        let report = run_untraced(&ctx, &w, 1, 1.0).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(report.failed, 0, "{}: {:?}", w.name, report.failures);
        assert!(report.correct && report.attempted > 100, "{}", w.name);
        assert_eq!(report.metrics.len(), END_TO_END.len());
        for (name, unit, _, _) in END_TO_END {
            let value = report
                .value(name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name));
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value}",
                w.name
            );
            assert!(report.metrics.iter().any(|m| m.0 == *name && m.2 == *unit));
        }
        let line = report.to_json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": ") && !line.contains('\n'));
    }
    let _ = std::fs::remove_dir_all(&ctx.out);
}

#[test]
fn traced_smoke_reports_every_layer_metric_and_spans_sum_to_their_parents() {
    let ctx = context("traced");
    for w in smoke_workloads() {
        let (report, tracer) =
            run_traced(&ctx, &w, 1).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(report.failed, 0, "{}: {:?}", w.name, report.failures);
        assert_eq!(report.metrics.len(), PER_LAYER.len());
        for (name, _, _) in PER_LAYER {
            let value = report
                .value(name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name));
            assert!(value.is_finite(), "{}: {name} = {value}", w.name);
        }
        let v = |name: &str| report.value(name).expect("checked above");

        // The device layers do work on one workload and none on the others.
        let on_device = w.name == "device-partitioned";
        assert_eq!(
            v("train.levels_partitioned") >= 1.0,
            on_device,
            "{}",
            w.name
        );
        assert_eq!(v("device.kernels") > 0.0, on_device, "{}", w.name);
        assert_eq!(v("large.loads") > 0.0, on_device, "{}", w.name);
        assert_eq!(v("train.levels_cpu") > 0.0, !on_device, "{}", w.name);
        assert!(v("stream.delta_edges") > 0.0, "{}", w.name);
        assert!(
            v("train.updates") > 0.0 && v("coarsen.levels") >= 2.0,
            "{}",
            w.name
        );

        // Spans nest, and the stages the harness times call by call sum to
        // their parent within 2 %.
        assert!(tracer.nests(), "{}", w.name);
        let mut stage_spans = 0;
        for (i, span) in tracer.spans().iter().enumerate() {
            let is_stage = span.name == "embed"
                || (span.name.starts_with("update/round") && span.name.matches('/').count() == 1);
            if span.parent.is_none() && is_stage {
                stage_spans += 1;
                let covered = tracer.child_coverage(i);
                assert!(
                    covered >= 0.98,
                    "{}: {} is {covered:.3} covered",
                    w.name,
                    span.name
                );
            }
        }
        assert_eq!(stage_spans, 1 + w.delta_shares.len(), "{}", w.name);

        let trace = std::fs::read_to_string(ctx.out.join(format!("trace-{}.json", w.name)))
            .expect("the trace file was written");
        assert!(trace.starts_with("{\"displayTimeUnit\"") && trace.trim_end().ends_with("]}"));
        assert!(trace.contains("\"name\":\"train/level0\"") && trace.contains("\"ph\":\"X\""));
    }
    let _ = std::fs::remove_dir_all(&ctx.out);
}

/// `BENCHMARK.json` is hand-written; the harness keeps its own tables.
/// The two must name the same workloads and metrics, in the same order,
/// with the same units, directions and bounds.
#[test]
fn benchmark_json_lists_what_the_harness_reports() {
    let committed = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is at the repo root");
    // Every object of the file that has a "name", as its `"key": value`
    // pairs; the file has no nested objects below that level.
    let objects: Vec<Vec<(String, String)>> = committed
        .split('{')
        .map(|chunk| chunk.split('}').next().unwrap_or(""))
        .filter(|body| body.contains("\"name\""))
        .map(|body| {
            body.split("\", \"")
                .filter_map(|pair| pair.split_once(':'))
                .map(|(k, v)| {
                    let clean = |s: &str| s.trim().trim_matches('"').to_string();
                    (clean(k), clean(v))
                })
                .collect()
        })
        .collect();
    let field = |o: &[(String, String)], key: &str| {
        o.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };

    let mut expected: Vec<Vec<String>> = Vec::new();
    for w in workload::all() {
        expected.push(vec![w.name.into(), w.why.into()]);
    }
    for (name, unit, better, bound) in END_TO_END {
        expected.push(vec![
            name.to_string(),
            unit.to_string(),
            better.to_string(),
            bound.to_string(),
        ]);
    }
    for (name, unit, better) in PER_LAYER {
        expected.push(vec![name.to_string(), unit.to_string(), better.to_string()]);
    }
    let found: Vec<Vec<String>> = objects
        .iter()
        .map(|o| {
            ["name", "why", "unit", "better", "bound"]
                .iter()
                .map(|key| field(o, key))
                .filter(|v| !v.is_empty())
                .collect()
        })
        .collect();
    assert_eq!(found, expected);
    assert!(committed.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
}
