//! `run.sh --calibrate`: is the benchmark steady enough for its own bounds?
//!
//! Two sets of [`SEEDS`] untraced runs per workload (the same seeds in
//! both sets, workload order reversed in the second), then two traced runs
//! per workload. It prints, per metric, each set's median and quartiles, the
//! driver's spread statistic (interquartile range over the median) and
//! the set-to-set disagreement of the medians, and fails if
//!
//! * a spread or a disagreement exceeds the metric's bound,
//! * a metric that must repeat exactly (quality on the single-thread CPU
//!   workloads; `coarsen.levels` and `train.updates` everywhere) differs
//!   between two runs of one seed,
//! * the traced replay's seconds drift from the untraced program's own
//!   report of the same stages by more than [`MAX_REPLAY_DRIFT`], or
//! * a workload no longer has the shape it was chosen for.

use crate::metrics::{END_TO_END, EXACT_COUNTS, EXACT_QUALITY};
use crate::run::{run_traced, run_untraced, Context, Report};
use crate::stats::{iqr_share, median, quartiles};
use crate::workload::{self, Workload};

/// Seeds per set: the driver's own count.
const SEEDS: u64 = 10;
/// Largest `trace.replay_drift` at which the layer seconds are taken to
/// describe the untraced program. The replay usually runs the same code
/// faster than the `gosh` child did, by 0-12 % on a quiet host (README,
/// "The traced run").
const MAX_REPLAY_DRIFT: f64 = 0.15;

/// One workload's untraced reports, one per seed.
type Set = Vec<Vec<Report>>;

fn values(reports: &[Report], name: &str) -> Vec<f64> {
    reports.iter().filter_map(|r| r.value(name)).collect()
}

/// Worsening of `b`'s median relative to `a`'s, as a share of `a`'s.
fn disagreement(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        ((b - a) / a).abs()
    }
}

fn run_set(ctx: &Context, ws: &[Workload], seconds: f64, reversed: bool) -> Result<Set, String> {
    let mut set: Set = ws.iter().map(|_| Vec::new()).collect();
    let mut order: Vec<usize> = (0..ws.len()).collect();
    if reversed {
        order.reverse();
    }
    for seed in 1..=SEEDS {
        for &i in &order {
            let report = run_untraced(ctx, &ws[i], seed, seconds)?;
            eprintln!(
                "calibrate: {} seed {seed}: embed_s {:.3}, failed {}",
                ws[i].name,
                report.value("embed_s").unwrap_or(f64::NAN),
                report.failed
            );
            set[i].push(report);
        }
    }
    Ok(set)
}

/// The shape each workload was chosen for, from one traced run and the
/// untraced medians. Returns the violated assertions.
fn shape_violations(w: &Workload, traced: &Report, embed_s: f64) -> Vec<String> {
    let v = |name: &str| traced.value(name).unwrap_or(f64::NAN);
    let train_share = v("train.seconds") / embed_s;
    let mut bad = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{}: {what}", w.name));
        }
    };
    match w.name {
        "kernel-cpu-t1" => expect(
            train_share >= 0.80,
            format!("train share of embed_s {train_share:.2} < 0.80"),
        ),
        "big-sparse-t1" => expect(
            train_share <= 0.55,
            format!("train share of embed_s {train_share:.2} > 0.55"),
        ),
        "serve-update-i8" => {
            let fallbacks = v("repair.fallback_rounds");
            expect(
                (1.0..4.0).contains(&fallbacks),
                format!("repair.fallback_rounds {fallbacks} not in 1..4"),
            );
        }
        _ => {}
    }
    let partitioned = v("train.levels_partitioned");
    expect(
        (partitioned >= 1.0) == (w.name == "device-partitioned"),
        format!("train.levels_partitioned {partitioned}"),
    );
    bad
}

pub fn calibrate(ctx: &Context, seconds: f64) -> Result<bool, String> {
    let ws = workload::all();
    let a = run_set(ctx, &ws, seconds, false)?;
    let b = run_set(ctx, &ws, seconds, true)?;

    let mut problems: Vec<String> = Vec::new();
    for (i, w) in ws.iter().enumerate() {
        println!("\n== {} ({SEEDS} seeds x 2 sets) ==", w.name);
        println!(
            "{:<22} {:>12} {:>12} {:>12} {:>8} | {:>12} {:>8} | {:>8} {:>6}",
            "metric", "A median", "A q1", "A q3", "A iqr%", "B median", "B iqr%", "A~B %", "bound%"
        );
        for &(name, _, _, bound) in END_TO_END {
            let (va, vb) = (values(&a[i], name), values(&b[i], name));
            let (ma, mb) = (median(&va), median(&vb));
            let (q1, q3) = quartiles(&va);
            let (sa, sb) = (iqr_share(&va), iqr_share(&vb));
            let d = disagreement(ma, mb);
            println!(
                "{name:<22} {ma:>12.5} {q1:>12.5} {q3:>12.5} {:>8.2} | {mb:>12.5} {:>8.2} | {:>8.2} {:>6.1}",
                100.0 * sa,
                100.0 * sb,
                100.0 * d,
                100.0 * bound
            );
            if sa.max(sb) > bound {
                problems.push(format!(
                    "{} {name}: spread {:.2}% > bound",
                    w.name,
                    100.0 * sa.max(sb)
                ));
            }
            if d > bound {
                problems.push(format!(
                    "{} {name}: medians disagree by {:.2}%",
                    w.name,
                    100.0 * d
                ));
            }
            if w.deterministic() && EXACT_QUALITY.contains(&name) && va != vb {
                problems.push(format!(
                    "{} {name}: differs between two runs of one seed",
                    w.name
                ));
            }
        }
        let failed: u64 = a[i].iter().chain(&b[i]).map(|r| r.failed).sum();
        if failed > 0 {
            problems.push(format!("{}: {failed} failed operation(s)", w.name));
        }

        let (t1, _) = run_traced(ctx, w, 1)?;
        let (t2, _) = run_traced(ctx, w, 1)?;
        for name in EXACT_COUNTS {
            let (x, y) = (t1.value(name), t2.value(name));
            println!(
                "{name:<22} {:>12} {:>12}  (two traced runs, seed 1)",
                x.unwrap_or(f64::NAN),
                y.unwrap_or(f64::NAN)
            );
            if x != y {
                problems.push(format!("{} {name}: {x:?} vs {y:?}", w.name));
            }
        }
        // Both sides of the drift are a few seconds on a shared host; one
        // of two traced runs inside the window shows that the replay can
        // keep the program's pace, one outside only that the host moved.
        let drift = |t: &Report| t.value("trace.replay_drift").unwrap_or(f64::NAN);
        println!(
            "{:<22} {:>12.4} {:>12.4}  (two traced runs, seed 1)",
            "trace.replay_drift",
            drift(&t1),
            drift(&t2)
        );
        if drift(&t1).min(drift(&t2)) > MAX_REPLAY_DRIFT {
            problems.push(format!(
                "{}: trace.replay_drift {:.3} and {:.3}, both > {MAX_REPLAY_DRIFT}",
                w.name,
                drift(&t1),
                drift(&t2)
            ));
        }
        if t1.failed + t2.failed > 0 {
            problems.push(format!("{}: traced run failed: {:?}", w.name, t1.failures));
        }
        let embed_s = median(&values(&a[i], "embed_s"));
        problems.extend(shape_violations(w, &t1, embed_s));
    }

    println!();
    if problems.is_empty() {
        println!("calibrate: PASS");
    } else {
        for p in &problems {
            println!("calibrate: FAIL {p}");
        }
    }
    Ok(problems.is_empty())
}
