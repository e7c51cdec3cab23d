//! One benchmark run: either set-ups and untraced journeys, a fixed
//! number of each (`--trace 0`, end-to-end metrics), or a few untraced
//! journeys and as many in-process traced replays of the same inputs
//! (`--trace 1`, per-layer metrics).

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::host;
use crate::journey::{run_journey, Evaluate, Files, Journey, Ops};
use crate::layers::{self, Inputs, Metrics, ServeReplay, UpdateRound, UpdateSeconds};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::Workload;

/// Set-ups before every journey of an untraced run. Spread over the
/// run like this, a burst of host noise cannot cover all of them.
const SETUPS_PER_JOURNEY: usize = 3;

/// Where the program under test is and where the run may write.
pub struct Context {
    pub gosh: String,
    pub out: PathBuf,
}

/// What a run reports: the contract's four keys.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name, value, unit — in the order of the metric tables.
    pub metrics: Vec<(String, f64, String)>,
    pub failures: Vec<String>,
    /// Free-form facts printed above the result (journeys, host, …).
    pub notes: Vec<String>,
}

impl Report {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The last line of stdout the driver parses.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN/inf; such a value also fails the run.
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A fresh, empty work directory for `w` under the output directory.
fn work_dir(ctx: &Context, w: &Workload) -> Result<PathBuf, String> {
    let dir = ctx.out.join(w.name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn host_notes(ctx: &Context, seed: u64) -> Vec<String> {
    let profile = if ctx.gosh.contains("/release/") {
        "release"
    } else {
        "unknown (not under a release/ directory)"
    };
    vec![
        format!("host_cores {}", layers::host_cores()),
        format!("gosh {} (build profile: {profile})", ctx.gosh),
        format!("seed {seed}"),
    ]
}

fn finish(mut ops: Ops, metrics: Vec<(String, f64, String)>, notes: Vec<String>) -> Report {
    for (name, value, _) in &metrics {
        ops.check(value.is_finite(), || format!("metric {name} is not finite"));
    }
    Report {
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        failures: ops.failures,
        notes,
    }
}

/// `--trace 0`: `w.journeys(seconds)` whole journeys, each after
/// `SETUPS_PER_JOURNEY` set-ups. Every time metric, `setup_s` too, is the
/// fastest of its repetitions; quality (AUC, recall) is scored once, on
/// the first journey.
pub fn run_untraced(
    ctx: &Context,
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let dir = work_dir(ctx, w)?;
    let files = Files::new(&dir);
    let mut ops = Ops::default();
    let mut setups: Vec<f64> = Vec::new();
    let mut journeys: Vec<Journey> = Vec::new();
    let mut measured = 0.0;
    for index in 0..w.journeys(seconds) {
        let mut inputs = None;
        for _ in 0..SETUPS_PER_JOURNEY {
            let t0 = Instant::now();
            inputs = Some(layers::make_inputs(w, seed, &dir)?);
            setups.push(t0.elapsed().as_secs_f64());
        }
        let inputs = inputs.expect("SETUPS_PER_JOURNEY is at least 1");
        // Quality is scored once, on the first journey; the others only time.
        let evaluate = if index == 0 {
            Evaluate::Full
        } else {
            Evaluate::TimingOnly
        };
        let t0 = Instant::now();
        journeys.push(run_journey(
            &ctx.gosh, w, &inputs, &files, evaluate, &mut ops,
        )?);
        measured += t0.elapsed().as_secs_f64();
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The host's noise is one-sided: co-tenants only ever slow a
    // repetition down, in bursts that last seconds (README, "Noise"). The
    // fastest of a fixed number of repetitions is the steadiest estimate
    // of the program's own cost.
    let fastest = |xs: &mut dyn Iterator<Item = f64>| xs.fold(f64::INFINITY, f64::min);
    let best = |f: fn(&Journey) -> f64| fastest(&mut journeys.iter().map(f));
    let rss: Vec<f64> = journeys.iter().map(|j| j.peak_rss_mb).collect();
    let values = [
        ("setup_s", fastest(&mut setups.iter().copied())),
        ("embed_s", best(|j| j.embed_s)),
        ("file_to_query_s", best(|j| j.file_to_query_s)),
        ("query_exact32_p50_ms", best(|j| j.query_exact32_p50_ms)),
        ("query_ivf32_p50_ms", best(|j| j.query_ivf32_p50_ms)),
        ("update_s", best(|j| j.update_s)),
        ("auc", journeys[0].auc),
        ("update_auc", journeys[0].update_auc),
        ("recall_at_10", journeys[0].recall_at_10),
        ("peak_rss_mb", median(&rss)),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit, _, _)| {
            let value = values
                .iter()
                .find(|v| v.0 == name)
                .map_or(f64::NAN, |v| v.1);
            (name.to_string(), value, unit.to_string())
        })
        .collect();
    let mut notes = host_notes(ctx, seed);
    notes.push(format!(
        "{} journeys ({measured:.2}s measured), {} set-ups; times are the fastest repetition's, \
         peak_rss_mb the median, quality the first journey's",
        journeys.len(),
        setups.len()
    ));
    Ok(finish(ops, metrics, notes))
}

fn same_bytes(a: &Path, b: &Path) -> bool {
    match (std::fs::read(a), std::fs::read(b)) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

/// Times each side of a traced run is repeated; the fastest of each is
/// kept, as in the untraced run, so the two can be compared.
const TRACED_REPS: usize = 3;

/// One in-process replay of the journey under spans.
struct Replay {
    tracer: Tracer,
    metrics: Metrics,
    served: ServeReplay,
    /// Seconds of the stages the untraced program times itself: embed's
    /// coarsen + train + expand, and each update's recovery + apply +
    /// warm retrain.
    pipeline_s: f64,
    update: UpdateSeconds,
}

impl Replay {
    fn timed(&self) -> f64 {
        self.pipeline_s + self.update.timed
    }
}

fn replay_once(
    w: &Workload,
    inputs: &Inputs,
    cli: &Files,
    dir: &Path,
    ops: &mut Ops,
) -> Result<Replay, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating the replay dir: {e}"))?;
    let files = Files::new(dir);
    let mut t = Tracer::new(w.name);
    let mut m = Metrics::new();

    let pipeline_s = layers::replay_embed(w, inputs, &files.embedding_store(), &mut t, &mut m)?;
    let served = layers::replay_serve(w, inputs, &files.embedding_store(), &mut t, &mut m)?;
    let mut update = UpdateSeconds::default();
    let rounds = inputs.deltas.len();
    for (r, delta) in inputs.deltas.iter().enumerate() {
        let round = UpdateRound {
            index: r,
            graph: &files.graph(inputs, r),
            delta,
            store: &files.store_before(r),
            out_embin: &files.update_store(r),
            save_graph: &files.graph(inputs, r + 1),
        };
        let seconds = layers::replay_update(w, &round, &mut t, &mut m)?;
        update.timed += seconds.timed;
        update.io += seconds.io;
    }
    // One thread on the CPU is a pure function of the input: the replay
    // must have computed exactly what the program computed.
    if w.deterministic() {
        for (what, ours, theirs) in [
            (".embin", files.embedding_store(), cli.embedding_store()),
            (
                "last update store",
                files.store_before(rounds),
                cli.store_before(rounds),
            ),
        ] {
            ops.check(same_bytes(&ours, &theirs), || {
                format!("the replayed {what} differs from the CLI's")
            });
        }
    }
    ops.check(t.nests(), || String::from("a span lies outside its parent"));
    Ok(Replay {
        tracer: t,
        metrics: m,
        served,
        pipeline_s,
        update,
    })
}

/// `--trace 1`: `TRACED_REPS` untraced journeys (the end-to-end side of
/// every difference below), then the same inputs replayed in-process
/// under spans as many times; the fastest of each side is reported.
/// Writes `trace-<workload>.json` and returns the layer metrics.
pub fn run_traced(ctx: &Context, w: &Workload, seed: u64) -> Result<(Report, Tracer), String> {
    let dir = work_dir(ctx, w)?;
    let mut ops = Ops::default();
    let inputs = layers::make_inputs(w, seed, &dir)?;
    let files = Files::new(&dir);
    let mut cli: Option<Journey> = None;
    let mut replay: Option<Replay> = None;
    for rep in 0..TRACED_REPS {
        let evaluate = if rep == 0 {
            Evaluate::Full
        } else {
            Evaluate::TimingOnly
        };
        let j = run_journey(&ctx.gosh, w, &inputs, &files, evaluate, &mut ops)?;
        if cli
            .as_ref()
            .is_none_or(|best| j.embed_s + j.update_s < best.embed_s + best.update_s)
        {
            cli = Some(j);
        }
    }
    for _ in 0..TRACED_REPS {
        let r = replay_once(w, &inputs, &files, &dir.join("replay"), &mut ops)?;
        if replay.as_ref().is_none_or(|best| r.timed() < best.timed()) {
            replay = Some(r);
        }
    }
    let (cli, replay) = cli.zip(replay).expect("TRACED_REPS is at least 1");
    let Replay {
        tracer: t,
        metrics: mut m,
        served,
        pipeline_s,
        update,
    } = replay;

    let triad_bytes = host::triad_array_bytes();
    let triad = host::triad_gb_per_s(triad_bytes, 3);

    // The remainders are taken from the untraced program's own clocks,
    // not from the replay's: what it spent outside the stages it times
    // itself, less the I/O around them that the replay measured.
    let get = |m: &Metrics, name: &str| m.get(name).map_or(0.0, |e| e.0);
    let embed_io = get(&m, "ingest.seconds") + get(&m, "store.write_seconds");
    let mut set = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), (value, unit));
    };
    set("host.triad_gb_per_s", triad, "GB/s");
    set(
        "embed.unattributed_seconds",
        cli.embed_s - cli.cli_pipeline_s - embed_io,
        "s",
    );
    set(
        "update.unattributed_seconds",
        cli.update_s - cli.cli_update_s - update.io,
        "s",
    );
    set("serve.ready_seconds", cli.serve_ready_s, "s");
    set(
        "serve.wire_overhead_us",
        cli.ivf1_p50_ms * 1e3 - served.ivf_us,
        "us",
    );
    set("serve.exact1_p50_ms", cli.exact1_p50_ms, "ms");
    set("serve.ivf1_p50_ms", cli.ivf1_p50_ms, "ms");
    set("serve.exact_p99_ms", cli.exact_p99_ms, "ms");
    set("serve.ivf_p99_ms", cli.ivf_p99_ms, "ms");
    set("serve.batch32_qps", cli.batch32_qps, "1/s");
    // The replay's seconds for the stages the untraced program times
    // itself (embed: coarsen + train + expand; update: recovery + apply +
    // warm retrain) over the program's own report of them. 1.0 when the
    // replay is the same computation at the same speed.
    let reported = cli.cli_pipeline_s + cli.cli_update_s;
    let ratio = (pipeline_s + update.timed) / reported;
    ops.check(reported > 0.0, || {
        String::from("the program did not report its stage seconds")
    });
    set("trace.replay_drift", (ratio - 1.0).abs(), "ratio");

    let trace_path = ctx.out.join(format!("trace-{}.json", w.name));
    let wrote = t.write_chrome(&trace_path);
    ops.check(wrote.is_ok(), || {
        format!("writing {}: {wrote:?}", trace_path.display())
    });
    let _ = std::fs::remove_dir_all(&dir);

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit, _) in PER_LAYER {
        let found = m.get(name);
        ops.check(found.is_some(), || {
            format!("layer metric {name} was not produced")
        });
        metrics.push((
            name.to_string(),
            found.map_or(f64::NAN, |e| e.0),
            unit.to_string(),
        ));
    }
    let mut notes = host_notes(ctx, seed);
    notes.push(format!(
        "untraced journey: embed_s {:.3} (program reports {:.2}s for coarsen+train+expand), \
         update_s {:.3} (program reports {:.2}s for recovery+apply+retrain), \
         single-vector exact p50 {:.3} ms (in-process {:.1} us), ivf p50 {:.3} ms",
        cli.embed_s,
        cli.cli_pipeline_s,
        cli.update_s,
        cli.cli_update_s,
        cli.exact1_p50_ms,
        served.exact_us,
        cli.ivf1_p50_ms
    ));
    notes.push(format!(
        "replay / program-reported seconds of the same stages: {ratio:.3} \
         (embed {pipeline_s:.3}s / {:.2}s, update {:.3}s / {:.2}s)",
        cli.cli_pipeline_s, update.timed, cli.cli_update_s
    ));
    notes.push(format!(
        "triad arrays {} MiB each (reported LLC {} MiB)",
        triad_bytes >> 20,
        host::llc_bytes() >> 20
    ));
    let coverage: Vec<String> = t
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, s)| format!("{} {:.1}%", s.name, 100.0 * t.child_coverage(i)))
        .collect();
    notes.push(format!(
        "stage time covered by child spans: {}",
        coverage.join(", ")
    ));
    notes.push(format!("trace written to {}", trace_path.display()));
    Ok((finish(ops, metrics, notes), t))
}
