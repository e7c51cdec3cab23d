//! `gosh-benchmark`: the repo's one end-to-end benchmark.
//!
//! ```text
//! benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark/run.sh --calibrate
//! ```
//!
//! See `README.md` for the journey, the metric ↔ layer ↔ workload table
//! and how to read a trace. The last line of stdout is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use gosh_benchmark::calibrate;
use gosh_benchmark::run::{run_traced, run_untraced, Context, Report};
use gosh_benchmark::workload;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    calibrate: bool,
    gosh: Option<String>,
    out: Option<String>,
}

const USAGE: &str = "usage: gosh-benchmark --gosh <path to gosh> --out <dir> \
    (--workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] | --calibrate)";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(gosh_benchmark::metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
        calibrate: false,
        gosh: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |what: &str| format!("bad value for {flag}: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| bad("expected a number"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--gosh" => a.gosh = Some(value()?),
            "--out" => a.out = Some(value()?),
            "--smoke" => a.smoke = true,
            "--calibrate" => a.calibrate = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(a)
}

fn print_report(name: &str, report: &Report) {
    println!("workload {name}");
    for note in &report.notes {
        println!("  {note}");
    }
    for (metric, value, unit) in &report.metrics {
        println!("  {metric:<34} {value:>18.6} {unit}");
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        report.attempted, report.failed
    );
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }
    println!("{}", report.to_json_line());
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let ctx = Context {
        gosh: args
            .gosh
            .ok_or_else(|| format!("missing --gosh\n{USAGE}"))?,
        out: args
            .out
            .ok_or_else(|| format!("missing --out\n{USAGE}"))?
            .into(),
    };
    if !std::path::Path::new(&ctx.gosh).is_file() {
        return Err(format!(
            "{} is not a file; build the `gosh` binary first",
            ctx.gosh
        ));
    }
    std::fs::create_dir_all(&ctx.out)
        .map_err(|e| format!("creating {}: {e}", ctx.out.display()))?;
    if args.calibrate {
        return calibrate::calibrate(&ctx, args.seconds);
    }
    let name = args
        .workload
        .ok_or_else(|| format!("missing --workload\n{USAGE}"))?;
    let mut w = workload::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })?;
    if args.smoke {
        w = w.smoke();
    }
    let report = if args.trace {
        run_traced(&ctx, &w, args.seed)?.0
    } else {
        run_untraced(&ctx, &w, args.seed, args.seconds)?
    };
    print_report(&name, &report);
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gosh-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
