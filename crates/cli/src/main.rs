//! `gosh` — command-line interface to the GOSH reproduction.
//!
//! `gosh --help` lists every command and flag (the `USAGE` text below).
//!
//! Graphs load from SNAP-style edge lists (`.txt`, any extension; a
//! weighted KONECT third column is accepted and discarded) through the
//! parallel streaming ingestion path, or from the binary CSR format
//! (`.csr`) through the chunked streaming-validated loader. `eval` runs
//! the paper's full §4.1 link-prediction pipeline: 80/20 split, embed
//! the train graph, report AUCROC on the held-out edges.

// No unsafe in this crate: the audit gate (docs/SAFETY.md) keeps it that way.
#![forbid(unsafe_code)]

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(|s| s.as_str()) {
        Some("generate") => commands::generate(&argv[1..]),
        Some("stats") => commands::stats(&argv[1..]),
        Some("convert") => commands::convert(&argv[1..]),
        Some("coarsen") => commands::coarsen(&argv[1..]),
        Some("embed") => commands::embed(&argv[1..]),
        Some("eval") => commands::eval(&argv[1..]),
        Some("update") => commands::update(&argv[1..]),
        Some("serve") => commands::serve(&argv[1..]),
        Some("query") => commands::query(&argv[1..]),
        Some("audit") => commands::audit(&argv[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
gosh — GOSH graph embedding (ICPP 2020 reproduction)

USAGE:
  gosh generate <dataset|N:K> <out.{txt,csr}>   synthesize a graph
  gosh stats <graph> [--threads N]              structural statistics
  gosh convert <in> <out> [--threads N]         re-encode txt <-> csr
  gosh coarsen <graph> [--threads N] [--threshold T]
  gosh embed <graph> <out.emb> [--dim D] [--preset P] [--epochs E]
                               [--device-mb M] [--threads N]
                               [--backend cpu|gpu]
                               [--precision f32|f16|i8]
                               [--precision-schedule C:F[:V]]
  gosh eval <graph> [--dim D] [--preset P] [--epochs E] [--device-mb M]
                    [--threads N] [--backend cpu|gpu] [--precision f32|f16|i8]
                    [--precision-schedule C:F[:V]]
  gosh update <graph> <delta> <store.embin> <out.emb>
                    [--threads N] [--preset P] [--epochs E] [--seed S]
                    [--fallback-fraction F] [--epoch-scale X]
                    [--precision f32|f16|i8] [--save-graph FILE]
  gosh serve <store.embin> [--addr H:P] [--threads N] [--ivf true|false]
  gosh query <store.embin> --addr H:P [--ids 0,1,2] [--k K]
                           [--nprobe P] [--shutdown true|false]
  gosh audit [--root DIR] [--write true]         safety static-analysis gate

  <dataset> is a suite name (dblp-like, orkut-like, ...; see
  `gosh_graph::gen::suite`), or N:K for N vertices with average degree K.
  <graph> is an edge-list file, or binary CSR if it ends in .csr.
  Edge lists parse through the parallel streaming ingestion path
  (--threads workers where accepted); `u v w` weighted KONECT lines are
  accepted (the weight is validated and discarded), and dropped
  self-loop/duplicate counts are reported by stats and convert.
  convert re-encodes between the formats; text-to-text conversions
  keep the original vertex ids of the input file.
  P is one of fast | normal | slow | nocoarse (Table 3).
  --device-mb simulates a device with that much memory (default: 12288,
  the paper's Titan X); small values force the partitioned Algorithm 5.
  --backend selects the training engine chain: cpu forces the Hogwild
  CPU trainer, gpu (default) uses the device — in-memory when the level
  fits, the partitioned Algorithm 5 path otherwise.
  --precision stores embedding rows as f32 (default, the bit-exact
  reference), f16, or i8 with a per-row scale; quantized rows are
  priced at their true byte width, so 2-4x larger graphs fit on the
  same device at a small, documented AUC cost.
  --precision-schedule C:F[:V] picks the precision per level instead:
  levels with fewer than V vertices (default 4096) train at precision
  C, levels at or above V at precision F — e.g. f32:i8 spends full
  precision only where epochs concentrate.
  embed writes two artifacts: the text .emb (six decimal
  places — lossy) and a checksummed binary .embin store next to it
  that round-trips bit-exactly and serves via mmap without decoding.
  update applies an edge-delta file to a trained model: `+ u v` /
  `- u v` lines batched into epochs by `commit` lines (within one epoch
  deletion wins; across epochs later lines see the earlier result;
  unknown insertion endpoints become new vertices, unknown deletions
  are dropped and counted). The graph is merged in place, the
  coarsening hierarchy is repaired around the touched clusters (or
  recoarsened past --fallback-fraction), and only the dirty region is
  retrained for --epoch-scale of the epoch budget, starting from the
  stored rows. Writes the same .emb/.embin pair as embed.
  serve maps an .embin store and answers top-k neighbour queries over
  TCP (framed protocol); by default it builds an IVF coarse-quantizer
  index so clients can trade recall for speed with --nprobe (0 =
  brute-force exact). query reads vertex rows from a local copy of the
  store, sends them as one batch, and prints id:score pairs per vertex;
  --shutdown true stops the server after the batch.
";
