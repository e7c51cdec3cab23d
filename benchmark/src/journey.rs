//! The untraced journey: the release `gosh` binary driven as child
//! processes with the commands a user types, the harness as the single
//! closed-loop client (one connection, one request in flight) and the
//! evaluator. Every end-to-end metric comes from here.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::layers::{self, Client, Inputs, Store};
use crate::proc::{self, Service};
use crate::stats::{median, p99_or_highest_supported};
use crate::workload::{
    Workload, BATCH, BATCH_WARMUP, EXACT_CHECKS, FULL_PROBE_CHECKS, K, NPROBE, RECALL_QUERIES,
    THREADS, WARMUP,
};

/// No child of any workload runs a tenth of this long.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// Operations attempted and failed: child exits, requests, and every
/// correctness check inside the run.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Files one journey reads and writes under its work directory.
pub struct Files {
    dir: PathBuf,
}

impl Files {
    pub fn new(dir: &Path) -> Self {
        Self {
            dir: dir.to_path_buf(),
        }
    }

    pub fn embedding_text(&self) -> PathBuf {
        self.dir.join("out.emb")
    }

    pub fn embedding_store(&self) -> PathBuf {
        self.dir.join("out.embin")
    }

    pub fn update_text(&self, round: usize) -> PathBuf {
        self.dir.join(format!("u{round}.emb"))
    }

    pub fn update_store(&self, round: usize) -> PathBuf {
        self.dir.join(format!("u{round}.embin"))
    }

    /// The graph round `round` reads: `train.txt`, then what the previous
    /// round saved. `.csr` keeps dense ids stable along the chain (a text
    /// edge list is re-interned in first-seen order on every load).
    pub fn graph(&self, inputs: &Inputs, round: usize) -> PathBuf {
        if round == 0 {
            inputs.train_path.clone()
        } else {
            self.dir.join(format!("g{round}.csr"))
        }
    }

    /// The store round `round` warm-starts from.
    pub fn store_before(&self, round: usize) -> PathBuf {
        if round == 0 {
            self.embedding_store()
        } else {
            self.update_store(round - 1)
        }
    }
}

/// What one journey measured.
#[derive(Clone, Debug, Default)]
pub struct Journey {
    // End-to-end.
    pub embed_s: f64,
    pub peak_rss_mb: f64,
    pub auc: f64,
    pub file_to_query_s: f64,
    pub query_exact32_p50_ms: f64,
    pub query_ivf32_p50_ms: f64,
    pub recall_at_10: f64,
    pub update_s: f64,
    pub update_auc: f64,
    // Seen on the wire or printed by the program; layer metrics only.
    pub serve_ready_s: f64,
    pub exact1_p50_ms: f64,
    pub ivf1_p50_ms: f64,
    pub exact_p99_ms: f64,
    pub ivf_p99_ms: f64,
    pub batch32_qps: f64,
    /// The "…s total" `gosh embed` prints for coarsen + train + expand.
    pub cli_pipeline_s: f64,
    /// Σ rounds of the "…s total" `gosh update` prints for hierarchy
    /// recovery + delta application + warm retrain.
    pub cli_update_s: f64,
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// `embedded: D = 7 levels, 6.83s total (…` → 6.83.
fn parse_pipeline_seconds(stdout: &str) -> Option<f64> {
    let line = stdout.lines().find(|l| l.starts_with("embedded:"))?;
    let head = line.split("s total").next()?;
    head.rsplit(' ').next()?.parse().ok()
}

/// `warm retrain: D = 6 levels (…), … 0.01s repair + 0.20s training (0.31s total)` → 0.31.
fn parse_update_seconds(stdout: &str) -> Option<f64> {
    let line = stdout.lines().find(|l| l.starts_with("warm retrain:"))?;
    let (_, tail) = line.rsplit_once('(')?;
    tail.strip_suffix("s total)")?.parse().ok()
}

/// `serving x.embin (n x d, f32) on 127.0.0.1:4242, 256 IVF lists` → addr.
fn parse_serving_addr(line: &str) -> Option<String> {
    let (_, tail) = line.rsplit_once(" on ")?;
    Some(tail.split(',').next()?.trim().to_string())
}

fn overlap(a: &[u32], b: &[u32]) -> usize {
    a.iter().filter(|id| b.contains(id)).count()
}

/// Run a batch child; a non-zero exit or a timeout is a failed operation
/// and ends the journey (nothing downstream can be measured).
fn run_child(gosh: &str, args: &[String], ops: &mut Ops) -> Result<proc::Finished, String> {
    let what = args.first().cloned().unwrap_or_default();
    let done = proc::run(gosh, args, CHILD_TIMEOUT);
    let ok = matches!(&done, Ok(f) if f.success);
    ops.check(ok, || format!("`gosh {what}` did not exit 0"));
    match done {
        Ok(f) if f.success => Ok(f),
        Ok(f) => Err(format!("`gosh {what}` failed:\n{}{}", f.stdout, f.stderr)),
        Err(e) => Err(format!("`gosh {what}`: {e}")),
    }
}

/// One timed single-vector segment over the open connection. Returns the
/// latencies after warm-up (ms) and the ids each query got back.
fn segment(
    client: &mut Client,
    queries: &[f32],
    dim: usize,
    nprobe: usize,
    ops: &mut Ops,
) -> Result<(Vec<f64>, Vec<Vec<u32>>), String> {
    let mut ms = Vec::with_capacity(queries.len() / dim);
    let mut ids = Vec::with_capacity(queries.len() / dim);
    for (i, q) in queries.chunks_exact(dim).enumerate() {
        let reply = client.query(q, dim, nprobe);
        let full = matches!(&reply, Ok((hits, _)) if hits.len() == 1 && hits[0].len() == K);
        ops.check(full, || {
            format!("query {i} (nprobe {nprobe}) failed or came back short")
        });
        // A transport error leaves the connection unusable: stop here.
        let (mut hits, seconds) = reply?;
        if i >= WARMUP {
            ms.push(seconds * 1e3);
        }
        ids.push(hits.pop().unwrap_or_default());
    }
    Ok((ms, ids))
}

/// One timed segment of 32-vector requests. Returns the latencies after
/// warm-up (ms).
fn batch_segment(
    client: &mut Client,
    queries: &[f32],
    dim: usize,
    nprobe: usize,
    ops: &mut Ops,
) -> Result<Vec<f64>, String> {
    let mut ms = Vec::with_capacity(queries.len() / (BATCH * dim));
    for (i, request) in queries.chunks_exact(BATCH * dim).enumerate() {
        let reply = client.query(request, dim, nprobe);
        let whole = matches!(&reply, Ok((ids, _)) if ids.len() == BATCH && ids.iter().all(|h| h.len() == K));
        ops.check(whole, || {
            format!("batch request {i} (nprobe {nprobe}) failed or came back short")
        });
        let seconds = reply?.1;
        if i >= BATCH_WARMUP {
            ms.push(seconds * 1e3);
        }
    }
    Ok(ms)
}

/// How much of the evaluator runs after the timed phases.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Evaluate {
    /// Score AUC, recall and every wire-vs-in-process check (the first
    /// journey of a run; its quality metrics are the run's).
    Full,
    /// Only what is free: exit codes, reply lengths, row counts.
    TimingOnly,
}

pub fn run_journey(
    gosh: &str,
    w: &Workload,
    inputs: &Inputs,
    files: &Files,
    evaluate: Evaluate,
    ops: &mut Ops,
) -> Result<Journey, String> {
    let mut j = Journey::default();
    let full = evaluate == Evaluate::Full;

    // 1. gosh embed
    let mut args = vec![
        "embed".to_string(),
        path_arg(&inputs.train_path),
        path_arg(&files.embedding_text()),
    ];
    args.extend(w.embed_flags());
    let embed = run_child(gosh, &args, ops)?;
    j.embed_s = embed.seconds;
    j.peak_rss_mb = embed.peak_rss_kb as f64 / 1024.0;
    j.cli_pipeline_s = parse_pipeline_seconds(&embed.stdout).unwrap_or(0.0);

    // 2. open the store, check it, score it (untimed)
    let store = Store::open(&files.embedding_store())?;
    let n = inputs.graph.num_vertices();
    ops.check(store.rows() == n, || {
        format!("embedding store does not have {n} rows")
    });
    if full {
        j.auc = scored(&store, &inputs.graph, inputs, w, "auc", ops);
    }

    // 3.–4. gosh serve: first answered query, then the query phase
    serve_phase(gosh, w, inputs, files, &store, full, &mut j, ops)?;
    drop(store);

    // 5. chained gosh update rounds
    let rounds = inputs.deltas.len();
    for (r, delta) in inputs.deltas.iter().enumerate() {
        let mut args = vec![
            "update".to_string(),
            path_arg(&files.graph(inputs, r)),
            path_arg(delta),
            path_arg(&files.store_before(r)),
            path_arg(&files.update_text(r)),
            "--save-graph".to_string(),
            path_arg(&files.graph(inputs, r + 1)),
        ];
        args.extend(w.update_flags());
        let round = run_child(gosh, &args, ops)?;
        j.update_s += round.seconds;
        j.cli_update_s += parse_update_seconds(&round.stdout).unwrap_or(0.0);
        let updated = Store::open(&files.update_store(r));
        ops.check(matches!(&updated, Ok(s) if s.rows() == n), || {
            format!("update round {r}: store does not have {n} rows")
        });
    }

    // 6. the last store against the final graph
    if full {
        let final_graph = layers::load_csr(&files.graph(inputs, rounds))?;
        let edges = layers::undirected_edges(&final_graph);
        ops.check(edges == inputs.final_edges, || {
            format!(
                "final graph has {edges} edges, the deltas imply {}",
                inputs.final_edges
            )
        });
        let last = Store::open(&files.store_before(rounds))?;
        j.update_auc = scored(&last, &final_graph, inputs, w, "update_auc", ops);
    }
    Ok(j)
}

/// AUC of `store` on the held-out edges; a store that cannot be scored
/// or scores under the workload's floor is a failed operation.
fn scored(
    store: &Store,
    graph: &layers::Graph,
    inputs: &Inputs,
    w: &Workload,
    what: &str,
    ops: &mut Ops,
) -> f64 {
    let auc = layers::link_auc(store, graph, &inputs.test);
    ops.check(auc.is_ok(), || format!("{what}: {auc:?}"));
    let auc = auc.unwrap_or(0.0);
    ops.check(auc >= w.auc_floor, || {
        format!("{what} {auc} below the floor {}", w.auc_floor)
    });
    auc
}

#[allow(clippy::too_many_arguments)]
fn serve_phase(
    gosh: &str,
    w: &Workload,
    inputs: &Inputs,
    files: &Files,
    store: &Store,
    full: bool,
    j: &mut Journey,
    ops: &mut Ops,
) -> Result<(), String> {
    let dim = store.dim();
    let exact_q = store.rows_of(&inputs.exact_ids);
    let ivf_q = store.rows_of(&inputs.ivf_ids);
    let batch_q = store.rows_of(&inputs.batch_ids);
    let serve_args = vec![
        "serve".to_string(),
        path_arg(&files.embedding_store()),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--ivf".to_string(),
        "true".to_string(),
        "--threads".to_string(),
        THREADS.to_string(),
    ];
    let mut server = Service::spawn(gosh, &serve_args).map_err(|e| format!("`gosh serve`: {e}"))?;
    let line = server
        .wait_for_line("serving ", CHILD_TIMEOUT)
        .map_err(|e| format!("`gosh serve`: {e}"))?;
    j.serve_ready_s = server.spawned.elapsed().as_secs_f64();
    let addr = parse_serving_addr(&line).ok_or_else(|| format!("no address in `{line}`"))?;
    let mut client = Client::connect(&addr)?;
    let first = client.query(&exact_q[..dim], dim, 0);
    let answered = server.spawned.elapsed().as_secs_f64();
    ops.check(first.is_ok(), || format!("first query: {first:?}"));
    first?;
    j.file_to_query_s = j.embed_s + answered;

    let (exact_ms, exact_ids) = segment(&mut client, &exact_q, dim, 0, ops)?;
    let (ivf_ms, ivf_ids) = segment(&mut client, &ivf_q, dim, NPROBE, ops)?;
    j.exact1_p50_ms = median(&exact_ms);
    j.ivf1_p50_ms = median(&ivf_ms);
    j.exact_p99_ms = p99_or_highest_supported(&exact_ms);
    j.ivf_p99_ms = p99_or_highest_supported(&ivf_ms);

    if full {
        let checked = exact_q.chunks_exact(dim).zip(&exact_ids).take(EXACT_CHECKS);
        for (i, (q, wire)) in checked.enumerate() {
            ops.check(*wire == store.exact_ids(q), || {
                format!("exact query {i}: wire ids differ from in-process search_exact")
            });
        }
        let recall_n = RECALL_QUERIES.min(ivf_ids.len());
        let hits: usize = ivf_q
            .chunks_exact(dim)
            .zip(&ivf_ids)
            .take(recall_n)
            .map(|(q, wire)| overlap(wire, &store.exact_ids(q)))
            .sum();
        j.recall_at_10 = hits as f64 / (recall_n * K) as f64;
        for (i, q) in ivf_q.chunks_exact(dim).take(FULL_PROBE_CHECKS).enumerate() {
            let reply = client.query(q, dim, store.nlist());
            let same =
                matches!(&reply, Ok((ids, _)) if ids.len() == 1 && ids[0] == store.exact_ids(q));
            ops.check(same, || {
                format!("full-probe IVF query {i} differs from exact")
            });
            reply?;
        }
    }

    let exact32 = &batch_q[..w.exact_batches * BATCH * dim];
    let ivf32 = &batch_q[..w.ivf_batches * BATCH * dim];
    j.query_exact32_p50_ms = median(&batch_segment(&mut client, exact32, dim, 0, ops)?);
    let ivf32_ms = batch_segment(&mut client, ivf32, dim, NPROBE, ops)?;
    j.query_ivf32_p50_ms = median(&ivf32_ms);
    j.batch32_qps = (ivf32_ms.len() * BATCH) as f64 / (ivf32_ms.iter().sum::<f64>() / 1e3);
    let bye = client.shutdown();
    ops.check(bye.is_ok(), || format!("shutdown: {bye:?}"));
    let served = server.finish(CHILD_TIMEOUT);
    ops.check(matches!(&served, Ok(f) if f.success), || {
        format!("`gosh serve` did not exit 0: {served:?}")
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_lines_the_cli_prints() {
        let out = "embedded: D = 7 levels, 6.83s total (0.12s coarsening), 0 partitioned levels, 7 CPU levels\nwrote x\n";
        assert_eq!(parse_pipeline_seconds(out), Some(6.83));
        assert_eq!(parse_pipeline_seconds("wrote x\n"), None);
        let out = "applied 1 epoch(s): +2 -2 edge lines\nwarm retrain: D = 6 levels (5 repaired), 30 epochs over the dirty region, 0.01s repair + 0.20s training (0.31s total)\n";
        assert_eq!(parse_update_seconds(out), Some(0.31));
        assert_eq!(parse_update_seconds("wrote x\n"), None);
        let line = "serving o.embin (65536 x 64, f32) on 127.0.0.1:40123, 256 IVF lists";
        assert_eq!(parse_serving_addr(line).as_deref(), Some("127.0.0.1:40123"));
        assert_eq!(parse_serving_addr("serving nothing"), None);
    }

    #[test]
    fn ops_count_attempts_and_failures() {
        let mut ops = Ops::default();
        ops.check(true, || unreachable!());
        ops.check(false, || "boom".into());
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!(ops.failures, vec!["boom".to_string()]);
        assert_eq!(overlap(&[1, 2, 3], &[3, 4, 1]), 2);
    }
}
