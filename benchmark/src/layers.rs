//! Every call into the repo's libraries lives in this file, so a later
//! API change is a one-file benchmark issue.
//!
//! Three groups: building a run's inputs from the seed ([`make_inputs`]),
//! the evaluator/client the untraced journey uses ([`Store`], [`Client`],
//! [`link_auc`]), and the traced in-process replay of the same journey
//! ([`replay_embed`], [`replay_serve`], [`replay_update`]), which times
//! each layer's public functions from outside.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gosh::coarsen::hierarchy::{coarsen_hierarchy, CoarsenConfig, Hierarchy};
use gosh::core::backend::{
    BackendChoice, BackendKind, GpuPartitioned, LevelSchedule, PartitionedOpts, Similarity,
    TrainBackend, TrainParams,
};
use gosh::core::config::{GoshConfig, Preset};
use gosh::core::large::LargeReport;
use gosh::core::model::Embedding;
use gosh::core::pipeline::{embed, LevelReport};
use gosh::core::quant::Precision;
use gosh::core::serve::{
    encode_hits, search_batch, search_exact, Hit, IvfIndex, QueryRequest, ServeClient,
};
use gosh::core::store::{write_store, EmbeddingStore};
use gosh::core::warm::{warm_embed, WarmConfig};
use gosh::eval::{evaluate_link_prediction, EvalConfig};
use gosh::gpu::{Device, DeviceConfig};
use gosh::graph::csr::Csr;
use gosh::graph::gen::{community_graph, CommunityConfig};
use gosh::graph::ingest::{load_edge_list_parallel, IngestConfig};
use gosh::graph::io::{load_binary, load_edge_list, write_binary, write_edge_list};
use gosh::graph::rng::Xorshift128Plus;
use gosh::graph::split::{train_test_split, SplitConfig};
use gosh::graph::stream::{apply_delta, load_delta, resolve_delta, write_delta, RawDelta};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Workload, BATCH, K, MAX_TEST_EDGES, NPROBE, THREADS};

pub type Edge = (u32, u32);
/// A graph in CSR form, as the evaluator passes it around.
pub type Graph = Csr;
/// Flat per-layer metrics: name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// Everything a run feeds the program, made from the seed alone.
pub struct Inputs {
    pub train_path: PathBuf,
    /// The training graph in the dense ids `gosh embed` assigns when it
    /// loads `train.txt` (first-seen order) — the row order of its output.
    pub graph: Csr,
    /// Held-out edges scored for AUC, dense ids.
    pub test: Vec<Edge>,
    /// One delta file per `gosh update` round.
    pub deltas: Vec<PathBuf>,
    /// Undirected edges the graph must have after every delta is applied.
    pub final_edges: usize,
    /// Vertex ids whose stored rows are the query vectors.
    pub exact_ids: Vec<u32>,
    pub ivf_ids: Vec<u32>,
    pub batch_ids: Vec<u32>,
}

/// Generate the graph, split it 80/20, halve the held-out edges into
/// `test` (AUC) and `future` (delta source), write `train.txt`, the delta
/// files and the query-id list under `dir`, and read `train.txt` back for
/// the dense-id map. This is the work `setup_s` times.
pub fn make_inputs(w: &Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(err("creating the input directory"))?;
    let g = community_graph(&CommunityConfig::new(w.vertices, w.degree), seed);
    let split = train_test_split(
        &g,
        &SplitConfig {
            train_fraction: 0.8,
            seed: seed ^ 0x5917,
        },
    );
    let train_path = dir.join("train.txt");
    write_edge_list(&train_path, &split.train).map_err(err("writing train.txt"))?;

    // The program interns file ids in first-seen order; read the file
    // back the same way to learn which row each vertex will get.
    let loaded = load_edge_list(&train_path).map_err(err("reading train.txt back"))?;
    let n = loaded.graph.num_vertices();
    let mut dense_of_file = vec![u32::MAX; split.train.num_vertices()];
    for (dense, &file_id) in loaded.original_ids.iter().enumerate() {
        dense_of_file[file_id as usize] = dense as u32;
    }
    let held: Vec<Edge> = split
        .test_edges
        .iter()
        .map(|&(u, v)| (dense_of_file[u as usize], dense_of_file[v as usize]))
        .collect();
    let (test, future) = held.split_at(held.len() / 2);
    let test = test[..test.len().min(MAX_TEST_EDGES)].to_vec();

    // Deltas: insertions are held-out (`future`) edges, deletions a seeded
    // sample of training edges, all disjoint across rounds. Round 0 reads
    // `train.txt`, so its file speaks file ids; later rounds read the
    // `.csr` the previous round saved, whose ids are the dense ids.
    let mut rng = Xorshift128Plus::new(seed ^ 0xDE17A);
    let mut train_edges: Vec<Edge> = loaded.graph.undirected_edges().collect();
    let (mut next_future, mut next_deleted) = (0usize, 0usize);
    let mut deltas = Vec::with_capacity(w.delta_shares.len());
    // Every round inserts and deletes the same number of edges; held-out
    // edges are absent from the training graph and deleted ones present,
    // so the final edge count is exactly the initial one.
    let final_edges = train_edges.len();
    for (round, share) in w.delta_shares.iter().enumerate() {
        let half = ((train_edges.len() as f64 * share / 2.0).round() as usize).max(1);
        if next_future + half > future.len() || next_deleted + half > train_edges.len() {
            return Err(format!("graph too small for delta round {round}"));
        }
        let ins = &future[next_future..next_future + half];
        next_future += half;
        for i in next_deleted..next_deleted + half {
            let j = i + rng.below_usize(train_edges.len() - i);
            train_edges.swap(i, j);
        }
        let del = &train_edges[next_deleted..next_deleted + half];
        next_deleted += half;
        let name = |v: u32| -> u64 {
            if round == 0 {
                loaded.original_ids[v as usize]
            } else {
                u64::from(v)
            }
        };
        let raw = RawDelta {
            ins: ins.iter().map(|&(u, v)| (name(u), name(v))).collect(),
            del: del.iter().map(|&(u, v)| (name(u), name(v))).collect(),
        };
        let path = dir.join(format!("delta{round}.txt"));
        write_delta(&path, &[raw]).map_err(err("writing a delta file"))?;
        deltas.push(path);
    }

    let mut ids = |count: usize| -> Vec<u32> { (0..count).map(|_| rng.below(n as u32)).collect() };
    let exact_ids = ids(w.exact_queries);
    let ivf_ids = ids(w.ivf_queries);
    let batch_ids = ids(w.exact_batches.max(w.ivf_batches) * BATCH);
    let mut q = std::io::BufWriter::new(
        std::fs::File::create(dir.join("queries.txt")).map_err(err("creating queries.txt"))?,
    );
    for (segment, list) in [
        ("exact", &exact_ids),
        ("ivf", &ivf_ids),
        ("batch", &batch_ids),
    ] {
        for id in list {
            writeln!(q, "{segment} {id}").map_err(err("writing queries.txt"))?;
        }
    }
    q.flush().map_err(err("writing queries.txt"))?;

    Ok(Inputs {
        train_path,
        graph: loaded.graph,
        test,
        deltas,
        final_edges,
        exact_ids,
        ivf_ids,
        batch_ids,
    })
}

// ---------------------------------------------------------------------
// Evaluator and client of the untraced journey
// ---------------------------------------------------------------------

/// An opened `.embin` store.
pub struct Store(EmbeddingStore);

impl Store {
    pub fn open(path: &Path) -> Result<Self, String> {
        EmbeddingStore::open(path)
            .map(Store)
            .map_err(|e| format!("opening {}: {e}", path.display()))
    }

    pub fn rows(&self) -> usize {
        self.0.num_vertices()
    }

    pub fn dim(&self) -> usize {
        self.0.dim()
    }

    /// Decoded rows of `ids`, packed densely: the query vectors.
    pub fn rows_of(&self, ids: &[u32]) -> Vec<f32> {
        let dim = self.0.dim();
        let mut out = vec![0.0f32; ids.len() * dim];
        for (i, &id) in ids.iter().enumerate() {
            self.0.decode_row(id, &mut out[i * dim..(i + 1) * dim]);
        }
        out
    }

    /// In-process exact top-k ids: the reference the wire is checked against.
    pub fn exact_ids(&self, q: &[f32]) -> Vec<u32> {
        ids_of(&search_exact(&self.0, q, K))
    }

    /// Number of IVF lists `gosh serve` builds for this store.
    pub fn nlist(&self) -> usize {
        IvfIndex::default_nlist(self.rows()).min(self.rows())
    }
}

fn ids_of(hits: &[Hit]) -> Vec<u32> {
    hits.iter().map(|h| h.id).collect()
}

/// Link-prediction AUCROC of `store` on `test` against `graph`; an error
/// if the store does not cover the graph or holds a non-finite value.
pub fn link_auc(store: &Store, graph: &Csr, test: &[Edge]) -> Result<f64, String> {
    if store.rows() != graph.num_vertices() {
        return Err(format!(
            "store has {} rows, graph has {} vertices",
            store.rows(),
            graph.num_vertices()
        ));
    }
    let m = store.0.to_embedding();
    if !m.as_slice().iter().all(|x| x.is_finite()) {
        return Err(String::from("store holds a non-finite value"));
    }
    let cfg = EvalConfig {
        threads: host_cores(),
        ..Default::default()
    };
    Ok(evaluate_link_prediction(&m, graph, test, &cfg))
}

/// Load a `.csr` a `gosh update --save-graph` round wrote.
pub fn load_csr(path: &Path) -> Result<Csr, String> {
    load_binary(path).map_err(|e| format!("loading {}: {e}", path.display()))
}

pub fn undirected_edges(g: &Csr) -> usize {
    g.num_undirected_edges()
}

/// The one closed-loop client: one connection, one request in flight.
pub struct Client(ServeClient);

impl Client {
    pub fn connect(addr: &str) -> Result<Self, String> {
        ServeClient::connect(addr)
            .map(Client)
            .map_err(|e| format!("connecting to {addr}: {e}"))
    }

    /// One request of `queries.len() / dim` vectors. Returns the ids per
    /// query and the seconds from send to decoded reply.
    pub fn query(
        &mut self,
        queries: &[f32],
        dim: usize,
        nprobe: usize,
    ) -> Result<(Vec<Vec<u32>>, f64), String> {
        let t0 = Instant::now();
        let hits = self.0.query(queries, dim, K, nprobe);
        let seconds = t0.elapsed().as_secs_f64();
        let hits = hits.map_err(|e| e.to_string())?;
        Ok((hits.iter().map(|h| ids_of(h)).collect(), seconds))
    }

    pub fn shutdown(&mut self) -> Result<(), String> {
        self.0.shutdown().map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// Traced in-process replay
// ---------------------------------------------------------------------

/// The configuration `gosh embed <flags>` builds from the same flags.
fn config_for(w: &Workload) -> Result<(GoshConfig, Device), String> {
    let preset = match w.preset {
        "fast" => Preset::Fast,
        "normal" => Preset::Normal,
        "slow" => Preset::Slow,
        other => return Err(format!("unknown preset `{other}`")),
    };
    let cfg = GoshConfig::preset(preset, false)
        .with_dim(w.dim)
        .with_threads(THREADS)
        .with_epochs(w.epochs)
        .with_backend(w.backend.parse::<BackendChoice>()?)
        .with_precision(w.precision.parse::<Precision>()?);
    let device_mb = w.device_mb.unwrap_or(12 * 1024);
    Ok((cfg, Device::new(DeviceConfig::tiny(device_mb << 20))))
}

/// Coarsen under a span, with the per-level seconds the layer reports
/// laid out as its children.
fn traced_coarsen(t: &mut Tracer, name: &str, g: &Csr, cfg: &GoshConfig) -> (Hierarchy, f64) {
    let coarsen_cfg = CoarsenConfig {
        threshold: cfg.coarsen_threshold,
        threads: cfg.threads,
        ..Default::default()
    };
    let (h, seconds) = t.span(name, |_| coarsen_hierarchy(g.clone(), &coarsen_cfg));
    let parts: Vec<(String, f64)> = h
        .stats
        .iter()
        .map(|s| (format!("{name}/level{}", s.level), s.seconds))
        .collect();
    let idx = t.last_index(name).expect("span was just recorded");
    t.reported_children(idx, &parts);
    (h, seconds)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// Replay `gosh embed` in-process: ingest, the real `pipeline::embed`
/// (Algorithm 2 is walked by the library, not here) and the store write,
/// each under a span; the per-stage seconds the pipeline reports are laid
/// out as children of its span. Writes `out_embin` and returns the
/// seconds of the pipeline span — the stages the CLI's own "…s total"
/// line covers.
pub fn replay_embed(
    w: &Workload,
    inputs: &Inputs,
    out_embin: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Result<f64, String> {
    // Built outside the span, as in `replay_update`.
    let (cfg, device) = config_for(w)?;
    let (g0, level0, pipeline_s) = t
        .span("embed", |t| {
            embed_stages(&cfg, &device, inputs, out_embin, t, m)
        })
        .0?;
    large_probe(&cfg, &device, &g0, &level0, t, m);
    Ok(pipeline_s)
}

fn embed_stages(
    cfg: &GoshConfig,
    device: &Device,
    inputs: &Inputs,
    out_embin: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Result<(Csr, LevelReport, f64), String> {
    let (loaded, ingest_s) = t.span("ingest", |_| {
        load_edge_list_parallel(&inputs.train_path, &IngestConfig::with_threads(THREADS))
    });
    let g0 = loaded.map_err(err("ingest"))?.graph;
    put(m, "ingest.seconds", ingest_s, "s");
    put(m, "ingest.bytes", file_len(&inputs.train_path), "B");
    put(
        m,
        "ingest.edges_per_s",
        g0.num_undirected_edges() as f64 / ingest_s,
        "1/s",
    );

    let ((matrix, report), pipeline_s) = t.span("pipeline", |_| embed(&g0, cfg, device));
    let mut parts = vec![(String::from("coarsen"), report.coarsening_seconds)];
    parts.extend(
        report
            .levels
            .iter()
            .map(|l| (format!("train/level{}", l.level), l.seconds)),
    );
    let idx = t.last_index("pipeline").expect("span was just recorded");
    t.reported_children(idx, &parts);

    // `report.levels` is in training order: coarsest first, level 0 last.
    let (coarsest, finest) = match (report.levels.first(), report.levels.last()) {
        (Some(c), Some(f)) => (c, f),
        _ => return Err(String::from("the pipeline trained no level")),
    };
    put(m, "coarsen.seconds", report.coarsening_seconds, "s");
    put(m, "coarsen.levels", report.depth as f64, "count");
    put(
        m,
        "coarsen.vertices_collapsed_per_s",
        (finest.vertices - coarsest.vertices) as f64 / report.coarsening_seconds,
        "1/s",
    );
    let train_s: f64 = report.levels.iter().map(|l| l.seconds).sum();
    let updates: f64 = report
        .levels
        .iter()
        .map(|l| f64::from(l.epochs) * l.arcs as f64 * (1 + cfg.negative_samples) as f64)
        .sum();
    let trained_by =
        |kind: BackendKind| report.levels.iter().filter(|l| l.backend == kind).count() as f64;
    put(m, "train.seconds", train_s, "s");
    put(m, "train.level0_seconds", finest.seconds, "s");
    put(m, "train.coarse_seconds", train_s - finest.seconds, "s");
    put(m, "train.updates", updates, "count");
    put(m, "train.updates_per_s", updates / train_s, "1/s");
    put(
        m,
        "train.levels_cpu",
        trained_by(BackendKind::CpuHogwild),
        "count",
    );
    put(
        m,
        "train.levels_device",
        trained_by(BackendKind::GpuInMemory),
        "count",
    );
    put(
        m,
        "train.levels_partitioned",
        trained_by(BackendKind::GpuPartitioned),
        "count",
    );
    // Computed, not measured: every update reads and writes two rows.
    let row_bytes = cfg.precision.row_bytes(cfg.dim) as f64;
    put(
        m,
        "train.computed_gb_per_s",
        updates * 4.0 * row_bytes / train_s / 1e9,
        "GB/s",
    );
    put(
        m,
        "device.kernels",
        report.device_cost.kernels as f64,
        "count",
    );
    put(
        m,
        "device.h2d_bytes",
        report.device_cost.h2d_bytes as f64,
        "B",
    );
    put(
        m,
        "device.d2h_bytes",
        report.device_cost.d2h_bytes as f64,
        "B",
    );
    // What the pipeline's training clock holds beside the levels: the
    // projection between levels (plus the random init of the coarsest
    // matrix and building the backend chain, both microseconds).
    put(m, "expand.seconds", report.training_seconds - train_s, "s");
    let expanded: usize = report.levels[1..].iter().map(|l| l.vertices).sum();
    put(m, "expand.rows", expanded as f64, "count");

    let (written, write_s) = t.span("store/write", |_| {
        write_store(out_embin, &matrix, cfg.precision)
    });
    written.map_err(err("store write"))?;
    let store_bytes = file_len(out_embin);
    put(m, "store.write_seconds", write_s, "s");
    put(m, "store.bytes", store_bytes, "B");
    put(
        m,
        "store.write_mb_per_s",
        store_bytes / write_s / 1e6,
        "MB/s",
    );
    t.span("free", |_| drop(matrix));
    Ok((g0, *finest, pipeline_s))
}

/// `pipeline::embed` does not pass `LevelStats.large` through, so the
/// Algorithm 5 counters come from one more call of the partitioned
/// engine itself when the pipeline used it on level 0: the same graph,
/// the same epoch budget, a fresh matrix (the counters depend on the
/// graph and the budget, not on the values). All zero otherwise.
fn large_probe(
    cfg: &GoshConfig,
    device: &Device,
    g0: &Csr,
    level0: &LevelReport,
    t: &mut Tracer,
    m: &mut Metrics,
) {
    let large = level0.used_large_path.then(|| {
        let params = TrainParams {
            dim: cfg.dim,
            negative_samples: cfg.negative_samples,
            lr: cfg.lr,
            epochs: cfg.epochs,
            similarity: Similarity::Adjacency,
            threads: cfg.threads,
            seed: cfg.seed,
            precision: cfg.precision,
        };
        let opts = PartitionedOpts {
            p_gpu: cfg.p_gpu,
            s_gpu: cfg.s_gpu,
            batch_b: cfg.batch_b,
        };
        let engine = GpuPartitioned::new(device.clone(), params, opts);
        let mut matrix = Embedding::random(g0.num_vertices(), cfg.dim, cfg.seed);
        let schedule = LevelSchedule {
            level: 0,
            epochs: level0.epochs,
            seed: cfg.seed,
            precision: None,
        };
        let (stats, _) = t.span("large/probe", |_| {
            engine.train_level(g0, &mut matrix, schedule)
        });
        stats
            .large
            .expect("the partitioned engine reports its counters")
    });
    let count = |f: fn(&LargeReport) -> f64| large.as_ref().map_or(0.0, f);
    put(
        m,
        "large.rotations",
        count(|r| f64::from(r.rotations)),
        "count",
    );
    put(m, "large.loads", count(|r| r.loads as f64), "count");
    put(
        m,
        "large.prefetches",
        count(|r| r.prefetches as f64),
        "count",
    );
    put(m, "large.evictions", count(|r| r.evictions as f64), "count");
    put(
        m,
        "large.prefetch_ratio",
        count(|r| r.prefetches as f64 / r.loads.max(1) as f64),
        "ratio",
    );
    put(
        m,
        "large.transfer_stall_seconds",
        count(|r| r.transfer_stall_seconds),
        "s",
    );
    put(
        m,
        "large.pool_stall_seconds",
        count(|r| r.pool_stall_seconds),
        "s",
    );
}

/// In-process medians of the serving layer on the store the replay wrote.
pub struct ServeReplay {
    pub exact_us: f64,
    pub ivf_us: f64,
}

/// Replay what `gosh serve` does with the store: open, build the IVF
/// index, answer the journey's queries — no wire.
pub fn replay_serve(
    w: &Workload,
    inputs: &Inputs,
    embin: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Result<ServeReplay, String> {
    t.span("serve", |t| serve_stages(w, inputs, embin, t, m)).0
}

fn serve_stages(
    w: &Workload,
    inputs: &Inputs,
    embin: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Result<ServeReplay, String> {
    let (opened, open_s) = t.span("store/open", |_| Store::open(embin));
    let store = opened?;
    put(m, "store.open_seconds", open_s, "s");
    let (ivf, build_s) = t.span("serve/ivf_build", |_| IvfIndex::build(&store.0, THREADS));
    put(m, "serve.ivf_build_seconds", build_s, "s");

    let dim = store.dim();
    let exact_q = store.rows_of(&inputs.exact_ids);
    let ivf_q = store.rows_of(&inputs.ivf_ids);
    let batch_q = store.rows_of(&inputs.batch_ids);
    let mut sample = Vec::new();
    let (exact_us, _) = t.span("serve/exact", |_| {
        median_us(exact_q.chunks_exact(dim), |q| {
            sample = search_exact(&store.0, q, K);
        })
    });
    let (ivf_us, _) = t.span("serve/ivf", |_| {
        median_us(ivf_q.chunks_exact(dim), |q| {
            std::hint::black_box(ivf.search(&store.0, q, K, NPROBE));
        })
    });
    for (name, nprobe, requests) in [
        ("serve/exact_batch32", 0, w.exact_batches),
        ("serve/ivf_batch32", NPROBE, w.ivf_batches),
    ] {
        t.span(name, |_| {
            for request in batch_q.chunks_exact(BATCH * dim).take(requests) {
                std::hint::black_box(search_batch(
                    &store.0,
                    Some(&ivf),
                    request,
                    K,
                    nprobe,
                    THREADS,
                ));
            }
        });
    }
    put(m, "serve.exact_us", exact_us, "us");
    put(m, "serve.ivf_us", ivf_us, "us");
    // Payload bytes of one single-vector request and its reply (the frame
    // header the transport adds is not visible from outside).
    let request = QueryRequest {
        k: K as u32,
        nprobe: NPROBE as u32,
        dim: dim as u32,
        queries: exact_q[..dim].to_vec(),
    };
    put(m, "serve.request_bytes", request.encode().len() as f64, "B");
    put(
        m,
        "serve.response_bytes",
        encode_hits(&[sample]).len() as f64,
        "B",
    );
    Ok(ServeReplay { exact_us, ivf_us })
}

/// Median microseconds of `f` over `items`.
fn median_us<'a>(items: impl Iterator<Item = &'a [f32]>, mut f: impl FnMut(&'a [f32])) -> f64 {
    let us: Vec<f64> = items
        .map(|q| {
            let t0 = Instant::now();
            f(q);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    if us.is_empty() {
        0.0
    } else {
        median(&us)
    }
}

/// One replayed `gosh update` round: the files it read and wrote.
pub struct UpdateRound<'a> {
    pub index: usize,
    pub graph: &'a Path,
    pub delta: &'a Path,
    pub store: &'a Path,
    pub out_embin: &'a Path,
    pub save_graph: &'a Path,
}

/// Seconds of one replayed round, split the way the CLI's own report
/// splits them.
#[derive(Clone, Copy, Default)]
pub struct UpdateSeconds {
    /// Hierarchy recovery + delta application + `warm_embed`: what the
    /// program's "warm retrain: … (…s total)" line covers.
    pub timed: f64,
    /// Graph/store/delta reads and graph/store writes around them, which
    /// the program does not time.
    pub io: f64,
}

/// Replay `gosh update` in-process for one round, accumulating the
/// streaming layers' metrics into `m`.
pub fn replay_update(
    w: &Workload,
    r: &UpdateRound,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Result<UpdateSeconds, String> {
    // Built outside the span: the CLI builds its configuration before it
    // starts the clock on anything this replay attributes.
    let (cfg, _device) = config_for(w)?;
    let root = format!("update/round{}", r.index);
    t.span(&root, |t| update_stages(&cfg, r, &root, t, m)).0
}

/// Add `value` to the metric `name` (update metrics sum over rounds).
fn add(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    let so_far = m.get(name).map_or(0.0, |e| e.0);
    put(m, name, so_far + value, unit);
}

/// What the CLI's `update` command does around `warm_embed` (there is no
/// library call for the whole command): read the three inputs, recover
/// the old hierarchy, apply the delta, warm-start, write the outputs.
fn update_stages(
    cfg: &GoshConfig,
    r: &UpdateRound,
    root: &str,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Result<UpdateSeconds, String> {
    let mut seconds = UpdateSeconds::default();

    let text = r.graph.extension().is_none_or(|e| e != "csr");
    let (loaded, s) = t.span(&format!("{root}/ingest"), |_| {
        if text {
            load_edge_list_parallel(r.graph, &IngestConfig::with_threads(THREADS))
                .map(|l| (l.graph, l.original_ids))
        } else {
            load_binary(r.graph).map(|g| {
                let ids = (0..g.num_vertices() as u64).collect();
                (g, ids)
            })
        }
    });
    seconds.io += s;
    let (g_old, mut original_ids) = loaded.map_err(err("update ingest"))?;

    let (opened, s) = t.span(&format!("{root}/store_open"), |_| {
        EmbeddingStore::open(r.store).map(|s| (s.to_embedding(), s.precision()))
    });
    seconds.io += s;
    let (m_old, precision) = opened.map_err(err("update store open"))?;

    let (delta, s) = t.span(&format!("{root}/delta_load"), |_| load_delta(r.delta));
    seconds.io += s;
    let (epochs, dstats) = delta.map_err(err("update delta load"))?;

    let wcfg = WarmConfig {
        fallback_fraction: 0.25,
        epoch_scale: 0.5,
        cfg: cfg.with_dim(m_old.dim()),
    };
    let (h_old, s) = traced_coarsen(t, &format!("{root}/coarsen"), &g_old, &wcfg.cfg);
    seconds.timed += s;

    let ((g_new, dirty), s) = t.span(&format!("{root}/apply"), |_| {
        let mut g_cur = g_old;
        let mut dirty: Vec<u32> = Vec::new();
        for raw in &epochs {
            let resolved = resolve_delta(raw, &original_ids);
            original_ids.extend(&resolved.new_original_ids);
            dirty.extend(resolved.delta.dirty_vertices(g_cur.num_vertices()));
            g_cur = apply_delta(&g_cur, &resolved.delta);
        }
        dirty.sort_unstable();
        dirty.dedup();
        (g_cur, dirty)
    });
    seconds.timed += s;
    add(m, "stream.apply_seconds", s, "s");
    add(
        m,
        "stream.delta_edges",
        (dstats.insert_lines + dstats.delete_lines) as f64,
        "count",
    );
    add(m, "stream.dirty_vertices", dirty.len() as f64, "count");

    let warm = format!("{root}/warm");
    let ((m_new, h_new, rep), s) =
        t.span(&warm, |_| warm_embed(&g_new, &h_old, &m_old, &dirty, &wcfg));
    seconds.timed += s;
    let idx = t.last_index(&warm).expect("span was just recorded");
    t.reported_children(
        idx,
        &[
            (format!("{root}/repair"), rep.repair_seconds),
            (format!("{root}/train"), rep.training_seconds),
        ],
    );
    add(m, "repair.seconds", rep.repair_seconds, "s");
    add(
        m,
        "repair.levels_repaired",
        rep.repaired_levels as f64,
        "count",
    );
    add(
        m,
        "repair.fallback_rounds",
        f64::from(u8::from(rep.fell_back)),
        "count",
    );
    add(m, "warm.train_seconds", rep.training_seconds, "s");
    add(
        m,
        "warm.epochs",
        f64::from(rep.epochs_per_level.iter().sum::<u32>()),
        "count",
    );
    add(
        m,
        "warm.trained_sources",
        rep.trained_sources.iter().sum::<usize>() as f64,
        "count",
    );

    let (saved, s) = t.span(&format!("{root}/graph_save"), |_| {
        write_binary(r.save_graph, &g_new)
    });
    seconds.io += s;
    saved.map_err(err("update graph save"))?;
    let (written, s) = t.span(&format!("{root}/store_write"), |_| {
        write_store(r.out_embin, &m_new, precision)
    });
    seconds.io += s;
    written.map_err(err("update store write"))?;
    // Releasing two graphs, two hierarchies and two matrices is work the
    // round does too; give it a span instead of leaving it as self time.
    t.span(&format!("{root}/free"), |_| {
        drop((
            g_new,
            h_old,
            h_new,
            m_old,
            m_new,
            dirty,
            epochs,
            original_ids,
        ));
    });
    Ok(seconds)
}
