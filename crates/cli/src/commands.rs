//! The CLI commands.

use std::io::Write;
use std::time::Instant;

use gosh_coarsen::hierarchy::{coarsen_hierarchy, CoarsenConfig};
use gosh_core::backend::{BackendChoice, BackendKind};
use gosh_core::config::{GoshConfig, PrecisionSchedule, Preset};
use gosh_core::model::Embedding;
use gosh_core::pipeline::embed as gosh_embed;
use gosh_core::quant::Precision;
use gosh_core::serve::{IvfIndex, ServeClient, ServeConfig, Server};
use gosh_core::store::{embin_path_for, write_store, write_text, EmbeddingStore, MAX_DIM};
use gosh_eval::{evaluate_link_prediction, EvalConfig};
use gosh_gpu::{Device, DeviceConfig};
use gosh_graph::components::connected_components;
use gosh_graph::csr::Csr;
use gosh_graph::gen::{community_graph, sampled_clustering, CommunityConfig};
use gosh_graph::ingest::{load_edge_list_parallel, IngestConfig};
use gosh_graph::io::{self, LoadedGraph};
use gosh_graph::split::{train_test_split, SplitConfig};
use gosh_graph::stats::GraphStats;
use gosh_graph::stream::{apply_delta, load_delta, resolve_delta};

use crate::args::{parse, Parsed};

/// Flags shared by `embed` and `eval` (the GOSH pipeline knobs).
const PIPELINE_FLAGS: &[&str] = &[
    "dim",
    "preset",
    "epochs",
    "device-mb",
    "threads",
    "backend",
    "precision",
    "precision-schedule",
];

/// The `--threads` flag: at least one worker, by default one per core
/// (at most 16).
fn threads_flag(p: &Parsed) -> Result<usize, String> {
    let cores = || std::thread::available_parallelism().map_or(8, |n| n.get().min(16));
    match p.flag::<usize>("threads")?.unwrap_or_else(cores) {
        0 => Err("--threads must be at least 1".into()),
        t => Ok(t),
    }
}

/// A loaded input file: binary CSRs carry only the graph, text edge
/// lists also carry the original-id mapping and parse statistics.
enum LoadedInput {
    Binary(Csr),
    Text(LoadedGraph),
}

impl LoadedInput {
    fn graph(&self) -> &Csr {
        match self {
            LoadedInput::Binary(g) => g,
            LoadedInput::Text(l) => &l.graph,
        }
    }

    fn into_graph(self) -> Csr {
        match self {
            LoadedInput::Binary(g) => g,
            LoadedInput::Text(l) => l.graph,
        }
    }
}

/// Load an input file: `.csr` binary (streaming-validated) or edge-list
/// text (parallel ingestion path with `threads` workers).
fn load_input(path: &str, threads: usize) -> Result<LoadedInput, String> {
    if path.ends_with(".csr") {
        io::load_binary(path)
            .map(LoadedInput::Binary)
            .map_err(|e| format!("loading {path}: {e}"))
    } else {
        load_edge_list_parallel(path, &IngestConfig::with_threads(threads))
            .map(LoadedInput::Text)
            .map_err(|e| format!("loading {path}: {e}"))
    }
}

/// Load a graph: `.csr` binary or edge-list text, honouring the
/// command's `--threads` flag (commands without one use the default).
fn load_graph(path: &str, p: &Parsed) -> Result<Csr, String> {
    load_input(path, threads_flag(p)?).map(LoadedInput::into_graph)
}

/// Save a graph: `.csr` binary or edge-list text.
fn save_graph(path: &str, g: &Csr) -> Result<(), String> {
    let result = if path.ends_with(".csr") {
        io::write_binary(path, g)
    } else {
        io::write_edge_list(path, g)
    };
    result.map_err(|e| e.to_string())
}

fn parse_preset(p: &Parsed) -> Result<Preset, String> {
    match p.flag_str("preset").unwrap_or("normal") {
        "fast" => Ok(Preset::Fast),
        "normal" => Ok(Preset::Normal),
        "slow" => Ok(Preset::Slow),
        "nocoarse" => Ok(Preset::NoCoarsening),
        other => Err(format!(
            "unknown preset `{other}` (fast|normal|slow|nocoarse)"
        )),
    }
}

/// The pipeline and simulated-device configuration of `embed` and
/// `eval`, from flags alone: a bad flag fails before any file is read.
fn build_config(p: &Parsed) -> Result<(GoshConfig, DeviceConfig), String> {
    let preset = parse_preset(p)?;
    let dim = p.flag::<usize>("dim")?.unwrap_or(32);
    if !(1..=MAX_DIM).contains(&dim) {
        return Err(format!("--dim must be in 1..={MAX_DIM}"));
    }
    let mut cfg = GoshConfig::preset(preset, false)
        .with_dim(dim)
        .with_threads(threads_flag(p)?);
    if let Some(e) = p.flag::<u32>("epochs")? {
        cfg = cfg.with_epochs(e);
    }
    if let Some(backend) = p.flag::<BackendChoice>("backend")? {
        cfg = cfg.with_backend(backend);
    }
    if let Some(precision) = p.flag::<gosh_core::Precision>("precision")? {
        cfg = cfg.with_precision(precision);
    }
    if let Some(spec) = p.flag_str("precision-schedule") {
        cfg = cfg.with_precision_schedule(parse_precision_schedule(spec)?);
    }
    let device_mb = p.flag::<usize>("device-mb")?.unwrap_or(12 * 1024);
    if device_mb == 0 {
        return Err("--device-mb must be at least 1".into());
    }
    Ok((cfg, DeviceConfig::tiny(device_mb << 20)))
}

/// Parse `--precision-schedule coarse:fine[:cutoff]` (e.g. `f32:i8` or
/// `f32:f16:8192`).
fn parse_precision_schedule(spec: &str) -> Result<PrecisionSchedule, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let err = || {
        format!(
            "bad precision schedule `{spec}` \
             (expected coarse:fine[:cutoff], e.g. f32:i8 or f32:f16:8192)"
        )
    };
    if parts.len() < 2 || parts.len() > 3 {
        return Err(err());
    }
    let coarse = parts[0]
        .parse::<gosh_core::Precision>()
        .map_err(|_| err())?;
    let fine = parts[1]
        .parse::<gosh_core::Precision>()
        .map_err(|_| err())?;
    let cutoff = match parts.get(2) {
        Some(c) => c.parse::<usize>().map_err(|_| err())?,
        None => PrecisionSchedule::DEFAULT_CUTOFF,
    };
    Ok(PrecisionSchedule {
        coarse,
        fine,
        cutoff,
    })
}

/// `gosh generate <dataset|N:K> <out>`.
pub fn generate(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["seed"])?;
    let spec = p.positional(0, "dataset|N:K")?;
    let out = p.positional(1, "output file")?;
    let seed = p.flag::<u64>("seed")?.unwrap_or(42);

    let g = if let Some(d) = gosh_graph::gen::dataset(spec) {
        d.generate(seed)
    } else if let Some((n, k)) = spec.split_once(':') {
        let n: usize = n.parse().map_err(|_| format!("bad vertex count `{n}`"))?;
        let k: usize = k.parse().map_err(|_| format!("bad degree `{k}`"))?;
        community_graph(&CommunityConfig::new(n, k), seed)
    } else {
        return Err(format!(
            "`{spec}` is neither a suite dataset nor N:K (try `gosh generate 10000:8 g.txt`)"
        ));
    };
    save_graph(out, &g)?;
    println!(
        "wrote {} ({} vertices, {} edges)",
        out,
        g.num_vertices(),
        g.num_undirected_edges()
    );
    Ok(())
}

/// `gosh stats <graph> [--threads N]`.
pub fn stats(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["threads"])?;
    let input = load_input(p.positional(0, "graph")?, threads_flag(&p)?)?;
    let g = input.graph();
    let s = GraphStats::compute(g);
    let comps = connected_components(g);
    println!("vertices        {}", s.num_vertices);
    println!("edges           {}", s.num_edges);
    println!("density |E|/|V| {:.3}", s.density);
    println!("max degree      {}", s.max_degree);
    println!("isolated        {}", s.isolated);
    println!("hub mass (top1%) {:.3}", s.hub_mass);
    println!("clustering est. {:.3}", sampled_clustering(g, 4000, 7));
    println!("components      {}", comps.count);
    println!(
        "giant component {:.1}%",
        100.0 * comps.giant_fraction(s.num_vertices)
    );
    if let LoadedInput::Text(l) = &input {
        println!("edge lines      {}", l.stats.edge_lines);
        println!("weighted lines  {}", l.stats.weighted_lines);
        println!("self loops dropped {}", l.stats.self_loops_dropped);
        println!("duplicates dropped {}", l.stats.duplicates_dropped);
    }
    Ok(())
}

/// `gosh convert <in> <out> [--threads N]`: re-encode a graph between
/// the edge-list and binary CSR formats. Text inputs keep their original
/// vertex ids when written back as text (binary CSRs have no id mapping,
/// so text written from `.csr` uses the dense ids).
pub fn convert(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["threads"])?;
    let input_path = p.positional(0, "input graph")?;
    let out = p.positional(1, "output file")?;
    let input = load_input(input_path, threads_flag(&p)?)?;
    let to_csr = out.ends_with(".csr");
    let result = match (&input, to_csr) {
        (_, true) => io::write_binary(out, input.graph()),
        (LoadedInput::Text(l), false) => l.write_edge_list(out),
        (LoadedInput::Binary(g), false) => io::write_edge_list(out, g),
    };
    result.map_err(|e| e.to_string())?;
    let g = input.graph();
    println!(
        "wrote {} ({} vertices, {} edges{})",
        out,
        g.num_vertices(),
        g.num_undirected_edges(),
        match (&input, to_csr) {
            (LoadedInput::Text(_), false) => ", original ids preserved",
            _ => "",
        }
    );
    if let LoadedInput::Text(l) = &input {
        if l.stats.self_loops_dropped + l.stats.duplicates_dropped > 0 {
            println!(
                "cleaned: {} self loops, {} duplicate edges dropped",
                l.stats.self_loops_dropped, l.stats.duplicates_dropped
            );
        }
    }
    Ok(())
}

/// `gosh coarsen <graph> [--threads N] [--threshold T]`.
pub fn coarsen(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["threads", "threshold"])?;
    let g = load_graph(p.positional(0, "graph")?, &p)?;
    let cfg = CoarsenConfig {
        threads: threads_flag(&p)?,
        threshold: p.flag::<usize>("threshold")?.unwrap_or(100),
        ..Default::default()
    };
    let n0 = g.num_vertices();
    let h = coarsen_hierarchy(g, &cfg);
    println!("level 0: {} vertices", n0);
    for s in &h.stats {
        println!(
            "level {}: {} vertices, {} arcs, {:.4}s",
            s.level, s.vertices, s.edges, s.seconds
        );
    }
    println!(
        "D = {}, total {:.4}s (tau = {})",
        h.depth(),
        h.total_seconds(),
        cfg.threads
    );
    Ok(())
}

/// Shared by `embed` and `eval`: run GOSH on `g` and report the run.
/// Returns the embedding and the wall seconds.
fn run_gosh(g: &Csr, cfg: &GoshConfig, device: DeviceConfig) -> (Embedding, f64) {
    let device = Device::new(device);
    let t0 = Instant::now();
    let (m, report) = gosh_embed(g, cfg, &device);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "embedded: D = {} levels, {:.2}s total ({:.2}s coarsening), {} partitioned levels, {} CPU levels",
        report.depth,
        secs,
        report.coarsening_seconds,
        report.levels.iter().filter(|l| l.used_large_path).count(),
        report
            .levels
            .iter()
            .filter(|l| l.backend == BackendKind::CpuHogwild)
            .count()
    );
    (m, secs)
}

/// Write both artifacts of an embedding run: the text format (kept for
/// interoperability; its `{x:.6}` rendering truncates mantissas) and the
/// checksummed `.embin` binary store next to it, which round-trips
/// bit-exactly and is what `gosh serve` maps.
fn write_outputs(out: &str, m: &Embedding, precision: Precision) -> Result<(), String> {
    write_text(out, m).map_err(|e| e.to_string())?;
    println!("wrote {} ({} x {})", out, m.num_vertices(), m.dim());
    let bin = embin_path_for(out);
    write_store(&bin, m, precision).map_err(|e| e.to_string())?;
    println!("wrote {bin} ({precision} store, lossless round-trip)");
    Ok(())
}

/// `gosh embed <graph> <out.emb> [...]`.
pub fn embed(args: &[String]) -> Result<(), String> {
    let p = parse(args, PIPELINE_FLAGS)?;
    let (cfg, device) = build_config(&p)?;
    let g = load_graph(p.positional(0, "graph")?, &p)?;
    let out = p.positional(1, "output file")?;
    let (m, _) = run_gosh(&g, &cfg, device);
    write_outputs(out, &m, cfg.precision)
}

/// `gosh eval <graph> [...]`: split, embed the train side, report AUCROC.
pub fn eval(args: &[String]) -> Result<(), String> {
    let p = parse(args, PIPELINE_FLAGS)?;
    let (cfg, device) = build_config(&p)?;
    let g = load_graph(p.positional(0, "graph")?, &p)?;
    let split = train_test_split(&g, &SplitConfig::default());
    println!(
        "split: train |V| = {}, |E| = {}; test edges = {}",
        split.train.num_vertices(),
        split.train.num_undirected_edges(),
        split.test_edges.len()
    );
    let (m, secs) = run_gosh(&split.train, &cfg, device);
    let auc = evaluate_link_prediction(
        &m,
        &split.train,
        &split.test_edges,
        &EvalConfig {
            threads: cfg.threads,
            ..Default::default()
        },
    );
    println!(
        "link-prediction AUCROC: {:.2}% ({:.2}s embedding)",
        100.0 * auc,
        secs
    );
    Ok(())
}

/// `gosh update <graph> <delta> <store.embin> <out.emb> [...]`: apply an
/// edge-delta file to a trained model — merge the delta into the graph,
/// repair the coarsening hierarchy around the touched region, and
/// warm-start retrain only the dirty vertices, with the old rows as
/// initialization. Orders of magnitude cheaper than re-embedding when
/// the delta is small relative to the graph.
pub fn update(args: &[String]) -> Result<(), String> {
    let p = parse(
        args,
        &[
            "threads",
            "preset",
            "epochs",
            "seed",
            "fallback-fraction",
            "epoch-scale",
            "precision",
            "save-graph",
        ],
    )?;
    let graph_path = p.positional(0, "graph")?;
    let delta_path = p.positional(1, "delta file")?;
    let store_path = p.positional(2, "model store (.embin)")?;
    let out = p.positional(3, "output file")?;
    let threads = threads_flag(&p)?;
    let mut cfg = GoshConfig::preset(parse_preset(&p)?, false).with_threads(threads);
    if let Some(e) = p.flag::<u32>("epochs")? {
        cfg = cfg.with_epochs(e);
    }
    cfg.seed = p.flag::<u64>("seed")?.unwrap_or(cfg.seed);
    let fallback_fraction = p.flag::<f64>("fallback-fraction")?.unwrap_or(0.25);
    if !(0.0..=1.0).contains(&fallback_fraction) {
        return Err("--fallback-fraction must be in [0, 1]".into());
    }
    let epoch_scale = p.flag::<f64>("epoch-scale")?.unwrap_or(0.5);
    if !(epoch_scale.is_finite() && epoch_scale > 0.0) {
        return Err("--epoch-scale must be finite and greater than 0".into());
    }
    let precision = p.flag::<Precision>("precision")?;

    let input = load_input(graph_path, threads)?;
    let mut original_ids: Vec<u64> = match &input {
        LoadedInput::Binary(g) => (0..g.num_vertices() as u64).collect(),
        LoadedInput::Text(l) => l.original_ids.clone(),
    };
    let g_old = input.into_graph();

    let store = EmbeddingStore::open(store_path).map_err(|e| format!("{store_path}: {e}"))?;
    if store.num_vertices() != g_old.num_vertices() {
        return Err(format!(
            "store has {} rows but the graph has {} vertices — \
             is {store_path} the model trained on {graph_path}?",
            store.num_vertices(),
            g_old.num_vertices()
        ));
    }
    let m_old = store.to_embedding();
    let out_precision = precision.unwrap_or_else(|| store.precision());

    let (raw_epochs, dstats) = load_delta(delta_path).map_err(|e| format!("{delta_path}: {e}"))?;

    let wcfg = gosh_core::warm::WarmConfig {
        fallback_fraction,
        epoch_scale,
        cfg: cfg.with_dim(store.dim()),
    };

    // The old hierarchy the repair works from: recover it once from the
    // pre-delta graph (coarsening is cheap next to training).
    let t0 = Instant::now();
    let h_old = coarsen_hierarchy(g_old.clone(), &wcfg.cfg.coarsen_config());

    // Apply the delta epochs in order — within one epoch deletion wins,
    // across epochs later lines see the earlier result — accumulating
    // the dirty set for one warm retrain at the end.
    let mut g_cur = g_old;
    let mut dirty: Vec<u32> = Vec::new();
    let mut dropped = 0usize;
    for raw in &raw_epochs {
        let r = resolve_delta(raw, &original_ids);
        original_ids.extend(&r.new_original_ids);
        dropped += r.dropped_deletions;
        dirty.extend(r.delta.dirty_vertices(g_cur.num_vertices()));
        g_cur = apply_delta(&g_cur, &r.delta);
    }
    dirty.sort_unstable();
    dirty.dedup();

    let (m_new, _h_new, rep) = gosh_core::warm::warm_embed(&g_cur, &h_old, &m_old, &dirty, &wcfg);
    println!(
        "applied {} epoch(s): +{} -{} edge lines ({} unknown deletions dropped), \
         {} new vertices, {} dirty vertices",
        raw_epochs.len(),
        dstats.insert_lines,
        dstats.delete_lines,
        dropped,
        g_cur.num_vertices() - m_old.num_vertices(),
        dirty.len(),
    );
    println!(
        "warm retrain: D = {} levels ({} repaired{}), {} epochs over the dirty region, \
         {:.2}s repair + {:.2}s training ({:.2}s total)",
        rep.depth,
        rep.repaired_levels,
        if rep.fell_back {
            ", fell back to recoarsening"
        } else {
            ""
        },
        rep.epochs_per_level.iter().sum::<u32>(),
        rep.repair_seconds,
        rep.training_seconds,
        t0.elapsed().as_secs_f64(),
    );
    if let Some(path) = p.flag_str("save-graph") {
        save_graph(path, &g_cur)?;
        println!(
            "wrote {} ({} vertices, {} edges, dense ids)",
            path,
            g_cur.num_vertices(),
            g_cur.num_undirected_edges()
        );
    }
    write_outputs(out, &m_new, out_precision)
}

/// `gosh serve <store.embin> [--addr H:P] [--threads N] [--ivf BOOL]`:
/// map an `.embin` store and answer top-k queries over TCP until a
/// client sends shutdown. The banner is printed as soon as the address
/// is bound; the IVF index builds in the background (IVF queries wait
/// for it) and a second line reports it ready. `--ivf false` skips the
/// coarse-quantizer build and serves exact-only (clients must then use
/// `--nprobe 0`).
pub fn serve(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["addr", "threads", "ivf"])?;
    let path = p.positional(0, ".embin store")?;
    let cfg = ServeConfig {
        threads: threads_flag(&p)?,
        build_ivf: p.flag::<bool>("ivf")?.unwrap_or(true),
        verbose: true,
    };
    let store = EmbeddingStore::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    let (n, dim, precision) = (store.num_vertices(), store.dim(), store.precision());
    let addr = p.flag_str("addr").unwrap_or("127.0.0.1:7070");
    let server = Server::bind(store, addr, cfg).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    match server.index_build() {
        Some(build) => {
            println!(
                "serving {path} ({n} x {dim}, {precision}) on {local}, {} IVF lists (building)",
                IvfIndex::default_nlist(n)
            );
            // Reports the build; exits with the process if it is still waiting.
            std::thread::spawn(move || {
                if let Some((ivf, secs)) = build.wait() {
                    println!(
                        "IVF index ready: {} lists built in {secs:.3} s",
                        ivf.nlist()
                    );
                }
            });
        }
        None => println!("serving {path} ({n} x {dim}, {precision}) on {local}, exact only"),
    }
    std::io::stdout().flush().ok();
    server.run().map_err(|e| format!("serve loop: {e}"))
}

/// `gosh query <store.embin> --addr H:P [--ids 0,1,2] [--k K]
/// [--nprobe P] [--shutdown BOOL]`: look up the given vertices' rows in
/// the local store, send them as a batch to a running `gosh serve`, and
/// print each vertex's top-k neighbours as `id:score` pairs.
/// `--nprobe 0` (the default) asks for exact search.
pub fn query(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["addr", "ids", "k", "nprobe", "shutdown"])?;
    let path = p.positional(0, ".embin store")?;
    let addr = p
        .flag_str("addr")
        .ok_or("missing --addr (host:port printed by `gosh serve`)")?;
    let store = EmbeddingStore::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    let k = p.flag::<usize>("k")?.unwrap_or(10);
    let nprobe = p.flag::<usize>("nprobe")?.unwrap_or(0);
    let ids: Vec<u32> = match p.flag_str("ids") {
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("bad vertex id `{s}` in --ids"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![0],
    };
    let dim = store.dim();
    let mut queries = vec![0.0f32; ids.len() * dim];
    for (i, &id) in ids.iter().enumerate() {
        if (id as usize) >= store.num_vertices() {
            return Err(format!(
                "vertex {id} out of range (store has {} rows)",
                store.num_vertices()
            ));
        }
        store.decode_row(id, &mut queries[i * dim..(i + 1) * dim]);
    }
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let t0 = Instant::now();
    let results = client
        .query(&queries, dim, k, nprobe)
        .map_err(|e| e.to_string())?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    for (id, hits) in ids.iter().zip(&results) {
        let row: Vec<String> = hits
            .iter()
            .map(|h| format!("{}:{:.4}", h.id, h.score))
            .collect();
        println!("{id} -> {}", row.join(" "));
    }
    let engine = if nprobe == 0 {
        "exact".to_string()
    } else {
        format!("ivf nprobe {nprobe}")
    };
    println!("{} quer(ies) in {ms:.2} ms ({engine})", ids.len());
    if p.flag::<bool>("shutdown")?.unwrap_or(false) {
        client.shutdown().map_err(|e| e.to_string())?;
        println!("server shut down");
    }
    Ok(())
}

pub fn audit(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["root", "write"])?;
    let root = std::path::PathBuf::from(p.flag_str("root").unwrap_or("."));
    let write = p.flag::<bool>("write")?.unwrap_or(false);

    let outcome = gosh_audit::run(&root, write)?;
    println!(
        "audit: {} files scanned, {} unsafe sites ({} in tests), {} waiver(s)",
        outcome.files_scanned, outcome.sites, outcome.test_sites, outcome.waivers,
    );
    for wrote in &outcome.wrote {
        println!("wrote {wrote}");
    }
    if outcome.passed() {
        println!("audit: PASS");
        Ok(())
    } else {
        for v in &outcome.violations {
            eprintln!("{v}");
        }
        Err(format!(
            "audit: {} violation(s); rules are documented in docs/SAFETY.md",
            outcome.violations.len()
        ))
    }
}
