//! Multi-node training — synchronous data-parallel replica training
//! (the multi-device extension §1 promises), with the replicas on
//! nodes of a network rather than devices on one PCIe bus.
//!
//! `gosh train --nodes N` runs N node "processes" (threads with fully
//! private state — own worker [`Runtime`], own matrix replica, no shared
//! memory) connected only by a [`Transport`] mesh. The schedule follows
//! the multilevel structure:
//!
//! * **Coarse levels** (fewer than `shard_min` vertices) are
//!   *replicated*: every node trains the full level with identical seeds
//!   and zero communication — the levels are tiny, the work is cheaper
//!   than a broadcast, and determinism keeps every replica bit-identical.
//! * **Fine levels** are *sharded*: each node trains a contiguous span
//!   of the per-epoch source schedule (salted RNG streams so no two
//!   nodes duplicate samples), and every `exchange_every` epochs the
//!   replicas reconcile by **delta exchange**: each node sends
//!   `M_now − M_base` to node 0, node 0 sums the deltas onto the base
//!   and broadcasts the new matrix. Summing (not averaging) is the right
//!   combine here because shards partition the epoch's work — the sum of
//!   shard deltas is one whole epoch of updates, exactly what the
//!   single-node trainer would have applied.
//!
//! Every transfer is priced through [`Interconnect`] — the simulated
//! device's PCIe cost model pointed at the network link — and the stall
//! it causes is reported per run as `exchange_stall_seconds`.
//!
//! The gather order (node 0 adds its own delta, then peers in fixed id
//! order) and per-pair FIFO transports make the result independent of
//! the wire: channel and TCP meshes produce bit-identical embeddings,
//! and `--nodes 1` reproduces the single-node CPU pipeline exactly.

use std::time::Instant;

use gosh_coarsen::hierarchy::{coarsen_hierarchy, CoarsenConfig, Hierarchy};
use gosh_graph::csr::Csr;
use gosh_runtime::transport::{channel_mesh, tcp_mesh, Interconnect, Transport, TransportError};
use gosh_runtime::{shard_ranges, Runtime};

use crate::backend::{Similarity, TrainParams};
use crate::config::GoshConfig;
use crate::expand::expand_embedding_parallel;
use crate::model::Embedding;
use crate::quant::Precision;
use crate::schedule::epoch_distribution;
use crate::train_cpu::HogwildPlan;

/// Frame tag: a `M_now − M_base` delta, peer → node 0.
const TAG_DELTA: u32 = 0xD1;
/// Frame tag: the reconciled matrix, node 0 → peers.
const TAG_BASE: u32 = 0xB0;

/// Which wire the node mesh runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channels: zero serialization cost, perfectly
    /// deterministic — the reference wire.
    Channel,
    /// TCP over 127.0.0.1: exercises framing and the kernel network
    /// stack; bit-identical results to [`TransportKind::Channel`].
    Tcp,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Channel => "channel",
            Self::Tcp => "tcp",
        })
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "channel" => Ok(Self::Channel),
            "tcp" => Ok(Self::Tcp),
            other => Err(format!("unknown transport `{other}` (channel|tcp)")),
        }
    }
}

/// Multi-node run parameters (`gosh train --nodes N ...`).
#[derive(Clone, Copy, Debug)]
pub struct DistribConfig {
    /// Node count (1 = plain single-node training).
    pub nodes: usize,
    /// Wire between nodes.
    pub transport: TransportKind,
    /// Modeled interconnect bandwidth in GB/s (charged per transfer like
    /// the device's PCIe model).
    pub net_gbps: f64,
    /// Epochs trained between delta exchanges on sharded levels.
    pub exchange_every: u32,
    /// Levels smaller than this many vertices are replicated instead of
    /// sharded (communication would dominate the level's work).
    pub shard_min: usize,
}

impl Default for DistribConfig {
    fn default() -> Self {
        Self {
            nodes: 1,
            transport: TransportKind::Channel,
            net_gbps: 12.0,
            exchange_every: 8,
            shard_min: 4096,
        }
    }
}

/// Summary of one [`embed_distributed`] run.
#[derive(Clone, Debug)]
pub struct DistribReport {
    /// Nodes in the mesh.
    pub nodes: usize,
    /// Hierarchy depth.
    pub depth: usize,
    /// Levels trained replicated (no communication).
    pub replicated_levels: usize,
    /// Levels trained sharded with delta exchange.
    pub sharded_levels: usize,
    /// Delta-exchange rounds (all sharded levels).
    pub exchanges: usize,
    /// Bytes put on the wire across all nodes.
    pub bytes_exchanged: usize,
    /// Seconds node 0 spent stalled on modeled interconnect transfers —
    /// the synchronization cost the single-node run does not pay.
    pub exchange_stall_seconds: f64,
    /// Source processings across all levels (the paper's update count).
    pub updates: u64,
    /// Wall-clock seconds spent coarsening (shared, done once).
    pub coarsening_seconds: f64,
    /// Wall-clock seconds from first level start to finest level end.
    pub training_seconds: f64,
    /// End-to-end wall-clock seconds.
    pub total_seconds: f64,
}

impl DistribReport {
    /// Positive-sample updates per training second.
    pub fn updates_per_sec(&self) -> f64 {
        if self.training_seconds > 0.0 {
            self.updates as f64 / self.training_seconds
        } else {
            0.0
        }
    }
}

/// What one node thread hands back at the end of the run.
struct NodeOutcome {
    matrix: Embedding,
    bytes_sent: usize,
    stall_seconds: f64,
    exchanges: usize,
}

/// Embed `g0` across `dcfg.nodes` simulated nodes. Returns node 0's
/// matrix (all replicas are identical after the final exchange) and the
/// run report. A node dying mid-run surfaces as [`TransportError`]
/// naming the dead peer — the caller's process survives to report it.
pub fn embed_distributed(
    g0: &Csr,
    cfg: &GoshConfig,
    dcfg: &DistribConfig,
) -> Result<(Embedding, DistribReport), TransportError> {
    assert!(dcfg.nodes >= 1, "a run needs at least one node");
    let t0 = Instant::now();

    // Coarsening happens once: the hierarchy is input data, identical on
    // every node of a real cluster (it is a function of the graph alone),
    // so recomputing it per node would only burn time.
    let hierarchy = match cfg.smoothing {
        Some(_) => coarsen_hierarchy(
            g0.clone(),
            &CoarsenConfig {
                threshold: cfg.coarsen_threshold,
                threads: cfg.threads,
                ..Default::default()
            },
        ),
        None => Hierarchy {
            graphs: vec![g0.clone()],
            maps: Vec::new(),
            stats: Vec::new(),
        },
    };
    let coarsening_seconds = t0.elapsed().as_secs_f64();

    let depth = hierarchy.depth();
    let p = cfg.smoothing.unwrap_or(1.0);
    let dist = epoch_distribution(cfg.epochs, p, depth);
    let link = Interconnect::new(dcfg.net_gbps);

    let mesh: Vec<Box<dyn Transport>> = match dcfg.transport {
        TransportKind::Channel => channel_mesh(dcfg.nodes)
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Transport>)
            .collect(),
        TransportKind::Tcp => tcp_mesh(dcfg.nodes)
            .map_err(|e| TransportError {
                op: "send",
                peer: "mesh".into(),
                tag: None,
                detail: format!("loopback mesh setup failed: {e}"),
            })?
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Transport>)
            .collect(),
    };

    let t_train = Instant::now();
    let results: Vec<Result<NodeOutcome, TransportError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|tp| {
                let hierarchy = &hierarchy;
                let dist = &dist;
                scope.spawn(move || run_node(tp, hierarchy, dist, cfg, dcfg, link))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    });
    let mut outcomes: Vec<NodeOutcome> = results.into_iter().collect::<Result<_, _>>()?;
    let training_seconds = t_train.elapsed().as_secs_f64();

    let mut replicated_levels = 0usize;
    let mut sharded_levels = 0usize;
    let mut updates = 0u64;
    for (g, &e_i) in hierarchy.graphs.iter().zip(&dist) {
        if e_i == 0 || g.num_edges() == 0 {
            continue;
        }
        if level_is_sharded(g, dcfg) {
            sharded_levels += 1;
        } else {
            replicated_levels += 1;
        }
        updates += e_i as u64 * (g.num_edges() as u64 / 2).max(1);
    }

    let bytes_exchanged = outcomes.iter().map(|o| o.bytes_sent).sum();
    let node0 = outcomes.remove(0);
    let report = DistribReport {
        nodes: dcfg.nodes,
        depth,
        replicated_levels,
        sharded_levels,
        exchanges: node0.exchanges,
        bytes_exchanged,
        exchange_stall_seconds: node0.stall_seconds,
        updates,
        coarsening_seconds,
        training_seconds,
        total_seconds: t0.elapsed().as_secs_f64(),
    };
    Ok((node0.matrix, report))
}

/// A level is sharded when the mesh has peers and the level is big
/// enough that its work dwarfs an exchange.
fn level_is_sharded(g: &Csr, dcfg: &DistribConfig) -> bool {
    dcfg.nodes > 1 && g.num_vertices() >= dcfg.shard_min
}

/// One node's whole run: walk the hierarchy coarsest→finest, train each
/// level replicated or sharded, expand between levels.
fn run_node(
    mut tp: Box<dyn Transport>,
    hierarchy: &Hierarchy,
    dist: &[u32],
    cfg: &GoshConfig,
    dcfg: &DistribConfig,
    link: Interconnect,
) -> Result<NodeOutcome, TransportError> {
    let node = tp.node();
    let nodes = tp.nodes();
    // A private runtime per node: nodes of a cluster do not share worker
    // pools, and a shared launch lock would serialize the very training
    // the mesh exists to parallelize.
    let rt = Runtime::new(cfg.threads);

    let coarsest = hierarchy.coarsest();
    let mut matrix = Embedding::random(coarsest.num_vertices(), cfg.dim, cfg.seed);
    let mut bytes_sent = 0usize;
    let mut stall_seconds = 0f64;
    let mut exchanges = 0usize;

    for i in (0..hierarchy.depth()).rev() {
        let g = &hierarchy.graphs[i];
        let e_i = dist[i];
        if e_i > 0 && g.num_edges() > 0 {
            // Distributed training always runs the f32 engine: deltas of
            // quantized rows do not sum losslessly across replicas.
            let params = TrainParams {
                dim: cfg.dim,
                negative_samples: cfg.negative_samples,
                lr: cfg.lr,
                epochs: e_i,
                similarity: Similarity::Adjacency,
                threads: cfg.threads,
                seed: cfg.seed ^ i as u64,
                precision: Precision::F32,
            };
            let plan = HogwildPlan::new(g);
            if !level_is_sharded(g, dcfg) {
                // Replicated: identical seeds + salt 0 → every node
                // computes the same matrix the single-node trainer would.
                let all = 0..plan.sources();
                plan.train(&rt, g, &mut matrix, &params, 0..e_i, e_i, all, 0);
            } else {
                let span = shard_ranges(plan.sources(), nodes)[node].clone();
                let salt = (node as u64) << 32;
                let mut e0 = 0u32;
                while e0 < e_i {
                    let e1 = (e0 + dcfg.exchange_every.max(1)).min(e_i);
                    let mut current = matrix.clone();
                    plan.train(
                        &rt,
                        g,
                        &mut current,
                        &params,
                        e0..e1,
                        e_i,
                        span.clone(),
                        salt,
                    );
                    matrix = exchange_deltas(
                        &mut *tp,
                        &link,
                        &matrix,
                        &current,
                        &mut bytes_sent,
                        &mut stall_seconds,
                    )?;
                    exchanges += 1;
                    e0 = e1;
                }
            }
        }
        if i > 0 {
            matrix = expand_embedding_parallel(&matrix, &hierarchy.maps[i - 1], cfg.threads);
        }
    }

    Ok(NodeOutcome {
        matrix,
        bytes_sent,
        stall_seconds,
        exchanges,
    })
}

/// One delta-exchange round. `base` is the replica state at the start of
/// the segment (identical on every node), `current` this node's state
/// after training its shard. Returns the reconciled matrix
/// `base + Σ_nodes (current_k − base)` — identical on every node.
fn exchange_deltas(
    tp: &mut dyn Transport,
    link: &Interconnect,
    base: &Embedding,
    current: &Embedding,
    bytes_sent: &mut usize,
    stall_seconds: &mut f64,
) -> Result<Embedding, TransportError> {
    let nodes = tp.nodes();
    let n = base.num_vertices();
    let d = base.dim();
    let mut delta: Vec<f32> = current
        .as_slice()
        .iter()
        .zip(base.as_slice())
        .map(|(&c, &b)| c - b)
        .collect();

    if tp.node() == 0 {
        // Gather in fixed id order: float addition order is part of the
        // result, so the order must not depend on arrival timing.
        for peer in 1..nodes {
            let (tag, payload) = tp.recv(peer)?;
            debug_assert_eq!(tag, TAG_DELTA);
            *stall_seconds += link.charge(payload.len()).as_secs_f64();
            for (acc, chunk) in delta.iter_mut().zip(payload.chunks_exact(4)) {
                *acc += f32::from_le_bytes(chunk.try_into().unwrap());
            }
        }
        let synced: Vec<f32> = base
            .as_slice()
            .iter()
            .zip(&delta)
            .map(|(&b, &dx)| b + dx)
            .collect();
        let payload = f32s_to_bytes(&synced);
        for peer in 1..nodes {
            tp.send(peer, TAG_BASE, &payload)?;
            *bytes_sent += payload.len();
        }
        Ok(Embedding::from_vec(synced, n, d))
    } else {
        let payload = f32s_to_bytes(&delta);
        *bytes_sent += payload.len();
        tp.send(0, TAG_DELTA, &payload)?;
        let (tag, body) = tp.recv(0)?;
        debug_assert_eq!(tag, TAG_BASE);
        *stall_seconds += link.charge(body.len()).as_secs_f64();
        let synced: Vec<f32> = body
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Embedding::from_vec(synced, n, d))
    }
}

fn f32s_to_bytes(xs: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 * xs.len());
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosh_graph::gen::{community_graph, CommunityConfig};

    fn cfg() -> GoshConfig {
        GoshConfig::default()
            .with_dim(16)
            .with_epochs(40)
            .with_threads(1)
    }

    #[test]
    fn single_node_matches_plain_cpu_pipeline_bitwise() {
        let g = community_graph(&CommunityConfig::new(600, 6), 41);
        let cfg = cfg();
        let dcfg = DistribConfig::default();
        let (dm, report) = embed_distributed(&g, &cfg, &dcfg).unwrap();

        // The reference: the plain CPU pipeline on the same config.
        let device = gosh_gpu::Device::new(gosh_gpu::DeviceConfig::titan_x());
        let (sm, _) = crate::pipeline::embed(
            &g,
            &cfg.with_backend(crate::backend::BackendChoice::Cpu),
            &device,
        );
        assert_eq!(dm.as_slice(), sm.as_slice());
        assert_eq!(report.exchanges, 0);
        assert_eq!(report.bytes_exchanged, 0);
        assert_eq!(report.sharded_levels, 0);
    }

    #[test]
    fn two_nodes_exchange_and_agree_with_each_other() {
        let g = community_graph(&CommunityConfig::new(700, 6), 43);
        let cfg = cfg();
        let dcfg = DistribConfig {
            nodes: 2,
            shard_min: 256, // force sharding on the fine levels
            exchange_every: 4,
            ..Default::default()
        };
        let (m, report) = embed_distributed(&g, &cfg, &dcfg).unwrap();
        assert_eq!(m.num_vertices(), g.num_vertices());
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
        assert!(report.sharded_levels >= 1, "no level sharded: {report:?}");
        assert!(report.exchanges >= 1);
        assert!(report.bytes_exchanged > 0);
    }

    #[test]
    fn channel_and_tcp_wires_are_bit_identical() {
        let g = community_graph(&CommunityConfig::new(640, 5), 45);
        let cfg = cfg();
        let mk = |transport| DistribConfig {
            nodes: 2,
            transport,
            shard_min: 256,
            exchange_every: 4,
            ..Default::default()
        };
        let (a, _) = embed_distributed(&g, &cfg, &mk(TransportKind::Channel)).unwrap();
        let (b, _) = embed_distributed(&g, &cfg, &mk(TransportKind::Tcp)).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn replicated_levels_cost_no_bytes() {
        let g = community_graph(&CommunityConfig::new(500, 5), 47);
        let dcfg = DistribConfig {
            nodes: 3,
            shard_min: usize::MAX, // everything replicated
            ..Default::default()
        };
        let (m, report) = embed_distributed(&g, &cfg(), &dcfg).unwrap();
        assert_eq!(report.bytes_exchanged, 0);
        assert_eq!(report.sharded_levels, 0);
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
    }
}
