//! Multi-node training — synchronous data-parallel replica training
//! (the multi-device extension §1 promises), with the replicas on
//! nodes of a network rather than devices on one PCIe bus.
//!
//! `gosh train --nodes N` runs Algorithm 2's one walk
//! ([`crate::pipeline`]); only how a level is trained changes. The nodes
//! are threads with private state — own worker [`Runtime`], own copy of
//! the level's rows, no shared memory — connected only by a [`Transport`]
//! mesh:
//!
//! * **Coarse levels** (fewer than `shard_min` vertices) are
//!   *replicated*: trained once with the f32 Hogwild engine on node 0's
//!   runtime and handed to every node, with zero communication — the
//!   levels are tiny, and the result is what every node would compute
//!   from the same seeds.
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
//! it causes is reported per run as `exchange_stall_seconds`. Frames are
//! untrusted: a wrong tag or length is a [`TransportError`], not a panic.
//!
//! The gather order (node 0 adds its own delta, then peers in fixed id
//! order) and per-pair FIFO transports make the result independent of
//! the wire: channel and TCP meshes produce bit-identical embeddings,
//! and `--nodes 1` reproduces the single-node CPU pipeline exactly.

use std::time::Instant;

use gosh_graph::csr::Csr;
use gosh_runtime::transport::{channel_mesh, tcp_mesh, Interconnect, Transport, TransportError};
use gosh_runtime::{shard_ranges, Runtime};

use crate::backend::{BackendKind, LevelStats, TrainParams};
use crate::config::GoshConfig;
use crate::model::Embedding;
use crate::pipeline::{walk, GoshReport};
use crate::quant::Precision;
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

/// One node's wire counters.
#[derive(Clone, Copy, Debug, Default)]
struct Wire {
    exchanges: usize,
    bytes_sent: usize,
    stall_seconds: f64,
}

/// One simulated node: its mesh endpoint, its private worker runtime
/// (nodes of a cluster do not share worker pools, and a shared launch
/// lock would serialize the very training the mesh exists to
/// parallelize), and its wire counters.
struct Node {
    tp: Box<dyn Transport>,
    rt: Runtime,
    wire: Wire,
}

impl Node {
    fn mesh<T: Transport + 'static>(endpoints: Vec<T>) -> Vec<Node> {
        endpoints
            .into_iter()
            .map(|tp| Node {
                tp: Box::new(tp),
                rt: Runtime::empty(),
                wire: Wire::default(),
            })
            .collect()
    }
}

/// Embed `g0` across `dcfg.nodes` simulated nodes. Returns node 0's
/// matrix (all replicas are identical after the final exchange) and the
/// run report, with sharded levels marked [`BackendKind::Sharded`]. A
/// node dying mid-run surfaces as [`TransportError`] naming the dead
/// peer — the caller's process survives to report it.
pub fn embed_distributed(
    g0: &Csr,
    cfg: &GoshConfig,
    dcfg: &DistribConfig,
) -> Result<(Embedding, GoshReport), TransportError> {
    assert!(dcfg.nodes >= 1, "a run needs at least one node");
    let mut nodes = match dcfg.transport {
        TransportKind::Channel => Node::mesh(channel_mesh(dcfg.nodes)),
        TransportKind::Tcp => Node::mesh(tcp_mesh(dcfg.nodes).map_err(|e| {
            TransportError::new(
                "send",
                "mesh",
                None,
                format!("loopback mesh setup failed: {e}"),
            )
        })?),
    };
    let (matrix, mut report) = walk(g0, cfg, |g, matrix, lvl| {
        let t0 = Instant::now();
        // Always the f32 engine, whatever the precision schedule says:
        // deltas of quantized rows do not sum losslessly across replicas.
        let params = TrainParams {
            precision: Precision::F32,
            ..lvl.params(&cfg.train_params())
        };
        let sharded = dcfg.nodes > 1
            && g.num_vertices() >= dcfg.shard_min
            && lvl.epochs > 0
            && g.num_edges() > 0;
        let backend = if sharded {
            train_sharded(g, matrix, &params, &mut nodes, dcfg)?;
            BackendKind::Sharded
        } else {
            // Replicated: trained once, on node 0's runtime, and handed to
            // every node. Every source for every epoch with salt 0 is
            // `train_cpu`, which each replica would compute from the same
            // seeds at one thread.
            let plan = HogwildPlan::new(g);
            let (rt, all) = (&nodes[0].rt, 0..plan.sources());
            plan.train(rt, g, matrix, &params, 0..lvl.epochs, lvl.epochs, all, 0);
            BackendKind::CpuHogwild
        };
        Ok(LevelStats {
            backend,
            seconds: t0.elapsed().as_secs_f64(),
            large: None,
        })
    })?;
    report.exchanges = nodes[0].wire.exchanges;
    report.bytes_exchanged = nodes.iter().map(|n| n.wire.bytes_sent).sum();
    report.exchange_stall_seconds = nodes[0].wire.stall_seconds;
    Ok((matrix, report))
}

/// Train one sharded level: a scoped thread per node runs its span of
/// every epoch on a copy of the level's input rows, reconciling by delta
/// exchange every `exchange_every` epochs, and leaves node 0's
/// reconciled matrix in `matrix`.
///
/// Each thread owns its node for the level, so a node that fails drops
/// its endpoint and its peers' pending receives fail instead of hanging.
fn train_sharded(
    g: &Csr,
    matrix: &mut Embedding,
    params: &TrainParams,
    nodes: &mut Vec<Node>,
    dcfg: &DistribConfig,
) -> Result<(), TransportError> {
    let plan = HogwildPlan::new(g);
    let spans = shard_ranges(plan.sources(), nodes.len());
    let link = Interconnect::new(dcfg.net_gbps);
    let epochs = params.epochs;
    let input: &Embedding = matrix;
    let results: Vec<Result<_, TransportError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = std::mem::take(nodes)
            .into_iter()
            .map(|mut node| {
                let (plan, spans) = (&plan, &spans);
                let mut base = input.clone();
                scope.spawn(move || -> Result<_, TransportError> {
                    let id = node.tp.node();
                    let mut e0 = 0u32;
                    while e0 < epochs {
                        let e1 = (e0 + dcfg.exchange_every.max(1)).min(epochs);
                        let mut current = base.clone();
                        let (span, salt) = (spans[id].clone(), (id as u64) << 32);
                        plan.train(
                            &node.rt,
                            g,
                            &mut current,
                            params,
                            e0..e1,
                            epochs,
                            span,
                            salt,
                        );
                        base =
                            exchange_deltas(&mut *node.tp, &link, &base, &current, &mut node.wire)?;
                        node.wire.exchanges += 1;
                        e0 = e1;
                    }
                    Ok((node, base))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    });
    for result in results {
        let (node, base) = result?;
        if node.tp.node() == 0 {
            *matrix = base;
        }
        nodes.push(node);
    }
    Ok(())
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
    wire: &mut Wire,
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
            let payload = recv_checked(tp, peer, TAG_DELTA, 4 * delta.len())?;
            wire.stall_seconds += link.charge(payload.len()).as_secs_f64();
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
            wire.bytes_sent += payload.len();
        }
        Ok(Embedding::from_vec(synced, n, d))
    } else {
        let payload = f32s_to_bytes(&delta);
        wire.bytes_sent += payload.len();
        tp.send(0, TAG_DELTA, &payload)?;
        let body = recv_checked(tp, 0, TAG_BASE, payload.len())?;
        wire.stall_seconds += link.charge(body.len()).as_secs_f64();
        let synced: Vec<f32> = body
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Embedding::from_vec(synced, n, d))
    }
}

/// Receive the next frame from `peer` and check it is a `tag` frame of
/// exactly `len` bytes: a peer's frame is untrusted input.
fn recv_checked(
    tp: &mut dyn Transport,
    peer: usize,
    tag: u32,
    len: usize,
) -> Result<Vec<u8>, TransportError> {
    let (got, payload) = tp.recv(peer)?;
    if got != tag || payload.len() != len {
        return Err(TransportError::new(
            "recv",
            peer.to_string(),
            Some(got),
            format!(
                "expected frame 0x{tag:X} of {len} bytes, got {} bytes",
                payload.len()
            ),
        ));
    }
    Ok(payload)
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

    fn sharded_levels(report: &GoshReport) -> usize {
        report
            .levels
            .iter()
            .filter(|l| l.backend == BackendKind::Sharded)
            .count()
    }

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
        assert_eq!(sharded_levels(&report), 0);
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
        assert!(sharded_levels(&report) >= 1, "no level sharded: {report:?}");
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
        assert_eq!(sharded_levels(&report), 0);
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn malformed_exchange_frames_are_errors_not_panics() {
        let link = Interconnect::new(1e6);
        let base = Embedding::random(6, 4, 1);
        let full = vec![0u8; 4 * 6 * 4];
        let mut wire = Wire::default();
        let mut mesh = channel_mesh(2);
        let mut peer = mesh.pop().unwrap();
        let mut node0 = mesh.pop().unwrap();

        // Node 0 gathering: a short delta, then a full-length frame with
        // the wrong tag.
        peer.send(0, TAG_DELTA, &full[..20]).unwrap();
        let err = exchange_deltas(&mut node0, &link, &base, &base, &mut wire).unwrap_err();
        assert_eq!(
            (err.op, err.peer.as_str(), err.tag),
            ("recv", "1", Some(TAG_DELTA))
        );
        assert!(err.detail.contains("20 bytes"), "{err}");
        peer.send(0, TAG_BASE, &full).unwrap();
        let err = exchange_deltas(&mut node0, &link, &base, &base, &mut wire).unwrap_err();
        assert_eq!((err.peer.as_str(), err.tag), ("1", Some(TAG_BASE)));

        // A peer handed a short base matrix.
        node0.send(1, TAG_BASE, &full[..full.len() - 4]).unwrap();
        let err = exchange_deltas(&mut peer, &link, &base, &base, &mut wire).unwrap_err();
        assert_eq!((err.peer.as_str(), err.tag), ("0", Some(TAG_BASE)));
        assert!(err.to_string().contains("0xB0"), "{err}");
    }
}
