//! Property-based tests for the multi-node replica trainer: the wire is
//! an implementation detail (channel vs TCP must be bit-identical), one
//! node is the single-node pipeline (bit-identical to the CPU backend),
//! and replication never touches the network.
//!
//! Cases are few and graphs small: every case runs full multilevel
//! training across a real transport mesh.

use gosh_core::backend::{BackendChoice, BackendKind};
use gosh_core::config::{GoshConfig, Preset};
use gosh_core::distrib::{embed_distributed, DistribConfig, TransportKind};
use gosh_core::pipeline::embed;
use gosh_gpu::{Device, DeviceConfig};
use gosh_graph::gen::{community_graph, CommunityConfig};
use proptest::prelude::*;

/// A small training config; one thread because these tests compare runs
/// bitwise and multi-threaded Hogwild is racy by design.
fn train_cfg(dim: usize, epochs: u32, seed: u64) -> GoshConfig {
    let mut cfg = GoshConfig::preset(Preset::Normal, false)
        .with_dim(dim)
        .with_epochs(epochs)
        .with_threads(1);
    cfg.seed = seed;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn channel_and_tcp_transports_are_bit_identical(
        vertices in 60usize..160,
        degree in 4usize..8,
        seed in 0u64..u64::MAX,
        nodes in 2usize..=3,
        exchange_every in 1u32..5,
    ) {
        let g = community_graph(&CommunityConfig::new(vertices, degree), seed);
        let cfg = train_cfg(8, 12, seed);
        let dcfg = DistribConfig {
            nodes,
            transport: TransportKind::Channel,
            exchange_every,
            shard_min: 32,
            ..Default::default()
        };
        let (m_chan, r_chan) = embed_distributed(&g, &cfg, &dcfg).unwrap();
        let (m_tcp, r_tcp) = embed_distributed(
            &g,
            &cfg,
            &DistribConfig { transport: TransportKind::Tcp, ..dcfg },
        ).unwrap();
        prop_assert_eq!(m_chan.as_slice(), m_tcp.as_slice());
        prop_assert_eq!(r_chan.exchanges, r_tcp.exchanges);
        prop_assert_eq!(r_chan.bytes_exchanged, r_tcp.bytes_exchanged);
    }

    #[test]
    fn one_node_is_the_single_node_pipeline_bitwise(
        vertices in 60usize..200,
        degree in 4usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let g = community_graph(&CommunityConfig::new(vertices, degree), seed);
        let cfg = train_cfg(8, 12, seed).with_backend(BackendChoice::Cpu);
        let device = Device::new(DeviceConfig::titan_x());
        let (m_plain, _) = embed(&g, &cfg, &device);
        let (m_one, report) = embed_distributed(
            &g,
            &cfg,
            &DistribConfig { nodes: 1, ..Default::default() },
        ).unwrap();
        prop_assert_eq!(m_plain.as_slice(), m_one.as_slice());
        prop_assert_eq!(report.bytes_exchanged, 0);
    }

    #[test]
    fn replicated_levels_never_touch_the_wire(
        vertices in 60usize..160,
        degree in 4usize..8,
        seed in 0u64..u64::MAX,
        nodes in 2usize..=3,
    ) {
        let g = community_graph(&CommunityConfig::new(vertices, degree), seed);
        let cfg = train_cfg(8, 10, seed);
        let dcfg = DistribConfig {
            nodes,
            shard_min: usize::MAX, // every level replicated
            ..Default::default()
        };
        let (m, report) = embed_distributed(&g, &cfg, &dcfg).unwrap();
        prop_assert_eq!(report.bytes_exchanged, 0);
        prop_assert!(report.levels.iter().all(|l| l.backend != BackendKind::Sharded));
        prop_assert!(m.as_slice().iter().all(|x| x.is_finite()));
    }
}
