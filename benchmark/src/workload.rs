//! The four workloads. Each varies one load dimension of the same
//! journey (file → embedding → query → update); `why` says which layer
//! it is meant to make visible. BENCHMARK.json repeats names and reasons.

/// One operating point of the journey.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `community_graph` size: vertices and average degree.
    pub vertices: usize,
    pub degree: usize,
    // `gosh embed` flags.
    pub dim: usize,
    pub preset: &'static str,
    pub epochs: u32,
    pub backend: &'static str,
    /// `--device-mb`; `None` leaves the CLI default (12 GiB: everything fits).
    pub device_mb: Option<usize>,
    pub precision: &'static str,
    // Query phase, k = 10: single-vector requests (layer metrics, recall
    // and the wire-vs-in-process checks), then 32-vector requests (the
    // end-to-end latencies), each against both engines.
    pub exact_queries: usize,
    pub ivf_queries: usize,
    pub exact_batches: usize,
    pub ivf_batches: usize,
    /// One `gosh update` round per entry: the delta's size as a share of
    /// the training graph's edges (half insertions, half deletions).
    pub delta_shares: &'static [f64],
    /// A run whose AUC falls below this is counted as a failed operation.
    pub auc_floor: f64,
    /// Seconds one journey takes on the reference host when it is quiet.
    /// A run repeats the journey `--seconds / journey_seconds` times: the
    /// count depends on the workload alone, never on how fast the code
    /// under test is, so two builds are always compared over equal draws.
    pub journey_seconds: f64,
}

/// `--threads` of every child and of the replay. Every CPU-side team is
/// one thread wide: at two threads the fused coarsener's matching is a
/// race, the hierarchy differs from run to run of one input and `embed_s`
/// moves with it by 40 % (README, "Workloads").
pub const THREADS: usize = 1;

/// Results per query.
pub const K: usize = 10;
/// `nprobe` of the IVF segment.
pub const NPROBE: usize = 8;
/// Queries per request in the batch segment.
pub const BATCH: usize = 32;
/// Requests discarded at the start of each timed segment: single-vector
/// and 32-vector.
pub const WARMUP: usize = 50;
pub const BATCH_WARMUP: usize = 5;
/// IVF queries whose hits are compared with exact search for recall.
pub const RECALL_QUERIES: usize = 500;
/// Wire-vs-in-process exact checks, and full-probe IVF checks, per journey.
pub const EXACT_CHECKS: usize = 50;
pub const FULL_PROBE_CHECKS: usize = 20;
/// Cap on held-out edges scored for AUC.
pub const MAX_TEST_EDGES: usize = 100_000;

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "kernel-cpu-t1",
            why: "single-thread f32 CPU training is >80% of embed_s: SIMD/Hogwild-kernel work shows here, ingest/store work must not; bit-exact, so quality repeats exactly",
            vertices: 8192,
            degree: 8,
            dim: 64,
            preset: "normal",
            epochs: 300,
            backend: "cpu",
            device_mb: None,
            precision: "f32",
            exact_queries: 200,
            ivf_queries: 2000,
            exact_batches: 60,
            ivf_batches: 200,
            delta_shares: &[0.002],
            auc_floor: 0.85,
            journey_seconds: 1.65,
        },
        Workload {
            name: "device-partitioned",
            why: "same graph on a device half the matrix size: Alg. 5 partitioning, residency and prefetch do the work and the CPU engine none; a transfer-overlap gain shows only here",
            vertices: 8192,
            degree: 8,
            dim: 64,
            preset: "normal",
            epochs: 150,
            backend: "gpu",
            device_mb: Some(1),
            precision: "f32",
            exact_queries: 200,
            ivf_queries: 2000,
            exact_batches: 60,
            ivf_batches: 200,
            delta_shares: &[0.002],
            auc_floor: 0.84,
            journey_seconds: 1.8,
        },
        Workload {
            name: "big-sparse-t1",
            why: "12x the vertices at a quarter of the width: training is about half of embed_s, so ingest, coarsening, expansion, store and text writers can move an end-to-end number; the memory workload",
            vertices: 98_304,
            degree: 6,
            dim: 16,
            preset: "fast",
            epochs: 50,
            backend: "cpu",
            device_mb: None,
            precision: "f32",
            exact_queries: 100,
            ivf_queries: 1000,
            exact_batches: 15,
            ivf_batches: 200,
            delta_shares: &[0.002],
            auc_floor: 0.75,
            journey_seconds: 2.9,
        },
        Workload {
            name: "serve-update-i8",
            why: "i8 rows and four chained updates (three local repairs, one fallback): quantized kernels, direct i8 scoring, repair and warm-start carry the run",
            vertices: 32_768,
            degree: 8,
            dim: 32,
            preset: "fast",
            epochs: 60,
            backend: "cpu",
            device_mb: None,
            precision: "i8",
            exact_queries: 100,
            ivf_queries: 1000,
            exact_batches: 20,
            ivf_batches: 200,
            delta_shares: &[0.00001, 0.00001, 0.00001, 0.02],
            auc_floor: 0.80,
            journey_seconds: 2.85,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same journey on 2^12 vertices: seconds, not tens of seconds.
    /// Used by the tests; quality floors do not apply at this size.
    pub fn smoke(mut self) -> Self {
        self.vertices = 4096;
        self.epochs = self.epochs.min(40);
        self.exact_queries = 80;
        self.ivf_queries = 200;
        self.exact_batches = 12;
        self.ivf_batches = 12;
        self.auc_floor = 0.0;
        self
    }

    /// Flags shared by `gosh embed` and the in-process replay.
    pub fn embed_flags(&self) -> Vec<String> {
        let mut flags = cli_flags(&[
            ("--dim", self.dim.to_string()),
            ("--preset", self.preset.to_string()),
            ("--epochs", self.epochs.to_string()),
            ("--threads", THREADS.to_string()),
            ("--backend", self.backend.to_string()),
            ("--precision", self.precision.to_string()),
        ]);
        if let Some(mb) = self.device_mb {
            flags.extend(cli_flags(&[("--device-mb", mb.to_string())]));
        }
        flags
    }

    /// Flags of every `gosh update` round (precision follows the store).
    pub fn update_flags(&self) -> Vec<String> {
        cli_flags(&[
            ("--threads", THREADS.to_string()),
            ("--preset", self.preset.to_string()),
            ("--epochs", self.epochs.to_string()),
        ])
    }

    /// Workloads whose whole pipeline is single-thread CPU: f32 or i8,
    /// the result is a pure function of the input, so quality metrics
    /// repeat exactly and the traced replay must be byte-identical. (The
    /// simulated device runs its warps on every core.)
    pub fn deterministic(&self) -> bool {
        self.backend == "cpu"
    }

    /// Journeys a run of `seconds` repeats.
    pub fn journeys(&self, seconds: f64) -> usize {
        ((seconds / self.journey_seconds) as usize).max(1)
    }
}

/// `--key value` pairs as the argument list a child process takes.
fn cli_flags(pairs: &[(&str, String)]) -> Vec<String> {
    pairs
        .iter()
        .flat_map(|(key, value)| [key.to_string(), value.clone()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_match_the_contract_alphabet() {
        let ws = all();
        assert_eq!(ws.len(), 4);
        for (i, w) in ws.iter().enumerate() {
            assert!(w.name.len() <= 64 && w.why.len() <= 200, "{}", w.name);
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(ws[..i].iter().all(|o| o.name != w.name));
            assert!(by_name(w.name).is_some());
        }
        assert!(by_name("nope").is_none());
    }
}
