//! The simulated device: memory accounting, kernel launches, counters.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::buffer::{FloatBuffer, PlainBuffer};
use crate::config::DeviceConfig;
use crate::cost::{CostCounters, CostModel, CostSnapshot};
use crate::error::DeviceError;
use crate::warp::Warp;

/// Shared device state (behind the `Arc` so buffers can refund memory on
/// drop even if they outlive the `Device` handle that created them).
pub struct DeviceShared {
    pub(crate) cfg: DeviceConfig,
    pub(crate) allocated: AtomicUsize,
    pub(crate) counters: CostCounters,
    kernel_ids: AtomicU64,
    host_threads: usize,
}

impl DeviceShared {
    pub(crate) fn try_alloc(&self, bytes: usize) -> Result<(), DeviceError> {
        // CAS loop so concurrent allocations never oversubscribe.
        let mut current = self.allocated.load(Ordering::Relaxed);
        loop {
            let new = current + bytes;
            if new > self.cfg.memory_bytes {
                return Err(DeviceError::OutOfMemory {
                    requested: bytes,
                    available: self.cfg.memory_bytes.saturating_sub(current),
                });
            }
            match self.allocated.compare_exchange_weak(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    pub(crate) fn free(&self, bytes: usize) {
        self.allocated.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Model the interconnect: a host↔device copy occupies the PCIe link
    /// for `bytes / pcie_gbps` of wall-clock — *idle* time (the DMA
    /// engine moves the data, not a core), so a copy riding a [`crate::stream::Stream`]
    /// genuinely overlaps with kernel execution while a blocking copy
    /// serializes behind it. Transfers too small for the sleep
    /// granularity are treated as latency-hidden and cost nothing.
    pub(crate) fn dma_delay(&self, bytes: usize) {
        let gbps = self.cfg.pcie_gbps;
        if gbps <= 0.0 || !gbps.is_finite() {
            return; // modeling disabled
        }
        let secs = bytes as f64 / (gbps * 1e9);
        if secs >= 20e-6 {
            std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        }
    }
}

/// Handle to a simulated device. Cheap to clone.
#[derive(Clone)]
pub struct Device {
    shared: Arc<DeviceShared>,
}

/// Launch geometry for [`Device::launch`].
#[derive(Clone, Copy, Debug)]
pub struct LaunchConfig {
    /// Warps in the grid.
    pub num_warps: usize,
    /// `f32` scratch (shared memory + registers) per warp.
    pub scratch_floats: usize,
    /// Warps per dynamic batch handed to a host worker.
    pub batch: usize,
}

impl LaunchConfig {
    /// A launch of `num_warps` warps with `scratch_floats` scratch each.
    pub fn new(num_warps: usize, scratch_floats: usize) -> Self {
        Self {
            num_warps,
            scratch_floats,
            batch: 128,
        }
    }
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self {
            shared: Arc::new(DeviceShared {
                cfg,
                allocated: AtomicUsize::new(0),
                counters: CostCounters::default(),
                kernel_ids: AtomicU64::new(0),
                host_threads: cfg.resolved_host_threads(),
            }),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.shared.cfg
    }

    /// Bytes currently allocated on the device.
    pub fn allocated_bytes(&self) -> usize {
        self.shared.allocated.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn available_bytes(&self) -> usize {
        self.shared.cfg.memory_bytes - self.allocated_bytes()
    }

    /// Whether an allocation of `bytes` would fit right now.
    pub fn fits(&self, bytes: usize) -> bool {
        bytes <= self.available_bytes()
    }

    /// Allocate a zeroed `f32` buffer.
    pub fn alloc_floats(&self, len: usize) -> Result<FloatBuffer, DeviceError> {
        FloatBuffer::new_zeroed(self.shared.clone(), len)
    }

    /// Allocate and fill a `f32` buffer from host data (counted as H2D).
    pub fn upload_floats(&self, host: &[f32]) -> Result<FloatBuffer, DeviceError> {
        FloatBuffer::new_from_slice(self.shared.clone(), host)
    }

    /// Allocate a zeroed buffer modeled at `elem_bytes` per element
    /// (quantized embedding rows: 2 for f16, 1 for i8). Cells stay f32 —
    /// only memory and transfer accounting shrink.
    pub fn alloc_floats_prec(
        &self,
        len: usize,
        elem_bytes: usize,
    ) -> Result<FloatBuffer, DeviceError> {
        FloatBuffer::new_zeroed_prec(self.shared.clone(), len, elem_bytes)
    }

    /// Allocate and fill a buffer modeled at `elem_bytes` per element
    /// (counted as H2D at that width).
    pub fn upload_floats_prec(
        &self,
        host: &[f32],
        elem_bytes: usize,
    ) -> Result<FloatBuffer, DeviceError> {
        FloatBuffer::new_from_slice_prec(self.shared.clone(), host, elem_bytes)
    }

    /// Allocate and fill a read-only typed buffer (counted as H2D).
    pub fn upload_plain<T: Copy + Send + Sync>(
        &self,
        host: &[T],
    ) -> Result<PlainBuffer<T>, DeviceError> {
        PlainBuffer::new_from_slice(self.shared.clone(), host)
    }

    /// Create an asynchronous work queue on this device (the
    /// `cudaStreamCreate` of the simulation). Streams created here are
    /// independent: operations on different streams overlap, which is
    /// what hides sub-matrix transfers behind embedding kernels
    /// (§3.3.2).
    pub fn create_stream(&self) -> crate::stream::Stream {
        crate::stream::Stream::new()
    }

    /// Snapshot of the cost counters.
    pub fn snapshot(&self) -> CostSnapshot {
        self.shared.counters.snapshot()
    }

    /// Reset the cost counters to zero.
    pub fn reset_counters(&self) {
        self.shared.counters.reset();
    }

    /// The cost model for this device's configuration.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.shared.cfg)
    }

    /// Launch a kernel: `kernel(warp, scratch)` runs once per warp, with
    /// warps distributed over a team of host threads in dynamic batches
    /// (no more members than batches; the calling thread is one of
    /// them). The call blocks until the grid completes (one launch per
    /// epoch gives the epoch synchronization of §3.1).
    pub fn launch<F>(&self, cfg: LaunchConfig, kernel: F)
    where
        F: Fn(&Warp, &mut [f32]) + Sync,
    {
        let n = cfg.num_warps;
        self.shared.counters.kernels.fetch_add(1, Ordering::Relaxed);
        if n == 0 {
            return;
        }
        let kernel_id = self.shared.kernel_ids.fetch_add(1, Ordering::Relaxed);
        let seed = self.shared.cfg.seed;
        let batch = cfg.batch.max(1);
        let cursor = AtomicUsize::new(0);

        let team = self.shared.host_threads.min(n.div_ceil(batch));
        gosh_runtime::run(team, |_ctx| {
            let warp = Warp::new();
            let mut scratch = vec![0f32; cfg.scratch_floats];
            loop {
                let start = cursor.fetch_add(batch, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + batch).min(n);
                for w in start..end {
                    warp.arm(w, kernel_id, seed);
                    kernel(&warp, &mut scratch);
                }
                let local = warp.take_counters();
                self.shared.counters.flush(&local);
            }
        });
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Device({} MB, {} SMs, {:.3} GHz)",
            self.shared.cfg.memory_bytes >> 20,
            self.shared.cfg.num_sms,
            self.shared.cfg.clock_ghz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::Access;

    #[test]
    fn launch_executes_every_warp_once() {
        let dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.alloc_floats(1000).unwrap();
        dev.launch(LaunchConfig::new(1000, 0), |w, _| {
            buf.axpy_row(w.id(), 1.0, &[1.0]);
        });
        let host = buf.to_host_vec();
        assert!(host.iter().all(|&x| x == 1.0));
        assert_eq!(dev.snapshot().warps, 1000);
        assert_eq!(dev.snapshot().kernels, 1);
    }

    #[test]
    fn empty_launch_is_fine() {
        let dev = Device::new(DeviceConfig::titan_x());
        dev.launch(LaunchConfig::new(0, 16), |_, _| panic!("no warps"));
        assert_eq!(dev.snapshot().warps, 0);
        assert_eq!(dev.snapshot().kernels, 1);
    }

    #[test]
    fn one_batch_launch_runs_on_the_calling_thread() {
        let dev = Device::new(DeviceConfig {
            host_threads: 4,
            ..DeviceConfig::titan_x()
        });
        let caller = std::thread::current().id();
        let cfg = LaunchConfig::new(100, 0);
        assert!(cfg.num_warps <= cfg.batch);
        dev.launch(cfg, |_, _| assert_eq!(std::thread::current().id(), caller));
        assert_eq!(dev.snapshot().warps, 100);
    }

    #[test]
    fn scratch_is_per_warp_private() {
        let dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.alloc_floats(64).unwrap();
        // Each warp writes its id into scratch then to global; if scratch
        // leaked between warps the values would smear.
        dev.launch(LaunchConfig::new(64, 4), |w, scratch| {
            scratch[0] = w.id() as f32;
            buf.store(w.id(), scratch[0]);
        });
        let host = buf.to_host_vec();
        for (i, &x) in host.iter().enumerate() {
            assert_eq!(x, i as f32);
        }
    }

    #[test]
    fn counters_accumulate_across_launches() {
        let dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.alloc_floats(32).unwrap();
        for _ in 0..3 {
            dev.launch(LaunchConfig::new(4, 32), |w, scratch| {
                w.global_read_rows(&buf, &[0], 32, &mut scratch[..32], Access::Coalesced);
            });
        }
        let s = dev.snapshot();
        assert_eq!(s.kernels, 3);
        assert_eq!(s.warps, 12);
        assert_eq!(s.mem_instructions, 12);
        dev.reset_counters();
        assert_eq!(dev.snapshot().warps, 0);
    }

    #[test]
    fn modeled_time_is_positive_and_monotone() {
        let dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.alloc_floats(128).unwrap();
        dev.launch(LaunchConfig::new(100, 32), |w, s| {
            w.global_read_rows(&buf, &[0], 32, &mut s[..32], Access::Coalesced);
        });
        let t1 = dev.cost_model().kernel_seconds(&dev.snapshot());
        dev.launch(LaunchConfig::new(100, 32), |w, s| {
            w.global_read_rows(&buf, &[0], 32, &mut s[..32], Access::Strided);
        });
        let t2 = dev.cost_model().kernel_seconds(&dev.snapshot());
        assert!(t1 > 0.0);
        assert!(t2 > 2.0 * t1, "strided pass should dominate: {t1} vs {t2}");
    }

    #[test]
    fn concurrent_allocation_never_oversubscribes() {
        let dev = Device::new(DeviceConfig::tiny(4000));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let d = dev.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        if let Ok(b) = d.alloc_floats(100) {
                            assert!(d.allocated_bytes() <= 4000);
                            drop(b);
                        }
                    }
                });
            }
        });
        assert_eq!(dev.allocated_bytes(), 0);
    }
}
