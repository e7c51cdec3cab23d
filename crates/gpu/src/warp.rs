//! Warp execution context.
//!
//! A [`Warp`] is the view a kernel has of one 32-lane SIMT warp: a warp
//! id, a deterministic per-warp RNG stream (the in-kernel sampler of
//! Algorithm 3), and counting wrappers around global/shared-memory and ALU
//! work. Kernels express Algorithm 3 in terms of these warp-wide vector
//! operations; the wrappers perform the *functional* work on the spot and
//! tally the *architectural* cost for the [`crate::cost::CostModel`].
//!
//! Every row operation takes k rows of `row_len` floats, concatenated —
//! one per sub-warp. The §3.1 kernel passes k = 1; the §3.1.1 small-`d`
//! kernel packs k = 2 or 4 sources into one warp.
//!
//! Counting conventions (see `cost.rs` for the cycle weights):
//! * a vector op over `len` lanes (all k rows together) is `ceil(len/32)`
//!   warp instructions, minimum 1 — a warp busy with one 8-float row
//!   still issues one instruction, which is exactly the small-`d`
//!   underutilization of §3.1.1;
//! * a k-row global read or write is one memory instruction plus k rows
//!   of transactions (an update is a read and a write);
//! * a coalesced row of `len` floats moves `ceil(4·len/32)` 32-byte
//!   transactions, a strided one moves one transaction per element.

use std::cell::Cell;

use gosh_graph::rng::{mix64, Xorshift128Plus};

use crate::buffer::FloatBuffer;
use crate::cost::LocalCounters;
use crate::lanes::dot8_scalar;

/// Global-memory access pattern of a row operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Lane k touches element k: round-robin layout, 32-byte segments.
    Coalesced,
    /// Each lane wanders: one transaction per element (the naive kernel).
    Strided,
}

/// Warp lanes (fixed at 32, as in the paper).
pub const WARP_SIZE: usize = 32;

/// Execution context handed to a kernel once per warp.
pub struct Warp {
    id: Cell<usize>,
    /// In a `Cell` so counting methods can take `&self` while the kernel
    /// holds `&mut` scratch slices.
    rng: Cell<Xorshift128Plus>,
    counters: Cell<LocalCounters>,
}

impl Warp {
    pub(crate) fn new() -> Self {
        Self {
            id: Cell::new(0),
            rng: Cell::new(Xorshift128Plus::from_state(1, 2)),
            counters: Cell::new(LocalCounters::default()),
        }
    }

    /// Re-arm the context for warp `id` of kernel `kernel_id` (deterministic
    /// RNG stream per (seed, kernel, warp) triple).
    pub(crate) fn arm(&self, id: usize, kernel_id: u64, seed: u64) {
        self.id.set(id);
        let mut sm = Xorshift128Plus::new(mix64(seed ^ kernel_id.rotate_left(17) ^ id as u64));
        // Pull two words through the seeded generator for the state.
        let s0 = sm.next_u64();
        let s1 = sm.next_u64() | 1;
        self.rng.set(Xorshift128Plus::from_state(s0, s1));
        let mut c = self.counters.get();
        c.warps += 1;
        self.counters.set(c);
    }

    pub(crate) fn take_counters(&self) -> LocalCounters {
        self.counters.replace(LocalCounters::default())
    }

    /// This warp's id within the launch.
    #[inline]
    pub fn id(&self) -> usize {
        self.id.get()
    }

    #[inline]
    fn bump(&self, f: impl FnOnce(&mut LocalCounters)) {
        let mut c = self.counters.get();
        f(&mut c);
        self.counters.set(c);
    }

    /// Run `f` on the warp's RNG stream.
    #[inline]
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut Xorshift128Plus) -> R) -> R {
        let mut rng = self.rng.replace(Xorshift128Plus::from_state(1, 2));
        let out = f(&mut rng);
        self.rng.set(rng);
        out
    }

    /// Uniform integer in `[0, bound)` from the warp's RNG stream.
    #[inline]
    pub fn rand_below(&self, bound: u32) -> u32 {
        self.with_rng(|r| r.below(bound))
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn rand_f32(&self) -> f32 {
        self.with_rng(|r| r.next_f32())
    }

    #[inline]
    fn vector_instructions(len: usize) -> u64 {
        len.div_ceil(WARP_SIZE).max(1) as u64
    }

    #[inline]
    fn row_transactions(len: usize, access: Access) -> u64 {
        match access {
            Access::Coalesced => (len * 4).div_ceil(32) as u64,
            Access::Strided => len as u64,
        }
    }

    /// Count one memory instruction that moves `rows` rows of `row_len`
    /// floats (latencies overlap across sub-warps, §3.1.1).
    #[inline]
    fn count_rows(&self, rows: usize, row_len: usize, access: Access) {
        let tx = rows as u64 * Self::row_transactions(row_len, access);
        self.bump(|c| {
            c.mem_instructions += 1;
            c.transactions += tx;
        });
    }

    /// Count a shared-memory staging copy of `len` floats (e.g. moving
    /// global rows into shared memory after [`Warp::global_read_rows`]).
    #[inline]
    pub fn shared_store(&self, len: usize) {
        let instr = Self::vector_instructions(len);
        self.bump(|c| c.shared += instr);
    }

    /// Read: sub-warp `k` loads the `row_len` row at `offsets[k]` into
    /// `out[k·row_len..]`, all in the *same* instruction slot — one memory
    /// instruction plus each row's transactions.
    #[inline]
    pub fn global_read_rows(
        &self,
        buf: &FloatBuffer,
        offsets: &[usize],
        row_len: usize,
        out: &mut [f32],
        access: Access,
    ) {
        debug_assert_eq!(out.len(), offsets.len() * row_len);
        for (&off, row) in offsets.iter().zip(out.chunks_exact_mut(row_len)) {
            buf.read_row(off, row);
        }
        self.count_rows(offsets.len(), row_len, access);
    }

    /// Write, the counterpart of [`Warp::global_read_rows`].
    #[inline]
    pub fn global_write_rows(
        &self,
        buf: &FloatBuffer,
        offsets: &[usize],
        row_len: usize,
        src: &[f32],
        access: Access,
    ) {
        debug_assert_eq!(src.len(), offsets.len() * row_len);
        for (&off, row) in offsets.iter().zip(src.chunks_exact(row_len)) {
            buf.write_row(off, row);
        }
        self.count_rows(offsets.len(), row_len, access);
    }

    /// Racy update: sub-warp `k` performs
    /// `buf[offsets[k] + j] += a[k] * xs[k·row_len + j]` — the sample-row
    /// update of Algorithm 1, in one read + one write instruction slot.
    #[inline]
    pub fn global_axpy_rows(
        &self,
        buf: &FloatBuffer,
        offsets: &[usize],
        row_len: usize,
        a: &[f32],
        xs: &[f32],
        access: Access,
    ) {
        debug_assert_eq!(xs.len(), offsets.len() * row_len);
        debug_assert_eq!(a.len(), offsets.len());
        for ((&off, &a), xs) in offsets.iter().zip(a).zip(xs.chunks_exact(row_len)) {
            buf.axpy_row(off, a, xs);
        }
        let tx = 2 * offsets.len() as u64 * Self::row_transactions(row_len, access);
        self.bump(|c| {
            c.mem_instructions += 2;
            c.transactions += tx;
            c.alu += Self::vector_instructions(xs.len());
        });
    }

    /// Dot products of rows already on chip: `out[k] = a_k · b_k` over the
    /// concatenated rows, each summed into eight lane accumulators from
    /// `+0.0` and closed by the [`crate::lanes::hsum8`] tree — the CPU
    /// trainer's order, so each dot is bit-identical to its `dot8`. All
    /// sub-warps share the lane budget, so the instruction count is
    /// `ceil(k·row_len/32)` FMAs + log2(32) shuffle-reduce steps — the
    /// §3.1.1 win.
    #[inline]
    pub fn dot_rows(&self, a: &[f32], b: &[f32], row_len: usize, out: &mut [f32]) {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), out.len() * row_len);
        for ((o, a), b) in out
            .iter_mut()
            .zip(a.chunks_exact(row_len))
            .zip(b.chunks_exact(row_len))
        {
            *o = dot8_scalar(a, b);
        }
        let instr = Self::vector_instructions(a.len()) + 5;
        self.bump(|c| c.alu += instr);
    }

    /// `ys[k·row_len + j] += a[k] · xs[k·row_len + j]` with `ys` in shared
    /// memory (the source-row update of Algorithm 1 under the §3.1 staging).
    #[inline]
    pub fn shared_axpy_rows(&self, a: &[f32], xs: &[f32], ys: &mut [f32], row_len: usize) {
        debug_assert_eq!(xs.len(), ys.len());
        debug_assert_eq!(xs.len(), a.len() * row_len);
        for ((&a, xs), ys) in a
            .iter()
            .zip(xs.chunks_exact(row_len))
            .zip(ys.chunks_exact_mut(row_len))
        {
            for (y, &x) in ys.iter_mut().zip(xs) {
                *y += a * x;
            }
        }
        let instr = Self::vector_instructions(xs.len());
        self.bump(|c| {
            c.alu += instr;
            c.shared += 2 * instr; // read + write
        });
    }

    /// Count `n` extra ALU warp instructions (scalar bookkeeping).
    #[inline]
    pub fn alu(&self, n: u64) {
        self.bump(|c| c.alu += n);
    }
}

/// The exact logistic sigmoid. The trainers score with the table
/// `gosh_core::update::fast_sigmoid`; this seeds that table and is the
/// reference tests measure it against.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::device::{Device, LaunchConfig};

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-200.0) >= 0.0); // no underflow blowup
    }

    #[test]
    fn rng_is_deterministic_per_warp() {
        let w = Warp::new();
        w.arm(7, 3, 42);
        let a: Vec<u32> = (0..8).map(|_| w.rand_below(1000)).collect();
        w.arm(7, 3, 42);
        let b: Vec<u32> = (0..8).map(|_| w.rand_below(1000)).collect();
        assert_eq!(a, b);
        w.arm(8, 3, 42);
        let c: Vec<u32> = (0..8).map(|_| w.rand_below(1000)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn transactions_follow_access_pattern() {
        let dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.upload_floats(&vec![0f32; 64]).unwrap();
        dev.reset_counters();
        dev.launch(LaunchConfig::new(1, 64), |w, scratch| {
            w.global_read_rows(&buf, &[0], 32, &mut scratch[..32], Access::Coalesced);
        });
        let coalesced = dev.snapshot().transactions;
        dev.reset_counters();
        dev.launch(LaunchConfig::new(1, 64), |w, scratch| {
            w.global_read_rows(&buf, &[0], 32, &mut scratch[..32], Access::Strided);
        });
        let strided = dev.snapshot().transactions;
        assert_eq!(coalesced, 4); // 128 bytes / 32
        assert_eq!(strided, 32);
    }

    #[test]
    fn dot_and_axpy_compute_correctly() {
        let w = Warp::new();
        w.arm(0, 0, 0);
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        let mut dot = [0f32];
        w.dot_rows(&a, &b, 3, &mut dot);
        assert_eq!(dot, [32.0]);
        // The lanes start from +0.0: a lone -0.0 product sums to +0.0.
        w.dot_rows(&[-1.0], &[0.0], 1, &mut dot);
        assert!(dot[0] == 0.0 && dot[0].is_sign_positive());
        let mut ys = [1.0f32, 1.0, 1.0];
        w.shared_axpy_rows(&[2.0], &a, &mut ys, 3);
        assert_eq!(ys, [3.0, 5.0, 7.0]);
        let c = w.take_counters();
        assert!(c.alu > 0 && c.shared > 0);
    }

    #[test]
    fn dot_rows_sums_each_row_in_the_eight_lane_order() {
        let w = Warp::new();
        w.arm(0, 0, 0);
        for d in [1usize, 7, 8, 9, 17, 33] {
            for k in [1usize, 2, 4] {
                let a: Vec<f32> = (0..k * d).map(|i| (i as f32 * 0.37).sin()).collect();
                let b: Vec<f32> = (0..k * d).map(|i| (i as f32 * 0.11).cos()).collect();
                let mut out = [0f32; 4];
                w.dot_rows(&a, &b, d, &mut out[..k]);
                for (i, o) in out[..k].iter().enumerate() {
                    let want = crate::lanes::dot8_scalar(&a[i * d..][..d], &b[i * d..][..d]);
                    assert_eq!(o.to_bits(), want.to_bits(), "d={d} k={k} row {i}");
                }
            }
        }
        // Lanes, not a chain: element 8 joins element 0 in lane 0, so
        // 1e8 − 1e8 cancels there and element 4's 1 survives in lane 4; a
        // left-to-right chain loses the 1 to 1e8's rounding.
        let a = [1e8, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1e8];
        let mut dot = [0f32];
        w.dot_rows(&a, &[1.0; 9], 9, &mut dot);
        assert_eq!(dot, [1.0]);
    }

    #[test]
    fn min_one_instruction_for_small_rows() {
        // An 8-float vector op still costs a full warp instruction — the
        // §3.1.1 underutilization.
        assert_eq!(Warp::vector_instructions(8), 1);
        assert_eq!(Warp::vector_instructions(32), 1);
        assert_eq!(Warp::vector_instructions(33), 2);
        assert_eq!(Warp::vector_instructions(128), 4);
    }

    #[test]
    fn packed_reads_cost_one_instruction() {
        let dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.upload_floats(&vec![1f32; 64]).unwrap();
        dev.reset_counters();
        // 4 packed rows of 8 floats: 1 instruction, 4 transactions.
        dev.launch(LaunchConfig::new(1, 32), |w, scratch| {
            w.global_read_rows(
                &buf,
                &[0, 8, 16, 24],
                8,
                &mut scratch[..32],
                Access::Coalesced,
            );
        });
        let s = dev.snapshot();
        assert_eq!(s.mem_instructions, 1);
        assert_eq!(s.transactions, 4);
        // Same data via 4 separate reads: 4 instructions.
        dev.reset_counters();
        dev.launch(LaunchConfig::new(1, 32), |w, scratch| {
            for k in 0..4usize {
                w.global_read_rows(
                    &buf,
                    &[k * 8],
                    8,
                    &mut scratch[k * 8..(k + 1) * 8],
                    Access::Coalesced,
                );
            }
        });
        assert_eq!(dev.snapshot().mem_instructions, 4);
    }

    #[test]
    fn packed_dot_and_axpy_match_scalar() {
        let w = Warp::new();
        w.arm(0, 0, 0);
        let a = [1.0f32, 2.0, 3.0, 4.0]; // two rows of 2
        let b = [5.0f32, 6.0, 7.0, 8.0];
        let mut out = [0f32; 2];
        w.dot_rows(&a, &b, 2, &mut out);
        assert_eq!(out, [17.0, 53.0]);
        let mut ys = [0f32; 4];
        w.shared_axpy_rows(&[2.0, 10.0], &a, &mut ys, 2);
        assert_eq!(ys, [2.0, 4.0, 30.0, 40.0]);
    }

    #[test]
    fn packed_global_axpy_rows_applies() {
        let dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.upload_floats(&[1.0, 1.0, 10.0, 10.0]).unwrap();
        dev.launch(LaunchConfig::new(1, 8), |w, _| {
            w.global_axpy_rows(
                &buf,
                &[0, 2],
                2,
                &[1.0, 2.0],
                &[1.0, 2.0, 3.0, 4.0],
                Access::Coalesced,
            );
        });
        assert_eq!(buf.to_host_vec(), vec![2.0, 3.0, 16.0, 18.0]);
    }

    #[test]
    fn global_axpy_applies_update() {
        let dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.upload_floats(&[1.0, 1.0]).unwrap();
        dev.launch(LaunchConfig::new(1, 4), |w, _| {
            w.global_axpy_rows(&buf, &[0], 2, &[3.0], &[1.0, 2.0], Access::Coalesced);
        });
        assert_eq!(buf.to_host_vec(), vec![4.0, 7.0]);
    }
}
