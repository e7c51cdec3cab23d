//! Host facts and the memory-bandwidth calibration kernel, measured in
//! the same run as the layer throughputs they are compared with.

use std::time::Instant;

/// Largest cache the kernel reports for cpu0, in bytes (0 if unreadable).
pub fn llc_bytes() -> usize {
    let mut best = 0usize;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, scale) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1usize << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            Some(b'G') => (&text[..text.len() - 1], 1 << 30),
            _ => (text, 1),
        };
        best = best.max(digits.parse::<usize>().unwrap_or(0) * scale);
    }
    best
}

/// Bytes per triad array: four times the last-level cache, held between
/// 64 MiB (caches the kernel does not report) and 256 MiB (a VM that
/// reports its host's whole shared L3 must not cost gigabytes here).
pub fn triad_array_bytes() -> usize {
    (4 * llc_bytes()).clamp(64 << 20, 256 << 20)
}

/// STREAM triad `a[i] = b[i] + s * c[i]` over three f32 arrays of
/// `bytes` each, single thread; best of `passes`, in GB/s (3 arrays move).
pub fn triad_gb_per_s(bytes: usize, passes: usize) -> f64 {
    let n = bytes / 4;
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut a = vec![0.0f32; n];
    let mut best = f64::INFINITY;
    for pass in 0..passes {
        let s = 3.0 + pass as f32;
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        std::hint::black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (3 * n * 4) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_reports_a_plausible_bandwidth() {
        let gbs = triad_gb_per_s(8 << 20, 2);
        assert!(gbs.is_finite() && gbs > 0.01, "{gbs}");
        let bytes = triad_array_bytes();
        assert!((64 << 20..=256 << 20).contains(&bytes));
    }
}
