//! Stress and failure-injection tests for the simulated device.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gosh_gpu::stream::Event;
use gosh_gpu::{Access, Device, DeviceConfig, DeviceError, LaunchConfig, Stream};

#[test]
fn thousands_of_launches_are_cheap_and_correct() {
    let dev = Device::new(DeviceConfig::titan_x());
    let buf = dev.alloc_floats(256).unwrap();
    let t0 = std::time::Instant::now();
    for _ in 0..5000 {
        dev.launch(LaunchConfig::new(256, 0), |w, _| {
            buf.axpy_row(w.id(), 1.0, &[1.0]);
        });
    }
    let dt = t0.elapsed().as_secs_f64();
    let host = buf.to_host_vec();
    assert!(host.iter().all(|&x| x == 5000.0));
    assert!(dt < 10.0, "5000 launches took {dt}s");
}

#[test]
fn kernels_on_two_devices_do_not_interfere() {
    let a = Device::new(DeviceConfig::titan_x());
    let b = Device::new(DeviceConfig::titan_x());
    let buf_a = a.alloc_floats(64).unwrap();
    let buf_b = b.alloc_floats(64).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..100 {
                a.launch(LaunchConfig::new(64, 0), |w, _| {
                    buf_a.axpy_row(w.id(), 1.0, &[1.0])
                });
            }
        });
        s.spawn(|| {
            for _ in 0..100 {
                b.launch(LaunchConfig::new(64, 0), |w, _| {
                    buf_b.axpy_row(w.id(), 2.0, &[1.0])
                });
            }
        });
    });
    assert!(buf_a.to_host_vec().iter().all(|&x| x == 100.0));
    assert!(buf_b.to_host_vec().iter().all(|&x| x == 200.0));
}

#[test]
fn allocation_pressure_with_churning_buffers() {
    // Allocate/free from several threads near the memory ceiling; the
    // accounting must never go negative or exceed the budget.
    let dev = Device::new(DeviceConfig::tiny(1 << 20));
    std::thread::scope(|s| {
        for t in 0..8 {
            let dev = dev.clone();
            s.spawn(move || {
                let mut held = Vec::new();
                for i in 0..200 {
                    match dev.alloc_floats(1024 * ((t + i) % 7 + 1)) {
                        Ok(b) => held.push(b),
                        Err(DeviceError::OutOfMemory { .. }) => held.clear(),
                    }
                    assert!(dev.allocated_bytes() <= 1 << 20);
                }
            });
        }
    });
    assert_eq!(dev.allocated_bytes(), 0);
}

#[test]
fn stream_pipeline_with_device_work() {
    // Copy → kernel → copy-back on a stream while the host waits on an
    // event: the §3.3.2 overlap structure in miniature.
    let dev = Device::new(DeviceConfig::titan_x());
    let buf = Arc::new(dev.upload_floats(&vec![1.0; 128]).unwrap());
    let stream = Stream::new();
    let result = Arc::new(parking_lot::Mutex::new(Vec::new()));

    let (d, b, _r) = (dev.clone(), buf.clone(), result.clone());
    stream.enqueue(move || {
        d.launch(LaunchConfig::new(128, 4), |w, scratch| {
            scratch[0] = b.load(w.id()) * 3.0;
            b.store(w.id(), scratch[0]);
        });
    });
    let (b2, r2) = (buf.clone(), result.clone());
    stream.enqueue(move || {
        *r2.lock() = b2.to_host_vec();
    });
    let ev = stream.record_event();
    ev.wait();
    assert!(result.lock().iter().all(|&x| x == 3.0));
}

#[test]
fn event_wait_from_many_threads() {
    let ev = Event::new();
    let woke = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for _ in 0..8 {
            let (ev, woke) = (ev.clone(), woke.clone());
            s.spawn(move || {
                ev.wait();
                woke.fetch_add(1, Ordering::SeqCst);
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(woke.load(Ordering::SeqCst), 0);
        ev.signal();
    });
    assert_eq!(woke.load(Ordering::SeqCst), 8);
}

#[test]
fn counters_are_exact_under_concurrency() {
    // 64 kernels of known cost from 4 threads: totals must be exact, not
    // approximately right — the cost model depends on it.
    let dev = Device::new(DeviceConfig::titan_x());
    let buf = dev.alloc_floats(32).unwrap();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let dev = dev.clone();
            let buf = &buf;
            s.spawn(move || {
                for _ in 0..16 {
                    dev.launch(LaunchConfig::new(10, 32), |w, scratch| {
                        w.global_read_rows(buf, &[0], 32, &mut scratch[..32], Access::Coalesced);
                    });
                }
            });
        }
    });
    let snap = dev.snapshot();
    assert_eq!(snap.kernels, 64);
    assert_eq!(snap.warps, 640);
    assert_eq!(snap.mem_instructions, 640);
    assert_eq!(snap.transactions, 640 * 4);
}
