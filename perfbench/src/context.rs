//! The context every report states: build profile, parallelism, key
//! sizes, seed, commit and a host-speed probe.

use std::hint::black_box;

use crate::stats::now;

/// Times a fixed integer kernel written here, in ms. It is printed to
/// help read a slow run; no metric is ever divided by it.
pub fn host_probe_ms() -> f64 {
    let start = now();
    let mut x: u64 = black_box(0x2545_f491_4f6c_dd1d);
    for i in 0..40_000_000u64 {
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i) ^ (x >> 29);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Threads the host offers this process.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test, as `run.sh` passes it in `PERFBENCH_COMMIT`;
/// `"unknown"` when it is not set.
pub fn commit() -> String {
    std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())
}
