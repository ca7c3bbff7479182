//! Host speed, measured by a fixed kernel the benchmark owns.
//!
//! The benchmark runs on shared CPUs: the same fixed loop takes from one
//! to more than two times its unloaded time, in swings that last minutes,
//! and within seconds too. Timings are therefore scaled to a reference
//! host speed. Each stretch of work is paired with this kernel's times
//! sampled right before or after it, while no program thread has work:
//! between searches, before a service starts, or once every request of
//! a serving stretch is answered (the fleet's shards then only wake to
//! poll their sockets, and snapshot when the benchmark asks). A time `t`
//! is reported as `t × speed` with `speed = REFERENCE_NS / median kernel
//! time` (a rate is divided by it). The kernel is benchmark code, so a
//! change to the program cannot move it; what it removes is the host's
//! load, not the program's cost.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on an unloaded host (about the fastest of many runs
/// on a 2-vCPU Intel Xeon virtual machine): the speed that scaled metrics
/// are reported at.
const REFERENCE_NS: f64 = 3.3e6;

/// One run of the kernel: complex arithmetic over an amplitude array, as
/// the dense engine does, bit operations at random offsets into a
/// 256 KiB word table, as the stabilizer engine and pointer-heavy code
/// do, and a sort of random keys, branchy integer code like the
/// compiler's. Of the kernels tried, the sort followed the searches'
/// slowdowns most closely, the other two next. Only the work is timed;
/// the buffers are filled before, so the process's heap state cannot
/// move the result.
fn kernel_ns() -> u64 {
    let (mut re, mut im) = (vec![1.0f64; 1 << 12], vec![0.0f64; 1 << 12]);
    let mut words = vec![0u64; 1 << 15];
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut keys: Vec<u32> = (0..50_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    let (c, s) = (0.8f64.cos(), 0.8f64.sin());
    let t = Instant::now();
    for pass in 0..72 {
        let stride = 1 << (pass % 12);
        for i in (0..re.len()).filter(|i| i & stride == 0) {
            let j = i | stride;
            let (a, b) = (re[i], im[i]);
            re[i] = c * a - s * im[j];
            im[i] = c * b + s * re[j];
            re[j] = c * re[j] - s * b;
            im[j] = c * im[j] + s * a;
        }
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..600_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (words.len() - 1);
        words[i] ^= x.rotate_left(words[i].count_ones());
    }
    keys.sort_unstable();
    let ns = t.elapsed().as_nanos() as u64;
    black_box((re, im, words, keys));
    ns
}

/// One sample of the host's speed relative to the reference: above 1
/// when faster, below when slower. Callers take medians of samples.
pub fn sample() -> f64 {
    REFERENCE_NS / kernel_ns() as f64
}

/// The median of `n` samples taken back to back.
pub fn speed(n: usize) -> f64 {
    let mut s: Vec<f64> = (0..n).map(|_| sample()).collect();
    crate::report::median(&mut s)
}
