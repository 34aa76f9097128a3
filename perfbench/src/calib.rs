//! Host-speed probe: a fixed compute kernel that belongs to the benchmark,
//! not to the program, timed in CPU seconds on every worker thread.
//!
//! On a shared host, other tenants slow every instruction down for minutes
//! at a time (contended cores, caches and memory), and CPU time inflates
//! with them: in one 8-minute series of identical `mnist_fig5` figures a
//! figure took between 2.05 and 3.07 CPU seconds. The probe slows down in
//! the same phases, and no change to the program can move it, so the
//! untraced run divides its CPU times by the probe's and reports them at
//! the speed of a reference host.

use std::hint::black_box;

/// Rows, inner and output width of the probe's products.
const M: usize = 64;
const K: usize = 256;
const N: usize = 64;
/// Products per thread and probe.
const ROUNDS: usize = 120;
/// Per-thread CPU seconds of one probe on the reference host (a 2-vCPU
/// Xeon VM with AVX-512, in a quiet phase). Normalised times read as CPU
/// seconds on that host.
pub const REFERENCE_S: f64 = 0.03;

/// CPU nanoseconds the calling thread has run, from
/// `/proc/thread-self/schedstat` (steal time excluded); 0 if unreadable.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// One thread's share of the probe: `ROUNDS` float products and as many
/// fixed-point accumulations with a stuck-at mask, over operands that stay
/// in L2. Returns `(CPU seconds, checksum)`.
fn kernel(seed: u32) -> (f64, f32) {
    let a: Vec<f32> = (0..M * K)
        .map(|i| ((i as u32 ^ seed).wrapping_mul(2_654_435_761) >> 24) as f32 / 256.0)
        .collect();
    let b: Vec<f32> = (0..K * N)
        .map(|i| ((i as u32 + seed).wrapping_mul(40_503) >> 8 & 0xff) as f32 / 256.0 - 0.5)
        .collect();
    let qa: Vec<i32> = a.iter().map(|v| (v * 64.0) as i32).collect();
    let qb: Vec<i32> = b.iter().map(|v| (v * 64.0) as i32).collect();
    let mut c = vec![0f32; M * N];
    let mut q = vec![0i32; M * N];
    let started = thread_cpu_ns();
    let mut sum = 0f32;
    for round in 0..ROUNDS {
        let mask = !(1i32 << (round % 16));
        c.iter_mut().for_each(|v| *v = 0.0);
        q.iter_mut().for_each(|v| *v = 0);
        for i in 0..M {
            let (crow, qrow) = (&mut c[i * N..][..N], &mut q[i * N..][..N]);
            for k in 0..K {
                let (x, qx) = (a[i * K + k], qa[i * K + k]);
                let (brow, qbrow) = (&b[k * N..][..N], &qb[k * N..][..N]);
                for j in 0..N {
                    crow[j] += x * brow[j];
                    qrow[j] = (qrow[j] + qx * qbrow[j]) & mask;
                }
            }
        }
        let c = black_box(&c);
        sum += c[round % (M * N)] + black_box(&q)[round % (M * N)] as f32;
    }
    let cpu = thread_cpu_ns().saturating_sub(started) as f64 * 1e-9;
    (cpu, sum)
}

/// Runs the probe on `threads` threads at once and returns the mean CPU
/// seconds per thread.
pub fn probe(threads: usize) -> f64 {
    let results: Vec<(f64, f32)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| s.spawn(move || kernel(t as u32 + 1)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    black_box(results.iter().map(|r| r.1).sum::<f32>());
    results.iter().map(|r| r.0).sum::<f64>() / results.len() as f64
}

/// `reps` probes in a row, appended to `samples`.
pub fn probes(threads: usize, reps: usize, samples: &mut Vec<f64>) {
    samples.extend((0..reps).map(|_| probe(threads)));
}
