//! Isolated timing loops over one public function.

use std::time::Instant;

use crate::stats;

/// Seconds every µbench number is measured for, at least.
pub const MIN_SECS: f64 = 0.2;

/// One µbench result.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Nanoseconds per call of the closure in the fastest batch.
    pub ns_per_call: f64,
    /// Batches timed.
    pub batches: usize,
}

/// Calls `f` in batches for at least `min_secs` and returns the fastest
/// batch's time per call (every batch is the same work, and interference only
/// adds time). The batch size is grown until one batch takes about a
/// millisecond, so the clock is read rarely next to the work.
pub fn time_calls(min_secs: f64, mut f: impl FnMut()) -> Timing {
    let mut per_batch = 1usize;
    loop {
        let started = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        if started.elapsed().as_secs_f64() >= 1e-3 || per_batch >= 1 << 24 {
            break;
        }
        per_batch *= 2;
    }
    let mut samples = Vec::new();
    let begun = Instant::now();
    while begun.elapsed().as_secs_f64() < min_secs || samples.len() < 5 {
        let started = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        samples.push(started.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    Timing {
        ns_per_call: stats::fastest(&samples).expect("batch times are finite"),
        batches: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_grows_with_the_work() {
        let work = |n: u64| {
            move || {
                let mut x = 1u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
                }
                std::hint::black_box(x);
            }
        };
        let small = time_calls(0.02, work(100));
        let large = time_calls(0.02, work(10_000));
        assert!(large.ns_per_call > 10.0 * small.ns_per_call);
        assert!(small.batches >= 5);
    }
}
