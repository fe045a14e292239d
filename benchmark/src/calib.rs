//! The run's calibration loops.
//!
//! Two loops that call nothing in the program: a STREAM-style triad over a
//! fixed footprint (reported as `linalg.triad_gbps`, next to the last-level
//! cache size, so the spmv numbers have a same-machine reference) and a fixed
//! chain of dependent multiply-adds (`bench.calib_ms`).
//!
//! The driver wants every end-to-end metric from every workload, and none may
//! be zero, but a metric such as `svc_sat_jobs_per_s` means nothing on a solver
//! workload. There the calibration time stands in, in the metric's unit: it
//! is measured, it is never zero, and it moves only when the machine does —
//! which makes those cells a control for the cells beside them.

use std::time::Instant;

use crate::stats;

/// Doubles per triad array: 3 × 16 MiB.
pub const TRIAD_LEN: usize = 2 << 20;

pub struct Triad {
    /// Bandwidth of the fastest pass, counting 3 × 8 bytes per element.
    pub gbps: f64,
    pub footprint_mib: f64,
    pub passes: usize,
}

/// `a[i] = b[i] + s·c[i]` over three arrays of [`TRIAD_LEN`] doubles, for at
/// least `min_secs`.
pub fn triad(min_secs: f64) -> Triad {
    let mut a = vec![0.0f64; TRIAD_LEN];
    let b = vec![1.5f64; TRIAD_LEN];
    let c = vec![0.25f64; TRIAD_LEN];
    let mut samples = Vec::new();
    let begun = Instant::now();
    while begun.elapsed().as_secs_f64() < min_secs || samples.len() < 5 {
        let s = 1.0 + samples.len() as f64;
        let started = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        std::hint::black_box(&a);
        samples.push(started.elapsed().as_secs_f64());
    }
    let secs = stats::fastest(&samples).expect("pass times are finite");
    Triad {
        gbps: (3 * 8 * TRIAD_LEN) as f64 / secs / 1e9,
        footprint_mib: (3 * 8 * TRIAD_LEN) as f64 / (1 << 20) as f64,
        passes: samples.len(),
    }
}

/// Links of the dependent multiply-add chain of one calibration pass.
const CHAIN: u64 = 4_000_000;
pub const PASSES: usize = 25;

/// Fastest pass of the multiply-add chain, in seconds. The chain is the same
/// work every time, so the fastest pass is the machine's speed and anything
/// slower is interference; the minimum is what keeps the stand-in cells from
/// raising false alarms.
pub fn calibrate() -> f64 {
    (0..PASSES)
        .map(|pass| {
            let mut x = 1.0 + pass as f64 * 1e-3;
            let started = Instant::now();
            for _ in 0..CHAIN {
                x = std::hint::black_box(x * 0.999_999 + 1e-6);
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The calibration time expressed in an end-to-end metric's unit.
pub fn stand_in(calib_s: f64, unit: &str) -> f64 {
    match unit {
        "s" => calib_s,
        "ms" => calib_s * 1e3,
        // A rate: calibration passes per second.
        _ => 1.0 / calib_s,
    }
}
