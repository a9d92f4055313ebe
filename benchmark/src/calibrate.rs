//! Host-speed calibration.
//!
//! On a shared host, whole minutes run 20–50% slow, which no run length
//! averages away. A fixed integer kernel, timed in the same process beside
//! the workload, slows with them: over ten minutes on the reference host an
//! `md_balanced` run moved by 25% while its ratio to this kernel stayed
//! within ±3%. The bounded host-time metrics are therefore reported at the
//! reference host's speed, `raw × REFERENCE_S / kernel median`, next to
//! their raw values.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of one [`kernel`] call on the reference host (2-vCPU
/// Intel Xeon) in a quiet period.
pub const REFERENCE_S: f64 = 0.0065;
/// Least host time between two samples, so the kernel costs a few percent
/// of a timed loop.
const EVERY_S: f64 = 0.1;

/// Seconds of a fixed, serially dependent integer loop: no memory traffic
/// and nothing to vectorise, so it measures only how fast the core runs.
fn kernel() -> f64 {
    let start = Instant::now();
    let mut x = 1u64;
    for i in 0..5_000_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i ^ (x >> 29));
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// Kernel samples taken over one process.
pub struct Calibration {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            samples: Vec::new(),
            last: None,
        }
    }

    /// Time the kernel if `EVERY_S` has passed since the last sample.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= EVERY_S)
        {
            self.samples.push(kernel());
            self.last = Some(Instant::now());
        }
    }

    /// How much slower than the reference host this process ran: host
    /// seconds per reference-host second.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples).expect("at least one tick") / REFERENCE_S
    }
}
