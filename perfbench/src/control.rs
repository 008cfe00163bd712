//! Host-speed control for work on the measuring thread.
//!
//! The small shared hosts this runs on drift in speed by a third or more
//! over minutes, more than any bound a benchmark could hold. `mp4`, and
//! `paper-matrix`'s cold and cached cells, run on one thread, the
//! measuring thread, so their times are scaled to a reference host
//! speed: a fixed workload that shares no code with the crates under
//! test — a chain of dependent reads and writes over a 32 KiB table,
//! which stays in the first-level cache — is timed on that thread
//! between operations, and each of those figures is scaled by
//! `REFERENCE_MS / median control time` of the run. Each sample first
//! walks the whole table, so it starts from its own warm cache state and
//! not from the state the program left. Work spread over both cores
//! (scenario passes, the server) is reported as measured: the control
//! did not track it. The traced run reports the control time as
//! `host.control_ms`, and the untraced figures as measured go to
//! standard error.

use std::time::Instant;

/// Control time, in ms, on the reference host: a 2-vCPU Xeon at
/// 2.1 GHz at its usual speed.
pub const REFERENCE_MS: f64 = 6.0;
/// Table size in words (32 KiB, resident in the first-level cache).
const TABLE: usize = 1 << 12;
const ITERATIONS: usize = 1 << 20;

/// Control samples taken over one run.
#[derive(Debug)]
pub struct Control {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for Control {
    fn default() -> Self {
        Control {
            table: vec![1; TABLE],
            samples: Vec::new(),
        }
    }
}

impl Control {
    /// Warms the table, then times the control workload once; returns
    /// its time in ms.
    pub fn sample(&mut self) -> f64 {
        std::hint::black_box(self.table.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        let mask = self.table.len() - 1;
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut i = 0usize;
        for _ in 0..ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            i = (i ^ (x as usize) ^ (self.table[i] as usize)) & mask;
            self.table[i] = self.table[i].wrapping_add(x);
        }
        std::hint::black_box(x ^ self.table[i]);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        ms
    }

    /// Median of every sample.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// The factor that turns a time measured in this run into
    /// reference-host time.
    pub fn time_factor(&self) -> f64 {
        REFERENCE_MS / self.median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_by_the_median_control_time() {
        let mut c = Control::default();
        assert!(c.sample() > 0.0);
        c.samples = vec![100.0, 10.0, 12.0];
        assert_eq!(c.median(), 12.0);
        assert_eq!(c.time_factor(), REFERENCE_MS / 12.0);
    }
}
