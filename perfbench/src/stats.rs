//! Sample statistics, metric names, and the result line.
//!
//! Percentiles use the nearest-rank rule. A percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it, so p50 needs 20
//! samples, p90 needs 100 and p99 needs 1000.

use std::fmt::Write as _;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest of `wanted` that `n` samples support.
pub fn tail_percentile(n: usize, wanted: &[f64]) -> Option<f64> {
    wanted
        .iter()
        .copied()
        .filter(|&p| supported(n, p))
        .fold(None, |best, p| Some(best.map_or(p, |b: f64| b.max(p))))
}

/// Nearest-rank percentile of unsorted samples, with no support check
/// (pass/fail criteria and sanity bounds only; reported numbers go
/// through [`reported`]).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The `p`-th percentile of `samples`, refused when too few samples lie
/// beyond it.
pub fn reported(what: &str, samples: &[f64], p: f64) -> Result<f64, String> {
    if supported(samples.len(), p) {
        Ok(percentile(samples, p))
    } else {
        Err(format!(
            "{what}: {} samples cannot support p{p} (need {MIN_BEYOND} beyond it)",
            samples.len()
        ))
    }
}

/// The median, for set-up repetitions and other small sample sets.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// 64-bit FNV-1a, the digest every output check compares.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one number into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (slices, cells, served jobs, read-backs).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed an output check.
    pub failed: u64,
    /// Output checks that failed, one message each.
    pub check_failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric; a later value under the same name replaces it.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.metrics.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.metrics.push((name, value, unit)),
        }
    }

    /// Records an output check; a failure counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    /// Removes and returns the value recorded under `name`.
    pub fn take(&mut self, name: &str) -> Option<f64> {
        let i = self.metrics.iter().position(|(n, _, _)| n == name)?;
        Some(self.metrics.remove(i).1)
    }

    /// The metric names recorded so far, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    ///
    /// # Errors
    ///
    /// Refuses invalid metric names and non-finite values.
    pub fn result_line(&self) -> Result<String, String> {
        let mut out = String::new();
        let correct = self.check_failures.is_empty() && self.failed == 0;
        write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !valid_metric_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_reported_only_with_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(100, 90.0));
        assert!(!supported(99, 90.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(!supported(0, 50.0));
        let wanted = [50.0, 90.0, 99.0];
        assert_eq!(tail_percentile(1500, &wanted), Some(99.0));
        assert_eq!(tail_percentile(500, &wanted), Some(90.0));
        assert_eq!(tail_percentile(40, &wanted), Some(50.0));
        assert_eq!(tail_percentile(5, &wanted), None);
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(reported("x", &samples, 90.0).is_err());
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(reported("x", &samples, 90.0), Ok(90.0));
    }

    #[test]
    fn nearest_rank_and_median() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 50.0), 3.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        assert_eq!(percentile(&samples, 1.0), 1.0);
        assert_eq!(median(&samples), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for ok in [
            "setup_s",
            "serve.run_ms.fresh.p50",
            "core.sim_ns_per_ref.mem5",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "a:b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("latency_ms", 1.25, "ms");
        out.metric("latency_ms", 1.5, "ms");
        let line = out.result_line().unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        out.check(false, || "mismatch".into());
        assert!(out
            .result_line()
            .unwrap()
            .starts_with("{\"correct\": false"));
        out.metric("bad name", 1.0, "ms");
        assert!(out.result_line().is_err());
    }
}
