//! Exact order statistics over raw samples, and the process's peak memory.

use std::time::Duration;

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer makes the tail one or two outliers deep.
pub const MIN_BEYOND: usize = 10;

/// Raw samples of one quantity. Percentiles are nearest-rank order
/// statistics of the samples themselves, never histogram buckets.
/// Stored as `f32` (seven significant digits) to keep the benchmark's
/// own footprint out of the memory it measures.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f32>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v as f32);
    }

    /// Adds a duration, in microseconds.
    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().map(|&v| f64::from(v)).sum()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    fn sorted(&self) -> Vec<f32> {
        let mut v = self.0.clone();
        v.sort_by(f32::total_cmp);
        v
    }

    /// The nearest-rank `q`-quantile, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie above it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.0.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n < rank + MIN_BEYOND {
            return None;
        }
        self.sorted().get(rank - 1).map(|&v| f64::from(v))
    }

    /// The median, whatever the sample count (0 when empty). For small
    /// repeat counts such as set-up times, where no tail is claimed.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => f64::from(v[n / 2]),
            _ => (f64::from(v[n / 2 - 1]) + f64::from(v[n / 2])) / 2.0,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
