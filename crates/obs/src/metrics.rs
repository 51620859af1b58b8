//! A registry of monotonic counters and coarse histograms.
//!
//! [`MetricsRegistry`] is the standard aggregating sink: it implements
//! [`TraceSink`] by folding each event into counters,
//! and offers explicit `record_*` methods for per-session quantities
//! (hops, header bytes, SP calculations) and per-phase wall time that
//! are not derivable from a single event. `rtr-eval` keeps one registry
//! per scenario and serialises them as JSONL lines behind the `--trace`
//! flag.

use crate::event::Event;
use crate::sink::TraceSink;

/// Number of power-of-two buckets in a [`Histogram`]. Bucket 31 is a
/// catch-all for values at or above 2³⁰.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// The two phases of an RTR recovery session, for wall-time attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1: the counterclockwise failure-information collection sweep.
    Collect,
    /// Phase 2: SPT recomputation plus source-route installation/walks.
    Recompute,
}

/// A coarse histogram with power-of-two bucket boundaries.
///
/// Value `0` lands in bucket 0; a value `v > 0` lands in bucket
/// `floor(log2(v)) + 1` (capped at the last bucket), i.e. bucket `i > 0`
/// spans `[2^(i-1), 2^i)`. Coarse by design: wide enough to compare
/// scenario shapes, cheap enough to keep in the hot aggregation loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Index of the bucket `value` falls into.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        let raw = (u64::BITS - value.leading_zeros()) as usize;
        raw.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        if let Some(bucket) = self.buckets.get_mut(Self::bucket_index(value)) {
            *bucket += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the recorded values, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// The raw bucket counts; `buckets()[i]` holds observations in
    /// `[2^(i-1), 2^i)` (bucket 0 holds exact zeros).
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// The buckets with trailing empty buckets dropped — what the JSONL
    /// dump serialises.
    #[must_use]
    pub fn nonempty_prefix(&self) -> &[u64] {
        let len = HISTOGRAM_BUCKETS - self.buckets.iter().rev().take_while(|&&b| b == 0).count();
        self.buckets.get(..len).unwrap_or(&[])
    }

    /// Inclusive upper bound of bucket `i`: the largest value that lands in
    /// it. Bucket 0 holds only zeros; bucket `i > 0` spans
    /// `[2^(i-1), 2^i - 1]`; the final catch-all bucket is unbounded and
    /// reports [`u64::MAX`].
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// The `q`-quantile of the recorded values, reported as the inclusive
    /// upper bound of the bucket holding the rank-`ceil(q·count)`
    /// observation (`q` is clamped to `[0, 1]`). Returns `None` when the
    /// histogram is empty.
    ///
    /// Buckets are power-of-two coarse, so the result is an upper bound on
    /// the true sample quantile that is tight to within a factor of two:
    /// it lands in the same bucket as the brute-force sorted-sample
    /// quantile (the contract pinned by the oracle test below).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }

    /// Folds every observation of `other` into `self` — the aggregation
    /// step that merges per-worker histograms into a service-wide one.
    pub fn merge(&mut self, other: &Histogram) {
        for (acc, part) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *acc += part;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// A detached, plain-data copy of this histogram's state, for
    /// cross-thread export and quantile queries after the live histogram
    /// has moved on.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets,
            count: self.count,
            sum: self.sum,
        }
    }
}

/// Plain-data snapshot of a [`Histogram`]: bucket counts, observation
/// count, and saturating sum, frozen at [`Histogram::snapshot`] time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// Number of observations at snapshot time.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of observations at snapshot time.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the observations, or `None` if the snapshot is empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// The raw bucket counts (see [`Histogram::buckets`]).
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// The `q`-quantile of the snapshot; see [`Histogram::quantile`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the quantile observation, 1-based; q = 0 still needs the
        // first observation.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(Histogram::bucket_upper_bound(i));
            }
        }
        // Unreachable in practice: the bucket counts sum to `count`.
        Some(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1))
    }
}

/// Monotonic counters plus coarse histograms for one aggregation scope
/// (one scenario, in the eval driver's usage).
///
/// Counters advance automatically as events are
/// [`emit`](crate::TraceSink::emit)ted into the registry; histograms of
/// per-session totals are fed by [`finish_session`](Self::finish_session)
/// and [`record_phase_micros`](Self::record_phase_micros), which only the
/// replay driver calls (wall-clock time is measured outside the traced
/// hot path, never inside it).
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    sweep_hops: u64,
    failed_links_appended: u64,
    cross_links_excluded: u64,
    spt_recomputes: u64,
    spt_nodes_touched: u64,
    source_routes_installed: u64,
    packets_discarded: u64,
    baseline_patches: u64,
    baseline_labels_touched: u64,
    baseline_rebuilds: u64,
    sessions: u64,
    hops_per_session: Histogram,
    header_bytes: Histogram,
    sp_calculations: Histogram,
    phase1_micros: Histogram,
    phase2_micros: Histogram,
}

impl MetricsRegistry {
    /// Creates a registry with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event into the counters. Equivalent to
    /// [`emit`](crate::TraceSink::emit).
    pub fn observe(&mut self, event: &Event) {
        match *event {
            Event::SweepHop { .. } => self.sweep_hops += 1,
            Event::FailedLinkAppended { .. } => self.failed_links_appended += 1,
            Event::CrossLinkExcluded { .. } => self.cross_links_excluded += 1,
            Event::SptRecompute { nodes_touched, .. } => {
                self.spt_recomputes += 1;
                self.spt_nodes_touched += nodes_touched as u64;
            }
            Event::SourceRouteInstalled { .. } => self.source_routes_installed += 1,
            Event::PacketDiscarded { .. } => self.packets_discarded += 1,
            Event::BaselinePatched { labels_touched, .. } => {
                self.baseline_patches += 1;
                self.baseline_labels_touched += labels_touched as u64;
            }
            Event::BaselineRebuilt { .. } => self.baseline_rebuilds += 1,
        }
    }

    /// Closes out one recovery session, feeding the per-session
    /// histograms with its phase 1 hop count, final header overhead in
    /// bytes, and number of shortest-path calculations.
    pub fn finish_session(&mut self, hops: u64, header_bytes: u64, sp_calculations: u64) {
        self.sessions += 1;
        self.hops_per_session.record(hops);
        self.header_bytes.record(header_bytes);
        self.sp_calculations.record(sp_calculations);
    }

    /// Attributes `micros` of measured wall time to `phase`.
    pub fn record_phase_micros(&mut self, phase: Phase, micros: u64) {
        match phase {
            Phase::Collect => self.phase1_micros.record(micros),
            Phase::Recompute => self.phase2_micros.record(micros),
        }
    }

    /// Total phase 1 sweep hops observed.
    #[must_use]
    pub fn sweep_hops(&self) -> u64 {
        self.sweep_hops
    }

    /// Total links newly appended to failed-link headers.
    #[must_use]
    pub fn failed_links_appended(&self) -> u64 {
        self.failed_links_appended
    }

    /// Total links newly added to cross-link exclusion headers.
    #[must_use]
    pub fn cross_links_excluded(&self) -> u64 {
        self.cross_links_excluded
    }

    /// Total shortest-path (SPT) recomputations observed.
    #[must_use]
    pub fn spt_recomputes(&self) -> u64 {
        self.spt_recomputes
    }

    /// Total tree labels invalidated and repaired across all SPT
    /// recomputations.
    #[must_use]
    pub fn spt_nodes_touched(&self) -> u64 {
        self.spt_nodes_touched
    }

    /// Total source routes installed into recovery packets.
    #[must_use]
    pub fn source_routes_installed(&self) -> u64 {
        self.source_routes_installed
    }

    /// Total recovery packets discarded.
    #[must_use]
    pub fn packets_discarded(&self) -> u64 {
        self.packets_discarded
    }

    /// Total incremental baseline patches observed.
    #[must_use]
    pub fn baseline_patches(&self) -> u64 {
        self.baseline_patches
    }

    /// Total tree labels re-examined across all incremental baseline
    /// patches — the churn-bench work metric.
    #[must_use]
    pub fn baseline_labels_touched(&self) -> u64 {
        self.baseline_labels_touched
    }

    /// Total from-scratch baseline rebuilds observed.
    #[must_use]
    pub fn baseline_rebuilds(&self) -> u64 {
        self.baseline_rebuilds
    }

    /// Number of recovery sessions closed via
    /// [`finish_session`](Self::finish_session).
    #[must_use]
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// Histogram of phase 1 hops per session.
    #[must_use]
    pub fn hops_per_session(&self) -> &Histogram {
        &self.hops_per_session
    }

    /// Histogram of final header overhead bytes per session.
    #[must_use]
    pub fn header_bytes(&self) -> &Histogram {
        &self.header_bytes
    }

    /// Histogram of shortest-path calculations per session.
    #[must_use]
    pub fn sp_calculations(&self) -> &Histogram {
        &self.sp_calculations
    }

    /// Histogram of measured phase 1 wall time per session (µs).
    #[must_use]
    pub fn phase1_micros(&self) -> &Histogram {
        &self.phase1_micros
    }

    /// Histogram of measured phase 2 wall time per session (µs).
    #[must_use]
    pub fn phase2_micros(&self) -> &Histogram {
        &self.phase2_micros
    }
}

impl TraceSink for MetricsRegistry {
    fn emit(&mut self, event: Event) {
        self.observe(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{LinkId, NodeId};

    #[test]
    fn bucket_index_has_power_of_two_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_count_sum_and_prefix() {
        let mut h = Histogram::new();
        assert!(h.mean().is_none());
        assert!(h.nonempty_prefix().is_empty());
        h.record(0);
        h.record(3);
        h.record(3);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 6);
        assert_eq!(h.mean(), Some(2.0));
        assert_eq!(h.nonempty_prefix(), &[1, 0, 2]);
    }

    #[test]
    fn registry_counts_every_event_kind() {
        let mut reg = MetricsRegistry::new();
        reg.emit(Event::SweepHop {
            node: NodeId(0),
            header_bytes: 2,
        });
        reg.emit(Event::FailedLinkAppended { link: LinkId(1) });
        reg.emit(Event::CrossLinkExcluded { link: LinkId(2) });
        reg.emit(Event::SptRecompute {
            source: NodeId(0),
            nodes_touched: 5,
        });
        reg.emit(Event::SourceRouteInstalled {
            dest: NodeId(3),
            cost: 9,
            hops: 3,
        });
        reg.emit(Event::PacketDiscarded {
            at: NodeId(3),
            reason: crate::DiscardReason::NoPath,
        });
        assert_eq!(reg.sweep_hops(), 1);
        assert_eq!(reg.failed_links_appended(), 1);
        assert_eq!(reg.cross_links_excluded(), 1);
        assert_eq!(reg.spt_recomputes(), 1);
        assert_eq!(reg.spt_nodes_touched(), 5);
        assert_eq!(reg.source_routes_installed(), 1);
        assert_eq!(reg.packets_discarded(), 1);
    }

    /// Deterministic xorshift stream so the oracle test needs no RNG dep.
    fn xorshift_stream(mut state: u64, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    /// Brute-force sorted-sample quantile: the rank-`ceil(q·n)` value.
    fn oracle_quantile(values: &[u64], q: f64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantile_matches_sorted_sample_oracle_bucketwise() {
        // Three shapes: uniform-ish 64-bit noise, a skewed low-range
        // latency-like distribution, and a tiny sample.
        let wide = xorshift_stream(0x5eed, 5000);
        let lowish: Vec<u64> = xorshift_stream(0xbeef, 5000)
            .into_iter()
            .map(|v| v % 10_000)
            .collect();
        let tiny = vec![3u64, 9, 9, 200, 201];
        for values in [&wide, &lowish, &tiny] {
            let mut h = Histogram::new();
            for &v in values.iter() {
                h.record(v);
            }
            for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let got = h.quantile(q).expect("non-empty histogram");
                let oracle = oracle_quantile(values, q);
                // Same power-of-two bucket as the true sample quantile...
                assert_eq!(
                    Histogram::bucket_index(got),
                    Histogram::bucket_index(oracle),
                    "q={q}: {got} vs oracle {oracle}"
                );
                // ...and an upper bound on it, tight to within 2x.
                assert!(got >= oracle, "q={q}: {got} < oracle {oracle}");
                if Histogram::bucket_index(oracle) < HISTOGRAM_BUCKETS - 1 {
                    assert!(got < oracle.max(1) * 2, "q={q}: {got} vs {oracle}");
                }
            }
        }
    }

    #[test]
    fn quantile_pins_p50_p99_p999_on_a_known_sample() {
        // 1000 observations: 900 of value 100, 98 of 5000, 2 of 100_000.
        let mut h = Histogram::new();
        for _ in 0..900 {
            h.record(100);
        }
        for _ in 0..98 {
            h.record(5000);
        }
        for _ in 0..2 {
            h.record(100_000);
        }
        // p50 rank 500 -> value 100, bucket 7 [64,127] -> upper 127.
        assert_eq!(h.quantile(0.5), Some(127));
        // p99 rank 990 -> value 5000, bucket 13 [4096,8191] -> upper 8191.
        assert_eq!(h.quantile(0.99), Some(8191));
        // p999 rank 999 -> value 100_000, bucket 17 -> upper 131071.
        assert_eq!(h.quantile(0.999), Some((1 << 17) - 1));
        assert_eq!(h.quantile(0.0), Some(127), "q=0 is the first observation");
        assert!(h.quantile(1.0).unwrap() >= 100_000);
    }

    #[test]
    fn quantile_is_monotone_in_q_and_none_when_empty() {
        assert_eq!(Histogram::new().quantile(0.5), None);
        let mut h = Histogram::new();
        for v in xorshift_stream(42, 300) {
            h.record(v % 1_000_000);
        }
        let mut prev = 0u64;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile must be monotone at q={q}");
            prev = v;
        }
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let (a_vals, b_vals) = (xorshift_stream(1, 200), xorshift_stream(2, 333));
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut union = Histogram::new();
        for &v in &a_vals {
            a.record(v % 50_000);
            union.record(v % 50_000);
        }
        for &v in &b_vals {
            b.record(v % 50_000);
            union.record(v % 50_000);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn snapshot_freezes_state() {
        let mut h = Histogram::new();
        h.record(7);
        let snap = h.snapshot();
        h.record(9000);
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.sum(), 7);
        assert_eq!(snap.mean(), Some(7.0));
        assert_eq!(snap.quantile(0.5), Some(7));
        assert_eq!(snap.buckets()[Histogram::bucket_index(7)], 1);
        assert_eq!(h.count(), 2, "the live histogram moved on");
    }

    #[test]
    fn bucket_upper_bounds_are_inclusive_and_tight() {
        for i in 0..HISTOGRAM_BUCKETS {
            let hi = Histogram::bucket_upper_bound(i);
            assert_eq!(Histogram::bucket_index(hi), i, "upper bound in bucket");
            if i < HISTOGRAM_BUCKETS - 1 {
                assert_eq!(Histogram::bucket_index(hi + 1), i + 1, "next value leaves");
            }
        }
    }

    #[test]
    fn sessions_and_phase_time_feed_histograms() {
        let mut reg = MetricsRegistry::new();
        reg.finish_session(7, 14, 1);
        reg.record_phase_micros(Phase::Collect, 120);
        reg.record_phase_micros(Phase::Recompute, 80);
        assert_eq!(reg.sessions(), 1);
        assert_eq!(reg.hops_per_session().sum(), 7);
        assert_eq!(reg.header_bytes().sum(), 14);
        assert_eq!(reg.sp_calculations().count(), 1);
        assert_eq!(reg.phase1_micros().sum(), 120);
        assert_eq!(reg.phase2_micros().sum(), 80);
    }
}
