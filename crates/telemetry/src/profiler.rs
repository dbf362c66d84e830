//! Wall-clock self-profiling of the event-dispatch loop.
//!
//! Everything here measures *host* time and is therefore
//! non-deterministic by nature. The profiler is kept strictly outside the
//! deterministic state: it observes how long each dispatch took, it never
//! influences what the dispatch does, and its results are reported apart
//! from the snapshot stream the goldens could see.

/// A log₂-bucketed histogram of nanosecond durations.
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))` ns (bucket 0 also takes
/// zero). 48 buckets cover everything up to ~3.25 days per event, which is
/// comfortably beyond any dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; Histogram::BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; Histogram::BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Number of log₂ buckets.
    pub const BUCKETS: usize = 48;

    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one duration in nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        let bucket =
            (64 - u64::leading_zeros(nanos.max(1)) as usize - 1).min(Histogram::BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += nanos;
        self.max = self.max.max(nanos);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Largest sample, nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The bucket counts; bucket `i` spans `[2^i, 2^(i+1))` ns.
    pub fn buckets(&self) -> &[u64; Histogram::BUCKETS] {
        &self.buckets
    }

    /// Upper bound (exclusive, ns) of the smallest bucket prefix holding at
    /// least `fraction` of the samples — a conservative percentile read on
    /// the log₂ grid. `None` when empty.
    pub fn quantile_upper_bound_ns(&self, fraction: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let threshold = (self.count as f64 * fraction.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= threshold.max(1) {
                return Some(1u64 << (i + 1));
            }
        }
        Some(u64::MAX)
    }
}

/// The live profiler: one [`Histogram`] per event kind.
///
/// Kind labels come from the caller (the world's event-kind table), so the
/// profiler stays independent of the simulation crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchProfiler {
    labels: &'static [&'static str],
    histograms: Vec<Histogram>,
}

impl DispatchProfiler {
    /// A profiler with one histogram per label.
    pub fn new(labels: &'static [&'static str]) -> DispatchProfiler {
        DispatchProfiler {
            labels,
            histograms: vec![Histogram::new(); labels.len()],
        }
    }

    /// Records one dispatch of kind `kind` (an index into the label table)
    /// that took `nanos` wall-clock nanoseconds.
    pub fn record(&mut self, kind: usize, nanos: u64) {
        self.histograms[kind].record(nanos);
    }

    /// Total dispatches recorded across all kinds.
    pub fn total_count(&self) -> u64 {
        self.histograms.iter().map(Histogram::count).sum()
    }

    /// Freezes the profiler into its report form, dropping kinds that never
    /// fired.
    pub fn finish(self) -> DispatchProfile {
        DispatchProfile {
            entries: self
                .labels
                .iter()
                .zip(self.histograms)
                .filter(|(_, h)| h.count() > 0)
                .map(|(&label, histogram)| KindProfile { label, histogram })
                .collect(),
        }
    }
}

/// Wall-clock dispatch cost of one event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindProfile {
    /// The event kind's label.
    pub label: &'static str,
    /// Its dispatch-duration histogram.
    pub histogram: Histogram,
}

/// The frozen profile: per-kind histograms of wall-clock dispatch cost,
/// kinds that fired only, in the world's kind order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DispatchProfile {
    /// One entry per event kind that dispatched at least once.
    pub entries: Vec<KindProfile>,
}

impl DispatchProfile {
    /// Total dispatches across all kinds.
    pub fn total_count(&self) -> u64 {
        self.entries.iter().map(|e| e.histogram.count()).sum()
    }

    /// Total wall-clock nanoseconds across all kinds.
    pub fn total_ns(&self) -> u64 {
        self.entries.iter().map(|e| e.histogram.sum_ns()).sum()
    }

    /// The entry for one kind label.
    pub fn kind(&self, label: &str) -> Option<&KindProfile> {
        self.entries.iter().find(|e| e.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(1023); // bucket 9
        h.record(1024); // bucket 10
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 1024);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.buckets()[10], 1);
        assert!((h.mean_ns() - (1 + 2 + 1023 + 1024) as f64 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_upper_bound_walks_the_buckets() {
        let mut h = Histogram::new();
        for _ in 0..9 {
            h.record(10); // bucket 3, upper bound 16
        }
        h.record(1 << 20); // bucket 20
        assert_eq!(h.quantile_upper_bound_ns(0.5), Some(16));
        assert_eq!(h.quantile_upper_bound_ns(1.0), Some(1 << 21));
        assert_eq!(Histogram::new().quantile_upper_bound_ns(0.5), None);
    }

    #[test]
    fn profiler_reports_only_fired_kinds() {
        static LABELS: [&str; 3] = ["a", "b", "c"];
        let mut profiler = DispatchProfiler::new(&LABELS);
        profiler.record(0, 100);
        profiler.record(0, 200);
        profiler.record(2, 50);
        assert_eq!(profiler.total_count(), 3);
        let profile = profiler.finish();
        assert_eq!(profile.entries.len(), 2);
        assert_eq!(profile.entries[0].label, "a");
        assert_eq!(profile.entries[0].histogram.count(), 2);
        assert!(profile.kind("b").is_none());
        assert_eq!(profile.total_ns(), 350);
    }
}
