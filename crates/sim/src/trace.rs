//! Time-series recording.
//!
//! The experiments in the paper are reported as time series (Fig. 6) and
//! per-window aggregates (Fig. 5). [`TimeSeries`] is the common recording
//! structure used by devices, aggregators and the benchmark harness; it keeps
//! `(SimTime, f64)` samples in insertion order and offers the aggregation
//! helpers the figures need (windowed sums, means, min/max, resampling and
//! CSV export).

use crate::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// One recorded sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Sample value (unit is defined by the producer, e.g. mA or mWh).
    pub value: f64,
}

/// Summary statistics over a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesStats {
    /// Number of samples.
    pub count: usize,
    /// Minimum value (0 for an empty series).
    pub min: f64,
    /// Maximum value (0 for an empty series).
    pub max: f64,
    /// Arithmetic mean (0 for an empty series).
    pub mean: f64,
    /// Population standard deviation (0 for an empty series).
    pub std_dev: f64,
    /// Sum of all values.
    pub sum: f64,
}

/// Accumulators over a pruned sample prefix. The folds happen in sample
/// order, so [`TimeSeries::sum`] and [`TimeSeries::stats`] on a pruned
/// series reproduce the unpruned results bit-for-bit (same float operations
/// in the same order) for `count`, `sum`, `mean`, `min` and `max`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PrunedPrefix {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
}

/// An append-only named time series, optionally pruned to a bounded
/// resident window via [`prune_before`](TimeSeries::prune_before).
///
/// # Examples
///
/// ```
/// use rtem_sim::time::SimTime;
/// use rtem_sim::trace::TimeSeries;
///
/// let mut series = TimeSeries::new("device-1 current (mA)");
/// series.push(SimTime::from_millis(100), 120.5);
/// series.push(SimTime::from_millis(200), 118.0);
/// assert_eq!(series.len(), 2);
/// assert!((series.stats().mean - 119.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    name: String,
    samples: Vec<Sample>,
    /// Sealed summary of pruned samples; `None` until the first prune, so
    /// an unpruned series is unchanged.
    pruned: Option<PrunedPrefix>,
}

impl TimeSeries {
    /// Creates an empty series with a human-readable name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
            pruned: None,
        }
    }

    /// Name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples ever recorded, including pruned ones — pruning
    /// never changes this count.
    pub fn len(&self) -> usize {
        self.pruned.map_or(0, |p| p.count) + self.samples.len()
    }

    /// Number of samples still resident in memory.
    pub fn retained_len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if the series never recorded a sample.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite — NaN propagating into the figures is
    /// always a bug in the producing model.
    pub fn push(&mut self, at: SimTime, value: f64) {
        assert!(value.is_finite(), "time-series value must be finite");
        self.samples.push(Sample { at, value });
    }

    /// The resident samples in insertion order (all samples unless the
    /// series was pruned).
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Drops resident samples with `at < cutoff`, folding them into sealed
    /// accumulators so [`len`](Self::len), [`sum`](Self::sum) and the
    /// `count`/`sum`/`mean`/`min`/`max` of [`stats`](Self::stats) keep
    /// their full-history values bit-exactly. Windowed helpers and
    /// [`integrate`](Self::integrate) see only the retained suffix
    /// afterwards. Samples are time-ordered in every producer, so this
    /// prunes a prefix.
    pub fn prune_before(&mut self, cutoff: SimTime) {
        let cut = self.samples.iter().take_while(|s| s.at < cutoff).count();
        if cut == 0 {
            return;
        }
        let pruned = self.pruned.get_or_insert(PrunedPrefix {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        });
        for s in self.samples.drain(..cut) {
            pruned.count += 1;
            pruned.sum += s.value;
            pruned.min = pruned.min.min(s.value);
            pruned.max = pruned.max.max(s.value);
        }
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.samples.iter().map(|s| (s.at, s.value))
    }

    /// Time of the first sample.
    pub fn start(&self) -> Option<SimTime> {
        self.samples.first().map(|s| s.at)
    }

    /// Time of the last sample.
    pub fn end(&self) -> Option<SimTime> {
        self.samples.last().map(|s| s.at)
    }

    /// Sum of every sample value ever recorded. The fold continues from the
    /// sealed pruned-prefix sum, so the result is bit-identical with the
    /// unpruned series.
    pub fn sum(&self) -> f64 {
        self.samples
            .iter()
            .fold(self.pruned.map_or(0.0, |p| p.sum), |acc, s| acc + s.value)
    }

    /// Summary statistics over every sample ever recorded. On a pruned
    /// series, `count`, `sum`, `mean`, `min` and `max` keep their exact
    /// full-history values; `std_dev` is computed over the retained
    /// suffix only (the two-pass deviation fold needs the samples).
    pub fn stats(&self) -> SeriesStats {
        let count = self.len();
        if count == 0 {
            return SeriesStats {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                std_dev: 0.0,
                sum: 0.0,
            };
        }
        let sum = self.sum();
        let mean = sum / count as f64;
        let mut min = self.pruned.map_or(f64::INFINITY, |p| p.min);
        let mut max = self.pruned.map_or(f64::NEG_INFINITY, |p| p.max);
        let mut var_acc = 0.0;
        for s in &self.samples {
            min = min.min(s.value);
            max = max.max(s.value);
            let d = s.value - mean;
            var_acc += d * d;
        }
        let var_count = if self.samples.is_empty() {
            count
        } else {
            self.samples.len()
        };
        SeriesStats {
            count,
            min,
            max,
            mean,
            std_dev: (var_acc / var_count as f64).sqrt(),
            sum,
        }
    }

    /// Resident samples whose timestamp falls in `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> TimeSeries {
        TimeSeries {
            name: self.name.clone(),
            samples: self
                .samples
                .iter()
                .filter(|s| s.at >= from && s.at < to)
                .copied()
                .collect(),
            pruned: None,
        }
    }

    /// Splits the series into fixed-width windows starting at `origin` and
    /// returns the sum of each window. Used for the stacked bars of Fig. 5.
    pub fn windowed_sums(&self, origin: SimTime, width: SimDuration) -> Vec<f64> {
        assert!(!width.is_zero(), "window width must be non-zero");
        let Some(end) = self.end() else {
            return Vec::new();
        };
        let mut sums = Vec::new();
        let mut window_start = origin;
        while window_start <= end {
            let window_end = window_start + width;
            let sum = self
                .samples
                .iter()
                .filter(|s| s.at >= window_start && s.at < window_end)
                .map(|s| s.value)
                .sum();
            sums.push(sum);
            window_start = window_end;
        }
        sums
    }

    /// Splits the series into fixed-width windows and returns each window's mean
    /// (empty windows yield 0).
    pub fn windowed_means(&self, origin: SimTime, width: SimDuration) -> Vec<f64> {
        assert!(!width.is_zero(), "window width must be non-zero");
        let Some(end) = self.end() else {
            return Vec::new();
        };
        let mut means = Vec::new();
        let mut window_start = origin;
        while window_start <= end {
            let window_end = window_start + width;
            let mut count = 0usize;
            let mut sum = 0.0;
            for s in self
                .samples
                .iter()
                .filter(|s| s.at >= window_start && s.at < window_end)
            {
                count += 1;
                sum += s.value;
            }
            means.push(if count == 0 { 0.0 } else { sum / count as f64 });
            window_start = window_end;
        }
        means
    }

    /// Integrates the series with the trapezoidal rule, interpreting values as
    /// a rate (e.g. mA) and returning rate × seconds (e.g. mA·s).
    pub fn integrate(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        self.samples
            .windows(2)
            .map(|w| {
                let dt = w[1].at.duration_since(w[0].at).as_secs_f64();
                0.5 * (w[0].value + w[1].value) * dt
            })
            .sum()
    }

    /// Renders the series as a two-column CSV (`time_s,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 16 + 32);
        out.push_str("time_s,value\n");
        for s in &self.samples {
            let _ = writeln!(out, "{:.6},{:.6}", s.at.as_secs_f64(), s.value);
        }
        out
    }

    /// Merges another series into this one, keeping global time order.
    pub fn merge(&mut self, other: &TimeSeries) {
        self.samples.extend_from_slice(&other.samples);
        self.samples.sort_by_key(|s| s.at);
    }
}

impl Extend<(SimTime, f64)> for TimeSeries {
    fn extend<T: IntoIterator<Item = (SimTime, f64)>>(&mut self, iter: T) {
        for (at, value) in iter {
            self.push(at, value);
        }
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = (SimTime, f64)>>(iter: T) -> Self {
        let mut series = TimeSeries::new("unnamed");
        series.extend(iter);
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[(u64, f64)]) -> TimeSeries {
        values
            .iter()
            .map(|&(ms, v)| (SimTime::from_millis(ms), v))
            .collect()
    }

    #[test]
    fn stats_on_empty_series_are_zero() {
        let s = TimeSeries::new("empty");
        let st = s.stats();
        assert_eq!(st.count, 0);
        assert_eq!(st.sum, 0.0);
        assert_eq!(st.mean, 0.0);
        assert!(s.is_empty());
        assert_eq!(s.start(), None);
        assert_eq!(s.end(), None);
    }

    #[test]
    fn stats_basic() {
        let s = series(&[(0, 1.0), (100, 2.0), (200, 3.0), (300, 4.0)]);
        let st = s.stats();
        assert_eq!(st.count, 4);
        assert_eq!(st.min, 1.0);
        assert_eq!(st.max, 4.0);
        assert!((st.mean - 2.5).abs() < 1e-12);
        assert!((st.sum - 10.0).abs() < 1e-12);
        assert!((st.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_values_rejected() {
        let mut s = TimeSeries::new("bad");
        s.push(SimTime::ZERO, f64::NAN);
    }

    #[test]
    fn window_filters_half_open_interval() {
        let s = series(&[(0, 1.0), (100, 2.0), (200, 3.0), (300, 4.0)]);
        let w = s.window(SimTime::from_millis(100), SimTime::from_millis(300));
        assert_eq!(w.len(), 2);
        assert_eq!(w.samples()[0].value, 2.0);
        assert_eq!(w.samples()[1].value, 3.0);
    }

    #[test]
    fn windowed_sums_cover_all_samples() {
        let s = series(&[(0, 1.0), (100, 1.0), (1000, 2.0), (1500, 2.0), (2100, 5.0)]);
        let sums = s.windowed_sums(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(sums, vec![2.0, 4.0, 5.0]);
        assert!((sums.iter().sum::<f64>() - s.sum()).abs() < 1e-12);
    }

    #[test]
    fn windowed_means_handle_empty_windows() {
        let s = series(&[(0, 2.0), (2100, 4.0)]);
        let means = s.windowed_means(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(means, vec![2.0, 0.0, 4.0]);
    }

    #[test]
    fn integrate_constant_rate() {
        // 100 mA held for 10 s sampled every second -> 1000 mA·s.
        let s: TimeSeries = (0..=10).map(|i| (SimTime::from_secs(i), 100.0)).collect();
        assert!((s.integrate() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn integrate_needs_two_samples() {
        let s = series(&[(0, 100.0)]);
        assert_eq!(s.integrate(), 0.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = series(&[(0, 1.0), (500, 2.5)]);
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,value");
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with("0.5"));
    }

    #[test]
    fn pruning_preserves_exact_count_sum_mean_min_max() {
        let mut full = series(&[(0, 1.5), (100, 2.25), (200, 0.5), (300, 4.0), (400, 3.125)]);
        let mut pruned = full.clone();
        pruned.prune_before(SimTime::from_millis(150));
        pruned.prune_before(SimTime::from_millis(350)); // incremental prune folds on
        assert_eq!(pruned.retained_len(), 1);
        assert_eq!(pruned.len(), full.len());
        let (a, b) = (full.stats(), pruned.stats());
        assert_eq!(a.count, b.count);
        assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "sum is bit-exact");
        assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "mean is bit-exact");
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        // Growth after pruning keeps folding in recording order.
        full.push(SimTime::from_millis(500), 7.75);
        pruned.push(SimTime::from_millis(500), 7.75);
        assert_eq!(full.sum().to_bits(), pruned.sum().to_bits());
        assert!(!pruned.is_empty());
    }

    #[test]
    fn pruning_everything_keeps_totals() {
        let mut s = series(&[(0, 2.0), (100, 4.0)]);
        s.prune_before(SimTime::from_secs(10));
        assert_eq!(s.retained_len(), 0);
        assert_eq!(s.len(), 2);
        let st = s.stats();
        assert_eq!(st.count, 2);
        assert_eq!(st.mean, 3.0);
        assert_eq!(st.min, 2.0);
        assert_eq!(st.max, 4.0);
    }

    #[test]
    fn merge_keeps_time_order() {
        let mut a = series(&[(0, 1.0), (200, 3.0)]);
        let b = series(&[(100, 2.0)]);
        a.merge(&b);
        let times: Vec<u64> = a.iter().map(|(t, _)| t.as_micros()).collect();
        assert_eq!(times, vec![0, 100_000, 200_000]);
    }
}
