//! Report verification / anomaly detection.
//!
//! "The aggregator uses an additional system-level complementary measurement
//! (sum, average, etc.) along with the measurements of all the devices in
//! the network to detect anomalies in the reported value" (§I, §II-A). The
//! aggregator has its own electrical connection and INA219, so per
//! verification window it can compare:
//!
//! * the **sum of device-reported** mean currents, against
//! * its **own upstream measurement** of the whole network.
//!
//! The upstream measurement is expected to exceed the device sum slightly
//! (ohmic losses + sensor offsets, the 0.9–8.2 % of Fig. 5); a device
//! *under-reporting* its consumption widens the gap beyond the tolerance
//! band and raises an anomaly. An entropy-based detector in the style of the
//! paper's reference \[8\] (Singh et al., theft detection in AMI networks) is
//! provided as a second, per-device signal.

use rtem_net::packet::DeviceId;
use rtem_sensors::energy::Milliamps;
use std::collections::{vec_deque, BTreeMap, VecDeque};

/// Configuration of the window verifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifierConfig {
    /// Expected relative overhead of the upstream measurement over the device
    /// sum due to ohmic losses (fraction, e.g. 0.05 for 5 %).
    pub expected_loss_fraction: f64,
    /// Additional absolute tolerance in mA covering sensor offsets and noise.
    pub absolute_tolerance_ma: f64,
    /// Additional relative tolerance (fraction of the upstream measurement).
    pub relative_tolerance: f64,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            expected_loss_fraction: 0.045,
            absolute_tolerance_ma: 3.0,
            relative_tolerance: 0.05,
        }
    }
}

/// Verdict for one verification window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowVerdict {
    /// Sum of device-reported mean currents in the window.
    pub reported_sum_ma: f64,
    /// The aggregator's own upstream measurement.
    pub measured_total_ma: f64,
    /// Gap between measurement and the loss-adjusted reported sum, in mA
    /// (positive = devices reported less than expected).
    pub residual_ma: f64,
    /// Whether the residual exceeded the tolerance band.
    pub anomalous: bool,
}

/// Sliding-window verifier comparing reported and measured totals.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowVerifier {
    config: VerifierConfig,
    windows_checked: u64,
    anomalies: u64,
}

impl WindowVerifier {
    /// Creates a verifier.
    pub fn new(config: VerifierConfig) -> Self {
        WindowVerifier {
            config,
            windows_checked: 0,
            anomalies: 0,
        }
    }

    /// Checks one window.
    pub fn check(&mut self, reported_sum: Milliamps, measured_total: Milliamps) -> WindowVerdict {
        self.windows_checked += 1;
        let expected_total = reported_sum.value() * (1.0 + self.config.expected_loss_fraction);
        let residual = measured_total.value() - expected_total;
        let tolerance = self.config.absolute_tolerance_ma
            + self.config.relative_tolerance * measured_total.value().abs();
        let anomalous = residual.abs() > tolerance;
        if anomalous {
            self.anomalies += 1;
        }
        WindowVerdict {
            reported_sum_ma: reported_sum.value(),
            measured_total_ma: measured_total.value(),
            residual_ma: residual,
            anomalous,
        }
    }

    /// Number of windows checked so far.
    pub fn windows_checked(&self) -> u64 {
        self.windows_checked
    }

    /// Number of anomalous windows.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }
}

impl Default for WindowVerifier {
    fn default() -> Self {
        WindowVerifier::new(VerifierConfig::default())
    }
}

/// Per-device entropy-based theft detector (after the paper's reference \[8\]).
///
/// The detector maintains a histogram of each device's reported mean current
/// and flags devices whose recent reporting distribution collapses (very low
/// entropy at a suspiciously low level) compared with their own history —
/// the signature of a constant, under-reported value replacing real
/// measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct EntropyDetector {
    bin_width_ma: f64,
    history_len: usize,
    recent_len: usize,
    /// Each device's last `history_len + recent_len` reports, oldest first.
    /// A ring, so recording a report past the bound pops one value and
    /// pushes one: O(1) however long the window.
    histories: BTreeMap<DeviceId, VecDeque<f64>>,
}

impl EntropyDetector {
    /// Creates a detector with the given histogram bin width and window
    /// lengths.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width_ma` is not positive or the windows are empty.
    pub fn new(bin_width_ma: f64, history_len: usize, recent_len: usize) -> Self {
        assert!(bin_width_ma > 0.0, "bin width must be positive");
        assert!(
            history_len > 0 && recent_len > 0,
            "windows must be non-empty"
        );
        EntropyDetector {
            bin_width_ma,
            history_len,
            recent_len,
            histories: BTreeMap::new(),
        }
    }

    /// A configuration suitable for the testbed's 10 Hz reporting.
    pub fn testbed() -> Self {
        EntropyDetector::new(5.0, 600, 100)
    }

    /// Feeds one reported mean current for `device`.
    pub fn observe(&mut self, device: DeviceId, mean_current_ma: f64) {
        let history = self.histories.entry(device).or_default();
        if history.len() == self.history_len + self.recent_len {
            history.pop_front();
        }
        history.push_back(mean_current_ma);
    }

    fn shannon_entropy(&self, values: vec_deque::Iter<'_, f64>) -> f64 {
        let n = values.len();
        if n == 0 {
            return 0.0;
        }
        let mut bins: BTreeMap<i64, usize> = BTreeMap::new();
        for v in values {
            let bin = (v / self.bin_width_ma).floor() as i64;
            *bins.entry(bin).or_default() += 1;
        }
        let n = n as f64;
        bins.values()
            .map(|&count| {
                let p = count as f64 / n;
                -p * p.log2()
            })
            .sum()
    }

    /// Entropy of the device's recent reports, if enough data exists.
    pub fn recent_entropy(&self, device: DeviceId) -> Option<f64> {
        let history = self.histories.get(&device)?;
        if history.len() < self.recent_len {
            return None;
        }
        Some(self.shannon_entropy(history.range(history.len() - self.recent_len..)))
    }

    /// Returns `true` when the device's recent reports look suspicious:
    /// their entropy dropped to less than half of the historical entropy
    /// *and* their mean dropped below half of the historical mean.
    pub fn is_suspicious(&self, device: DeviceId) -> bool {
        let Some(history) = self.histories.get(&device) else {
            return false;
        };
        if history.len() < self.recent_len * 2 {
            return false;
        }
        let split = history.len() - self.recent_len;
        let old = history.range(..split);
        let recent = history.range(split..);
        let old_entropy = self.shannon_entropy(old.clone());
        let recent_entropy = self.shannon_entropy(recent.clone());
        let old_mean: f64 = old.sum::<f64>() / split as f64;
        let recent_mean: f64 = recent.sum::<f64>() / self.recent_len as f64;
        recent_entropy < 0.5 * old_entropy && recent_mean < 0.5 * old_mean
    }

    /// Devices currently flagged as suspicious.
    pub fn suspicious_devices(&self) -> Vec<DeviceId> {
        self.histories
            .keys()
            .copied()
            .filter(|&d| self.is_suspicious(d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_sim::rng::SimRng;

    /// The detector before its windows became rings: each history a `Vec`
    /// shifted by `drain` once it outgrows the bound. Kept verbatim as the
    /// oracle the ring must match bit for bit.
    #[derive(Debug, Clone, PartialEq)]
    pub struct VecEntropyDetector {
        bin_width_ma: f64,
        history_len: usize,
        recent_len: usize,
        histories: BTreeMap<DeviceId, Vec<f64>>,
    }

    impl VecEntropyDetector {
        pub fn new(bin_width_ma: f64, history_len: usize, recent_len: usize) -> Self {
            assert!(bin_width_ma > 0.0, "bin width must be positive");
            assert!(
                history_len > 0 && recent_len > 0,
                "windows must be non-empty"
            );
            VecEntropyDetector {
                bin_width_ma,
                history_len,
                recent_len,
                histories: BTreeMap::new(),
            }
        }

        pub fn observe(&mut self, device: DeviceId, mean_current_ma: f64) {
            let history = self.histories.entry(device).or_default();
            history.push(mean_current_ma);
            let max_len = self.history_len + self.recent_len;
            if history.len() > max_len {
                let excess = history.len() - max_len;
                history.drain(..excess);
            }
        }

        fn shannon_entropy(&self, values: &[f64]) -> f64 {
            if values.is_empty() {
                return 0.0;
            }
            let mut bins: BTreeMap<i64, usize> = BTreeMap::new();
            for v in values {
                let bin = (v / self.bin_width_ma).floor() as i64;
                *bins.entry(bin).or_default() += 1;
            }
            let n = values.len() as f64;
            bins.values()
                .map(|&count| {
                    let p = count as f64 / n;
                    -p * p.log2()
                })
                .sum()
        }

        pub fn recent_entropy(&self, device: DeviceId) -> Option<f64> {
            let history = self.histories.get(&device)?;
            if history.len() < self.recent_len {
                return None;
            }
            Some(self.shannon_entropy(&history[history.len() - self.recent_len..]))
        }

        pub fn is_suspicious(&self, device: DeviceId) -> bool {
            let Some(history) = self.histories.get(&device) else {
                return false;
            };
            if history.len() < self.recent_len * 2 {
                return false;
            }
            let (old, recent) = history.split_at(history.len() - self.recent_len);
            let old_entropy = self.shannon_entropy(old);
            let recent_entropy = self.shannon_entropy(recent);
            let old_mean: f64 = old.iter().sum::<f64>() / old.len() as f64;
            let recent_mean: f64 = recent.iter().sum::<f64>() / recent.len() as f64;
            recent_entropy < 0.5 * old_entropy && recent_mean < 0.5 * old_mean
        }

        pub fn suspicious_devices(&self) -> Vec<DeviceId> {
            self.histories
                .keys()
                .copied()
                .filter(|&d| self.is_suspicious(d))
                .collect()
        }
    }

    #[test]
    fn ring_window_matches_the_shifting_vec_oracle() {
        let mut ring = EntropyDetector::testbed();
        let mut oracle = VecEntropyDetector::new(5.0, 600, 100);
        let mut rng = SimRng::seed_from_u64(21);
        let devices = [DeviceId(1), DeviceId(2), DeviceId(3)];
        for i in 0..2_000 {
            for device in devices {
                // Device 3's firmware collapses to a low constant for its
                // last 150 reports, well past the 700-report bound.
                let value = if device == DeviceId(3) && i >= 1_850 {
                    20.0
                } else {
                    rng.uniform(40.0, 400.0)
                };
                ring.observe(device, value);
                oracle.observe(device, value);
                assert!(
                    ring.histories[&device]
                        .iter()
                        .eq(&oracle.histories[&device]),
                    "report {i} of {device:?}: the windows differ"
                );
                assert_eq!(
                    ring.recent_entropy(device).map(f64::to_bits),
                    oracle.recent_entropy(device).map(f64::to_bits),
                    "report {i} of {device:?}"
                );
                assert_eq!(ring.is_suspicious(device), oracle.is_suspicious(device));
                assert_eq!(ring.suspicious_devices(), oracle.suspicious_devices());
            }
        }
        assert_eq!(ring.suspicious_devices(), vec![DeviceId(3)]);
    }

    #[test]
    fn honest_reports_within_tolerance_pass() {
        let mut v = WindowVerifier::default();
        // Devices report 300 mA total; upstream sees 4.5 % more.
        let verdict = v.check(Milliamps::new(300.0), Milliamps::new(313.5));
        assert!(!verdict.anomalous, "residual {}", verdict.residual_ma);
        assert_eq!(v.windows_checked(), 1);
        assert_eq!(v.anomalies(), 0);
    }

    #[test]
    fn under_reporting_device_is_detected() {
        let mut v = WindowVerifier::default();
        // The network actually draws 320 mA but devices only admit to 220 mA.
        let verdict = v.check(Milliamps::new(220.0), Milliamps::new(334.0));
        assert!(verdict.anomalous);
        assert!(verdict.residual_ma > 50.0);
        assert_eq!(v.anomalies(), 1);
    }

    #[test]
    fn over_reporting_is_also_anomalous() {
        let mut v = WindowVerifier::default();
        // Devices claim far more than the network actually drew.
        let verdict = v.check(Milliamps::new(400.0), Milliamps::new(300.0));
        assert!(verdict.anomalous);
        assert!(verdict.residual_ma < 0.0);
    }

    #[test]
    fn small_networks_tolerate_sensor_offsets() {
        let mut v = WindowVerifier::default();
        // Two idle devices of ~15 mA each; offsets dominate but stay inside
        // the absolute tolerance.
        let verdict = v.check(Milliamps::new(30.0), Milliamps::new(33.0));
        assert!(!verdict.anomalous);
    }

    #[test]
    fn entropy_detector_flags_constant_under_reporting() {
        let mut det = EntropyDetector::new(5.0, 200, 50);
        let mut rng = SimRng::seed_from_u64(9);
        // Normal operation: varying charge current around 150-250 mA.
        for _ in 0..200 {
            det.observe(DeviceId(1), rng.uniform(150.0, 250.0));
        }
        assert!(!det.is_suspicious(DeviceId(1)));
        // Tampered firmware starts reporting a constant 20 mA.
        for _ in 0..50 {
            det.observe(DeviceId(1), 20.0);
        }
        assert!(det.is_suspicious(DeviceId(1)));
        assert_eq!(det.suspicious_devices(), vec![DeviceId(1)]);
    }

    #[test]
    fn honest_low_power_device_not_flagged() {
        let mut det = EntropyDetector::new(5.0, 200, 50);
        let mut rng = SimRng::seed_from_u64(10);
        // A device that has always idled at ~15 mA: low entropy but no drop
        // relative to its own history.
        for _ in 0..300 {
            det.observe(DeviceId(2), rng.uniform(14.0, 16.0));
        }
        assert!(!det.is_suspicious(DeviceId(2)));
    }

    #[test]
    fn entropy_needs_enough_history() {
        let mut det = EntropyDetector::new(5.0, 100, 50);
        det.observe(DeviceId(3), 100.0);
        assert!(det.recent_entropy(DeviceId(3)).is_none());
        assert!(!det.is_suspicious(DeviceId(3)));
        assert!(det.recent_entropy(DeviceId(99)).is_none());
    }

    #[test]
    fn recent_entropy_higher_for_varied_reports() {
        let mut det = EntropyDetector::new(5.0, 100, 100);
        let mut rng = SimRng::seed_from_u64(11);
        for _ in 0..100 {
            det.observe(DeviceId(1), 100.0);
            det.observe(DeviceId(2), rng.uniform(50.0, 400.0));
        }
        let constant = det.recent_entropy(DeviceId(1)).unwrap();
        let varied = det.recent_entropy(DeviceId(2)).unwrap();
        assert!(varied > constant);
    }
}
