//! Real-time clock models.
//!
//! The paper's testbed time-stamps every measurement with a DS3231
//! temperature-compensated RTC and assumes devices and aggregators are
//! time-synchronized. [`RtcModel`] reproduces the relevant behaviour: a
//! configurable frequency error (ppm), aging drift, and an initial phase
//! offset, so synchronization error can be injected and its effect on the
//! metering pipeline studied.

use crate::time::{SimDuration, SimTime};

/// Configuration of a real-time clock's error terms.
///
/// The defaults model a DS3231: ±2 ppm frequency error over the commercial
/// temperature range and a small aging term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtcConfig {
    /// Constant frequency error in parts-per-million. Positive runs fast.
    pub frequency_error_ppm: f64,
    /// Additional drift accumulated per simulated day, in ppm/day.
    pub aging_ppm_per_day: f64,
    /// Fixed offset of the local clock at the simulation epoch.
    pub initial_offset: SimDuration,
    /// Sign of the initial offset (`true` = local clock ahead of sim time).
    pub initial_offset_ahead: bool,
}

impl Default for RtcConfig {
    fn default() -> Self {
        // DS3231 datasheet: ±2 ppm from 0°C to +40°C, aging < 1 ppm/year.
        RtcConfig {
            frequency_error_ppm: 2.0,
            aging_ppm_per_day: 1.0 / 365.0,
            initial_offset: SimDuration::ZERO,
            initial_offset_ahead: true,
        }
    }
}

impl RtcConfig {
    /// An ideal clock with no error terms, useful for unit tests.
    pub fn ideal() -> Self {
        RtcConfig {
            frequency_error_ppm: 0.0,
            aging_ppm_per_day: 0.0,
            initial_offset: SimDuration::ZERO,
            initial_offset_ahead: true,
        }
    }
}

/// A device-local real-time clock derived from the global simulation time.
///
/// # Examples
///
/// ```
/// use rtem_sim::rtc::{RtcConfig, RtcModel};
/// use rtem_sim::time::SimTime;
///
/// let rtc = RtcModel::new(RtcConfig::ideal());
/// let now = SimTime::from_secs(60);
/// assert_eq!(rtc.local_time(now), now);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RtcModel {
    config: RtcConfig,
    /// Correction applied by the last synchronization, in microseconds
    /// (positive = local clock reads ahead and must be pulled back).
    sync_correction_us: f64,
    last_sync: SimTime,
}

impl RtcModel {
    /// Creates a clock with the given error configuration.
    pub fn new(config: RtcConfig) -> Self {
        RtcModel {
            config,
            sync_correction_us: 0.0,
            last_sync: SimTime::ZERO,
        }
    }

    /// The configuration this clock was built with.
    pub fn config(&self) -> &RtcConfig {
        &self.config
    }

    /// Raw clock error (local minus true) in microseconds at `now`,
    /// before any synchronization correction.
    fn raw_error_us(&self, now: SimTime) -> f64 {
        let elapsed_s = now.as_secs_f64();
        let elapsed_days = elapsed_s / 86_400.0;
        // Aging accumulates linearly, so the induced phase error is the
        // integral of a linearly growing frequency error: 0.5 * a * t^2.
        let freq_ppm =
            self.config.frequency_error_ppm + 0.5 * self.config.aging_ppm_per_day * elapsed_days;
        let drift_us = freq_ppm * elapsed_s; // ppm * seconds == microseconds
        let offset_us = self.config.initial_offset.as_micros() as f64
            * if self.config.initial_offset_ahead {
                1.0
            } else {
                -1.0
            };
        offset_us + drift_us
    }

    /// Error of the local clock relative to true simulation time, in
    /// microseconds (positive = local clock ahead), after corrections.
    pub fn error_us(&self, now: SimTime) -> f64 {
        self.raw_error_us(now) - self.sync_correction_us
    }

    /// The device-local reading of the clock at true time `now`.
    pub fn local_time(&self, now: SimTime) -> SimTime {
        let err = self.error_us(now);
        let local = now.as_micros() as f64 + err;
        SimTime::from_micros(local.max(0.0).round() as u64)
    }

    /// Synchronizes the local clock to true time (e.g. when the aggregator
    /// distributes its time base during registration). After this call the
    /// instantaneous error at `now` is zero; drift resumes afterwards.
    pub fn synchronize(&mut self, now: SimTime) {
        self.sync_correction_us = self.raw_error_us(now);
        self.last_sync = now;
    }

    /// Time of the last synchronization.
    pub fn last_sync(&self) -> SimTime {
        self.last_sync
    }
}

impl Default for RtcModel {
    fn default() -> Self {
        RtcModel::new(RtcConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_clock_tracks_sim_time() {
        let rtc = RtcModel::new(RtcConfig::ideal());
        for secs in [0u64, 1, 60, 3600, 86_400] {
            let t = SimTime::from_secs(secs);
            assert_eq!(rtc.local_time(t), t);
        }
    }

    #[test]
    fn positive_ppm_runs_fast() {
        let rtc = RtcModel::new(RtcConfig {
            frequency_error_ppm: 2.0,
            aging_ppm_per_day: 0.0,
            initial_offset: SimDuration::ZERO,
            initial_offset_ahead: true,
        });
        let one_hour = SimTime::from_secs(3600);
        // 2 ppm over an hour is 7.2 ms.
        let err = rtc.error_us(one_hour);
        assert!((err - 7200.0).abs() < 1.0, "error {err} us");
        assert!(rtc.local_time(one_hour) > one_hour);
    }

    #[test]
    fn initial_offset_behind_reads_early() {
        let rtc = RtcModel::new(RtcConfig {
            frequency_error_ppm: 0.0,
            aging_ppm_per_day: 0.0,
            initial_offset: SimDuration::from_millis(5),
            initial_offset_ahead: false,
        });
        let t = SimTime::from_secs(10);
        assert_eq!(
            t.duration_since(rtc.local_time(t)),
            SimDuration::from_millis(5)
        );
    }

    #[test]
    fn synchronize_zeroes_instantaneous_error() {
        let mut rtc = RtcModel::new(RtcConfig {
            frequency_error_ppm: 20.0,
            aging_ppm_per_day: 0.0,
            initial_offset: SimDuration::from_millis(3),
            initial_offset_ahead: true,
        });
        let t = SimTime::from_secs(1000);
        assert!(rtc.error_us(t).abs() > 1000.0);
        rtc.synchronize(t);
        assert!(rtc.error_us(t).abs() < 1e-6);
        assert_eq!(rtc.last_sync(), t);
        // Drift resumes after synchronization.
        let later = SimTime::from_secs(2000);
        assert!(rtc.error_us(later) > 1000.0);
    }

    #[test]
    fn aging_accumulates_quadratically() {
        let rtc = RtcModel::new(RtcConfig {
            frequency_error_ppm: 0.0,
            aging_ppm_per_day: 1.0,
            initial_offset: SimDuration::ZERO,
            initial_offset_ahead: true,
        });
        let e1 = rtc.error_us(SimTime::from_secs(86_400));
        let e2 = rtc.error_us(SimTime::from_secs(2 * 86_400));
        assert!(e2 > 3.5 * e1, "aging error should grow super-linearly");
    }

    #[test]
    fn local_time_never_negative() {
        let rtc = RtcModel::new(RtcConfig {
            frequency_error_ppm: 0.0,
            aging_ppm_per_day: 0.0,
            initial_offset: SimDuration::from_secs(10),
            initial_offset_ahead: false,
        });
        // True time earlier than the offset: clamped to zero instead of
        // underflowing.
        assert_eq!(rtc.local_time(SimTime::from_secs(1)), SimTime::ZERO);
    }
}
