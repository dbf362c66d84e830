//! Sensor fault shapes: how a failing INA219 distorts its readings.
//!
//! Real current sensors do not only carry datasheet error terms — they also
//! fail: a solder joint drifts with temperature, an ADC latches onto a fixed
//! code, electromagnetic interference injects periodic spikes. This module
//! describes those failure shapes as pure, deterministic transformations of
//! a measured value so the fault-injection subsystem (`rtem-faults`) can
//! schedule them and the device's physical layer can apply them.
//!
//! The distortion is applied *after* the [`Ina219Model`](crate::ina219::Ina219Model)
//! error terms: the device reports the faulty reading while the ground-truth
//! grid current stays untouched, which is exactly the discrepancy the
//! aggregator's complementary system-level measurement is designed to catch.

use crate::energy::Milliamps;
use rtem_sim::time::{SimDuration, SimTime};

/// The shape of a sensor fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFaultKind {
    /// The reading is stuck at a constant level regardless of the true load
    /// (a latched ADC, or tampered firmware reporting a flat value).
    StuckAt {
        /// The constant reading, in mA.
        level_ma: f64,
    },
    /// The reading drifts away from the truth at a constant rate (thermal
    /// drift, degrading shunt). Negative rates drift downward.
    Drift {
        /// Drift rate in mA per simulated second.
        rate_ma_per_s: f64,
    },
    /// Periodic spikes are added on top of the reading (EMI bursts): the
    /// spike is active during the first tenth of every period.
    Spike {
        /// Spike magnitude in mA.
        magnitude_ma: f64,
        /// Spike repetition period.
        period: SimDuration,
    },
}

/// An active sensor fault: a [`SensorFaultKind`] plus the time it started,
/// which anchors time-dependent shapes (drift, spikes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFault {
    /// The fault's shape.
    pub kind: SensorFaultKind,
    /// When the fault began.
    pub since: SimTime,
}

impl SensorFault {
    /// Creates a fault starting at `since`.
    pub fn new(kind: SensorFaultKind, since: SimTime) -> Self {
        SensorFault { kind, since }
    }

    /// Applies the fault to a measured value at `now`. Readings are clamped
    /// to be non-negative (the INA219 is wired unidirectionally here).
    pub fn distort(&self, measured: Milliamps, now: SimTime) -> Milliamps {
        let elapsed = now.saturating_duration_since(self.since);
        let value = match self.kind {
            SensorFaultKind::StuckAt { level_ma } => level_ma,
            SensorFaultKind::Drift { rate_ma_per_s } => {
                measured.value() + rate_ma_per_s * elapsed.as_secs_f64()
            }
            SensorFaultKind::Spike {
                magnitude_ma,
                period,
            } => {
                let period_us = period.as_micros().max(1);
                let phase_us = elapsed.as_micros() % period_us;
                if phase_us < period_us / 10 {
                    measured.value() + magnitude_ma
                } else {
                    measured.value()
                }
            }
        };
        Milliamps::new(value.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_at_ignores_the_input() {
        let fault = SensorFault::new(SensorFaultKind::StuckAt { level_ma: 20.0 }, SimTime::ZERO);
        let out = fault.distort(Milliamps::new(150.0), SimTime::from_secs(5));
        assert_eq!(out.value(), 20.0);
    }

    #[test]
    fn drift_grows_linearly_with_elapsed_time() {
        let fault = SensorFault::new(
            SensorFaultKind::Drift { rate_ma_per_s: 2.0 },
            SimTime::from_secs(10),
        );
        let out = fault.distort(Milliamps::new(100.0), SimTime::from_secs(15));
        assert!((out.value() - 110.0).abs() < 1e-9);
        // Before the fault started there is no elapsed time to drift over.
        let out = fault.distort(Milliamps::new(100.0), SimTime::from_secs(10));
        assert_eq!(out.value(), 100.0);
    }

    #[test]
    fn negative_drift_clamps_at_zero() {
        let fault = SensorFault::new(
            SensorFaultKind::Drift {
                rate_ma_per_s: -50.0,
            },
            SimTime::ZERO,
        );
        let out = fault.distort(Milliamps::new(100.0), SimTime::from_secs(10));
        assert_eq!(out.value(), 0.0);
    }

    #[test]
    fn spikes_are_periodic_with_short_duty() {
        let fault = SensorFault::new(
            SensorFaultKind::Spike {
                magnitude_ma: 500.0,
                period: SimDuration::from_secs(1),
            },
            SimTime::ZERO,
        );
        // Start of the period: spiking.
        let spiked = fault.distort(Milliamps::new(100.0), SimTime::from_millis(2_050));
        assert_eq!(spiked.value(), 600.0);
        // Mid-period: clean.
        let clean = fault.distort(Milliamps::new(100.0), SimTime::from_millis(2_500));
        assert_eq!(clean.value(), 100.0);
    }
}
