//! Application layer of the device stack (Fig. 2, top).
//!
//! The paper lists three application-layer features: 1) remote management
//! for monitoring and maintenance, 2) device-specific applications such as
//! demand prediction and schedule optimization, and 3) services such as
//! billing. This module provides all three in device-sized form: a tariff
//! and running bill estimate, an exponentially-weighted demand forecaster,
//! and a small remote-management command set.

use crate::middleware::{HealthCounters, PowerState};
use rtem_sensors::energy::{MilliampSeconds, Millivolts, MilliwattHours};
use rtem_sim::time::{SimDuration, SimTime};

/// A simple peak/off-peak tariff in currency units per mWh, used by the
/// *device-local* [`BillingEstimator`] only.
///
/// This is deliberately not the aggregator's richer
/// `rtem_aggregator::billing::Tariff` (flat / time-of-use / tiered /
/// demand-charge): a device-sized firmware keeps a two-rate approximation
/// of its operator's schedule, and the authoritative bill is always the
/// one the home aggregator computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tariff {
    /// Price per mWh during the peak window.
    pub peak_price_per_mwh: f64,
    /// Price per mWh outside the peak window.
    pub off_peak_price_per_mwh: f64,
    /// Start of the daily peak window, seconds from midnight.
    pub peak_start_s: u64,
    /// End of the daily peak window, seconds from midnight.
    pub peak_end_s: u64,
}

impl Default for Tariff {
    fn default() -> Self {
        Tariff {
            peak_price_per_mwh: 0.00030,
            off_peak_price_per_mwh: 0.00018,
            peak_start_s: 18 * 3600,
            peak_end_s: 22 * 3600,
        }
    }
}

impl Tariff {
    /// A flat tariff (same price at all hours).
    pub fn flat(price_per_mwh: f64) -> Self {
        Tariff {
            peak_price_per_mwh: price_per_mwh,
            off_peak_price_per_mwh: price_per_mwh,
            peak_start_s: 0,
            peak_end_s: 0,
        }
    }

    /// Price applicable at `at` (simulation time interpreted as time of day,
    /// wrapping every 24 h).
    pub fn price_at(&self, at: SimTime) -> f64 {
        let second_of_day = at.as_micros() / 1_000_000 % 86_400;
        if self.peak_start_s <= second_of_day && second_of_day < self.peak_end_s {
            self.peak_price_per_mwh
        } else {
            self.off_peak_price_per_mwh
        }
    }
}

/// Device-local billing estimate so the owner can see cost in real time.
///
/// An *estimate*, not a mirror: it prices the device's own (pre-ack) meter
/// readings under the device's two-rate [`Tariff`] approximation, so it
/// tracks the aggregator's consolidated bill closely under a flat tariff
/// and only approximately under the aggregator's richer structures
/// (tiered ladders and demand charges need state only the home network
/// has).
#[derive(Debug, Clone, PartialEq)]
pub struct BillingEstimator {
    tariff: Tariff,
    supply: Millivolts,
    total_energy: MilliwattHours,
    total_cost: f64,
    intervals: u64,
}

impl BillingEstimator {
    /// Creates an estimator for a device on the given supply rail.
    pub fn new(tariff: Tariff, supply: Millivolts) -> Self {
        BillingEstimator {
            tariff,
            supply,
            total_energy: MilliwattHours::ZERO,
            total_cost: 0.0,
            intervals: 0,
        }
    }

    /// Swaps the tariff going forward (remote management). Energy already
    /// accounted keeps the price it was billed at.
    pub fn set_tariff(&mut self, tariff: Tariff) {
        self.tariff = tariff;
    }

    /// The tariff currently applied to new intervals.
    pub fn tariff(&self) -> Tariff {
        self.tariff
    }

    /// Accounts one measurement interval's charge at time `at`.
    pub fn add_interval(&mut self, charge: MilliampSeconds, at: SimTime) {
        let energy = charge.energy_at(self.supply);
        self.total_energy += energy;
        self.total_cost += energy.value() * self.tariff.price_at(at);
        self.intervals += 1;
    }

    /// Total metered energy so far.
    pub fn total_energy(&self) -> MilliwattHours {
        self.total_energy
    }

    /// Estimated cost so far, in currency units.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Number of intervals accounted.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }
}

/// Exponentially-weighted moving-average demand forecaster — the
/// "demand prediction" device application the paper mentions.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandForecaster {
    alpha: f64,
    level_ma: Option<f64>,
    trend_ma_per_interval: f64,
    observations: u64,
}

impl DemandForecaster {
    /// Creates a forecaster with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        DemandForecaster {
            alpha,
            level_ma: None,
            trend_ma_per_interval: 0.0,
            observations: 0,
        }
    }

    /// Feeds one observed mean current (mA) for the latest interval.
    pub fn observe(&mut self, mean_current_ma: f64) {
        self.observations += 1;
        match self.level_ma {
            None => self.level_ma = Some(mean_current_ma),
            Some(prev) => {
                let new_level = self.alpha * mean_current_ma + (1.0 - self.alpha) * prev;
                // Damped trend estimate with the same smoothing factor.
                self.trend_ma_per_interval = self.alpha * (new_level - prev)
                    + (1.0 - self.alpha) * self.trend_ma_per_interval;
                self.level_ma = Some(new_level);
            }
        }
    }

    /// Forecast of the mean current `intervals_ahead` intervals from now, in
    /// mA (clamped at zero). Returns `None` before the first observation.
    pub fn forecast(&self, intervals_ahead: u64) -> Option<f64> {
        self.level_ma
            .map(|l| (l + self.trend_ma_per_interval * intervals_ahead as f64).max(0.0))
    }

    /// Number of observations fed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

/// Remote-management commands the aggregator / operator may issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagementCommand {
    /// Query health counters and state.
    QueryStatus,
    /// Reset the device firmware (clears faults).
    Reset,
    /// Change the reporting interval to the given number of milliseconds.
    SetMeasureIntervalMs(u64),
}

/// Response to a remote-management command.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagementResponse {
    /// Current status snapshot.
    Status {
        /// Firmware power state.
        state: PowerState,
        /// Health counters.
        counters: HealthCounters,
        /// Uptime since last boot, if booted.
        uptime: Option<SimDuration>,
    },
    /// Command acknowledged.
    Done,
    /// Command rejected with a reason.
    Rejected(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_tariff_is_time_independent() {
        let t = Tariff::flat(0.5);
        assert_eq!(t.price_at(SimTime::ZERO), 0.5);
        assert_eq!(t.price_at(SimTime::from_secs(20 * 3600)), 0.5);
    }

    #[test]
    fn time_of_use_tariff_switches_at_peak_window() {
        let t = Tariff::default();
        assert_eq!(
            t.price_at(SimTime::from_secs(12 * 3600)),
            t.off_peak_price_per_mwh
        );
        assert_eq!(
            t.price_at(SimTime::from_secs(19 * 3600)),
            t.peak_price_per_mwh
        );
        // Wraps around midnight on the second simulated day.
        assert_eq!(
            t.price_at(SimTime::from_secs(86_400 + 19 * 3600)),
            t.peak_price_per_mwh
        );
    }

    #[test]
    fn billing_accumulates_energy_and_cost() {
        let mut b = BillingEstimator::new(Tariff::flat(1.0), Millivolts::usb_bus());
        // 3600 mA·s at 5 V = 5 mWh.
        b.add_interval(MilliampSeconds::new(3600.0), SimTime::ZERO);
        assert!((b.total_energy().value() - 5.0).abs() < 1e-9);
        assert!((b.total_cost() - 5.0).abs() < 1e-9);
        assert_eq!(b.intervals(), 1);
    }

    #[test]
    fn peak_intervals_cost_more() {
        let tariff = Tariff::default();
        let mut off_peak = BillingEstimator::new(tariff, Millivolts::usb_bus());
        let mut peak = BillingEstimator::new(tariff, Millivolts::usb_bus());
        off_peak.add_interval(MilliampSeconds::new(3600.0), SimTime::from_secs(10 * 3600));
        peak.add_interval(MilliampSeconds::new(3600.0), SimTime::from_secs(19 * 3600));
        assert!(peak.total_cost() > off_peak.total_cost());
        assert_eq!(peak.total_energy(), off_peak.total_energy());
    }

    #[test]
    fn forecaster_converges_to_constant_demand() {
        let mut f = DemandForecaster::new(0.2);
        assert!(f.forecast(1).is_none());
        for _ in 0..200 {
            f.observe(150.0);
        }
        let fc = f.forecast(10).unwrap();
        assert!((fc - 150.0).abs() < 1.0, "forecast {fc}");
        assert_eq!(f.observations(), 200);
    }

    #[test]
    fn forecaster_tracks_a_ramp() {
        let mut f = DemandForecaster::new(0.5);
        for i in 0..100 {
            f.observe(10.0 + i as f64);
        }
        let now = f.forecast(0).unwrap();
        let later = f.forecast(10).unwrap();
        assert!(later > now, "trend must push the forecast upwards");
    }

    #[test]
    fn forecast_never_negative() {
        let mut f = DemandForecaster::new(0.9);
        f.observe(100.0);
        for _ in 0..50 {
            f.observe(0.0);
        }
        assert!(f.forecast(100).unwrap() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let _ = DemandForecaster::new(0.0);
    }
}
