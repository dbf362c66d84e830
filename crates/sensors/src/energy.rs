//! Electrical quantities and energy accounting.
//!
//! The paper computes device energy from current-sensor readings, the known
//! supply voltage and the measurement duration (§III-A). This module provides
//! the strongly typed quantities used throughout the workspace so milliamps
//! never get mixed up with milliamp-hours or milliwatt-hours.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Neg, Sub};
use rtem_sim::time::SimDuration;

/// Electrical current in milliamperes.
///
/// # Examples
///
/// ```
/// use rtem_sensors::energy::Milliamps;
///
/// let load = Milliamps::new(120.0) + Milliamps::new(30.0);
/// assert_eq!(load.value(), 150.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Milliamps(f64);

impl Milliamps {
    /// Zero current.
    pub const ZERO: Milliamps = Milliamps(0.0);

    /// Creates a current value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "current must be finite, got {value}");
        Milliamps(value)
    }

    /// Raw value in mA.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Absolute value.
    pub fn abs(self) -> Milliamps {
        Milliamps(self.0.abs())
    }

    /// Clamps negative readings to zero (consumption can never be negative
    /// for the loads modelled here).
    pub fn clamp_non_negative(self) -> Milliamps {
        Milliamps(self.0.max(0.0))
    }

    /// Charge transferred when this current flows for `duration`.
    pub fn over(self, duration: SimDuration) -> MilliampSeconds {
        MilliampSeconds(self.0 * duration.as_secs_f64())
    }
}

impl fmt::Display for Milliamps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} mA", self.0)
    }
}

impl Add for Milliamps {
    type Output = Milliamps;
    fn add(self, rhs: Milliamps) -> Milliamps {
        Milliamps(self.0 + rhs.0)
    }
}
impl AddAssign for Milliamps {
    fn add_assign(&mut self, rhs: Milliamps) {
        self.0 += rhs.0;
    }
}
impl Sub for Milliamps {
    type Output = Milliamps;
    fn sub(self, rhs: Milliamps) -> Milliamps {
        Milliamps(self.0 - rhs.0)
    }
}
impl Neg for Milliamps {
    type Output = Milliamps;
    fn neg(self) -> Milliamps {
        Milliamps(-self.0)
    }
}
impl Mul<f64> for Milliamps {
    type Output = Milliamps;
    fn mul(self, rhs: f64) -> Milliamps {
        Milliamps(self.0 * rhs)
    }
}
impl Sum for Milliamps {
    fn sum<I: Iterator<Item = Milliamps>>(iter: I) -> Milliamps {
        Milliamps(iter.map(|m| m.0).sum())
    }
}

/// Electrical potential in millivolts.
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Millivolts(f64);

impl Millivolts {
    /// Creates a voltage value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "voltage must be finite, got {value}");
        Millivolts(value)
    }

    /// Raw value in mV.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Nominal USB / ESP32 Thing supply rail used by the paper's testbed.
    pub fn usb_bus() -> Self {
        Millivolts(5_000.0)
    }
}

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mV", self.0)
    }
}

/// Charge in milliampere-seconds (mA·s), the unit the testbed accumulates
/// between reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct MilliampSeconds(f64);

impl MilliampSeconds {
    /// Zero charge.
    pub const ZERO: MilliampSeconds = MilliampSeconds(0.0);

    /// Creates a charge value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "charge must be finite, got {value}");
        MilliampSeconds(value)
    }

    /// Creates a charge value from integer microamp-seconds (the unit the
    /// ledger and billing engine store).
    pub fn from_uas(uas: u64) -> Self {
        MilliampSeconds::new(uas as f64 / 1000.0)
    }

    /// Raw value in mA·s.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Converts to milliamp-hours.
    pub fn to_milliamp_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Energy at a given (constant) supply voltage.
    pub fn energy_at(self, voltage: Millivolts) -> MilliwattHours {
        // mA·s * mV = nW·s; 1 mWh = 3.6e9 nW·s.
        MilliwattHours(self.0 * voltage.value() / 3.6e9 * 1.0e3)
    }
}

impl fmt::Display for MilliampSeconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} mA·s", self.0)
    }
}

impl Add for MilliampSeconds {
    type Output = MilliampSeconds;
    fn add(self, rhs: MilliampSeconds) -> MilliampSeconds {
        MilliampSeconds(self.0 + rhs.0)
    }
}
impl AddAssign for MilliampSeconds {
    fn add_assign(&mut self, rhs: MilliampSeconds) {
        self.0 += rhs.0;
    }
}
impl Sub for MilliampSeconds {
    type Output = MilliampSeconds;
    fn sub(self, rhs: MilliampSeconds) -> MilliampSeconds {
        MilliampSeconds(self.0 - rhs.0)
    }
}
impl Sum for MilliampSeconds {
    fn sum<I: Iterator<Item = MilliampSeconds>>(iter: I) -> MilliampSeconds {
        MilliampSeconds(iter.map(|m| m.0).sum())
    }
}

/// Energy in milliwatt-hours, the billing unit.
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct MilliwattHours(f64);

impl MilliwattHours {
    /// Zero energy.
    pub const ZERO: MilliwattHours = MilliwattHours(0.0);

    /// Creates an energy value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "energy must be finite, got {value}");
        MilliwattHours(value)
    }

    /// Raw value in mWh.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for MilliwattHours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} mWh", self.0)
    }
}

impl Add for MilliwattHours {
    type Output = MilliwattHours;
    fn add(self, rhs: MilliwattHours) -> MilliwattHours {
        MilliwattHours(self.0 + rhs.0)
    }
}
impl AddAssign for MilliwattHours {
    fn add_assign(&mut self, rhs: MilliwattHours) {
        self.0 += rhs.0;
    }
}
impl Sub for MilliwattHours {
    type Output = MilliwattHours;
    fn sub(self, rhs: MilliwattHours) -> MilliwattHours {
        MilliwattHours(self.0 - rhs.0)
    }
}
impl Sum for MilliwattHours {
    fn sum<I: Iterator<Item = MilliwattHours>>(iter: I) -> MilliwattHours {
        MilliwattHours(iter.map(|m| m.0).sum())
    }
}

/// Incrementally accumulates energy from a stream of current samples at a
/// fixed supply voltage, exactly as the device firmware does between reports.
///
/// # Examples
///
/// ```
/// use rtem_sensors::energy::{EnergyAccumulator, Milliamps, Millivolts};
/// use rtem_sim::time::SimDuration;
///
/// let mut acc = EnergyAccumulator::new(Millivolts::usb_bus());
/// // 100 mA held for ten 100 ms intervals = 100 mA·s of charge.
/// for _ in 0..10 {
///     acc.add_sample(Milliamps::new(100.0), SimDuration::from_millis(100));
/// }
/// assert!((acc.charge().value() - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyAccumulator {
    voltage: Millivolts,
    charge: MilliampSeconds,
    samples: u64,
}

impl EnergyAccumulator {
    /// Creates an accumulator for the given supply voltage.
    pub fn new(voltage: Millivolts) -> Self {
        EnergyAccumulator {
            voltage,
            charge: MilliampSeconds::ZERO,
            samples: 0,
        }
    }

    /// Adds one current sample held for `duration`.
    pub fn add_sample(&mut self, current: Milliamps, duration: SimDuration) {
        self.charge += current.clamp_non_negative().over(duration);
        self.samples += 1;
    }

    /// Total accumulated charge.
    pub fn charge(&self) -> MilliampSeconds {
        self.charge
    }

    /// Total accumulated energy at the configured voltage.
    pub fn energy(&self) -> MilliwattHours {
        self.charge.energy_at(self.voltage)
    }

    /// Number of samples accumulated.
    pub fn sample_count(&self) -> u64 {
        self.samples
    }

    /// Supply voltage the accumulator was configured with.
    pub fn voltage(&self) -> Millivolts {
        self.voltage
    }

    /// Resets the accumulator and returns the charge accumulated so far.
    /// Called by the device when a report is successfully acknowledged.
    pub fn drain(&mut self) -> MilliampSeconds {
        let out = self.charge;
        self.charge = MilliampSeconds::ZERO;
        self.samples = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_arithmetic() {
        let a = Milliamps::new(100.0);
        let b = Milliamps::new(25.0);
        assert_eq!((a + b).value(), 125.0);
        assert_eq!((a - b).value(), 75.0);
        assert_eq!((a * 2.0).value(), 200.0);
        assert_eq!((-b).value(), -25.0);
        assert_eq!((-b).abs().value(), 25.0);
        assert_eq!((-b).clamp_non_negative(), Milliamps::ZERO);
    }

    #[test]
    fn sum_of_currents() {
        let total: Milliamps = vec![
            Milliamps::new(1.0),
            Milliamps::new(2.0),
            Milliamps::new(3.0),
        ]
        .into_iter()
        .sum();
        assert_eq!(total.value(), 6.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_current_rejected() {
        let _ = Milliamps::new(f64::INFINITY);
    }

    #[test]
    fn charge_from_current_and_time() {
        let q = Milliamps::new(150.0).over(SimDuration::from_millis(100));
        assert!((q.value() - 15.0).abs() < 1e-12);
        assert!((q.to_milliamp_hours() - 15.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn energy_conversion_five_volt_rail() {
        // 3600 mA·s at 5 V = 1 mAh * 5 V = 5 mWh.
        let q = MilliampSeconds::new(3600.0);
        let e = q.energy_at(Millivolts::usb_bus());
        assert!((e.value() - 5.0).abs() < 1e-9, "got {e}");
    }

    #[test]
    fn accumulator_matches_manual_sum() {
        let mut acc = EnergyAccumulator::new(Millivolts::new(5000.0));
        let samples = [120.0, 130.0, 110.0, 90.0];
        for &ma in &samples {
            acc.add_sample(Milliamps::new(ma), SimDuration::from_millis(100));
        }
        let expected: f64 = samples.iter().map(|ma| ma * 0.1).sum();
        assert!((acc.charge().value() - expected).abs() < 1e-9);
        assert_eq!(acc.sample_count(), 4);
    }

    #[test]
    fn accumulator_ignores_negative_current() {
        let mut acc = EnergyAccumulator::new(Millivolts::usb_bus());
        acc.add_sample(Milliamps::new(-50.0), SimDuration::from_secs(1));
        assert_eq!(acc.charge(), MilliampSeconds::ZERO);
    }

    #[test]
    fn drain_resets_state() {
        let mut acc = EnergyAccumulator::new(Millivolts::usb_bus());
        acc.add_sample(Milliamps::new(10.0), SimDuration::from_secs(1));
        let drained = acc.drain();
        assert!((drained.value() - 10.0).abs() < 1e-12);
        assert_eq!(acc.charge(), MilliampSeconds::ZERO);
        assert_eq!(acc.sample_count(), 0);
    }

    #[test]
    fn display_formats_units() {
        assert_eq!(Milliamps::new(1.5).to_string(), "1.500 mA");
        assert_eq!(Millivolts::new(5000.0).to_string(), "5000.0 mV");
        assert_eq!(MilliampSeconds::new(2.0).to_string(), "2.000 mA·s");
        assert_eq!(MilliwattHours::new(0.12345).to_string(), "0.1235 mWh");
    }

    #[test]
    fn energy_addition_and_subtraction() {
        let a = MilliwattHours::new(2.0);
        let b = MilliwattHours::new(0.5);
        assert_eq!((a + b).value(), 2.5);
        assert_eq!((a - b).value(), 1.5);
        let s: MilliwattHours = vec![a, b].into_iter().sum();
        assert_eq!(s.value(), 2.5);
    }
}
