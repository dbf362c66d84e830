//! Simulated time primitives.
//!
//! The whole testbed substitution rests on a deterministic notion of time:
//! every component (sensor sampling, MQTT publishes, TDMA slots, handshake
//! phases) is driven by the same monotonically increasing [`SimTime`].
//!
//! Time is stored with microsecond resolution in a `u64`, which covers more
//! than 500 000 years of simulation — far beyond any scenario in the paper
//! (the longest experiment is about one hour of charging).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;
/// Number of microseconds per millisecond.
pub const MICROS_PER_MILLI: u64 = 1_000;

/// A span of simulated time with microsecond resolution.
///
/// # Examples
///
/// ```
/// use rtem_sim::time::SimDuration;
///
/// let t_measure = SimDuration::from_millis(100);
/// assert_eq!(t_measure.as_micros(), 100_000);
/// assert_eq!(t_measure * 10, SimDuration::from_secs(1));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration {
    micros: u64,
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration { micros: 0 };

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration { micros }
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            micros: millis * MICROS_PER_MILLI,
        }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration {
            micros: secs * MICROS_PER_SEC,
        }
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration {
            micros: (secs * MICROS_PER_SEC as f64).round() as u64,
        }
    }

    /// Total number of microseconds.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// Total number of whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.micros / MICROS_PER_MILLI
    }

    /// Total number of whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.micros / MICROS_PER_SEC
    }

    /// Duration expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / MICROS_PER_SEC as f64
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.micros == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_sub(other.micros),
        }
    }

    /// Checked addition, `None` on overflow.
    pub const fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        match self.micros.checked_add(other.micros) {
            Some(m) => Some(SimDuration { micros: m }),
            None => None,
        }
    }

    /// Scales the duration by a floating point factor (rounded to microseconds).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        SimDuration {
            micros: (self.micros as f64 * factor).round() as u64,
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.micros % MICROS_PER_SEC == 0 {
            write!(f, "{}s", self.micros / MICROS_PER_SEC)
        } else if self.micros % MICROS_PER_MILLI == 0 {
            write!(f, "{}ms", self.micros / MICROS_PER_MILLI)
        } else {
            write!(f, "{}us", self.micros)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros + rhs.micros,
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.micros += rhs.micros;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros - rhs.micros,
        }
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.micros -= rhs.micros;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            micros: self.micros * rhs,
        }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration {
            micros: self.micros / rhs,
        }
    }
}

/// An absolute instant on the simulated timeline.
///
/// `SimTime` is an offset from the simulation epoch (t = 0, when the
/// [`Scheduler`](crate::scheduler::Scheduler) is created).
///
/// # Examples
///
/// ```
/// use rtem_sim::time::{SimDuration, SimTime};
///
/// let start = SimTime::ZERO;
/// let later = start + SimDuration::from_secs(5);
/// assert_eq!(later.duration_since(start), SimDuration::from_secs(5));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime {
    micros_since_epoch: u64,
}

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime {
        micros_since_epoch: 0,
    };

    /// Creates an instant at `micros` microseconds since the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime {
            micros_since_epoch: micros,
        }
    }

    /// Creates an instant at `millis` milliseconds since the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime {
            micros_since_epoch: millis * MICROS_PER_MILLI,
        }
    }

    /// Creates an instant at `secs` seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime {
            micros_since_epoch: secs * MICROS_PER_SEC,
        }
    }

    /// Microseconds elapsed since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.micros_since_epoch
    }

    /// Seconds elapsed since the epoch, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.micros_since_epoch as f64 / MICROS_PER_SEC as f64
    }

    /// Elapsed time since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.micros_since_epoch <= self.micros_since_epoch,
            "duration_since called with a later instant"
        );
        SimDuration {
            micros: self.micros_since_epoch - earlier.micros_since_epoch,
        }
    }

    /// Elapsed time since `earlier`, or zero if `earlier` is in the future.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration {
            micros: self
                .micros_since_epoch
                .saturating_sub(earlier.micros_since_epoch),
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime {
            micros_since_epoch: self.micros_since_epoch + rhs.micros,
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.micros_since_epoch += rhs.micros;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime {
            micros_since_epoch: self.micros_since_epoch - rhs.micros,
        }
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.1),
            SimDuration::from_millis(100)
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(150);
        let b = SimDuration::from_millis(50);
        assert_eq!(a + b, SimDuration::from_millis(200));
        assert_eq!(a - b, SimDuration::from_millis(100));
        assert_eq!(b * 3, a);
        assert_eq!(a / 3, SimDuration::from_millis(50));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn duration_float_round_trip() {
        let d = SimDuration::from_secs_f64(6.25);
        assert!((d.as_secs_f64() - 6.25).abs() < 1e-9);
    }

    #[test]
    fn duration_display() {
        assert_eq!(SimDuration::from_secs(6).to_string(), "6s");
        assert_eq!(SimDuration::from_millis(100).to_string(), "100ms");
        assert_eq!(SimDuration::from_micros(42).to_string(), "42us");
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_secs(10);
        let t1 = t0 + SimDuration::from_millis(500);
        assert_eq!(t1.as_micros(), 10_500_000);
        assert_eq!(t1 - t0, SimDuration::from_millis(500));
        assert_eq!(t0.saturating_duration_since(t1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_panics_on_reversed_order() {
        let t0 = SimTime::from_secs(1);
        let t1 = SimTime::from_secs(2);
        let _ = t0.duration_since(t1);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(1));
        assert_eq!(d.mul_f64(1.25), SimDuration::from_millis(2500));
    }

    #[test]
    fn checked_add_detects_overflow() {
        let d = SimDuration::from_micros(u64::MAX);
        assert!(d.checked_add(SimDuration::from_micros(1)).is_none());
        assert!(d.checked_add(SimDuration::ZERO).is_some());
    }
}
