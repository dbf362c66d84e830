//! Synthetic device load profiles.
//!
//! The paper's testbed measures ESP32 Thing boards while they charge and run
//! IoT firmware. No hardware is available here, so this module generates the
//! *ground-truth* current a device actually draws at any simulated instant.
//! The sensor model in [`crate::ina219`] then observes that ground truth with
//! realistic error, exactly as the INA219 observes the real current on the
//! testbed.
//!
//! Profiles are deterministic functions of `(time, seeded rng)` so an
//! experiment replays identically for a given scenario seed.

use crate::energy::Milliamps;
use rtem_sim::rng::SimRng;
use rtem_sim::time::{SimDuration, SimTime};

/// A source of ground-truth current draw.
pub trait LoadProfile {
    /// The true current drawn at `now`.
    ///
    /// `now` is the global simulation time; profiles that need a notion of
    /// "time since plugged in" are composed via [`ShiftedProfile`].
    fn current_at(&mut self, now: SimTime) -> Milliamps;

    /// A short human-readable description, used in traces and reports.
    fn label(&self) -> String {
        "load".to_string()
    }
}

/// A constant current draw with optional Gaussian ripple.
///
/// # Examples
///
/// ```
/// use rtem_sensors::profile::{ConstantProfile, LoadProfile};
/// use rtem_sim::time::SimTime;
///
/// let mut idle = ConstantProfile::new(12.0);
/// assert_eq!(idle.current_at(SimTime::ZERO).value(), 12.0);
/// ```
#[derive(Debug, Clone)]
pub struct ConstantProfile {
    level_ma: f64,
    ripple_ma: f64,
    rng: Option<SimRng>,
}

impl ConstantProfile {
    /// A noiseless constant draw of `level_ma` milliamps.
    ///
    /// # Panics
    ///
    /// Panics if `level_ma` is negative or not finite.
    pub fn new(level_ma: f64) -> Self {
        assert!(
            level_ma.is_finite() && level_ma >= 0.0,
            "load level must be finite and non-negative"
        );
        ConstantProfile {
            level_ma,
            ripple_ma: 0.0,
            rng: None,
        }
    }

    /// Adds zero-mean Gaussian ripple with the given standard deviation.
    pub fn with_ripple(mut self, ripple_ma: f64, rng: SimRng) -> Self {
        assert!(ripple_ma >= 0.0, "ripple must be non-negative");
        self.ripple_ma = ripple_ma;
        self.rng = Some(rng);
        self
    }

    /// The configured base level.
    pub fn level(&self) -> Milliamps {
        Milliamps::new(self.level_ma)
    }
}

impl LoadProfile for ConstantProfile {
    fn current_at(&mut self, _now: SimTime) -> Milliamps {
        let ripple = match (&mut self.rng, self.ripple_ma) {
            (Some(rng), r) if r > 0.0 => rng.normal(0.0, r),
            _ => 0.0,
        };
        Milliamps::new((self.level_ma + ripple).max(0.0))
    }

    fn label(&self) -> String {
        format!("constant {:.0} mA", self.level_ma)
    }
}

/// Phases of a lithium-ion charge cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargePhase {
    /// Constant-current bulk charging.
    ConstantCurrent,
    /// Constant-voltage taper.
    ConstantVoltage,
    /// Charge terminated; only idle electronics draw remains.
    Done,
}

/// A CC/CV battery-charging profile, the dominant load in the paper's
/// e-scooter motivating example and the Fig. 5/6 experiments.
///
/// During the constant-current phase the device draws `cc_current_ma`; once
/// the taper starts the current decays exponentially towards the termination
/// threshold, after which only the idle draw remains.
#[derive(Debug, Clone)]
pub struct ChargingProfile {
    cc_current_ma: f64,
    idle_ma: f64,
    cc_duration: SimDuration,
    taper_time_constant: SimDuration,
    termination_fraction: f64,
    ripple_ma: f64,
    rng: SimRng,
}

impl ChargingProfile {
    /// Creates a charging profile.
    ///
    /// * `cc_current_ma` — bulk charge current (e.g. 450 mA for a small pack).
    /// * `cc_duration` — length of the constant-current phase.
    /// * `taper_time_constant` — exponential decay constant of the CV phase.
    /// * `idle_ma` — residual electronics draw after termination.
    ///
    /// # Panics
    ///
    /// Panics if any magnitude is negative or not finite.
    pub fn new(
        cc_current_ma: f64,
        cc_duration: SimDuration,
        taper_time_constant: SimDuration,
        idle_ma: f64,
        rng: SimRng,
    ) -> Self {
        assert!(cc_current_ma.is_finite() && cc_current_ma >= 0.0);
        assert!(idle_ma.is_finite() && idle_ma >= 0.0);
        ChargingProfile {
            cc_current_ma,
            idle_ma,
            cc_duration,
            taper_time_constant,
            termination_fraction: 0.1,
            ripple_ma: cc_current_ma * 0.01,
            rng,
        }
    }

    /// A profile shaped like the ESP32 + small battery setup of the testbed:
    /// ~180 mA bulk charge, 40-minute CC phase, 10-minute taper constant,
    /// ~15 mA idle draw.
    pub fn esp32_testbed(rng: SimRng) -> Self {
        ChargingProfile::new(
            180.0,
            SimDuration::from_secs(40 * 60),
            SimDuration::from_secs(10 * 60),
            15.0,
            rng,
        )
    }

    /// An e-scooter style fast charge: 2 A bulk for 3 hours with a 30-minute
    /// taper constant, 25 mA idle electronics.
    pub fn e_scooter(rng: SimRng) -> Self {
        ChargingProfile::new(
            2000.0,
            SimDuration::from_secs(3 * 3600),
            SimDuration::from_secs(30 * 60),
            25.0,
            rng,
        )
    }

    /// Which phase the charge cycle is in at `elapsed` time since plug-in.
    pub fn phase_at(&self, elapsed: SimDuration) -> ChargePhase {
        if elapsed < self.cc_duration {
            ChargePhase::ConstantCurrent
        } else {
            let taper_elapsed =
                (elapsed - self.cc_duration).as_secs_f64() / self.taper_time_constant.as_secs_f64();
            let fraction = (-taper_elapsed).exp();
            if fraction <= self.termination_fraction {
                ChargePhase::Done
            } else {
                ChargePhase::ConstantVoltage
            }
        }
    }

    fn mean_current(&self, elapsed: SimDuration) -> f64 {
        match self.phase_at(elapsed) {
            ChargePhase::ConstantCurrent => self.cc_current_ma,
            ChargePhase::ConstantVoltage => {
                let taper_elapsed = (elapsed - self.cc_duration).as_secs_f64()
                    / self.taper_time_constant.as_secs_f64();
                (self.cc_current_ma * (-taper_elapsed).exp()).max(self.idle_ma)
            }
            ChargePhase::Done => self.idle_ma,
        }
    }
}

impl LoadProfile for ChargingProfile {
    fn current_at(&mut self, now: SimTime) -> Milliamps {
        let elapsed = now.saturating_duration_since(SimTime::ZERO);
        let mean = self.mean_current(elapsed);
        let noisy = mean + self.rng.normal(0.0, self.ripple_ma);
        Milliamps::new(noisy.max(0.0))
    }

    fn label(&self) -> String {
        format!("CC/CV charge {:.0} mA", self.cc_current_ma)
    }
}

/// An IoT duty-cycle profile: a low sleep current with periodic Wi-Fi
/// transmission bursts, the "device reports every Tmeasure" workload.
#[derive(Debug, Clone)]
pub struct WifiBurstProfile {
    sleep_ma: f64,
    burst_ma: f64,
    period: SimDuration,
    burst_len: SimDuration,
    jitter_ma: f64,
    rng: SimRng,
}

impl WifiBurstProfile {
    /// Creates a duty-cycled profile.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `burst_len` exceeds `period`.
    pub fn new(
        sleep_ma: f64,
        burst_ma: f64,
        period: SimDuration,
        burst_len: SimDuration,
        rng: SimRng,
    ) -> Self {
        assert!(!period.is_zero(), "period must be non-zero");
        assert!(burst_len <= period, "burst cannot exceed its period");
        WifiBurstProfile {
            sleep_ma,
            burst_ma,
            period,
            burst_len,
            jitter_ma: 2.0,
            rng,
        }
    }

    /// The ESP32 Thing figures from its datasheet: ~20 mA modem-sleep,
    /// ~160 mA during an 802.11 transmit burst, reporting every 100 ms.
    pub fn esp32_reporting(rng: SimRng) -> Self {
        WifiBurstProfile::new(
            20.0,
            160.0,
            SimDuration::from_millis(100),
            SimDuration::from_millis(12),
            rng,
        )
    }

    /// Average current of the duty cycle, useful as an analytic check.
    pub fn duty_cycle_mean(&self) -> Milliamps {
        let duty = self.burst_len.as_secs_f64() / self.period.as_secs_f64();
        Milliamps::new(self.burst_ma * duty + self.sleep_ma * (1.0 - duty))
    }
}

impl LoadProfile for WifiBurstProfile {
    fn current_at(&mut self, now: SimTime) -> Milliamps {
        let into_period = now.as_micros() % self.period.as_micros();
        let base = if into_period < self.burst_len.as_micros() {
            self.burst_ma
        } else {
            self.sleep_ma
        };
        Milliamps::new((base + self.rng.normal(0.0, self.jitter_ma)).max(0.0))
    }

    fn label(&self) -> String {
        format!("wifi burst {:.0}/{:.0} mA", self.sleep_ma, self.burst_ma)
    }
}

impl LoadProfile for Box<dyn LoadProfile + Send> {
    fn current_at(&mut self, now: SimTime) -> Milliamps {
        (**self).current_at(now)
    }

    fn label(&self) -> String {
        (**self).label()
    }
}

/// Sums several profiles (e.g. charging + reporting firmware).
#[derive(Default)]
pub struct CompositeProfile {
    parts: Vec<Box<dyn LoadProfile + Send>>,
}

impl core::fmt::Debug for CompositeProfile {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CompositeProfile")
            .field("parts", &self.parts.len())
            .finish()
    }
}

impl CompositeProfile {
    /// Creates an empty composite (draws zero current).
    pub fn new() -> Self {
        CompositeProfile { parts: Vec::new() }
    }

    /// Adds a component profile.
    pub fn push(mut self, profile: impl LoadProfile + Send + 'static) -> Self {
        self.parts.push(Box::new(profile));
        self
    }

    /// Number of component profiles.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Returns `true` if the composite has no components.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl LoadProfile for CompositeProfile {
    fn current_at(&mut self, now: SimTime) -> Milliamps {
        self.parts
            .iter_mut()
            .map(|p| p.current_at(now))
            .sum::<Milliamps>()
    }

    fn label(&self) -> String {
        format!("composite of {}", self.parts.len())
    }
}

/// Delays an inner profile so that its local time starts at `start`:
/// before `start` only `off_current` (usually zero) is drawn. Used to model
/// a device that plugs in at an arbitrary simulation time.
#[derive(Debug, Clone)]
pub struct ShiftedProfile<P> {
    inner: P,
    start: SimTime,
    off_current: f64,
}

impl<P: LoadProfile> ShiftedProfile<P> {
    /// Wraps `inner` so it starts producing current at `start`.
    pub fn new(inner: P, start: SimTime) -> Self {
        ShiftedProfile {
            inner,
            start,
            off_current: 0.0,
        }
    }

    /// Sets the current drawn before `start` (defaults to zero).
    pub fn with_off_current(mut self, off_ma: f64) -> Self {
        assert!(off_ma >= 0.0, "off current must be non-negative");
        self.off_current = off_ma;
        self
    }

    /// The wrapped profile.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: LoadProfile> LoadProfile for ShiftedProfile<P> {
    fn current_at(&mut self, now: SimTime) -> Milliamps {
        if now < self.start {
            Milliamps::new(self.off_current)
        } else {
            let local = SimTime::from_micros(now.as_micros() - self.start.as_micros());
            self.inner.current_at(local)
        }
    }

    fn label(&self) -> String {
        format!("{} (from {})", self.inner.label(), self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1234)
    }

    #[test]
    fn constant_profile_is_constant() {
        let mut p = ConstantProfile::new(42.0);
        for s in 0..10 {
            assert_eq!(p.current_at(SimTime::from_secs(s)).value(), 42.0);
        }
    }

    #[test]
    fn constant_profile_ripple_is_bounded_and_centred() {
        let mut p = ConstantProfile::new(100.0).with_ripple(1.0, rng());
        let n = 5000;
        let mean: f64 = (0..n)
            .map(|i| p.current_at(SimTime::from_millis(i)).value())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 100.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn charging_profile_phases_progress() {
        let p = ChargingProfile::new(
            200.0,
            SimDuration::from_secs(600),
            SimDuration::from_secs(300),
            10.0,
            rng(),
        );
        assert_eq!(
            p.phase_at(SimDuration::from_secs(0)),
            ChargePhase::ConstantCurrent
        );
        assert_eq!(
            p.phase_at(SimDuration::from_secs(599)),
            ChargePhase::ConstantCurrent
        );
        assert_eq!(
            p.phase_at(SimDuration::from_secs(700)),
            ChargePhase::ConstantVoltage
        );
        // After many time constants the charge terminates.
        assert_eq!(p.phase_at(SimDuration::from_secs(4000)), ChargePhase::Done);
    }

    #[test]
    fn charging_current_decays_towards_idle() {
        let mut p = ChargingProfile::new(
            200.0,
            SimDuration::from_secs(600),
            SimDuration::from_secs(300),
            10.0,
            rng(),
        );
        let bulk = p.current_at(SimTime::from_secs(100)).value();
        let taper = p.current_at(SimTime::from_secs(1200)).value();
        let done = p.current_at(SimTime::from_secs(10_000)).value();
        assert!(bulk > 150.0, "bulk {bulk}");
        assert!(taper < bulk && taper > done, "taper {taper}");
        assert!((done - 10.0).abs() < 5.0, "done {done}");
    }

    #[test]
    fn esp32_testbed_profile_is_in_expected_range() {
        let mut p = ChargingProfile::esp32_testbed(rng());
        let i = p.current_at(SimTime::from_secs(60)).value();
        assert!((150.0..250.0).contains(&i), "testbed bulk current {i}");
    }

    #[test]
    fn wifi_burst_peaks_during_burst_window() {
        let mut p = WifiBurstProfile::new(
            20.0,
            160.0,
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
            rng(),
        );
        let in_burst = p.current_at(SimTime::from_millis(200) + SimDuration::from_micros(500));
        let in_sleep = p.current_at(SimTime::from_millis(250));
        assert!(in_burst.value() > 100.0, "burst {in_burst}");
        assert!(in_sleep.value() < 60.0, "sleep {in_sleep}");
    }

    #[test]
    fn wifi_duty_cycle_mean_matches_samples() {
        let mut p = WifiBurstProfile::esp32_reporting(rng());
        let analytic = p.duty_cycle_mean().value();
        let n = 100_000u64;
        let mean: f64 = (0..n)
            .map(|i| p.current_at(SimTime::from_micros(i * 97)).value())
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - analytic).abs() < analytic * 0.1,
            "sampled {mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn composite_sums_parts() {
        let mut p = CompositeProfile::new()
            .push(ConstantProfile::new(10.0))
            .push(ConstantProfile::new(32.0));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.current_at(SimTime::ZERO).value(), 42.0);
    }

    #[test]
    fn empty_composite_draws_nothing() {
        let mut p = CompositeProfile::new();
        assert!(p.is_empty());
        assert_eq!(p.current_at(SimTime::from_secs(5)), Milliamps::ZERO);
    }

    #[test]
    fn shifted_profile_starts_late() {
        let inner = ConstantProfile::new(100.0);
        let mut p = ShiftedProfile::new(inner, SimTime::from_secs(10)).with_off_current(1.0);
        assert_eq!(p.current_at(SimTime::from_secs(5)).value(), 1.0);
        assert_eq!(p.current_at(SimTime::from_secs(15)).value(), 100.0);
    }

    #[test]
    fn labels_are_descriptive() {
        assert!(ConstantProfile::new(5.0).label().contains("constant"));
        assert!(ChargingProfile::esp32_testbed(rng())
            .label()
            .contains("CC/CV"));
        assert!(WifiBurstProfile::esp32_reporting(rng())
            .label()
            .contains("wifi"));
    }
}
