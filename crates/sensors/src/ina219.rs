//! INA219 current-sensor model.
//!
//! Every device and every aggregator in the paper's testbed carries a Texas
//! Instruments INA219 bidirectional current monitor. The sensor is the reason
//! the aggregator's system-level measurement differs from the sum of the
//! device-reported values in Fig. 5 — the paper attributes the 0.9–8.2 % gap
//! to ohmic losses *and* the sensor's 0.5 mA offset error.
//!
//! The model reproduces the datasheet error terms that matter at the
//! testbed's operating point:
//!
//! * constant **offset error** (defaults to the 0.5 mA the paper cites),
//! * **gain error** as a fraction of the reading,
//! * **quantization** to the current LSB implied by the PGA range and the
//!   12-bit ADC,
//! * optional zero-mean **sampling noise**.

use crate::energy::Milliamps;
use rtem_sim::rng::SimRng;

/// Programmable gain / shunt range settings of the INA219.
///
/// The testbed uses the default ±3.2 A range with a 0.1 Ω shunt; the finer
/// ranges are included for the error-decomposition ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuntRange {
    /// ±40 mV shunt voltage range (±400 mA with the standard 0.1 Ω shunt).
    Pga40mV,
    /// ±80 mV range (±800 mA).
    Pga80mV,
    /// ±160 mV range (±1.6 A).
    Pga160mV,
    /// ±320 mV range (±3.2 A), the power-on default.
    Pga320mV,
}

impl ShuntRange {
    /// Full-scale current in mA for a 0.1 Ω shunt.
    pub fn full_scale_ma(self) -> f64 {
        match self {
            ShuntRange::Pga40mV => 400.0,
            ShuntRange::Pga80mV => 800.0,
            ShuntRange::Pga160mV => 1600.0,
            ShuntRange::Pga320mV => 3200.0,
        }
    }

    /// Current represented by one ADC LSB (12-bit converter over the
    /// bipolar full-scale range).
    pub fn lsb_ma(self) -> f64 {
        // 12-bit signed resolution across the positive range.
        self.full_scale_ma() / 4096.0
    }
}

/// Configuration of an [`Ina219Model`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ina219Config {
    /// Constant additive offset error in mA. The datasheet (and the paper)
    /// give 0.5 mA as the maximum offset at the testbed operating point.
    pub offset_error_ma: f64,
    /// Multiplicative gain error (fraction of reading). Datasheet max ±0.5 %.
    pub gain_error: f64,
    /// Standard deviation of the per-sample noise in mA.
    pub noise_ma: f64,
    /// PGA range in use.
    pub range: ShuntRange,
    /// Whether readings are quantized to the ADC LSB.
    pub quantize: bool,
}

impl Default for Ina219Config {
    fn default() -> Self {
        Ina219Config {
            offset_error_ma: 0.5,
            gain_error: 0.002,
            noise_ma: 0.15,
            range: ShuntRange::Pga320mV,
            quantize: true,
        }
    }
}

impl Ina219Config {
    /// An ideal sensor with no error terms (useful to isolate grid losses in
    /// the error-decomposition ablation).
    pub fn ideal() -> Self {
        Ina219Config {
            offset_error_ma: 0.0,
            gain_error: 0.0,
            noise_ma: 0.0,
            range: ShuntRange::Pga320mV,
            quantize: false,
        }
    }

    /// The configuration matching the paper's testbed description.
    pub fn testbed() -> Self {
        Ina219Config::default()
    }
}

/// A simulated INA219 that observes ground-truth current with realistic error.
///
/// # Examples
///
/// ```
/// use rtem_sensors::energy::Milliamps;
/// use rtem_sensors::ina219::{Ina219Config, Ina219Model};
/// use rtem_sim::rng::SimRng;
///
/// let mut sensor = Ina219Model::new(Ina219Config::ideal(), SimRng::seed_from_u64(1));
/// let reading = sensor.measure(Milliamps::new(120.0));
/// assert!((reading.value() - 120.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Ina219Model {
    config: Ina219Config,
    rng: SimRng,
    samples_taken: u64,
}

impl Ina219Model {
    /// Creates a sensor with the given configuration and noise stream.
    pub fn new(config: Ina219Config, rng: SimRng) -> Self {
        Ina219Model {
            config,
            rng,
            samples_taken: 0,
        }
    }

    /// The sensor's configuration.
    pub fn config(&self) -> &Ina219Config {
        &self.config
    }

    /// Number of measurements taken so far.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Observes the ground-truth current and returns the sensor reading.
    ///
    /// Readings saturate at the configured PGA full scale, exactly like the
    /// real converter.
    pub fn measure(&mut self, true_current: Milliamps) -> Milliamps {
        self.samples_taken += 1;
        let cfg = &self.config;
        let mut reading = true_current.value() * (1.0 + cfg.gain_error) + cfg.offset_error_ma;
        if cfg.noise_ma > 0.0 {
            reading += self.rng.normal(0.0, cfg.noise_ma);
        }
        if cfg.quantize {
            let lsb = cfg.range.lsb_ma();
            reading = (reading / lsb).round() * lsb;
        }
        let fs = cfg.range.full_scale_ma();
        Milliamps::new(reading.clamp(-fs, fs))
    }

    /// Worst-case absolute error bound at a given operating current, used by
    /// the aggregator's anomaly detector to size its tolerance band.
    pub fn error_bound(&self, operating_current: Milliamps) -> Milliamps {
        let cfg = &self.config;
        let bound = cfg.offset_error_ma.abs()
            + operating_current.value().abs() * cfg.gain_error.abs()
            + 3.0 * cfg.noise_ma
            + if cfg.quantize {
                cfg.range.lsb_ma()
            } else {
                0.0
            };
        Milliamps::new(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(7)
    }

    #[test]
    fn ideal_sensor_reads_truth() {
        let mut s = Ina219Model::new(Ina219Config::ideal(), rng());
        for i in [0.0, 1.0, 57.3, 212.9, 399.0] {
            let r = s.measure(Milliamps::new(i));
            assert!((r.value() - i).abs() < 1e-12);
        }
        assert_eq!(s.samples_taken(), 5);
    }

    #[test]
    fn offset_error_shifts_readings_up() {
        let cfg = Ina219Config {
            offset_error_ma: 0.5,
            gain_error: 0.0,
            noise_ma: 0.0,
            range: ShuntRange::Pga320mV,
            quantize: false,
        };
        let mut s = Ina219Model::new(cfg, rng());
        let r = s.measure(Milliamps::new(100.0));
        assert!((r.value() - 100.5).abs() < 1e-12);
    }

    #[test]
    fn gain_error_scales_with_reading() {
        let cfg = Ina219Config {
            offset_error_ma: 0.0,
            gain_error: 0.01,
            noise_ma: 0.0,
            range: ShuntRange::Pga320mV,
            quantize: false,
        };
        let mut s = Ina219Model::new(cfg, rng());
        assert!((s.measure(Milliamps::new(100.0)).value() - 101.0).abs() < 1e-12);
        assert!((s.measure(Milliamps::new(200.0)).value() - 202.0).abs() < 1e-12);
    }

    #[test]
    fn quantization_snaps_to_lsb() {
        let cfg = Ina219Config {
            offset_error_ma: 0.0,
            gain_error: 0.0,
            noise_ma: 0.0,
            range: ShuntRange::Pga320mV,
            quantize: true,
        };
        let lsb = ShuntRange::Pga320mV.lsb_ma();
        let mut s = Ina219Model::new(cfg, rng());
        let r = s.measure(Milliamps::new(lsb * 10.4));
        assert!((r.value() - lsb * 10.0).abs() < 1e-9);
    }

    #[test]
    fn readings_saturate_at_full_scale() {
        let cfg = Ina219Config {
            range: ShuntRange::Pga40mV,
            ..Ina219Config::ideal()
        };
        let mut s = Ina219Model::new(cfg, rng());
        let r = s.measure(Milliamps::new(5000.0));
        assert_eq!(r.value(), 400.0);
    }

    #[test]
    fn testbed_sensor_mean_error_is_close_to_offset() {
        let mut s = Ina219Model::new(Ina219Config::testbed(), rng());
        let truth = 150.0;
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| s.measure(Milliamps::new(truth)).value())
            .sum::<f64>()
            / n as f64;
        let expected = truth * 1.002 + 0.5;
        assert!(
            (mean - expected).abs() < 0.05,
            "mean reading {mean}, expected ≈ {expected}"
        );
    }

    #[test]
    fn error_bound_covers_observed_error() {
        let mut s = Ina219Model::new(Ina219Config::testbed(), rng());
        let truth = Milliamps::new(200.0);
        let bound = s.error_bound(truth).value();
        for _ in 0..5000 {
            let err = (s.measure(truth).value() - truth.value()).abs();
            assert!(err <= bound * 1.5, "error {err} exceeded bound {bound}");
        }
    }

    #[test]
    fn lsb_scales_with_range() {
        assert!(ShuntRange::Pga40mV.lsb_ma() < ShuntRange::Pga320mV.lsb_ma());
        assert!((ShuntRange::Pga320mV.lsb_ma() - 3200.0 / 4096.0).abs() < 1e-12);
    }
}
