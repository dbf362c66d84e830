//! Centralized-metering baseline.
//!
//! The paper's first experiment compares decentralized (per-device) metering
//! against centralized metering, where "the aggregator ... provides the
//! total energy consumption for the network which is analogous to a
//! centralized meter" (§III-B.a). This module models that baseline directly:
//! a single meter at the network feed, with no per-device visibility, so the
//! comparison harness can report both columns of Fig. 5 and quantify what
//! centralized metering *cannot* do (per-device attribution, mobility).

use rtem_sensors::energy::Milliamps;
use rtem_sensors::grid::{GridNetwork, GridSnapshot};
use rtem_sensors::ina219::{Ina219Config, Ina219Model};
use rtem_sensors::BranchId;
use rtem_sim::rng::SimRng;
use rtem_sim::time::SimTime;
use rtem_sim::trace::TimeSeries;

/// A single network-feed meter (the centralized baseline).
pub struct CentralizedMeter {
    sensor: Ina219Model,
    series: TimeSeries,
    last_snapshot: Option<GridSnapshot>,
}

impl core::fmt::Debug for CentralizedMeter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CentralizedMeter")
            .field("samples", &self.series.len())
            .finish()
    }
}

impl CentralizedMeter {
    /// Creates a meter with the given sensor model.
    pub fn new(sensor: Ina219Config, rng: SimRng) -> Self {
        CentralizedMeter {
            sensor: Ina219Model::new(sensor, rng),
            series: TimeSeries::new("centralized meter (mA)"),
            last_snapshot: None,
        }
    }

    /// Samples the meter: evaluates the grid for the given per-branch loads
    /// and measures the upstream total with the meter's own sensor.
    pub fn sample(
        &mut self,
        grid: &GridNetwork,
        loads: &[(BranchId, Milliamps)],
        now: SimTime,
    ) -> Milliamps {
        let snapshot = grid.evaluate(loads);
        let measured = self.sensor.measure(snapshot.upstream_total);
        self.series.push(now, measured.value());
        self.last_snapshot = Some(snapshot);
        measured
    }

    /// The meter's recorded time series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// The most recent grid snapshot (ground truth, for analysis only — a
    /// real centralized meter has no access to this).
    pub fn last_snapshot(&self) -> Option<&GridSnapshot> {
        self.last_snapshot.as_ref()
    }

    /// Total charge measured so far, in mA·s (trapezoidal integration).
    pub fn total_charge_mas(&self) -> f64 {
        self.series.integrate()
    }
}

/// Side-by-side comparison of the two metering approaches over one window,
/// as plotted in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeteringComparison {
    /// Sum of device-reported charge (decentralized), mA·s.
    pub decentralized_mas: f64,
    /// Charge measured by the centralized meter, mA·s.
    pub centralized_mas: f64,
}

impl MeteringComparison {
    /// Relative excess of the centralized reading over the decentralized sum,
    /// in percent.
    pub fn overhead_percent(&self) -> f64 {
        if self.decentralized_mas <= f64::EPSILON {
            0.0
        } else {
            (self.centralized_mas - self.decentralized_mas) / self.decentralized_mas * 100.0
        }
    }

    /// Whether the centralized reading exceeds the decentralized sum — the
    /// systematic bias the paper attributes to ohmic losses and sensor
    /// offsets.
    pub fn centralized_reads_higher(&self) -> bool {
        self.centralized_mas > self.decentralized_mas
    }
}

/// Capabilities of the two approaches, used in the qualitative part of the
/// comparison (what the paper's architecture adds beyond accuracy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapabilityMatrix {
    /// Can consumption be attributed to individual devices?
    pub per_device_attribution: bool,
    /// Can a device be billed when it charges in a foreign network?
    pub location_independent_billing: bool,
    /// Is stored data tamper-evident?
    pub tamper_evident_storage: bool,
}

impl CapabilityMatrix {
    /// The centralized baseline's capabilities.
    pub fn centralized() -> Self {
        CapabilityMatrix {
            per_device_attribution: false,
            location_independent_billing: false,
            tamper_evident_storage: false,
        }
    }

    /// The proposed decentralized architecture's capabilities.
    pub fn decentralized() -> Self {
        CapabilityMatrix {
            per_device_attribution: true,
            location_independent_billing: true,
            tamper_evident_storage: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_sensors::grid::Branch;
    use rtem_sim::time::SimDuration;

    #[test]
    fn centralized_meter_integrates_network_consumption() {
        let mut grid = GridNetwork::new();
        let a = grid.add_branch(Branch::default());
        let b = grid.add_branch(Branch::default());
        let mut meter = CentralizedMeter::new(Ina219Config::testbed(), SimRng::seed_from_u64(1));
        for i in 0..=100u64 {
            let now = SimTime::ZERO + SimDuration::from_millis(i * 100);
            meter.sample(
                &grid,
                &[(a, Milliamps::new(180.0)), (b, Milliamps::new(160.0))],
                now,
            );
        }
        // 340 mA of device load (plus losses) over 10 s ≈ 3400+ mA·s.
        let total = meter.total_charge_mas();
        assert!(total > 3_400.0, "total {total}");
        assert!(total < 3_700.0, "total {total}");
        assert!(meter.last_snapshot().is_some());
        assert_eq!(meter.series().len(), 101);
    }

    #[test]
    fn comparison_reports_centralized_bias() {
        let cmp = MeteringComparison {
            decentralized_mas: 1000.0,
            centralized_mas: 1045.0,
        };
        assert!(cmp.centralized_reads_higher());
        assert!((cmp.overhead_percent() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn comparison_handles_zero_decentralized() {
        let cmp = MeteringComparison {
            decentralized_mas: 0.0,
            centralized_mas: 10.0,
        };
        assert_eq!(cmp.overhead_percent(), 0.0);
    }

    #[test]
    fn capability_matrix_favours_decentralized() {
        let c = CapabilityMatrix::centralized();
        let d = CapabilityMatrix::decentralized();
        assert!(!c.per_device_attribution && d.per_device_attribution);
        assert!(!c.location_independent_billing && d.location_independent_billing);
        assert!(!c.tamper_evident_storage && d.tamper_evident_storage);
    }
}
