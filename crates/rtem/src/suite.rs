//! Declarative scenario sweeps executed on a worker pool: the [`Suite`].
//!
//! A suite takes one base [`ScenarioSpec`] and a set of axes — seeds,
//! devices per network, link configurations, sensor models — and runs the
//! cartesian grid of specs on a `std::thread` pool, one experiment per
//! cell. The resulting [`SuiteReport`] keeps every cell's
//! [`RunReport`] (in grid order, independent of
//! the thread count) plus cross-cell aggregates.
//!
//! ```
//! use rtem::prelude::*;
//!
//! let base = ScenarioSpec::paper_testbed(0).with_horizon(SimDuration::from_secs(20));
//! let report = Suite::new(base)
//!     .over_seeds([1, 2])
//!     .over_devices_per_network([1, 2])
//!     .with_threads(2)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.cells.len(), 4);
//! assert!(report.aggregates.cell_runtime_s.count == 4);
//! ```

use crate::control::ControlPlan;
use crate::experiment::Experiment;
use crate::faults::FaultPlan;
use crate::report::RunReport;
use crate::spec::{ScenarioSpec, SpecError};
use core::fmt;
use rtem_aggregator::billing::Tariff;
use rtem_codecs::MeterKind;
use rtem_net::link::LinkConfig;
use rtem_sensors::ina219::Ina219Config;
use rtem_workloads::WorkloadModel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A declarative sweep: one base spec, up to nine axes, a worker pool.
///
/// Axes left unset contribute the base spec's value as a single grid point.
/// Cells are enumerated in a fixed order (seed-major, then devices, then
/// link, then sensor, then workload, then meter kinds, then tariff, then
/// fault plan, then control plan), and the report lists them in that order
/// regardless of how many threads executed them.
///
/// # Examples
///
/// ```
/// use rtem::prelude::*;
///
/// let base = ScenarioSpec::paper_testbed(0).with_horizon(SimDuration::from_secs(15));
/// let report = Suite::new(base)
///     .over_seeds([7, 8, 9])
///     .with_threads(3)
///     .run()
///     .unwrap();
/// assert_eq!(report.cells.len(), 3);
/// assert_eq!(report.cells[1].key.seed, 8, "grid order is fixed");
/// ```
#[derive(Debug, Clone)]
pub struct Suite {
    base: ScenarioSpec,
    seeds: Vec<u64>,
    devices_per_network: Vec<u32>,
    links: Vec<(String, LinkConfig, LinkConfig)>,
    sensors: Vec<(String, Ina219Config)>,
    workloads: Vec<(String, WorkloadModel)>,
    meter_kinds: Vec<(String, Vec<MeterKind>)>,
    tariffs: Vec<(String, Tariff)>,
    fault_plans: Vec<(String, FaultPlan)>,
    control_plans: Vec<(String, ControlPlan)>,
    threads: Option<usize>,
}

/// Coordinates of one cell in a suite's grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// Position in the grid's enumeration order.
    pub index: usize,
    /// The cell's seed.
    pub seed: u64,
    /// The cell's devices-per-network count.
    pub devices_per_network: u32,
    /// Label of the cell's link configuration, if the axis was swept.
    pub link: Option<String>,
    /// Label of the cell's sensor model, if the axis was swept.
    pub sensor: Option<String>,
    /// Label of the cell's workload model, if the axis was swept.
    pub workload: Option<String>,
    /// Label of the cell's meter-protocol mix, if the axis was swept.
    pub meter_kinds: Option<String>,
    /// Label of the cell's tariff, if the axis was swept.
    pub tariff: Option<String>,
    /// Label of the cell's fault plan, if the axis was swept.
    pub fault_plan: Option<String>,
    /// Label of the cell's control plan, if the axis was swept.
    pub control_plan: Option<String>,
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={} devices={}", self.seed, self.devices_per_network)?;
        if let Some(link) = &self.link {
            write!(f, " link={link}")?;
        }
        if let Some(sensor) = &self.sensor {
            write!(f, " sensor={sensor}")?;
        }
        if let Some(workload) = &self.workload {
            write!(f, " workload={workload}")?;
        }
        if let Some(meter_kinds) = &self.meter_kinds {
            write!(f, " meters={meter_kinds}")?;
        }
        if let Some(tariff) = &self.tariff {
            write!(f, " tariff={tariff}")?;
        }
        if let Some(fault_plan) = &self.fault_plan {
            write!(f, " faults={fault_plan}")?;
        }
        if let Some(control_plan) = &self.control_plan {
            write!(f, " control={control_plan}")?;
        }
        Ok(())
    }
}

/// One executed cell of a suite.
#[derive(Debug)]
pub struct SuiteCell {
    /// Where the cell sits in the grid.
    pub key: CellKey,
    /// The exact spec the cell ran.
    pub spec: ScenarioSpec,
    /// The cell's full run report.
    pub report: RunReport,
    /// Wall-clock time the cell's experiment took.
    pub wall: Duration,
}

/// Summary statistics over one cross-cell quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateStats {
    /// Number of samples aggregated.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
}

impl AggregateStats {
    /// Computes the statistics over `values`; `None` when empty.
    pub fn from_values(values: &[f64]) -> Option<AggregateStats> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let count = sorted.len();
        let rank = ((count as f64 * 0.95).ceil() as usize).clamp(1, count);
        Some(AggregateStats {
            count,
            mean: sorted.iter().sum::<f64>() / count as f64,
            min: sorted[0],
            max: sorted[count - 1],
            p95: sorted[rank - 1],
        })
    }
}

/// Cross-cell aggregates of a suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteAggregates {
    /// Fig. 5 accuracy overhead (percent) over every settled verification
    /// window of every cell; `None` when no window settled.
    pub accuracy_overhead_percent: Option<AggregateStats>,
    /// Thandshake (seconds) over every completed handshake of every cell;
    /// `None` when no handshake completed.
    pub handshake_latency_s: Option<AggregateStats>,
    /// Fault detection rate over the cells that injected faults; `None`
    /// when no cell carried a fault plan.
    pub fault_detection_rate: Option<AggregateStats>,
    /// Wall-clock runtime (seconds) of the individual cells.
    pub cell_runtime_s: AggregateStats,
    /// Scheduler events dispatched per cell (read from each cell's final
    /// telemetry snapshot), over the cells that enabled telemetry; `None`
    /// when no cell collected telemetry.
    pub telemetry_events_dispatched: Option<AggregateStats>,
}

/// Everything a suite run produced.
#[derive(Debug)]
pub struct SuiteReport {
    /// One entry per grid cell, in grid-enumeration order.
    pub cells: Vec<SuiteCell>,
    /// Worker threads actually used.
    pub threads_used: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Cross-cell aggregates.
    pub aggregates: SuiteAggregates,
}

impl SuiteReport {
    /// The cell at `index` in grid order.
    pub fn cell(&self, index: usize) -> Option<&SuiteCell> {
        self.cells.get(index)
    }

    /// Iterates the cells with a given seed.
    pub fn cells_with_seed(&self, seed: u64) -> impl Iterator<Item = &SuiteCell> {
        self.cells.iter().filter(move |c| c.key.seed == seed)
    }
}

impl Suite {
    /// Starts a suite from a base spec. With no axes set, the suite has one
    /// cell: the base spec itself.
    pub fn new(base: ScenarioSpec) -> Suite {
        Suite {
            base,
            seeds: Vec::new(),
            devices_per_network: Vec::new(),
            links: Vec::new(),
            sensors: Vec::new(),
            workloads: Vec::new(),
            meter_kinds: Vec::new(),
            tariffs: Vec::new(),
            fault_plans: Vec::new(),
            control_plans: Vec::new(),
            threads: None,
        }
    }

    /// Sweeps the seed axis.
    pub fn over_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Suite {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sweeps the devices-per-network axis.
    pub fn over_devices_per_network(mut self, devices: impl IntoIterator<Item = u32>) -> Suite {
        self.devices_per_network = devices.into_iter().collect();
        self
    }

    /// Sweeps the link-quality axis: labelled `(wifi, backhaul)` pairs.
    pub fn over_links(
        mut self,
        links: impl IntoIterator<Item = (impl Into<String>, LinkConfig, LinkConfig)>,
    ) -> Suite {
        self.links = links
            .into_iter()
            .map(|(label, wifi, backhaul)| (label.into(), wifi, backhaul))
            .collect();
        self
    }

    /// Sweeps the sensor-model axis: labelled [`Ina219Config`]s.
    pub fn over_sensors(
        mut self,
        sensors: impl IntoIterator<Item = (impl Into<String>, Ina219Config)>,
    ) -> Suite {
        self.sensors = sensors
            .into_iter()
            .map(|(label, sensor)| (label.into(), sensor))
            .collect();
        self
    }

    /// Sweeps the workload axis: labelled [`WorkloadModel`]s. Pass
    /// `(model.label(), model)` pairs or custom labels; each cell's spec
    /// gets the model via
    /// [`with_workload`](ScenarioSpec::with_workload).
    pub fn over_workloads(
        mut self,
        workloads: impl IntoIterator<Item = (impl Into<String>, WorkloadModel)>,
    ) -> Suite {
        self.workloads = workloads
            .into_iter()
            .map(|(label, workload)| (label.into(), workload))
            .collect();
        self
    }

    /// Sweeps the meter-protocol axis: labelled [`MeterKind`] mixes, each
    /// assigned to the fleet round-robin by device ordinal via
    /// [`with_meter_kinds`](ScenarioSpec::with_meter_kinds). An empty mix
    /// labels a cell that keeps the native encoding.
    pub fn over_meter_kinds(
        mut self,
        kinds: impl IntoIterator<Item = (impl Into<String>, Vec<MeterKind>)>,
    ) -> Suite {
        self.meter_kinds = kinds
            .into_iter()
            .map(|(label, kinds)| (label.into(), kinds))
            .collect();
        self
    }

    /// Sweeps the tariff axis: labelled [`Tariff`]s applied to every
    /// aggregator's billing engine.
    pub fn over_tariffs(
        mut self,
        tariffs: impl IntoIterator<Item = (impl Into<String>, Tariff)>,
    ) -> Suite {
        self.tariffs = tariffs
            .into_iter()
            .map(|(label, tariff)| (label.into(), tariff))
            .collect();
        self
    }

    /// Sweeps the fault-plan axis: labelled [`FaultPlan`]s, one resilience
    /// scenario per label. Cells with a non-empty plan produce a
    /// [`ResilienceReport`](crate::faults::ResilienceReport) in their run
    /// report; an empty plan is the usual way to keep a clean baseline cell
    /// in the same grid.
    pub fn over_fault_plans(
        mut self,
        plans: impl IntoIterator<Item = (impl Into<String>, FaultPlan)>,
    ) -> Suite {
        self.fault_plans = plans
            .into_iter()
            .map(|(label, plan)| (label.into(), plan))
            .collect();
        self
    }

    /// Sweeps the control-plan axis: labelled [`ControlPlan`]s, one
    /// fleet-command scenario per label. Cells with a non-empty plan produce
    /// a [`ControlReport`](crate::control::ControlReport) in their run
    /// report; an empty plan is the usual way to keep an uncommanded
    /// baseline cell in the same grid.
    pub fn over_control_plans(
        mut self,
        plans: impl IntoIterator<Item = (impl Into<String>, ControlPlan)>,
    ) -> Suite {
        self.control_plans = plans
            .into_iter()
            .map(|(label, plan)| (label.into(), plan))
            .collect();
        self
    }

    /// Fixes the worker-thread count. Unset, the suite uses the machine's
    /// available parallelism (capped at the cell count).
    pub fn with_threads(mut self, threads: usize) -> Suite {
        self.threads = Some(threads.max(1));
        self
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.seeds.len().max(1)
            * self.devices_per_network.len().max(1)
            * self.links.len().max(1)
            * self.sensors.len().max(1)
            * self.workloads.len().max(1)
            * self.meter_kinds.len().max(1)
            * self.tariffs.len().max(1)
            * self.fault_plans.len().max(1)
            * self.control_plans.len().max(1)
    }

    /// `true` when the grid is degenerate (never: every axis defaults to the
    /// base value, so the grid always has at least one cell).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Enumerates the grid: every cell's key and fully-derived spec, in the
    /// fixed seed-major order the report will use.
    pub fn cells(&self) -> Vec<(CellKey, ScenarioSpec)> {
        let seeds: Vec<u64> = if self.seeds.is_empty() {
            vec![self.base.seed]
        } else {
            self.seeds.clone()
        };
        let devices: Vec<u32> = if self.devices_per_network.is_empty() {
            vec![self.base.devices_per_network]
        } else {
            self.devices_per_network.clone()
        };
        let links: Vec<Option<&(String, LinkConfig, LinkConfig)>> = if self.links.is_empty() {
            vec![None]
        } else {
            self.links.iter().map(Some).collect()
        };
        let sensors: Vec<Option<&(String, Ina219Config)>> = if self.sensors.is_empty() {
            vec![None]
        } else {
            self.sensors.iter().map(Some).collect()
        };
        let workloads: Vec<Option<&(String, WorkloadModel)>> = if self.workloads.is_empty() {
            vec![None]
        } else {
            self.workloads.iter().map(Some).collect()
        };
        let meter_kinds: Vec<Option<&(String, Vec<MeterKind>)>> = if self.meter_kinds.is_empty() {
            vec![None]
        } else {
            self.meter_kinds.iter().map(Some).collect()
        };
        let tariffs: Vec<Option<&(String, Tariff)>> = if self.tariffs.is_empty() {
            vec![None]
        } else {
            self.tariffs.iter().map(Some).collect()
        };
        let fault_plans: Vec<Option<&(String, FaultPlan)>> = if self.fault_plans.is_empty() {
            vec![None]
        } else {
            self.fault_plans.iter().map(Some).collect()
        };
        let control_plans: Vec<Option<&(String, ControlPlan)>> = if self.control_plans.is_empty() {
            vec![None]
        } else {
            self.control_plans.iter().map(Some).collect()
        };

        let mut cells = Vec::with_capacity(self.len());
        for &seed in &seeds {
            for &devices_per_network in &devices {
                for link in &links {
                    for sensor in &sensors {
                        for workload in &workloads {
                            for meter_kind in &meter_kinds {
                                for tariff in &tariffs {
                                    for fault_plan in &fault_plans {
                                        for control_plan in &control_plans {
                                            let mut spec = self
                                                .base
                                                .clone()
                                                .with_seed(seed)
                                                .with_devices_per_network(devices_per_network);
                                            if let Some((_, wifi, backhaul)) = link {
                                                spec = spec.with_links(*wifi, *backhaul);
                                            }
                                            if let Some((_, sensor)) = sensor {
                                                spec = spec.with_sensor(*sensor);
                                            }
                                            if let Some((_, model)) = workload {
                                                spec = spec.with_workload(model.clone());
                                            }
                                            if let Some((_, kinds)) = meter_kind {
                                                spec = spec.with_meter_kinds(kinds.clone());
                                            }
                                            if let Some((_, tariff)) = tariff {
                                                spec = spec.with_tariff(tariff.clone());
                                            }
                                            if let Some((_, plan)) = fault_plan {
                                                spec = spec.with_fault_plan(plan.clone());
                                            }
                                            if let Some((_, plan)) = control_plan {
                                                spec = spec.with_control_plan(plan.clone());
                                            }
                                            cells.push((
                                                CellKey {
                                                    index: cells.len(),
                                                    seed,
                                                    devices_per_network,
                                                    link: link.map(|(label, _, _)| label.clone()),
                                                    sensor: sensor.map(|(label, _)| label.clone()),
                                                    workload: workload
                                                        .map(|(label, _)| label.clone()),
                                                    meter_kinds: meter_kind
                                                        .map(|(label, _)| label.clone()),
                                                    tariff: tariff.map(|(label, _)| label.clone()),
                                                    fault_plan: fault_plan
                                                        .map(|(label, _)| label.clone()),
                                                    control_plan: control_plan
                                                        .map(|(label, _)| label.clone()),
                                                },
                                                spec,
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// Validates every cell, then executes the grid on the worker pool and
    /// aggregates the results. Fails fast on the first invalid cell, before
    /// anything runs.
    pub fn run(self) -> Result<SuiteReport, SpecError> {
        let cells = self.cells();
        for (_, spec) in &cells {
            spec.validate()?;
        }
        // Faulted cells need a clean twin for the accuracy-under-fault
        // delta. Cells sweeping only the fault-plan axis share the same
        // twin, so simulate each distinct clean spec once up front instead
        // of once per cell inside the pool.
        let mut baselines: Vec<(ScenarioSpec, Option<f64>)> = Vec::new();
        for (_, spec) in &cells {
            if spec.fault_plan.is_empty() {
                continue;
            }
            let clean = spec.clone().with_fault_plan(FaultPlan::new());
            if !baselines.iter().any(|(s, _)| *s == clean) {
                let overhead = Experiment::new(clean.clone())
                    .run()
                    .expect("cell specs were validated above")
                    .mean_overhead_percent();
                baselines.push((clean, overhead));
            }
        }
        let baselines = &baselines;
        let threads = self
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .clamp(1, cells.len().max(1));

        let started = Instant::now();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(RunReport, Duration)>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some((_, spec)) = cells.get(index) else {
                        break;
                    };
                    let cell_started = Instant::now();
                    let baseline = (!spec.fault_plan.is_empty()).then(|| {
                        let clean = spec.clone().with_fault_plan(FaultPlan::new());
                        baselines
                            .iter()
                            .find(|(s, _)| *s == clean)
                            .map(|(_, overhead)| *overhead)
                            .expect("baseline precomputed for every faulted cell")
                    });
                    let report = match baseline {
                        Some(overhead) => Experiment::new(spec.clone())
                            .run_with_clean_baseline(overhead)
                            .expect("cell specs were validated before the pool started"),
                        None => Experiment::new(spec.clone())
                            .run()
                            .expect("cell specs were validated before the pool started"),
                    };
                    let cell_wall = cell_started.elapsed();
                    *slots[index].lock().expect("result slot") = Some((report, cell_wall));
                });
            }
        });
        let wall = started.elapsed();

        let executed: Vec<SuiteCell> = cells
            .into_iter()
            .zip(slots)
            .map(|((key, spec), slot)| {
                let (report, cell_wall) = slot
                    .into_inner()
                    .expect("result slot")
                    .expect("every cell ran to completion");
                SuiteCell {
                    key,
                    spec,
                    report,
                    wall: cell_wall,
                }
            })
            .collect();

        let aggregates = aggregate(&executed);
        Ok(SuiteReport {
            cells: executed,
            threads_used: threads,
            wall,
            aggregates,
        })
    }
}

fn aggregate(cells: &[SuiteCell]) -> SuiteAggregates {
    let mut overheads = Vec::new();
    let mut handshakes = Vec::new();
    let mut detection_rates = Vec::new();
    let mut runtimes = Vec::new();
    let mut dispatched = Vec::new();
    for cell in cells {
        for accuracy in &cell.report.accuracy {
            overheads.extend(accuracy.settled_windows().map(|w| w.overhead_percent()));
        }
        handshakes.extend(
            cell.report
                .metrics
                .handshakes
                .values()
                .map(|b| b.total().as_secs_f64()),
        );
        if let Some(rate) = cell
            .report
            .resilience
            .as_ref()
            .and_then(|r| r.detection_rate())
        {
            detection_rates.push(rate);
        }
        runtimes.push(cell.wall.as_secs_f64());
        if let Some(telemetry) = &cell.report.telemetry {
            let events = telemetry
                .final_snapshot
                .fleet
                .get(rtem_telemetry::MetricId::SchedulerEventsDispatched);
            dispatched.push(events as f64);
        }
    }
    SuiteAggregates {
        accuracy_overhead_percent: AggregateStats::from_values(&overheads),
        handshake_latency_s: AggregateStats::from_values(&handshakes),
        fault_detection_rate: AggregateStats::from_values(&detection_rates),
        cell_runtime_s: AggregateStats::from_values(&runtimes)
            .expect("a suite always has at least one cell"),
        telemetry_events_dispatched: AggregateStats::from_values(&dispatched),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_sim::time::SimDuration;

    #[test]
    fn grid_enumeration_is_the_cartesian_product() {
        let suite = Suite::new(ScenarioSpec::paper_testbed(0))
            .over_seeds([10, 20, 30])
            .over_devices_per_network([1, 2])
            .over_sensors([
                ("testbed", Ina219Config::testbed()),
                ("ideal", Ina219Config::ideal()),
            ]);
        assert_eq!(suite.len(), 12);
        let cells = suite.cells();
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].0.seed, 10);
        assert_eq!(cells[0].0.sensor.as_deref(), Some("testbed"));
        assert_eq!(cells[1].0.sensor.as_deref(), Some("ideal"));
        assert!(cells[0].0.link.is_none(), "unswept axis stays unlabeled");
        assert_eq!(cells[11].0.seed, 30);
        assert_eq!(cells[11].0.devices_per_network, 2);
        // Indexes are grid positions.
        for (i, (key, _)) in cells.iter().enumerate() {
            assert_eq!(key.index, i);
        }
    }

    #[test]
    fn axisless_suite_runs_the_base_spec_once() {
        let base = ScenarioSpec::paper_testbed(4).with_horizon(SimDuration::from_secs(12));
        let report = Suite::new(base.clone()).run().unwrap();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].spec, base);
        assert_eq!(report.aggregates.cell_runtime_s.count, 1);
    }

    #[test]
    fn invalid_cells_fail_before_the_pool_starts() {
        let base = ScenarioSpec::paper_testbed(4);
        let err = Suite::new(base)
            .over_devices_per_network([2, 0])
            .run()
            .unwrap_err();
        assert_eq!(err, SpecError::NoDevices);
    }

    #[test]
    fn aggregate_stats_match_hand_computation() {
        let stats = AggregateStats::from_values(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(stats.count, 4);
        assert!((stats.mean - 2.5).abs() < 1e-12);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 4.0);
        assert_eq!(stats.p95, 4.0, "nearest-rank p95 of 4 samples is the max");
        assert!(AggregateStats::from_values(&[]).is_none());
    }

    #[test]
    fn cell_keys_render_their_coordinates() {
        let key = CellKey {
            index: 0,
            seed: 9,
            devices_per_network: 3,
            link: Some("lossy".into()),
            sensor: None,
            workload: Some("residential".into()),
            meter_kinds: Some("mixed".into()),
            tariff: Some("tou-2w".into()),
            fault_plan: Some("tamper-x2".into()),
            control_plan: Some("rollout-50".into()),
        };
        assert_eq!(
            key.to_string(),
            "seed=9 devices=3 link=lossy workload=residential meters=mixed tariff=tou-2w \
             faults=tamper-x2 control=rollout-50"
        );
    }

    #[test]
    fn meter_kind_axis_expands_the_grid() {
        let suite = Suite::new(ScenarioSpec::paper_testbed(0))
            .over_seeds([1, 2])
            .over_meter_kinds([
                ("internal", Vec::new()),
                ("sml", vec![MeterKind::Sml]),
                (
                    "mixed",
                    vec![
                        MeterKind::Iec62056,
                        MeterKind::Sml,
                        MeterKind::ModbusRtu,
                        MeterKind::WirelessMbus,
                    ],
                ),
            ]);
        assert_eq!(suite.len(), 6);
        let cells = suite.cells();
        assert_eq!(cells[0].0.meter_kinds.as_deref(), Some("internal"));
        assert_eq!(cells[1].0.meter_kinds.as_deref(), Some("sml"));
        assert_eq!(cells[2].0.meter_kinds.as_deref(), Some("mixed"));
        assert!(cells[0].1.meter_kinds.is_empty());
        assert_eq!(cells[1].1.meter_kinds, vec![MeterKind::Sml]);
        assert_eq!(cells[2].1.meter_kinds.len(), 4);
    }

    #[test]
    fn workload_and_tariff_axes_expand_the_grid() {
        let suite = Suite::new(ScenarioSpec::paper_testbed(0))
            .over_workloads([
                ("residential", WorkloadModel::residential()),
                ("ev-fleet", WorkloadModel::ev_fleet()),
            ])
            .over_tariffs([
                ("flat", Tariff::flat(1.0)),
                ("tou", Tariff::evening_peak(1.0)),
                ("tiered", Tariff::two_tier(1.0, 100.0)),
            ]);
        assert_eq!(suite.len(), 6);
        let cells = suite.cells();
        assert_eq!(cells[0].0.workload.as_deref(), Some("residential"));
        assert_eq!(cells[0].0.tariff.as_deref(), Some("flat"));
        assert_eq!(cells[1].0.tariff.as_deref(), Some("tou"));
        assert_eq!(cells[3].0.workload.as_deref(), Some("ev-fleet"));
        assert_eq!(
            cells[0].1.workload,
            Some(WorkloadModel::residential()),
            "the cell's spec carries the swept workload"
        );
        assert_eq!(cells[4].1.tariff, Tariff::evening_peak(1.0));
    }

    #[test]
    fn fault_plan_axis_expands_the_grid() {
        use crate::faults::FaultPlan;
        use rtem_net::packet::AggregatorAddr;
        use rtem_sim::time::SimTime;
        let suite = Suite::new(ScenarioSpec::paper_testbed(0))
            .over_seeds([1, 2])
            .over_fault_plans([
                ("clean", FaultPlan::new()),
                (
                    "tamper",
                    FaultPlan::new().tamper_at(SimTime::from_secs(20), AggregatorAddr(1)),
                ),
            ]);
        assert_eq!(suite.len(), 4);
        let cells = suite.cells();
        assert_eq!(cells[0].0.fault_plan.as_deref(), Some("clean"));
        assert_eq!(cells[1].0.fault_plan.as_deref(), Some("tamper"));
        assert!(cells[0].1.fault_plan.is_empty());
        assert_eq!(cells[1].1.fault_plan.len(), 1);
    }

    #[test]
    fn control_plan_axis_expands_the_grid() {
        use crate::control::{CommandTarget, ControlPlan};
        use rtem_sim::time::SimTime;
        let suite = Suite::new(ScenarioSpec::paper_testbed(0))
            .over_seeds([1, 2])
            .over_control_plans([
                ("uncommanded", ControlPlan::new()),
                (
                    "slowdown",
                    ControlPlan::new().set_measure_interval(
                        SimTime::from_secs(20),
                        CommandTarget::AllDevices,
                        SimDuration::from_millis(500),
                    ),
                ),
            ]);
        assert_eq!(suite.len(), 4);
        let cells = suite.cells();
        assert_eq!(cells[0].0.control_plan.as_deref(), Some("uncommanded"));
        assert_eq!(cells[1].0.control_plan.as_deref(), Some("slowdown"));
        assert!(cells[0].1.control_plan.is_empty());
        assert_eq!(cells[1].1.control_plan.len(), 1);
    }
}
