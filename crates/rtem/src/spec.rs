//! The declarative scenario description consumed by [`Experiment`].
//!
//! [`ScenarioSpec`] is the one way to describe a scenario: topology, device
//! loads, world timing, link quality, sensor and handshake models, scripted
//! topology changes, fault and control plans. It is plain data that can be
//! validated up front, compared and reused across runs;
//! [`Experiment::build_world`] lowers it onto the substrate's `World`.
//!
//! [`Experiment`]: crate::experiment::Experiment
//! [`Experiment::build_world`]: crate::experiment::Experiment::build_world

use core::fmt;
use rtem_aggregator::aggregator::RetentionPolicy;
use rtem_aggregator::billing::{Tariff, TariffError};
use rtem_codecs::MeterKind;
use rtem_control::plan::{ControlError, ControlEvent, ControlPlan};
use rtem_core::simulation::{World, WorldConfig};
use rtem_device::device::MeteringDevice;
use rtem_device::middleware::DeviceConfig;
use rtem_device::network_mgmt::HandshakeTiming;
use rtem_faults::event::FaultEvent;
use rtem_faults::plan::{FaultPlan, FaultPlanError};
use rtem_net::link::LinkConfig;
use rtem_net::packet::{AggregatorAddr, DeviceId};
use rtem_net::rssi::Position;
use rtem_sensors::ina219::Ina219Config;
use rtem_sensors::profile::{ChargingProfile, CompositeProfile, WifiBurstProfile};
use rtem_sim::rng::SimRng;
use rtem_sim::time::{SimDuration, SimTime};
use rtem_telemetry::TelemetryConfig;
use rtem_workloads::{WorkloadError, WorkloadModel};

/// Distance between neighbouring networks, in metres. The `i`-th network,
/// populated or empty, sits at `(NETWORK_SPACING_M * i, 0)`, so scripted
/// mobility crosses the same distances whichever networks it connects.
const NETWORK_SPACING_M: f64 = 200.0;

/// Device ids reserved per network: the `j`-th device of the `i`-th network
/// gets id `i * DEVICE_ID_BLOCK + j + 1`, so more devices than this in one
/// network would collide with the next network's block.
const DEVICE_ID_BLOCK: u32 = 100;

/// Most devices one scenario may declare (`networks × devices_per_network`):
/// 10× the largest committed scale cell (100k devices). Validation checks
/// it before building anything per device, so a giant fleet is rejected in
/// constant time instead of exhausting memory.
const MAX_DEVICES: u64 = 1_000_000;

/// Most networks one scenario may declare (`networks + empty_networks`):
/// 20× the largest benchmark workload (50 networks). Every network joins a
/// full backhaul mesh, so a world of N networks holds N(N − 1) links:
/// building 2,000 networks took 5.5 s and 910 MB (release build, 2-core
/// machine). Validation checks it before building any address list.
const MAX_NETWORKS: u32 = 1_000;

/// Which load is attached to each generated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceLoad {
    /// An ESP32-class device charging a small battery while reporting.
    EspCharging,
    /// An e-scooter style fast charge.
    EScooter,
    /// Only the reporting firmware (idle device), the lightest load.
    ReportingOnly,
}

/// One scripted topology change applied during a run.
///
/// Script events are the declarative replacement for calling
/// `World::schedule_unplug` / `schedule_plug_in` / `schedule_remove_device`
/// by hand between building and running a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptEvent {
    /// Plug `device` into `network` at `at`.
    PlugIn {
        /// When the plug-in happens.
        at: SimTime,
        /// The device being plugged in.
        device: DeviceId,
        /// The network receiving it.
        network: AggregatorAddr,
    },
    /// Unplug `device` from whatever network it is in at `at`.
    Unplug {
        /// When the unplug happens.
        at: SimTime,
        /// The device being unplugged.
        device: DeviceId,
    },
    /// The home network `home` removes `device` (loss / ownership change,
    /// sequence 3 of the paper's Fig. 3).
    RemoveDevice {
        /// When the removal is issued.
        at: SimTime,
        /// The device being removed.
        device: DeviceId,
        /// The home network issuing the removal.
        home: AggregatorAddr,
    },
}

impl ScriptEvent {
    /// The simulated time at which the event fires.
    pub fn at(&self) -> SimTime {
        match *self {
            ScriptEvent::PlugIn { at, .. }
            | ScriptEvent::Unplug { at, .. }
            | ScriptEvent::RemoveDevice { at, .. } => at,
        }
    }

    /// The device the event concerns.
    pub fn device(&self) -> DeviceId {
        match *self {
            ScriptEvent::PlugIn { device, .. }
            | ScriptEvent::Unplug { device, .. }
            | ScriptEvent::RemoveDevice { device, .. } => device,
        }
    }
}

/// Why a [`ScenarioSpec`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecError {
    /// The spec declares zero networks — there is nothing to meter.
    NoNetworks,
    /// The spec declares zero devices per network — nothing reports.
    NoDevices,
    /// `networks + empty_networks` exceeds the most networks one scenario
    /// may hold (1,000).
    TooManyNetworks {
        /// Declared populated networks.
        networks: u32,
        /// Declared initially-empty networks.
        empty_networks: u32,
    },
    /// With more than one network, the generated device-id scheme reserves
    /// a fixed-size id block per network; more devices per network than the
    /// block holds would silently collide across networks.
    TooManyDevicesPerNetwork {
        /// Declared devices per network.
        devices_per_network: u32,
        /// Size of each network's device-id block.
        limit: u32,
    },
    /// The spec declares more devices in total than one scenario may hold.
    TooManyDevices {
        /// Declared devices, `networks × devices_per_network`.
        devices: u64,
        /// Most devices one scenario may declare (1,000,000).
        limit: u64,
    },
    /// The run horizon is zero — the world would never advance.
    ZeroHorizon,
    /// The measurement interval (Tmeasure) is zero — devices would spin.
    ZeroMeasureInterval,
    /// The aggregators' upstream sampling interval is zero — every
    /// aggregator would resample at the same instant forever.
    ZeroUpstreamSampleInterval,
    /// The verification window is zero — no block could ever be sealed.
    ZeroVerificationWindow,
    /// A script event refers to a device the spec does not generate.
    UnknownScriptDevice {
        /// The offending device id.
        device: DeviceId,
    },
    /// A script event refers to a network the spec does not generate.
    UnknownScriptNetwork {
        /// The offending network address.
        network: AggregatorAddr,
    },
    /// A script event fires after the horizon and would never run (events
    /// at exactly the horizon still execute).
    ScriptEventAfterHorizon {
        /// When the event was scheduled.
        at: SimTime,
    },
    /// The spec's fault plan failed its own validation (unknown targets,
    /// inverted timelines, degenerate parameters).
    InvalidFaultPlan(FaultPlanError),
    /// The spec's control plan failed its own validation (unknown targets,
    /// events past the horizon, degenerate parameters).
    InvalidControlPlan(ControlError),
    /// The spec's tariff failed its own validation (overlapping time-of-use
    /// windows, empty tier ladders, negative rates …).
    InvalidTariff(TariffError),
    /// The spec's workload model failed its own validation (negative
    /// magnitudes, inverted business hours, empty mixes …).
    InvalidWorkload(WorkloadError),
    /// The spec's telemetry configuration is incoherent (zero snapshot
    /// interval or zero profiler sampling stride).
    InvalidTelemetry,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoNetworks => write!(f, "scenario declares zero networks"),
            SpecError::NoDevices => write!(f, "scenario declares zero devices per network"),
            SpecError::TooManyNetworks {
                networks,
                empty_networks,
            } => write!(
                f,
                "{networks} networks + {empty_networks} empty networks exceed the \
                 {MAX_NETWORKS}-network limit of one scenario"
            ),
            SpecError::TooManyDevicesPerNetwork {
                devices_per_network,
                limit,
            } => write!(
                f,
                "{devices_per_network} devices per network exceed the {limit}-id block reserved \
                 per network (ids would collide across networks)"
            ),
            SpecError::TooManyDevices { devices, limit } => write!(
                f,
                "{devices} devices exceed the {limit}-device limit of one scenario"
            ),
            SpecError::ZeroHorizon => write!(f, "scenario horizon is zero"),
            SpecError::ZeroMeasureInterval => write!(f, "measurement interval is zero"),
            SpecError::ZeroUpstreamSampleInterval => write!(f, "upstream sample interval is zero"),
            SpecError::ZeroVerificationWindow => write!(f, "verification window is zero"),
            SpecError::UnknownScriptDevice { device } => {
                write!(f, "script refers to unknown device {device:?}")
            }
            SpecError::UnknownScriptNetwork { network } => {
                write!(f, "script refers to unknown network {network:?}")
            }
            SpecError::ScriptEventAfterHorizon { at } => {
                write!(f, "script event at {at:?} is after the horizon")
            }
            SpecError::InvalidFaultPlan(error) => write!(f, "invalid fault plan: {error}"),
            SpecError::InvalidControlPlan(error) => write!(f, "invalid control plan: {error}"),
            SpecError::InvalidTariff(error) => write!(f, "invalid tariff: {error}"),
            SpecError::InvalidWorkload(error) => write!(f, "invalid workload: {error}"),
            SpecError::InvalidTelemetry => {
                write!(
                    f,
                    "invalid telemetry config: snapshot interval and profiler \
                     sampling stride must be non-zero"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Declarative description of one metering experiment.
///
/// A spec fixes the topology (networks x devices), the load each device
/// draws, the timing parameters, the link quality, the sensor model, the
/// random seed, the run horizon and any scripted topology changes. Feed it
/// to [`Experiment::new`](crate::experiment::Experiment::new) and call
/// `run()` to obtain a [`RunReport`](crate::report::RunReport).
///
/// ```
/// use rtem::prelude::*;
///
/// let report = Experiment::new(
///     ScenarioSpec::paper_testbed(42).with_horizon(SimDuration::from_secs(30)),
/// )
/// .run()
/// .unwrap();
/// assert_eq!(report.metrics.networks.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Number of networks; each gets one trusted aggregator.
    pub networks: u32,
    /// Devices initially plugged into each network.
    pub devices_per_network: u32,
    /// Additional networks that start with no homed devices — destinations
    /// for scripted mobility (e.g. a fleet roaming out of one home network).
    pub empty_networks: u32,
    /// Load profile attached to every device.
    pub load: DeviceLoad,
    /// Diurnal workload model overriding `load` when set (see
    /// [`WorkloadModel`]): the [`Mix`](WorkloadModel::Mix) variant assigns
    /// component workloads round-robin by device ordinal.
    pub workload: Option<WorkloadModel>,
    /// Meter protocols the fleet speaks, assigned round-robin by device
    /// ordinal (see [`MeterKind`]). Empty means every device speaks
    /// `MeterKind::Internal`, the native packet encoding — bit-identical
    /// behavior with every earlier revision of the testbed.
    pub meter_kinds: Vec<MeterKind>,
    /// Tariff every aggregator's billing engine applies.
    pub tariff: Tariff,
    /// Random seed for the whole world (same seed, same run).
    pub seed: u64,
    /// How long to simulate.
    pub horizon: SimDuration,
    /// Reporting interval of every device (the paper's Tmeasure, 100 ms).
    pub t_measure: SimDuration,
    /// Interval between the aggregator's own upstream samples.
    pub upstream_sample_interval: SimDuration,
    /// Length of one verification window (one sealed block per window).
    pub verification_window: SimDuration,
    /// Access-link quality between devices and their aggregator's broker.
    pub wifi: LinkConfig,
    /// Backhaul link quality between aggregators.
    pub backhaul: LinkConfig,
    /// Handshake phase timing used by the devices.
    pub handshake: HandshakeTiming,
    /// Sensor model used by the devices.
    pub sensor: Ina219Config,
    /// Scripted topology changes applied during the run.
    pub script: Vec<ScriptEvent>,
    /// Scheduled fault injections applied during the run (the resilience
    /// counterpart of `script`). A non-empty plan makes the run's
    /// [`RunReport`](crate::report::RunReport) carry a
    /// [`ResilienceReport`](crate::faults::ResilienceReport).
    pub fault_plan: FaultPlan,
    /// Scheduled fleet commands published over the MQTT control plane (the
    /// operations counterpart of `fault_plan`). A non-empty plan makes the
    /// run's [`RunReport`](crate::report::RunReport) carry a
    /// [`ControlReport`](crate::control::ControlReport).
    pub control_plan: ControlPlan,
    /// Telemetry collection for the run (the observability counterpart of
    /// `fault_plan` / `control_plan`). `Some` makes the run's
    /// [`RunReport`](crate::report::RunReport) carry a
    /// [`TelemetryReport`](rtem_telemetry::TelemetryReport); `None` (the
    /// default) records nothing. Either way the simulation outcome is
    /// bit-identical — telemetry only reads state the run already keeps.
    pub telemetry: Option<TelemetryConfig>,
    /// Ledger / series retention policy. `KeepAll` (the default) retains
    /// the complete run history in memory; `ActiveWindows(n)` seals and
    /// evicts everything older than `n` verification windows behind a
    /// digest chain, bounding resident state to the active window while
    /// keeping audits, bills and accuracy metrics bit-identical.
    pub retention: RetentionPolicy,
}

impl ScenarioSpec {
    /// The paper's testbed (§III-A): two networks, two ESP32-class charging
    /// devices each, reporting every 100 ms, run for 100 s.
    pub fn paper_testbed(seed: u64) -> ScenarioSpec {
        let world = WorldConfig::default();
        ScenarioSpec {
            networks: 2,
            devices_per_network: 2,
            empty_networks: 0,
            load: DeviceLoad::EspCharging,
            workload: None,
            meter_kinds: Vec::new(),
            tariff: Tariff::default(),
            seed,
            horizon: SimDuration::from_secs(100),
            t_measure: world.t_measure,
            upstream_sample_interval: world.upstream_sample_interval,
            verification_window: world.verification_window,
            wifi: world.wifi,
            backhaul: world.backhaul,
            handshake: HandshakeTiming::testbed(),
            sensor: Ina219Config::testbed(),
            script: Vec::new(),
            fault_plan: FaultPlan::new(),
            control_plan: ControlPlan::new(),
            telemetry: None,
            retention: RetentionPolicy::KeepAll,
        }
    }

    /// A single network with `devices` devices (scalability sweeps).
    pub fn single_network(devices: u32, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            networks: 1,
            devices_per_network: devices,
            ..ScenarioSpec::paper_testbed(seed)
        }
    }

    /// Address of the `i`-th network (0-based index, 1-based address, like
    /// the paper's "Network 1" / "Network 2").
    pub fn network_addr(i: u32) -> AggregatorAddr {
        AggregatorAddr(i + 1)
    }

    /// Id of the `j`-th device of the `i`-th network.
    pub fn device_id(network: u32, j: u32) -> DeviceId {
        DeviceId(u64::from(network) * u64::from(DEVICE_ID_BLOCK) + u64::from(j) + 1)
    }

    /// Sets the number of networks.
    pub fn with_networks(mut self, networks: u32) -> ScenarioSpec {
        self.networks = networks;
        self
    }

    /// Sets the number of devices per network.
    pub fn with_devices_per_network(mut self, devices: u32) -> ScenarioSpec {
        self.devices_per_network = devices;
        self
    }

    /// Adds networks that start empty (scripted-mobility destinations).
    pub fn with_empty_networks(mut self, networks: u32) -> ScenarioSpec {
        self.empty_networks = networks;
        self
    }

    /// Sets the per-device load.
    pub fn with_load(mut self, load: DeviceLoad) -> ScenarioSpec {
        self.load = load;
        self
    }

    /// Sets a diurnal workload model, overriding the legacy
    /// [`DeviceLoad`] shapes.
    ///
    /// ```
    /// use rtem::prelude::*;
    ///
    /// let spec = ScenarioSpec::paper_testbed(1)
    ///     .with_workload(WorkloadModel::neighborhood())
    ///     .with_tariff(Tariff::evening_peak(1.0));
    /// assert_eq!(spec.validate(), Ok(()));
    /// ```
    pub fn with_workload(mut self, workload: WorkloadModel) -> ScenarioSpec {
        self.workload = Some(workload);
        self
    }

    /// Sets the meter protocols the fleet speaks, assigned round-robin by
    /// device ordinal. One entry gives a homogeneous fleet, several a
    /// heterogeneous mix; empty (the default) keeps the native encoding.
    ///
    /// ```
    /// use rtem::prelude::*;
    ///
    /// let spec = ScenarioSpec::paper_testbed(1)
    ///     .with_meter_kinds(vec![MeterKind::Sml, MeterKind::ModbusRtu]);
    /// assert_eq!(spec.validate(), Ok(()));
    /// ```
    pub fn with_meter_kinds(mut self, kinds: Vec<MeterKind>) -> ScenarioSpec {
        self.meter_kinds = kinds;
        self
    }

    /// Sets the tariff the aggregators bill under.
    pub fn with_tariff(mut self, tariff: Tariff) -> ScenarioSpec {
        self.tariff = tariff;
        self
    }

    /// Sets the run horizon.
    pub fn with_horizon(mut self, horizon: SimDuration) -> ScenarioSpec {
        self.horizon = horizon;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> ScenarioSpec {
        self.seed = seed;
        self
    }

    /// Sets the verification window length.
    pub fn with_verification_window(mut self, window: SimDuration) -> ScenarioSpec {
        self.verification_window = window;
        self
    }

    /// Sets the device sensor model (e.g. `Ina219Config::ideal()` for the
    /// error-decomposition ablation).
    pub fn with_sensor(mut self, sensor: Ina219Config) -> ScenarioSpec {
        self.sensor = sensor;
        self
    }

    /// Sets the access and backhaul link quality.
    pub fn with_links(mut self, wifi: LinkConfig, backhaul: LinkConfig) -> ScenarioSpec {
        self.wifi = wifi;
        self.backhaul = backhaul;
        self
    }

    /// Appends a scripted plug-in.
    pub fn plug_in_at(
        mut self,
        at: SimTime,
        device: DeviceId,
        network: AggregatorAddr,
    ) -> ScenarioSpec {
        self.script.push(ScriptEvent::PlugIn {
            at,
            device,
            network,
        });
        self
    }

    /// Appends a scripted unplug.
    pub fn unplug_at(mut self, at: SimTime, device: DeviceId) -> ScenarioSpec {
        self.script.push(ScriptEvent::Unplug { at, device });
        self
    }

    /// Appends a scripted device removal by its home network.
    pub fn remove_device_at(
        mut self,
        at: SimTime,
        device: DeviceId,
        home: AggregatorAddr,
    ) -> ScenarioSpec {
        self.script
            .push(ScriptEvent::RemoveDevice { at, device, home });
        self
    }

    /// Replaces the fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> ScenarioSpec {
        self.fault_plan = plan;
        self
    }

    /// Appends one fault event to the plan.
    pub fn with_fault(mut self, event: FaultEvent) -> ScenarioSpec {
        self.fault_plan.events.push(event);
        self
    }

    /// Replaces the control plan.
    pub fn with_control_plan(mut self, plan: ControlPlan) -> ScenarioSpec {
        self.control_plan = plan;
        self
    }

    /// Appends one fleet command to the control plan.
    pub fn with_command(mut self, event: ControlEvent) -> ScenarioSpec {
        self.control_plan.events.push(event);
        self
    }

    /// Enables telemetry collection for the run.
    ///
    /// ```
    /// use rtem::prelude::*;
    ///
    /// let spec = ScenarioSpec::paper_testbed(1)
    ///     .with_telemetry(TelemetryConfig::default());
    /// assert_eq!(spec.validate(), Ok(()));
    /// ```
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> ScenarioSpec {
        self.telemetry = Some(config);
        self
    }

    /// Returns the spec unchanged: the event loop is sequential. Kept only
    /// because the benchmark under `perfbench/` still calls
    /// `with_shards(1)`, and that package changes only together with the
    /// benchmark itself; the shim goes once that call is dropped.
    #[doc(hidden)]
    pub fn with_shards(self, _shards: usize) -> ScenarioSpec {
        self
    }

    /// Bounds resident memory to roughly `windows` verification windows:
    /// older ledger blocks are sealed behind a digest chain and older
    /// series samples are folded into per-window summaries, keeping
    /// audits, bills and accuracy metrics bit-identical to a keep-all run.
    ///
    /// ```
    /// use rtem::prelude::*;
    ///
    /// let spec = ScenarioSpec::paper_testbed(1).with_bounded_memory(8);
    /// assert_eq!(spec.validate(), Ok(()));
    /// ```
    pub fn with_bounded_memory(mut self, windows: usize) -> ScenarioSpec {
        self.retention = RetentionPolicy::ActiveWindows(windows);
        self
    }

    /// Sets the retention policy directly (see [`RetentionPolicy`]).
    pub fn with_retention(mut self, retention: RetentionPolicy) -> ScenarioSpec {
        self.retention = retention;
        self
    }

    /// All device ids the spec generates, in network-major order. That
    /// order is ascending whenever each network's devices fit its id block,
    /// which [`validate`](Self::validate) checks before it binary-searches
    /// the list.
    pub fn device_ids(&self) -> Vec<DeviceId> {
        (0..self.networks)
            .flat_map(|n| (0..self.devices_per_network).map(move |j| Self::device_id(n, j)))
            .collect()
    }

    /// All network addresses the spec generates, empty networks included,
    /// in ascending order.
    ///
    /// Saturates instead of overflowing on absurd totals so the accessor
    /// stays panic-free on unvalidated specs; [`validate`](Self::validate)
    /// rejects such specs with [`SpecError::TooManyNetworks`].
    pub fn network_addrs(&self) -> Vec<AggregatorAddr> {
        (0..self.total_networks()).map(Self::network_addr).collect()
    }

    /// `networks + empty_networks`, saturating at the addressable maximum
    /// (`network_addr` maps index `i` to address `i + 1`, so the last
    /// representable index is `u32::MAX - 1`).
    fn total_networks(&self) -> u32 {
        self.networks
            .saturating_add(self.empty_networks)
            .min(u32::MAX - 1)
    }

    /// Checks the spec for inconsistencies, returning the first found.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.networks == 0 {
            return Err(SpecError::NoNetworks);
        }
        if self.devices_per_network == 0 {
            return Err(SpecError::NoDevices);
        }
        if self
            .networks
            .checked_add(self.empty_networks)
            .map_or(true, |total| total > u32::MAX - 1)
        {
            return Err(SpecError::TooManyNetworks {
                networks: self.networks,
                empty_networks: self.empty_networks,
            });
        }
        if self.networks > 1 && self.devices_per_network > DEVICE_ID_BLOCK {
            return Err(SpecError::TooManyDevicesPerNetwork {
                devices_per_network: self.devices_per_network,
                limit: DEVICE_ID_BLOCK,
            });
        }
        let devices = u64::from(self.networks) * u64::from(self.devices_per_network);
        if devices > MAX_DEVICES {
            return Err(SpecError::TooManyDevices {
                devices,
                limit: MAX_DEVICES,
            });
        }
        if self.networks + self.empty_networks > MAX_NETWORKS {
            return Err(SpecError::TooManyNetworks {
                networks: self.networks,
                empty_networks: self.empty_networks,
            });
        }
        if self.horizon.is_zero() {
            return Err(SpecError::ZeroHorizon);
        }
        if self.t_measure.is_zero() {
            return Err(SpecError::ZeroMeasureInterval);
        }
        if self.upstream_sample_interval.is_zero() {
            return Err(SpecError::ZeroUpstreamSampleInterval);
        }
        if self.verification_window.is_zero() {
            return Err(SpecError::ZeroVerificationWindow);
        }
        let devices = self.device_ids();
        let networks = self.network_addrs();
        let horizon = SimTime::ZERO + self.horizon;
        for event in &self.script {
            if devices.binary_search(&event.device()).is_err() {
                return Err(SpecError::UnknownScriptDevice {
                    device: event.device(),
                });
            }
            let target = match *event {
                ScriptEvent::PlugIn { network, .. } => Some(network),
                ScriptEvent::RemoveDevice { home, .. } => Some(home),
                ScriptEvent::Unplug { .. } => None,
            };
            if let Some(network) = target {
                if networks.binary_search(&network).is_err() {
                    return Err(SpecError::UnknownScriptNetwork { network });
                }
            }
            // World::run_until still executes events scheduled exactly at
            // the horizon, so only strictly-later events are unreachable.
            if event.at() > horizon {
                return Err(SpecError::ScriptEventAfterHorizon { at: event.at() });
            }
        }
        self.fault_plan
            .validate(&devices, &networks, horizon)
            .map_err(SpecError::InvalidFaultPlan)?;
        self.control_plan
            .validate(&devices, &networks, horizon)
            .map_err(SpecError::InvalidControlPlan)?;
        self.tariff.validate().map_err(SpecError::InvalidTariff)?;
        if let Some(workload) = &self.workload {
            workload.validate().map_err(SpecError::InvalidWorkload)?;
        }
        if self.telemetry.is_some_and(|config| !config.is_valid()) {
            return Err(SpecError::InvalidTelemetry);
        }
        Ok(())
    }

    /// Builds the initial world: the populated networks placed
    /// `NETWORK_SPACING_M` apart, every device plugged into its home network
    /// at t = 0 (network-major), then the empty networks on the same line.
    /// The order matters: `World::add_network` schedules events at t = 0,
    /// and ties run in scheduling order.
    pub(crate) fn populate(&self) -> World {
        let mut world = World::new(WorldConfig {
            t_measure: self.t_measure,
            upstream_sample_interval: self.upstream_sample_interval,
            verification_window: self.verification_window,
            wifi: self.wifi,
            backhaul: self.backhaul,
            tariff: self.tariff.clone(),
            seed: self.seed,
            retention: self.retention,
        });
        let position = |i: u32| Position::new(NETWORK_SPACING_M * f64::from(i), 0.0);
        for n in 0..self.networks {
            world.add_network(Self::network_addr(n), position(n));
        }
        let rng = SimRng::seed_from_u64(self.seed ^ 0x5CEA_A210);
        for n in 0..self.networks {
            for j in 0..self.devices_per_network {
                let id = Self::device_id(n, j);
                let ordinal = u64::from(n) * u64::from(self.devices_per_network) + u64::from(j);
                let load = self.device_load(&rng, u64::from(n) * 1000 + u64::from(j) * 10, ordinal);
                world.add_device(MeteringDevice::new(
                    DeviceConfig::testbed(id),
                    load,
                    self.sensor,
                    self.handshake,
                    rtem_device::application::Tariff::default(),
                    rng.derive(0xDE71CE + id.0),
                ));
                if !self.meter_kinds.is_empty() {
                    let kind = self.meter_kinds[ordinal as usize % self.meter_kinds.len()];
                    world.set_meter_kind(id, kind);
                }
                world.plug_in_now(id, Self::network_addr(n));
            }
        }
        for i in self.networks..self.networks + self.empty_networks {
            world.add_network(Self::network_addr(i), position(i));
        }
        world
    }

    /// The load of the device with the given `ordinal`, drawing its
    /// randomness from `stream` and `stream + 1` of `rng`.
    fn device_load(&self, rng: &SimRng, stream: u64, ordinal: u64) -> CompositeProfile {
        let composite = CompositeProfile::new();
        if let Some(workload) = &self.workload {
            // The workload replaces the electrical load; the reporting
            // firmware's own draw stays, exactly like the legacy shapes.
            return composite
                .push(workload.build_for_device(ordinal, rng.derive(stream)))
                .push(WifiBurstProfile::esp32_reporting(rng.derive(stream + 1)));
        }
        match self.load {
            DeviceLoad::EspCharging => composite
                .push(ChargingProfile::esp32_testbed(rng.derive(stream)))
                .push(WifiBurstProfile::esp32_reporting(rng.derive(stream + 1))),
            DeviceLoad::EScooter => composite
                .push(ChargingProfile::e_scooter(rng.derive(stream)))
                .push(WifiBurstProfile::esp32_reporting(rng.derive(stream + 1))),
            DeviceLoad::ReportingOnly => {
                composite.push(WifiBurstProfile::esp32_reporting(rng.derive(stream)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_is_valid() {
        assert_eq!(ScenarioSpec::paper_testbed(1).validate(), Ok(()));
    }

    #[test]
    fn zero_shapes_are_rejected_with_typed_errors() {
        let spec = ScenarioSpec::paper_testbed(1).with_networks(0);
        assert_eq!(spec.validate(), Err(SpecError::NoNetworks));
        let spec = ScenarioSpec::paper_testbed(1).with_devices_per_network(0);
        assert_eq!(spec.validate(), Err(SpecError::NoDevices));
        let spec = ScenarioSpec::paper_testbed(1).with_horizon(SimDuration::ZERO);
        assert_eq!(spec.validate(), Err(SpecError::ZeroHorizon));
        let mut spec = ScenarioSpec::paper_testbed(1);
        spec.upstream_sample_interval = SimDuration::ZERO;
        assert_eq!(spec.validate(), Err(SpecError::ZeroUpstreamSampleInterval));
    }

    #[test]
    fn absurd_network_totals_are_rejected_not_overflowed() {
        let spec = ScenarioSpec::paper_testbed(1)
            .with_networks(u32::MAX)
            .with_empty_networks(2);
        // Validation reports the would-be overflow as a typed error (and
        // runs before any address enumeration, so nothing wraps or panics).
        assert_eq!(
            spec.validate(),
            Err(SpecError::TooManyNetworks {
                networks: u32::MAX,
                empty_networks: 2
            })
        );
        // The boundary: a total of u32::MAX is already unaddressable
        // (network_addr maps index i to address i + 1).
        let spec = ScenarioSpec::paper_testbed(1)
            .with_networks(u32::MAX - 2)
            .with_empty_networks(2);
        assert!(matches!(
            spec.validate(),
            Err(SpecError::TooManyNetworks { .. })
        ));
        // Addressable but too many to build: every network joins a full
        // backhaul mesh, so these are rejected before any address exists.
        let spec = ScenarioSpec::paper_testbed(1).with_empty_networks(1_000_000);
        assert_eq!(
            spec.validate(),
            Err(SpecError::TooManyNetworks {
                networks: 2,
                empty_networks: 1_000_000
            })
        );
        let spec = ScenarioSpec::paper_testbed(1)
            .with_networks(10_000)
            .with_devices_per_network(1);
        assert_eq!(
            spec.validate(),
            Err(SpecError::TooManyNetworks {
                networks: 10_000,
                empty_networks: 0
            })
        );
        // The limit itself is allowed: 1,000 networks in total.
        let spec = ScenarioSpec::paper_testbed(1).with_empty_networks(998);
        assert_eq!(spec.validate(), Ok(()));
        let spec = ScenarioSpec::paper_testbed(1).with_empty_networks(999);
        assert_eq!(
            spec.validate(),
            Err(SpecError::TooManyNetworks {
                networks: 2,
                empty_networks: 999
            })
        );
    }

    #[test]
    fn colliding_device_ids_are_rejected() {
        // device_id(0, 100) == device_id(1, 0): more than one id block per
        // network collides as soon as a second network exists.
        let spec = ScenarioSpec::paper_testbed(1).with_devices_per_network(101);
        assert_eq!(
            spec.validate(),
            Err(SpecError::TooManyDevicesPerNetwork {
                devices_per_network: 101,
                limit: 100
            })
        );
        // A single network cannot collide with anything.
        let spec = ScenarioSpec::single_network(500, 1);
        assert_eq!(spec.validate(), Ok(()));
        // The block boundary itself is fine.
        let spec = ScenarioSpec::paper_testbed(1).with_devices_per_network(100);
        assert_eq!(spec.validate(), Ok(()));
    }

    /// Both giant shapes come back as a typed error at once: validation
    /// never builds their ids (the first would need ~34 GB). That the test
    /// returns at all is the check.
    #[test]
    fn giant_fleets_are_rejected_before_anything_is_built() {
        let spec = ScenarioSpec::paper_testbed(1)
            .with_networks(1)
            .with_devices_per_network(u32::MAX);
        assert_eq!(
            spec.validate(),
            Err(SpecError::TooManyDevices {
                devices: u64::from(u32::MAX),
                limit: 1_000_000
            })
        );
        let spec = ScenarioSpec::paper_testbed(1)
            .with_networks(u32::MAX - 1)
            .with_devices_per_network(100);
        assert_eq!(
            spec.validate(),
            Err(SpecError::TooManyDevices {
                devices: u64::from(u32::MAX - 1) * 100,
                limit: 1_000_000
            })
        );
        // The limit itself is allowed.
        let spec = ScenarioSpec::single_network(1_000_000, 1);
        assert_eq!(spec.validate(), Ok(()));
        let spec = ScenarioSpec::single_network(1_000_001, 1);
        assert!(matches!(
            spec.validate(),
            Err(SpecError::TooManyDevices { .. })
        ));
    }

    #[test]
    fn script_targets_are_checked() {
        let spec = ScenarioSpec::paper_testbed(1).unplug_at(SimTime::from_secs(1), DeviceId(9999));
        assert_eq!(
            spec.validate(),
            Err(SpecError::UnknownScriptDevice {
                device: DeviceId(9999)
            })
        );
        let spec = ScenarioSpec::paper_testbed(1).plug_in_at(
            SimTime::from_secs(1),
            ScenarioSpec::device_id(0, 0),
            AggregatorAddr(77),
        );
        assert_eq!(
            spec.validate(),
            Err(SpecError::UnknownScriptNetwork {
                network: AggregatorAddr(77)
            })
        );
        let spec = ScenarioSpec::paper_testbed(1)
            .unplug_at(SimTime::from_secs(500), ScenarioSpec::device_id(0, 0));
        assert!(matches!(
            spec.validate(),
            Err(SpecError::ScriptEventAfterHorizon { .. })
        ));
        // The ids just past a network's block and past the last network are
        // unknown; the last id of a large network is known.
        let base = ScenarioSpec::paper_testbed(1);
        for device in [
            ScenarioSpec::device_id(0, base.devices_per_network),
            ScenarioSpec::device_id(base.networks, 0),
        ] {
            let spec = base.clone().unplug_at(SimTime::from_secs(1), device);
            assert_eq!(
                spec.validate(),
                Err(SpecError::UnknownScriptDevice { device })
            );
        }
        let spec = ScenarioSpec::single_network(500, 1)
            .unplug_at(SimTime::from_secs(1), ScenarioSpec::device_id(0, 499));
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn fault_plan_targets_are_checked() {
        let plan = FaultPlan::new().sensor_stuck_at(SimTime::from_secs(1), DeviceId(4242), 10.0);
        let spec = ScenarioSpec::paper_testbed(1).with_fault_plan(plan);
        assert_eq!(
            spec.validate(),
            Err(SpecError::InvalidFaultPlan(FaultPlanError::UnknownDevice {
                device: DeviceId(4242)
            }))
        );
        // A valid plan against the generated population passes.
        let plan = FaultPlan::new()
            .sensor_stuck_at(SimTime::from_secs(1), ScenarioSpec::device_id(0, 0), 10.0)
            .tamper_at(SimTime::from_secs(2), ScenarioSpec::network_addr(1));
        let spec = ScenarioSpec::paper_testbed(1).with_fault_plan(plan);
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn control_plan_targets_are_checked() {
        use rtem_control::CommandTarget;
        let plan = ControlPlan::new()
            .stop_reporting(SimTime::from_secs(1), CommandTarget::Device(DeviceId(4242)));
        let spec = ScenarioSpec::paper_testbed(1).with_control_plan(plan);
        assert_eq!(
            spec.validate(),
            Err(SpecError::InvalidControlPlan(ControlError::UnknownDevice {
                device: DeviceId(4242)
            }))
        );
        // A valid plan against the generated population passes.
        let plan = ControlPlan::new()
            .set_measure_interval(
                SimTime::from_secs(1),
                CommandTarget::AllDevices,
                SimDuration::from_millis(500),
            )
            .stop_reporting(
                SimTime::from_secs(2),
                CommandTarget::Device(ScenarioSpec::device_id(0, 0)),
            );
        let spec = ScenarioSpec::paper_testbed(1).with_control_plan(plan);
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn invalid_tariffs_are_rejected_with_typed_errors() {
        use rtem_aggregator::billing::TouWindow;
        let overlapping = Tariff::TimeOfUse {
            windows: vec![
                TouWindow::new(6 * 3600, 12 * 3600, 2.0),
                TouWindow::new(10 * 3600, 14 * 3600, 3.0),
            ],
            off_window_price_per_mwh: 1.0,
        };
        let spec = ScenarioSpec::paper_testbed(1).with_tariff(overlapping);
        assert_eq!(
            spec.validate(),
            Err(SpecError::InvalidTariff(
                TariffError::OverlappingTouWindows {
                    first: 0,
                    second: 1
                }
            ))
        );
        let spec = ScenarioSpec::paper_testbed(1).with_tariff(Tariff::Tiered { tiers: Vec::new() });
        assert_eq!(
            spec.validate(),
            Err(SpecError::InvalidTariff(TariffError::EmptyTierLadder))
        );
        let spec = ScenarioSpec::paper_testbed(1).with_tariff(Tariff::flat(-0.5));
        assert_eq!(
            spec.validate(),
            Err(SpecError::InvalidTariff(TariffError::NegativeRate {
                rate: -0.5
            }))
        );
        // A valid tariff passes through.
        let spec = ScenarioSpec::paper_testbed(1).with_tariff(Tariff::evening_peak(1.0));
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn invalid_workloads_are_rejected_with_typed_errors() {
        let spec = ScenarioSpec::paper_testbed(1).with_workload(WorkloadModel::Mix(Vec::new()));
        assert_eq!(
            spec.validate(),
            Err(SpecError::InvalidWorkload(WorkloadError::EmptyMix))
        );
        let spec = ScenarioSpec::paper_testbed(1).with_workload(WorkloadModel::EvFleet {
            chargers: 0,
            sessions_per_day: 4.0,
            session_cc_ma: 2000.0,
            session_cc_s: 3600,
            session_taper_s: 600,
        });
        assert_eq!(
            spec.validate(),
            Err(SpecError::InvalidWorkload(WorkloadError::ZeroChargers))
        );
        let spec = ScenarioSpec::paper_testbed(1).with_workload(WorkloadModel::neighborhood());
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn generated_ids_are_stable() {
        let spec = ScenarioSpec::paper_testbed(3);
        assert_eq!(spec.device_ids().len(), 4);
        assert_eq!(spec.network_addrs().len(), 2);
        assert_eq!(spec.network_addrs()[0], AggregatorAddr(1));
    }

    fn build(spec: ScenarioSpec) -> World {
        crate::experiment::Experiment::new(spec)
            .build_world()
            .unwrap()
    }

    #[test]
    fn paper_testbed_has_expected_shape() {
        let spec = ScenarioSpec::paper_testbed(7);
        let world = build(spec.clone());
        assert_eq!(world.network_addresses(), spec.network_addrs());
        assert_eq!(world.device_ids(), spec.device_ids());
        for n in 0..2 {
            for j in 0..2 {
                let id = ScenarioSpec::device_id(n, j);
                assert_eq!(
                    world.device_network(id),
                    Some(ScenarioSpec::network_addr(n))
                );
            }
        }
    }

    #[test]
    fn single_network_scales_device_count() {
        let world = build(ScenarioSpec::single_network(6, 1));
        assert_eq!(world.network_addresses().len(), 1);
        assert_eq!(world.device_ids().len(), 6);
    }

    #[test]
    fn ids_are_unique_across_networks() {
        let a = ScenarioSpec::device_id(0, 0);
        let b = ScenarioSpec::device_id(1, 0);
        let c = ScenarioSpec::device_id(0, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn customization_reaches_the_world_config() {
        let spec = ScenarioSpec::paper_testbed(9)
            .with_verification_window(SimDuration::from_secs(5))
            .with_bounded_memory(3);
        let world = build(spec);
        let config = world.config();
        assert_eq!(config.seed, 9);
        assert_eq!(config.verification_window, SimDuration::from_secs(5));
        assert_eq!(config.retention, RetentionPolicy::ActiveWindows(3));
    }

    #[test]
    fn meter_kinds_assign_round_robin_by_ordinal() {
        let world = build(
            ScenarioSpec::paper_testbed(3)
                .with_meter_kinds(vec![MeterKind::Iec62056, MeterKind::Sml]),
        );
        // Two networks x two devices = ordinals 0..4 in network-major order.
        for n in 0..2 {
            assert_eq!(
                world.meter_kind(ScenarioSpec::device_id(n, 0)),
                MeterKind::Iec62056
            );
            assert_eq!(
                world.meter_kind(ScenarioSpec::device_id(n, 1)),
                MeterKind::Sml
            );
        }
    }

    #[test]
    fn default_fleet_speaks_internal() {
        let world = build(ScenarioSpec::paper_testbed(3));
        for id in world.device_ids() {
            assert_eq!(world.meter_kind(id), MeterKind::Internal);
        }
    }

    #[test]
    fn same_seed_builds_identical_initial_conditions() {
        let a = build(ScenarioSpec::paper_testbed(5));
        let b = build(ScenarioSpec::paper_testbed(5));
        assert_eq!(a.device_ids(), b.device_ids());
        assert_eq!(a.network_addresses(), b.network_addresses());
    }
}
