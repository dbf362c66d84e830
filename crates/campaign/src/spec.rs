//! The campaign IR: a compact scenario description that serializes exactly.
//!
//! A [`CampaignSpec`] is the generator's unit of work — topology, horizon,
//! workload/meter/tariff presets, a fault list spanning every family, fleet
//! commands and scripted mobility hops — deliberately restricted to integer
//! parameters so that [`CampaignSpec::serialize`] and [`CampaignSpec::parse`]
//! round-trip byte-identically and shrunk reproducers can be committed as
//! plain-text fixtures. [`CampaignSpec::to_scenario`] lowers the IR onto the
//! facade's [`ScenarioSpec`] builders; a generated campaign passes
//! [`ScenarioSpec::validate`] by construction (see
//! [`CampaignGenerator`](crate::CampaignGenerator)).

use std::fmt;

use rtem::net::link::LinkConfig;
use rtem::prelude::*;

/// Workload preset a campaign samples from — names, not parameters, so the
/// IR stays exactly serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadPreset {
    /// The spec's default constant load (no `with_workload` call).
    Default,
    /// [`WorkloadModel::residential`].
    Residential,
    /// [`WorkloadModel::commercial`].
    Commercial,
    /// [`WorkloadModel::ev_fleet`].
    EvFleet,
    /// [`WorkloadModel::solar_home`].
    SolarHome,
    /// [`WorkloadModel::neighborhood`].
    Neighborhood,
}

impl WorkloadPreset {
    /// Every preset, in sampling order.
    pub const ALL: [WorkloadPreset; 6] = [
        WorkloadPreset::Default,
        WorkloadPreset::Residential,
        WorkloadPreset::Commercial,
        WorkloadPreset::EvFleet,
        WorkloadPreset::SolarHome,
        WorkloadPreset::Neighborhood,
    ];

    /// The fixture-file token.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadPreset::Default => "default",
            WorkloadPreset::Residential => "residential",
            WorkloadPreset::Commercial => "commercial",
            WorkloadPreset::EvFleet => "ev_fleet",
            WorkloadPreset::SolarHome => "solar_home",
            WorkloadPreset::Neighborhood => "neighborhood",
        }
    }

    /// Parses a fixture-file token.
    pub fn from_name(name: &str) -> Option<WorkloadPreset> {
        WorkloadPreset::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The concrete model, `None` for the spec default.
    pub fn model(self) -> Option<WorkloadModel> {
        match self {
            WorkloadPreset::Default => None,
            WorkloadPreset::Residential => Some(WorkloadModel::residential()),
            WorkloadPreset::Commercial => Some(WorkloadModel::commercial()),
            WorkloadPreset::EvFleet => Some(WorkloadModel::ev_fleet()),
            WorkloadPreset::SolarHome => Some(WorkloadModel::solar_home()),
            WorkloadPreset::Neighborhood => Some(WorkloadModel::neighborhood()),
        }
    }
}

/// How meter protocols are assigned across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeterMix {
    /// Every device speaks the native internal encoding (spec default).
    Internal,
    /// Round-robin over the four real protocols ([`MeterKind::REAL`]).
    Real,
    /// Round-robin over all five kinds ([`MeterKind::ALL`]), internal included.
    All,
}

impl MeterMix {
    /// Every mix, in sampling order.
    pub const ALL: [MeterMix; 3] = [MeterMix::Internal, MeterMix::Real, MeterMix::All];

    /// The fixture-file token.
    pub fn name(self) -> &'static str {
        match self {
            MeterMix::Internal => "internal",
            MeterMix::Real => "real",
            MeterMix::All => "all",
        }
    }

    /// Parses a fixture-file token.
    pub fn from_name(name: &str) -> Option<MeterMix> {
        MeterMix::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The kind list handed to `with_meter_kinds`, `None` for the default.
    pub fn kinds(self) -> Option<Vec<MeterKind>> {
        match self {
            MeterMix::Internal => None,
            MeterMix::Real => Some(MeterKind::REAL.to_vec()),
            MeterMix::All => Some(MeterKind::ALL.to_vec()),
        }
    }
}

/// Tariff preset a campaign samples from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TariffPreset {
    /// The spec's default tariff.
    Default,
    /// A flat volumetric price.
    Flat,
    /// The ready-made evening-peak time-of-use tariff.
    EveningPeak,
}

impl TariffPreset {
    /// Every preset, in sampling order.
    pub const ALL: [TariffPreset; 3] = [
        TariffPreset::Default,
        TariffPreset::Flat,
        TariffPreset::EveningPeak,
    ];

    /// The fixture-file token.
    pub fn name(self) -> &'static str {
        match self {
            TariffPreset::Default => "default",
            TariffPreset::Flat => "flat",
            TariffPreset::EveningPeak => "evening_peak",
        }
    }

    /// Parses a fixture-file token.
    pub fn from_name(name: &str) -> Option<TariffPreset> {
        TariffPreset::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The concrete tariff, `None` for the spec default.
    pub fn tariff(self) -> Option<Tariff> {
        match self {
            TariffPreset::Default => None,
            TariffPreset::Flat => Some(Tariff::flat(120.0)),
            TariffPreset::EveningPeak => Some(Tariff::evening_peak(140.0)),
        }
    }
}

/// Telegram-corruption mode, restricted to integer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionModeSpec {
    /// Flip `flips` random payload bits per telegram (`flips >= 1`).
    BitFlip(u8),
    /// Cut the telegram off at a random point.
    Truncate,
    /// Overwrite a random span with random bytes.
    MangleField,
}

impl CorruptionModeSpec {
    fn token(self) -> String {
        match self {
            CorruptionModeSpec::BitFlip(flips) => format!("bitflip:{flips}"),
            CorruptionModeSpec::Truncate => "truncate".into(),
            CorruptionModeSpec::MangleField => "mangle".into(),
        }
    }

    fn from_token(token: &str) -> Option<CorruptionModeSpec> {
        if let Some(flips) = token.strip_prefix("bitflip:") {
            return flips.parse().ok().map(CorruptionModeSpec::BitFlip);
        }
        match token {
            "truncate" => Some(CorruptionModeSpec::Truncate),
            "mangle" => Some(CorruptionModeSpec::MangleField),
            _ => None,
        }
    }

    fn mode(self) -> CorruptionMode {
        match self {
            CorruptionModeSpec::BitFlip(flips) => CorruptionMode::BitFlip { flips },
            CorruptionModeSpec::Truncate => CorruptionMode::Truncate,
            CorruptionModeSpec::MangleField => CorruptionMode::MangleField,
        }
    }
}

/// One campaign fault, spanning the seven fault families.
///
/// Devices are addressed as `(net, ord)` — network index and per-network
/// device ordinal, exactly the [`ScenarioSpec::device_id`] coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignFault {
    /// A permanently stuck sensor reading.
    SensorStuck {
        /// Injection time, seconds.
        at_s: u64,
        /// Network index of the victim device.
        net: u32,
        /// Per-network device ordinal.
        ord: u32,
        /// The stuck reading in mA.
        level_ma: u32,
    },
    /// A transient linear sensor drift.
    SensorDrift {
        /// Injection time, seconds.
        at_s: u64,
        /// Clear time, seconds (`> at_s`).
        until_s: u64,
        /// Network index of the victim device.
        net: u32,
        /// Per-network device ordinal.
        ord: u32,
        /// Drift rate in mA per second (may be negative).
        rate_ma_per_s: i32,
    },
    /// A storage forgery on one network's ledger.
    Tamper {
        /// Injection time, seconds.
        at_s: u64,
        /// Target network index.
        net: u32,
    },
    /// A Wi-Fi loss burst, scoped to one network or medium-wide.
    WifiBurst {
        /// Burst start, seconds.
        at_s: u64,
        /// Burst end, seconds (`> at_s`).
        until_s: u64,
        /// Targeted network, `None` for every access network.
        net: Option<u32>,
        /// Loss probability in permille (`1..=1000`).
        loss_permille: u16,
    },
    /// A loss burst on the shared backhaul.
    BackhaulBurst {
        /// Burst start, seconds.
        at_s: u64,
        /// Burst end, seconds (`> at_s`).
        until_s: u64,
        /// Loss probability in permille (`1..=1000`).
        loss_permille: u16,
    },
    /// A device crash with scheduled restart.
    Crash {
        /// Crash time, seconds.
        at_s: u64,
        /// Restart time, seconds (`> at_s`).
        restart_s: u64,
        /// Network index of the victim device.
        net: u32,
        /// Per-network device ordinal.
        ord: u32,
    },
    /// An aggregator outage, optionally with failover.
    Outage {
        /// Outage start, seconds.
        at_s: u64,
        /// Recovery time, seconds (`> at_s`).
        until_s: u64,
        /// Dark network index.
        net: u32,
        /// Failover network index, if any (`!= net`).
        failover: Option<u32>,
    },
    /// Byzantine consensus voters inside one network.
    Byzantine {
        /// Start of the byzantine window, seconds.
        at_s: u64,
        /// End of the byzantine window, seconds (`> at_s`).
        until_s: u64,
        /// Compromised network index.
        net: u32,
        /// Number of colluding voters (`>= 1`).
        voters: u32,
    },
    /// Telegram corruption at the meter-codec boundary.
    Corruption {
        /// Start of the corruption window, seconds.
        at_s: u64,
        /// End of the corruption window, seconds (`> at_s`).
        until_s: u64,
        /// Network index of the victim device.
        net: u32,
        /// Per-network device ordinal.
        ord: u32,
        /// Corruption mode.
        mode: CorruptionModeSpec,
        /// Corruption probability per telegram, permille (`1..=1000`).
        per_mille: u16,
    },
}

impl CampaignFault {
    /// The fault family this campaign fault lowers to.
    pub fn family(&self) -> FaultFamily {
        match self {
            CampaignFault::SensorStuck { .. } | CampaignFault::SensorDrift { .. } => {
                FaultFamily::Sensor
            }
            CampaignFault::Tamper { .. } => FaultFamily::Tamper,
            CampaignFault::WifiBurst { .. } | CampaignFault::BackhaulBurst { .. } => {
                FaultFamily::Link
            }
            CampaignFault::Crash { .. } => FaultFamily::Crash,
            CampaignFault::Outage { .. } => FaultFamily::Outage,
            CampaignFault::Byzantine { .. } => FaultFamily::Byzantine,
            CampaignFault::Corruption { .. } => FaultFamily::Corruption,
        }
    }

    /// Injection time in seconds.
    pub fn at_s(&self) -> u64 {
        match *self {
            CampaignFault::SensorStuck { at_s, .. }
            | CampaignFault::SensorDrift { at_s, .. }
            | CampaignFault::Tamper { at_s, .. }
            | CampaignFault::WifiBurst { at_s, .. }
            | CampaignFault::BackhaulBurst { at_s, .. }
            | CampaignFault::Crash { at_s, .. }
            | CampaignFault::Outage { at_s, .. }
            | CampaignFault::Byzantine { at_s, .. }
            | CampaignFault::Corruption { at_s, .. } => at_s,
        }
    }

    /// Clear time in seconds, `None` for permanent faults.
    pub fn until_s(&self) -> Option<u64> {
        match *self {
            CampaignFault::SensorStuck { .. } | CampaignFault::Tamper { .. } => None,
            CampaignFault::SensorDrift { until_s, .. }
            | CampaignFault::WifiBurst { until_s, .. }
            | CampaignFault::BackhaulBurst { until_s, .. }
            | CampaignFault::Outage { until_s, .. }
            | CampaignFault::Byzantine { until_s, .. }
            | CampaignFault::Corruption { until_s, .. } => Some(until_s),
            CampaignFault::Crash { restart_s, .. } => Some(restart_s),
        }
    }

    fn apply(&self, plan: FaultPlan) -> FaultPlan {
        let t = SimTime::from_secs;
        match *self {
            CampaignFault::SensorStuck {
                at_s,
                net,
                ord,
                level_ma,
            } => plan.sensor_stuck_at(t(at_s), ScenarioSpec::device_id(net, ord), level_ma as f64),
            CampaignFault::SensorDrift {
                at_s,
                until_s,
                net,
                ord,
                rate_ma_per_s,
            } => plan.sensor_fault_between(
                t(at_s),
                t(until_s),
                ScenarioSpec::device_id(net, ord),
                SensorFaultKind::Drift {
                    rate_ma_per_s: rate_ma_per_s as f64,
                },
            ),
            CampaignFault::Tamper { at_s, net } => {
                plan.tamper_at(t(at_s), ScenarioSpec::network_addr(net))
            }
            CampaignFault::WifiBurst {
                at_s,
                until_s,
                net,
                loss_permille,
            } => plan.link_burst(
                t(at_s),
                t(until_s),
                LinkTarget::Wifi {
                    network: net.map(ScenarioSpec::network_addr),
                },
                LinkConfig {
                    loss_probability: loss_permille as f64 / 1000.0,
                    ..LinkConfig::wifi()
                },
            ),
            CampaignFault::BackhaulBurst {
                at_s,
                until_s,
                loss_permille,
            } => plan.link_burst(
                t(at_s),
                t(until_s),
                LinkTarget::Backhaul,
                LinkConfig {
                    loss_probability: loss_permille as f64 / 1000.0,
                    ..LinkConfig::backhaul()
                },
            ),
            CampaignFault::Crash {
                at_s,
                restart_s,
                net,
                ord,
            } => plan.crash_between(t(at_s), t(restart_s), ScenarioSpec::device_id(net, ord)),
            CampaignFault::Outage {
                at_s,
                until_s,
                net,
                failover,
            } => plan.outage_between(
                t(at_s),
                t(until_s),
                ScenarioSpec::network_addr(net),
                failover.map(ScenarioSpec::network_addr),
            ),
            CampaignFault::Byzantine {
                at_s,
                until_s,
                net,
                voters,
            } => {
                plan.byzantine_between(t(at_s), t(until_s), ScenarioSpec::network_addr(net), voters)
            }
            CampaignFault::Corruption {
                at_s,
                until_s,
                net,
                ord,
                mode,
                per_mille,
            } => plan.telegram_corruption_between(
                t(at_s),
                t(until_s),
                ScenarioSpec::device_id(net, ord),
                mode.mode(),
                per_mille,
            ),
        }
    }

    fn line(&self) -> String {
        fn opt_net(net: Option<u32>) -> String {
            net.map_or_else(|| "all".into(), |n| n.to_string())
        }
        match *self {
            CampaignFault::SensorStuck {
                at_s,
                net,
                ord,
                level_ma,
            } => format!("fault sensor_stuck {at_s} {net} {ord} {level_ma}"),
            CampaignFault::SensorDrift {
                at_s,
                until_s,
                net,
                ord,
                rate_ma_per_s,
            } => format!("fault sensor_drift {at_s} {until_s} {net} {ord} {rate_ma_per_s}"),
            CampaignFault::Tamper { at_s, net } => format!("fault tamper {at_s} {net}"),
            CampaignFault::WifiBurst {
                at_s,
                until_s,
                net,
                loss_permille,
            } => format!(
                "fault wifi_burst {at_s} {until_s} {} {loss_permille}",
                opt_net(net)
            ),
            CampaignFault::BackhaulBurst {
                at_s,
                until_s,
                loss_permille,
            } => format!("fault backhaul_burst {at_s} {until_s} {loss_permille}"),
            CampaignFault::Crash {
                at_s,
                restart_s,
                net,
                ord,
            } => format!("fault crash {at_s} {restart_s} {net} {ord}"),
            CampaignFault::Outage {
                at_s,
                until_s,
                net,
                failover,
            } => format!(
                "fault outage {at_s} {until_s} {net} {}",
                failover.map_or_else(|| "none".into(), |n| n.to_string())
            ),
            CampaignFault::Byzantine {
                at_s,
                until_s,
                net,
                voters,
            } => format!("fault byzantine {at_s} {until_s} {net} {voters}"),
            CampaignFault::Corruption {
                at_s,
                until_s,
                net,
                ord,
                mode,
                per_mille,
            } => format!(
                "fault corruption {at_s} {until_s} {net} {ord} {} {per_mille}",
                mode.token()
            ),
        }
    }
}

/// A fleet-command target in campaign coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandTargetSpec {
    /// Every device.
    All,
    /// One device, by `(net, ord)`.
    Device {
        /// Network index.
        net: u32,
        /// Per-network device ordinal.
        ord: u32,
    },
    /// Every device homed on one network.
    Site {
        /// Network index.
        net: u32,
    },
    /// A seeded fleet percentage.
    Cohort {
        /// Fleet percentage in `1..=100`.
        percent: u8,
    },
}

impl CommandTargetSpec {
    fn target(self) -> CommandTarget {
        match self {
            CommandTargetSpec::All => CommandTarget::AllDevices,
            CommandTargetSpec::Device { net, ord } => {
                CommandTarget::Device(ScenarioSpec::device_id(net, ord))
            }
            CommandTargetSpec::Site { net } => CommandTarget::Site(ScenarioSpec::network_addr(net)),
            CommandTargetSpec::Cohort { percent } => CommandTarget::Cohort { percent },
        }
    }

    fn token(self) -> String {
        match self {
            CommandTargetSpec::All => "all".into(),
            CommandTargetSpec::Device { net, ord } => format!("dev:{net}:{ord}"),
            CommandTargetSpec::Site { net } => format!("site:{net}"),
            CommandTargetSpec::Cohort { percent } => format!("cohort:{percent}"),
        }
    }

    fn from_token(token: &str) -> Option<CommandTargetSpec> {
        if token == "all" {
            return Some(CommandTargetSpec::All);
        }
        if let Some(rest) = token.strip_prefix("dev:") {
            let (net, ord) = rest.split_once(':')?;
            return Some(CommandTargetSpec::Device {
                net: net.parse().ok()?,
                ord: ord.parse().ok()?,
            });
        }
        if let Some(net) = token.strip_prefix("site:") {
            return Some(CommandTargetSpec::Site {
                net: net.parse().ok()?,
            });
        }
        if let Some(percent) = token.strip_prefix("cohort:") {
            return Some(CommandTargetSpec::Cohort {
                percent: percent.parse().ok()?,
            });
        }
        None
    }
}

/// One scheduled fleet command of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignControl {
    /// Change the measurement interval.
    MeasureInterval {
        /// Command time, seconds.
        at_s: u64,
        /// Target.
        target: CommandTargetSpec,
        /// New interval in milliseconds (`>= 1`).
        interval_ms: u64,
    },
    /// Pause consumption reporting (records keep accumulating locally).
    StopReporting {
        /// Command time, seconds.
        at_s: u64,
        /// Target.
        target: CommandTargetSpec,
    },
    /// Resume consumption reporting (buffered records backfill).
    StartReporting {
        /// Command time, seconds.
        at_s: u64,
        /// Target.
        target: CommandTargetSpec,
    },
}

impl CampaignControl {
    /// Command time in seconds.
    pub fn at_s(&self) -> u64 {
        match *self {
            CampaignControl::MeasureInterval { at_s, .. }
            | CampaignControl::StopReporting { at_s, .. }
            | CampaignControl::StartReporting { at_s, .. } => at_s,
        }
    }

    fn apply(&self, plan: ControlPlan) -> ControlPlan {
        let t = SimTime::from_secs;
        match *self {
            CampaignControl::MeasureInterval {
                at_s,
                target,
                interval_ms,
            } => plan.set_measure_interval(
                t(at_s),
                target.target(),
                SimDuration::from_millis(interval_ms),
            ),
            CampaignControl::StopReporting { at_s, target } => {
                plan.stop_reporting(t(at_s), target.target())
            }
            CampaignControl::StartReporting { at_s, target } => {
                plan.start_reporting(t(at_s), target.target())
            }
        }
    }

    fn line(&self) -> String {
        match *self {
            CampaignControl::MeasureInterval {
                at_s,
                target,
                interval_ms,
            } => format!(
                "control measure_interval {at_s} {} {interval_ms}",
                target.token()
            ),
            CampaignControl::StopReporting { at_s, target } => {
                format!("control stop_reporting {at_s} {}", target.token())
            }
            CampaignControl::StartReporting { at_s, target } => {
                format!("control start_reporting {at_s} {}", target.token())
            }
        }
    }
}

/// One scripted mobility hop: unplug a device from its home network, replug
/// it into another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignHop {
    /// Unplug time, seconds.
    pub unplug_s: u64,
    /// Replug time, seconds (`> unplug_s`).
    pub replug_s: u64,
    /// Home network index of the hopping device.
    pub net: u32,
    /// Per-network device ordinal.
    pub ord: u32,
    /// Destination network index.
    pub dest: u32,
}

/// A randomly sampled scenario campaign — see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// World seed of the lowered scenario.
    pub seed: u64,
    /// Number of networks (`>= 1`).
    pub networks: u32,
    /// Devices per network (`>= 1`).
    pub devices_per_network: u32,
    /// Simulation horizon in seconds.
    pub horizon_s: u64,
    /// Workload preset.
    pub workload: WorkloadPreset,
    /// Meter-protocol mix.
    pub meters: MeterMix,
    /// Tariff preset.
    pub tariff: TariffPreset,
    /// Fault events, in plan order.
    pub faults: Vec<CampaignFault>,
    /// Fleet commands, in plan order.
    pub controls: Vec<CampaignControl>,
    /// Scripted mobility hops.
    pub mobility: Vec<CampaignHop>,
}

impl CampaignSpec {
    /// Lowers the campaign onto the facade's scenario builders.
    pub fn to_scenario(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::paper_testbed(self.seed)
            .with_networks(self.networks)
            .with_devices_per_network(self.devices_per_network)
            .with_horizon(SimDuration::from_secs(self.horizon_s));
        if let Some(model) = self.workload.model() {
            spec = spec.with_workload(model);
        }
        if let Some(kinds) = self.meters.kinds() {
            spec = spec.with_meter_kinds(kinds);
        }
        if let Some(tariff) = self.tariff.tariff() {
            spec = spec.with_tariff(tariff);
        }
        let mut faults = FaultPlan::new();
        for fault in &self.faults {
            faults = fault.apply(faults);
        }
        spec = spec.with_fault_plan(faults);
        let mut controls = ControlPlan::new();
        for control in &self.controls {
            controls = control.apply(controls);
        }
        spec = spec.with_control_plan(controls);
        for hop in &self.mobility {
            let device = ScenarioSpec::device_id(hop.net, hop.ord);
            spec = spec
                .unplug_at(SimTime::from_secs(hop.unplug_s), device)
                .plug_in_at(
                    SimTime::from_secs(hop.replug_s),
                    device,
                    ScenarioSpec::network_addr(hop.dest),
                );
        }
        spec
    }

    /// Validates the lowered scenario, mapping the spec error to text.
    pub fn validate(&self) -> Result<(), String> {
        self.to_scenario().validate().map_err(|e| e.to_string())
    }

    /// A compact human label, e.g. `n2xd3 h60s residential real flat f3c1m1`.
    pub fn label(&self) -> String {
        format!(
            "n{}xd{} h{}s {} {} {} f{}c{}m{}",
            self.networks,
            self.devices_per_network,
            self.horizon_s,
            self.workload.name(),
            self.meters.name(),
            self.tariff.name(),
            self.faults.len(),
            self.controls.len(),
            self.mobility.len(),
        )
    }

    /// A scalar size used by the shrinker: event count dominates, then fleet
    /// size, then horizon — every shrink step strictly decreases it.
    /// Saturates at `u64::MAX` for fleets too large to run.
    pub fn size(&self) -> u64 {
        let events = (self.faults.len() + self.controls.len() + self.mobility.len()) as u64;
        let fleet = u64::from(self.networks) * u64::from(self.devices_per_network);
        events
            .saturating_mul(1_000_000_000)
            .saturating_add(fleet.saturating_mul(10_000))
            .saturating_add(self.horizon_s)
    }

    /// Serializes to the line-based fixture format. Exact: integer fields
    /// only, so `parse(serialize(spec)) == spec` byte-for-byte.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str("campaign v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("networks {}\n", self.networks));
        out.push_str(&format!("devices {}\n", self.devices_per_network));
        out.push_str(&format!("horizon {}\n", self.horizon_s));
        out.push_str(&format!("workload {}\n", self.workload.name()));
        out.push_str(&format!("meters {}\n", self.meters.name()));
        out.push_str(&format!("tariff {}\n", self.tariff.name()));
        for fault in &self.faults {
            out.push_str(&fault.line());
            out.push('\n');
        }
        for control in &self.controls {
            out.push_str(&control.line());
            out.push('\n');
        }
        for hop in &self.mobility {
            out.push_str(&format!(
                "hop {} {} {} {} {}\n",
                hop.unplug_s, hop.replug_s, hop.net, hop.ord, hop.dest
            ));
        }
        out.push_str("end\n");
        out
    }

    /// Parses the fixture format written by [`CampaignSpec::serialize`].
    ///
    /// Every network index and device ordinal must lie inside the
    /// `networks` / `devices` lines above it, the order `serialize` writes.
    pub fn parse(text: &str) -> Result<CampaignSpec, CampaignParseError> {
        let fail = |line: usize, message: &str| CampaignParseError {
            line,
            message: message.to_string(),
        };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| fail(1, "empty campaign fixture"))?;
        if header.trim() != "campaign v1" {
            return Err(fail(1, "expected `campaign v1` header"));
        }
        let mut spec = CampaignSpec {
            seed: 0,
            networks: 0,
            devices_per_network: 0,
            horizon_s: 0,
            workload: WorkloadPreset::Default,
            meters: MeterMix::Internal,
            tariff: TariffPreset::Default,
            faults: Vec::new(),
            controls: Vec::new(),
            mobility: Vec::new(),
        };
        let mut ended = false;
        for (index, raw) in lines {
            let line_no = index + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if ended {
                return Err(fail(line_no, "content after `end`"));
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parse_u64 = |s: &str| -> Result<u64, CampaignParseError> {
                s.parse().map_err(|_| fail(line_no, "expected an integer"))
            };
            let parse_u32 = |s: &str| -> Result<u32, CampaignParseError> {
                s.parse().map_err(|_| fail(line_no, "expected an integer"))
            };
            // Times become `SimTime` / `SimDuration` microseconds; larger
            // values would overflow simulated time.
            let parse_at_most = |s: &str, max: u64| match parse_u64(s)? {
                value if value <= max => Ok(value),
                _ => Err(fail(line_no, "time exceeds the simulated clock range")),
            };
            let parse_secs = |s: &str| parse_at_most(s, u64::MAX / 1_000_000);
            let parse_millis = |s: &str| parse_at_most(s, u64::MAX / 1_000);
            // Indices become network addresses and device ids once lowered;
            // one the campaign does not declare names nothing and may
            // overflow the address.
            let (networks, devices) = (spec.networks, spec.devices_per_network);
            let undeclared_net = || fail(line_no, "network index not declared by `networks`");
            let undeclared_ord = || fail(line_no, "device ordinal not declared by `devices`");
            let parse_net = |s: &str| match parse_u32(s)? {
                net if net < networks => Ok(net),
                _ => Err(undeclared_net()),
            };
            let parse_ord = |s: &str| match parse_u32(s)? {
                ord if ord < devices => Ok(ord),
                _ => Err(undeclared_ord()),
            };
            match (fields[0], fields.len()) {
                ("end", 1) => ended = true,
                ("seed", 2) => spec.seed = parse_u64(fields[1])?,
                ("networks", 2) => spec.networks = parse_u32(fields[1])?,
                ("devices", 2) => spec.devices_per_network = parse_u32(fields[1])?,
                ("horizon", 2) => spec.horizon_s = parse_secs(fields[1])?,
                ("workload", 2) => {
                    spec.workload = WorkloadPreset::from_name(fields[1])
                        .ok_or_else(|| fail(line_no, "unknown workload preset"))?
                }
                ("meters", 2) => {
                    spec.meters = MeterMix::from_name(fields[1])
                        .ok_or_else(|| fail(line_no, "unknown meter mix"))?
                }
                ("tariff", 2) => {
                    spec.tariff = TariffPreset::from_name(fields[1])
                        .ok_or_else(|| fail(line_no, "unknown tariff preset"))?
                }
                ("fault", n) if n >= 2 => {
                    let fault = match (fields[1], n) {
                        ("sensor_stuck", 6) => CampaignFault::SensorStuck {
                            at_s: parse_secs(fields[2])?,
                            net: parse_net(fields[3])?,
                            ord: parse_ord(fields[4])?,
                            level_ma: parse_u32(fields[5])?,
                        },
                        ("sensor_drift", 7) => CampaignFault::SensorDrift {
                            at_s: parse_secs(fields[2])?,
                            until_s: parse_secs(fields[3])?,
                            net: parse_net(fields[4])?,
                            ord: parse_ord(fields[5])?,
                            rate_ma_per_s: fields[6]
                                .parse()
                                .map_err(|_| fail(line_no, "expected an integer"))?,
                        },
                        ("tamper", 4) => CampaignFault::Tamper {
                            at_s: parse_secs(fields[2])?,
                            net: parse_net(fields[3])?,
                        },
                        ("wifi_burst", 6) => CampaignFault::WifiBurst {
                            at_s: parse_secs(fields[2])?,
                            until_s: parse_secs(fields[3])?,
                            net: if fields[4] == "all" {
                                None
                            } else {
                                Some(parse_net(fields[4])?)
                            },
                            loss_permille: fields[5]
                                .parse()
                                .map_err(|_| fail(line_no, "expected an integer"))?,
                        },
                        ("backhaul_burst", 5) => CampaignFault::BackhaulBurst {
                            at_s: parse_secs(fields[2])?,
                            until_s: parse_secs(fields[3])?,
                            loss_permille: fields[4]
                                .parse()
                                .map_err(|_| fail(line_no, "expected an integer"))?,
                        },
                        ("crash", 6) => CampaignFault::Crash {
                            at_s: parse_secs(fields[2])?,
                            restart_s: parse_secs(fields[3])?,
                            net: parse_net(fields[4])?,
                            ord: parse_ord(fields[5])?,
                        },
                        ("outage", 6) => CampaignFault::Outage {
                            at_s: parse_secs(fields[2])?,
                            until_s: parse_secs(fields[3])?,
                            net: parse_net(fields[4])?,
                            failover: if fields[5] == "none" {
                                None
                            } else {
                                Some(parse_net(fields[5])?)
                            },
                        },
                        ("byzantine", 6) => CampaignFault::Byzantine {
                            at_s: parse_secs(fields[2])?,
                            until_s: parse_secs(fields[3])?,
                            net: parse_net(fields[4])?,
                            voters: parse_u32(fields[5])?,
                        },
                        ("corruption", 8) => CampaignFault::Corruption {
                            at_s: parse_secs(fields[2])?,
                            until_s: parse_secs(fields[3])?,
                            net: parse_net(fields[4])?,
                            ord: parse_ord(fields[5])?,
                            mode: CorruptionModeSpec::from_token(fields[6])
                                .ok_or_else(|| fail(line_no, "unknown corruption mode"))?,
                            per_mille: fields[7]
                                .parse()
                                .map_err(|_| fail(line_no, "expected an integer"))?,
                        },
                        _ => return Err(fail(line_no, "unknown fault line")),
                    };
                    spec.faults.push(fault);
                }
                ("control", n) if n >= 2 => {
                    let target = |s: &str| match CommandTargetSpec::from_token(s) {
                        Some(
                            CommandTargetSpec::Device { net, .. } | CommandTargetSpec::Site { net },
                        ) if net >= networks => Err(undeclared_net()),
                        Some(CommandTargetSpec::Device { ord, .. }) if ord >= devices => {
                            Err(undeclared_ord())
                        }
                        Some(target) => Ok(target),
                        None => Err(fail(line_no, "unknown command target")),
                    };
                    let control = match (fields[1], n) {
                        ("measure_interval", 5) => CampaignControl::MeasureInterval {
                            at_s: parse_secs(fields[2])?,
                            target: target(fields[3])?,
                            interval_ms: parse_millis(fields[4])?,
                        },
                        ("stop_reporting", 4) => CampaignControl::StopReporting {
                            at_s: parse_secs(fields[2])?,
                            target: target(fields[3])?,
                        },
                        ("start_reporting", 4) => CampaignControl::StartReporting {
                            at_s: parse_secs(fields[2])?,
                            target: target(fields[3])?,
                        },
                        _ => return Err(fail(line_no, "unknown control line")),
                    };
                    spec.controls.push(control);
                }
                ("hop", 6) => spec.mobility.push(CampaignHop {
                    unplug_s: parse_secs(fields[1])?,
                    replug_s: parse_secs(fields[2])?,
                    net: parse_net(fields[3])?,
                    ord: parse_ord(fields[4])?,
                    dest: parse_net(fields[5])?,
                }),
                _ => return Err(fail(line_no, "unknown line")),
            }
        }
        if !ended {
            return Err(fail(text.lines().count(), "missing `end` terminator"));
        }
        if spec.networks == 0 || spec.devices_per_network == 0 || spec.horizon_s == 0 {
            return Err(fail(1, "campaign misses topology or horizon"));
        }
        Ok(spec)
    }
}

/// A parse failure of the campaign fixture format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignParseError {
    /// 1-indexed fixture line of the failure.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CampaignParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign fixture line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CampaignParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignSpec {
        CampaignSpec {
            seed: 77,
            networks: 2,
            devices_per_network: 3,
            horizon_s: 60,
            workload: WorkloadPreset::Residential,
            meters: MeterMix::Real,
            tariff: TariffPreset::Flat,
            faults: vec![
                CampaignFault::Tamper { at_s: 20, net: 0 },
                CampaignFault::WifiBurst {
                    at_s: 22,
                    until_s: 45,
                    net: Some(1),
                    loss_permille: 700,
                },
                CampaignFault::Corruption {
                    at_s: 18,
                    until_s: 40,
                    net: 0,
                    ord: 2,
                    mode: CorruptionModeSpec::BitFlip(3),
                    per_mille: 500,
                },
            ],
            controls: vec![CampaignControl::MeasureInterval {
                at_s: 30,
                target: CommandTargetSpec::Cohort { percent: 40 },
                interval_ms: 250,
            }],
            mobility: vec![CampaignHop {
                unplug_s: 25,
                replug_s: 35,
                net: 0,
                ord: 1,
                dest: 1,
            }],
        }
    }

    #[test]
    fn serialize_parse_round_trips_exactly() {
        let spec = sample();
        let text = spec.serialize();
        let parsed = CampaignSpec::parse(&text).unwrap();
        assert_eq!(spec, parsed);
        assert_eq!(text, parsed.serialize(), "byte-identical round trip");
    }

    #[test]
    fn sample_lowering_validates() {
        assert_eq!(sample().validate(), Ok(()));
        let scenario = sample().to_scenario();
        assert_eq!(scenario.device_ids().len(), 6);
    }

    #[test]
    fn parse_rejects_malformed_fixtures() {
        assert!(CampaignSpec::parse("").is_err());
        assert!(CampaignSpec::parse("campaign v2\nend\n").is_err());
        assert!(
            CampaignSpec::parse("campaign v1\nseed 1\n").is_err(),
            "no end"
        );
        let no_topology = "campaign v1\nseed 1\nend\n";
        assert!(CampaignSpec::parse(no_topology).is_err());
        let bad_fault = "campaign v1\nseed 1\nnetworks 1\ndevices 1\nhorizon 50\n\
                         workload default\nmeters internal\ntariff default\n\
                         fault warp 3\nend\n";
        let err = CampaignSpec::parse(bad_fault).unwrap_err();
        assert_eq!(err.line, 9);
        // Times past what simulated microseconds hold fail at their line
        // instead of overflowing once lowered.
        let topology = "campaign v1\nseed 1\nnetworks 2\ndevices 1\n";
        let horizon = format!("{topology}horizon 18446744073709551615\nend\n");
        assert_eq!(CampaignSpec::parse(&horizon).unwrap_err().line, 5);
        let hop = format!("{topology}horizon 50\nhop 10 18446744073709551615 0 0 1\nend\n");
        assert_eq!(CampaignSpec::parse(&hop).unwrap_err().line, 6);
        let interval = format!(
            "{topology}horizon 50\ncontrol measure_interval 5 all {}\nend\n",
            u64::MAX / 1_000 + 1
        );
        assert_eq!(CampaignSpec::parse(&interval).unwrap_err().line, 6);
        // Network indices and device ordinals the campaign does not declare
        // fail at their line instead of overflowing the address once lowered.
        for line in [
            "hop 10 20 0 0 4294967295",
            "fault tamper 10 4294967295",
            "fault outage 10 20 0 4294967295",
            "fault crash 10 20 0 1",
            "control stop_reporting 5 site:2",
        ] {
            let text = format!("{topology}horizon 50\n{line}\nend\n");
            assert_eq!(CampaignSpec::parse(&text).unwrap_err().line, 6, "{line}");
        }
        // The largest declarable fleet parses, and its size saturates.
        let giant = "campaign v1\nseed 1\nnetworks 4294967295\ndevices 4294967295\n\
                     horizon 50\nend\n";
        assert_eq!(CampaignSpec::parse(giant).unwrap().size(), u64::MAX);
        // The largest representable horizon still parses and lowers.
        let largest = format!("{topology}horizon {}\nend\n", u64::MAX / 1_000_000);
        assert_eq!(CampaignSpec::parse(&largest).unwrap().validate(), Ok(()));
    }
}
