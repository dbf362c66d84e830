//! The simulated world: devices, aggregators, grids, broker and backhaul
//! wired together and driven by the discrete-event scheduler.
//!
//! This is the substitute for the paper's physical testbed (Fig. 4): where
//! the authors wire ESP32 boards, INA219 sensors and Raspberry Pis together,
//! [`World`] wires [`MeteringDevice`]s, [`Aggregator`]s, a [`GridNetwork`]
//! per WAN, an MQTT broker and the aggregator backhaul, and advances them
//! with simulated time.

use crate::consensus::{QuorumConsensus, RoundOutcome, Vote};
use crate::device_table::DeviceTable;
use crate::metrics::WorldMetrics;
use rtem_aggregator::aggregator::{Aggregator, AggregatorConfig, RetentionPolicy};
use rtem_aggregator::billing::Tariff;
use rtem_aggregator::verify::WindowVerdict;
use rtem_chain::ledger::LedgerEntry;
use rtem_codecs::{CodecError, MeterKind, Telegram};
use rtem_control::{
    command_topic, status_topic, CommandAck, CommandFrame, CommandTarget, ControlEvent,
    FleetCommand,
};
use rtem_device::application::Tariff as DeviceTariff;
use rtem_device::device::MeteringDevice;
use rtem_device::network_mgmt::HandshakeBreakdown;
use rtem_faults::event::{
    CorruptionMode, DetectionSignal, FaultEvent, FaultFamily, FaultRecord, LinkTarget,
};
use rtem_net::backhaul::{BackhaulDelivery, BackhaulMesh};
use rtem_net::broker::{ClientId, MqttBroker, QoS};
use rtem_net::link::{LinkConfig, LinkTotals};
use rtem_net::packet::{AggregatorAddr, DeviceId, MeasurementRecord, Packet};
use rtem_net::rssi::{PathLossModel, Position, RadioEnvironment};
use rtem_sensors::fault::SensorFault;
use rtem_sensors::grid::{Branch, BranchId, GridNetwork};
use rtem_sim::prelude::*;
use rtem_telemetry::{
    CodecFailureTable, DispatchProfiler, MetricId, MetricsRegistry, TelemetryConfig,
    TelemetryReport, TraceLog,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Events driving the world.
#[derive(Debug, Clone, PartialEq)]
enum WorldEvent {
    /// A device's Tmeasure timer fired (the device's slot in the world's
    /// [`DeviceTable`]).
    MeasureTick(u32),
    /// An aggregator samples its own system-level sensor.
    UpstreamSample(AggregatorAddr),
    /// An aggregator closes its verification window and seals a block.
    WindowEnd(AggregatorAddr),
    /// Drain the MQTT broker.
    BrokerPoll,
    /// Drain the backhaul mesh.
    BackhaulPoll,
    /// Scripted: plug a device into a network.
    PlugIn {
        device: DeviceId,
        network: AggregatorAddr,
    },
    /// Scripted: unplug a device.
    Unplug(DeviceId),
    /// Scripted: the home network removes a device (loss / ownership change).
    RemoveDevice {
        device: DeviceId,
        home: AggregatorAddr,
    },
    /// Scheduled: a fault takes effect (index into the world's fault table).
    FaultStart(usize),
    /// Scheduled: a transient fault clears (index into the fault table).
    FaultEnd(usize),
    /// Scheduled: a fleet command is published (index into the control
    /// table).
    ControlCommand(usize),
}

impl WorldEvent {
    /// Number of event kinds (one slot per variant).
    const KIND_COUNT: usize = 11;

    /// Stable per-kind labels, in [`kind_index`](Self::kind_index) order —
    /// the names the trace spans and the dispatch profiler report under.
    const KIND_LABELS: [&'static str; WorldEvent::KIND_COUNT] = [
        "MeasureTick",
        "UpstreamSample",
        "WindowEnd",
        "BrokerPoll",
        "BackhaulPoll",
        "PlugIn",
        "Unplug",
        "RemoveDevice",
        "FaultStart",
        "FaultEnd",
        "ControlCommand",
    ];

    /// Dense index of this event's kind into [`KIND_LABELS`](Self::KIND_LABELS).
    fn kind_index(&self) -> usize {
        match self {
            WorldEvent::MeasureTick(_) => 0,
            WorldEvent::UpstreamSample(_) => 1,
            WorldEvent::WindowEnd(_) => 2,
            WorldEvent::BrokerPoll => 3,
            WorldEvent::BackhaulPoll => 4,
            WorldEvent::PlugIn { .. } => 5,
            WorldEvent::Unplug(_) => 6,
            WorldEvent::RemoveDevice { .. } => 7,
            WorldEvent::FaultStart(_) => 8,
            WorldEvent::FaultEnd(_) => 9,
            WorldEvent::ControlCommand(_) => 10,
        }
    }
}

/// Observable milestone emitted while the world advances.
///
/// [`World`] buffers one of these at each hook point of the event loop —
/// a sealed verification-window block, an anomalous window verdict, a
/// completed registration handshake, a plug-in or an unplug. Callers that
/// stream a run (the facade's `RunHandle`) drain the buffer between steps
/// with [`World::take_notifications`] and fan the entries out to observers;
/// batch callers can ignore them entirely.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldNotification {
    /// An aggregator closed a verification window and sealed a block.
    BlockSealed {
        /// When the block was sealed.
        at: SimTime,
        /// The network whose ledger grew.
        network: AggregatorAddr,
        /// Index of the sealed block in the chain (genesis is 0).
        block_index: u64,
        /// Number of consumption records committed in the block.
        entries: usize,
    },
    /// A verification window closed with an anomalous verdict: the devices'
    /// reported sum disagreed with the aggregator's own measurement.
    AnomalousWindow {
        /// When the window closed.
        at: SimTime,
        /// The network that flagged the window.
        network: AggregatorAddr,
        /// The full verdict (reported vs measured, residual).
        verdict: WindowVerdict,
    },
    /// A device completed a registration handshake (master or temporary).
    HandshakeCompleted {
        /// When the final acknowledgment arrived.
        at: SimTime,
        /// The device that registered.
        device: DeviceId,
        /// The aggregator now serving the device, if registration settled.
        network: Option<AggregatorAddr>,
        /// Per-phase timing of the handshake (the paper's Thandshake).
        breakdown: HandshakeBreakdown,
    },
    /// A device was plugged into a network's grid.
    PluggedIn {
        /// When the plug-in happened.
        at: SimTime,
        /// The device.
        device: DeviceId,
        /// The network it joined.
        network: AggregatorAddr,
    },
    /// A device was unplugged from its network's grid.
    Unplugged {
        /// When the unplug happened.
        at: SimTime,
        /// The device.
        device: DeviceId,
    },
    /// A scheduled fault took effect (see
    /// [`World::schedule_fault`]).
    FaultInjected {
        /// When the fault took effect.
        at: SimTime,
        /// The id [`World::schedule_fault`] returned for it.
        id: usize,
        /// The fault's family.
        family: FaultFamily,
    },
    /// A transient fault cleared (link burst ended, device rebooted,
    /// aggregator recovered, sensor healed).
    FaultCleared {
        /// When the fault cleared.
        at: SimTime,
        /// The fault's id.
        id: usize,
        /// The fault's family.
        family: FaultFamily,
    },
    /// A fleet command was published on the control plane (see
    /// [`World::schedule_control`]).
    CommandPublished {
        /// When the manager published the command.
        at: SimTime,
        /// The command's sequence number (its index in the control table).
        seq: u32,
        /// Human-readable command family (from `FleetCommand::label`).
        label: &'static str,
        /// Number of devices the command was addressed to.
        targets: usize,
    },
    /// A device received a fleet command and applied (or rejected) it.
    CommandApplied {
        /// When the command frame was delivered and executed.
        at: SimTime,
        /// The command's sequence number.
        seq: u32,
        /// The device that executed it.
        device: DeviceId,
        /// Whether the device's firmware accepted the command.
        applied: bool,
    },
    /// The system recognized an injected fault — an anomalous verification
    /// window, a chain-audit finding, a rejected consensus round or a
    /// backfilled recovery block was attributed to it.
    FaultDetected {
        /// When the fault was recognized.
        at: SimTime,
        /// The fault's id.
        id: usize,
        /// The fault's family.
        family: FaultFamily,
        /// The evidence that triggered detection.
        signal: DetectionSignal,
    },
    /// A periodic telemetry snapshot was stamped on the snapshot grid (see
    /// [`World::enable_telemetry`]). Only emitted while telemetry is
    /// enabled; never part of golden comparisons.
    MetricsSnapshot {
        /// The grid time the snapshot covers (every event dispatched at or
        /// before `at` is reflected).
        at: SimTime,
        /// The snapshot. Shared ([`Arc`](std::sync::Arc)) with the
        /// end-of-run [`TelemetryReport`]: one snapshot is stamped per grid
        /// point, never copied.
        snapshot: std::sync::Arc<rtem_telemetry::MetricsSnapshot>,
    },
}

impl WorldNotification {
    /// The simulated time at which the milestone occurred.
    pub fn at(&self) -> SimTime {
        match *self {
            WorldNotification::BlockSealed { at, .. }
            | WorldNotification::AnomalousWindow { at, .. }
            | WorldNotification::HandshakeCompleted { at, .. }
            | WorldNotification::PluggedIn { at, .. }
            | WorldNotification::Unplugged { at, .. }
            | WorldNotification::FaultInjected { at, .. }
            | WorldNotification::FaultCleared { at, .. }
            | WorldNotification::CommandPublished { at, .. }
            | WorldNotification::CommandApplied { at, .. }
            | WorldNotification::FaultDetected { at, .. }
            | WorldNotification::MetricsSnapshot { at, .. } => at,
        }
    }

    /// A stable, payload-free name for the milestone kind — what the
    /// telemetry trace records each notification instant under.
    pub fn label(&self) -> &'static str {
        match self {
            WorldNotification::BlockSealed { .. } => "BlockSealed",
            WorldNotification::AnomalousWindow { .. } => "AnomalousWindow",
            WorldNotification::HandshakeCompleted { .. } => "HandshakeCompleted",
            WorldNotification::PluggedIn { .. } => "PluggedIn",
            WorldNotification::Unplugged { .. } => "Unplugged",
            WorldNotification::FaultInjected { .. } => "FaultInjected",
            WorldNotification::FaultCleared { .. } => "FaultCleared",
            WorldNotification::CommandPublished { .. } => "CommandPublished",
            WorldNotification::CommandApplied { .. } => "CommandApplied",
            WorldNotification::FaultDetected { .. } => "FaultDetected",
            WorldNotification::MetricsSnapshot { .. } => "MetricsSnapshot",
        }
    }
}

/// Telegram-log tail kept resident under a bounded retention policy. The
/// capture exists for codec-fixture tests and wire debugging, so a bounded
/// run keeps a recent window rather than the whole run's wire traffic.
const TELEGRAM_LOG_BOUNDED_CAP: usize = 4096;

/// Static parameters of the world.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Reporting interval of every device (Tmeasure).
    pub t_measure: SimDuration,
    /// Interval between the aggregator's own upstream samples.
    pub upstream_sample_interval: SimDuration,
    /// Length of one verification window (one sealed block per window).
    pub verification_window: SimDuration,
    /// Access-link quality between devices and their aggregator's broker.
    pub wifi: LinkConfig,
    /// Backhaul link quality between aggregators.
    pub backhaul: LinkConfig,
    /// Tariff every aggregator's billing engine applies.
    pub tariff: Tariff,
    /// Random seed for the whole world.
    pub seed: u64,
    /// How much run history stays resident (see [`RetentionPolicy`]).
    /// Bounded mode seals-and-evicts old ledger windows and prunes the
    /// measurement series at every window end; the run report stays
    /// bit-identical with keep-all.
    pub retention: RetentionPolicy,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            t_measure: SimDuration::from_millis(100),
            upstream_sample_interval: SimDuration::from_millis(100),
            verification_window: SimDuration::from_secs(10),
            wifi: LinkConfig::wifi(),
            backhaul: LinkConfig::backhaul(),
            tariff: Tariff::default(),
            seed: 42,
            retention: RetentionPolicy::KeepAll,
        }
    }
}

struct NetworkSite {
    aggregator: Aggregator,
    grid: GridNetwork,
    position: Position,
    client: ClientId,
    /// The topic this site's aggregator subscribes to and its members
    /// publish reports on, formatted once when the network is added.
    uplink_topic: String,
    /// Devices currently plugged into this network's grid, with the branch
    /// each occupies. Mirrors the global `device_sites` map so per-network
    /// work (upstream sampling, outage failover, consensus validator sets)
    /// touches only the site's own population instead of scanning every
    /// device in the world. Keyed by device id, so iteration order matches
    /// the whole-population scans this index replaced.
    members: BTreeMap<DeviceId, Member>,
}

/// A device plugged into a site: its grid branch and its slot in the
/// world's [`DeviceTable`].
struct Member {
    branch: BranchId,
    slot: u32,
}

/// A device's broker session, fixed when the device joins the world.
struct DeviceClient {
    id: ClientId,
    /// The topic the device subscribes to and its aggregator publishes acks
    /// and grants on, formatted once so no downlink publish formats it.
    downlink_topic: String,
}

/// What a broker [`ClientId`] resolves to — maintained on device/network
/// creation so per-delivery routing is an index lookup, not a scan over the
/// whole population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Device(DeviceId),
    Site(AggregatorAddr),
}

/// Wire-level accounting for the meter-codec boundary.
///
/// Counters accumulate over the whole run and cover only device → aggregator
/// consumption reports — the traffic the meter protocol actually frames.
/// Reports from `MeterKind::Internal` devices count toward the native
/// columns only; reports from real-protocol devices count toward both, so
/// `telegram_bytes / native_bytes` is the framing overhead of the chosen
/// protocol mix over the simulator's packed binary encoding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Consumption reports encoded as real-protocol telegrams.
    pub telegrams_sent: u64,
    /// Total telegram payload bytes put on the wire (excludes the
    /// transport envelope).
    pub telegram_bytes: u64,
    /// What the same reports cost in the native packet encoding.
    pub native_bytes: u64,
    /// Measurement records carried by all reports, native or telegram.
    pub records_sent: u64,
    /// Telegrams the receiving aggregator parsed successfully.
    pub telegrams_parsed: u64,
    /// Telegrams the receiving aggregator rejected with a [`CodecError`].
    pub parse_failures: u64,
    /// Reports mutated by an active telegram-corruption fault before
    /// transmission (counted whether or not the receiver noticed).
    pub corrupted_injected: u64,
}

/// One telegram captured by the world's optional wire log (see
/// [`World::enable_telegram_log`]): the bytes a device actually put on the
/// wire, after any fault-injected corruption.
#[derive(Debug, Clone, PartialEq)]
pub struct TelegramLogEntry {
    /// When the device transmitted the telegram.
    pub at: SimTime,
    /// The transmitting device.
    pub device: DeviceId,
    /// The protocol family the device speaks.
    pub kind: MeterKind,
    /// The raw telegram bytes as transmitted. Shares the allocation of the
    /// in-flight [`Packet::Telegram`] payload — logging a telegram costs a
    /// reference-count bump, not a copy.
    pub bytes: bytes::Bytes,
}

/// Traffic baseline of the links a degradation burst touched, captured at
/// injection time so the window-seal monitor can compare in-burst loss
/// against the medium's ambient expectation (see
/// [`World::detect_link_degradation`]).
struct LinkWatch {
    /// Broker clients whose access links the burst degraded. Kept separately
    /// from `saved_wifi` because the saved configs are consumed at clear
    /// time while the watch must stay readable through the post-clear
    /// attribution grace.
    clients: Vec<ClientId>,
    /// Whether the burst degraded the backhaul mesh instead.
    backhaul: bool,
    /// Sum of the watched links' cumulative counters at injection time.
    baseline: LinkTotals,
    /// Highest ambient loss probability among the replaced configurations —
    /// the loss rate the monitor must not alarm on.
    ambient_loss: f64,
}

/// Runtime state of one scheduled fault. The externally visible lifecycle
/// lives in the embedded [`FaultRecord`]; the rest is what the world needs
/// to apply, attribute and undo the fault.
struct FaultRuntime {
    event: FaultEvent,
    record: FaultRecord,
    /// Tamper fault waiting for the first sealed block with records.
    pending_tamper: bool,
    /// Access-link configs saved at burst start, restored at burst end.
    saved_wifi: Vec<(ClientId, LinkConfig)>,
    /// Backhaul-link configs saved at burst start, restored at burst end.
    saved_backhaul: Vec<(AggregatorAddr, AggregatorAddr, LinkConfig)>,
    /// Traffic baseline for link bursts, so window seals can flag abnormal
    /// loss even when QoS retries absorb every drop.
    link_watch: Option<LinkWatch>,
    /// Devices re-plugged into the failover network for an outage.
    failover_moved: Vec<DeviceId>,
    /// Backhaul traffic addressed to the down aggregator, replayed at
    /// recovery (the mesh transport queues, it does not forget).
    queued_backhaul: Vec<(AggregatorAddr, Packet)>,
    /// Shadow consensus group for byzantine faults: the group, its validator
    /// set in id order, and how many of them (from the front) are byzantine.
    consensus: Option<(QuorumConsensus, Vec<DeviceId>, usize)>,
    /// Private stream for telegram-corruption faults, derived at injection
    /// time so corruption draws never perturb the world's main stream.
    corruption_rng: Option<SimRng>,
}

/// Lifecycle accounting for one scheduled fleet command (see
/// [`World::schedule_control`] and [`World::command_records`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandRecord {
    /// The command's sequence number — its index in the control table and
    /// the `seq` its wire frames carry.
    pub seq: u32,
    /// When the manager published the command (`None` until it fires).
    pub published_at: Option<SimTime>,
    /// Devices the command was addressed to at publish time.
    pub targets: usize,
    /// Command frames delivered to device firmware, duplicates included.
    pub delivered: usize,
    /// Devices that accepted and executed the command.
    pub applied: usize,
    /// Devices whose firmware rejected the command (bad parameter).
    pub rejected: usize,
    /// Acknowledgments delivered back to the manager's status subscription.
    pub acked: usize,
    /// When the first acknowledgment reached the manager.
    pub first_ack_at: Option<SimTime>,
    /// When the last acknowledgment so far reached the manager — with
    /// [`acked`](Self::acked)` == targets` this is the rollout completion
    /// time.
    pub last_ack_at: Option<SimTime>,
    /// Wire bytes of delivered command frames (payload + topic + envelope,
    /// the broker's own size model).
    pub command_bytes: u64,
    /// Wire bytes of delivered acknowledgments.
    pub ack_bytes: u64,
}

/// Runtime state of one scheduled fleet command: the event, its public
/// record, and which devices already executed it (so a retained redelivery
/// or a session-resume replay is idempotent, like MQTT packet-id dedup).
struct ControlRuntime {
    event: ControlEvent,
    record: CommandRecord,
    applied_to: BTreeSet<DeviceId>,
}

impl FaultRuntime {
    fn new(id: usize, event: FaultEvent) -> FaultRuntime {
        FaultRuntime {
            record: FaultRecord::scheduled(id, &event),
            event,
            pending_tamper: false,
            saved_wifi: Vec::new(),
            saved_backhaul: Vec::new(),
            link_watch: None,
            failover_moved: Vec::new(),
            queued_backhaul: Vec::new(),
            consensus: None,
            corruption_rng: None,
        }
    }
}

/// The composed simulation world.
pub struct World {
    config: WorldConfig,
    scheduler: Scheduler<WorldEvent>,
    devices: DeviceTable,
    device_clients: BTreeMap<DeviceId, DeviceClient>,
    device_sites: BTreeMap<DeviceId, (AggregatorAddr, BranchId)>,
    sites: BTreeMap<AggregatorAddr, NetworkSite>,
    broker: MqttBroker,
    backhaul: BackhaulMesh,
    radio: RadioEnvironment,
    rng: SimRng,
    notifications: Vec<WorldNotification>,
    faults: Vec<FaultRuntime>,
    /// Networks whose aggregator is currently dark, mapped to the fault that
    /// took them down.
    down_sites: BTreeMap<AggregatorAddr, usize>,
    /// Broker-client routing index (see [`Endpoint`]).
    client_endpoints: BTreeMap<ClientId, Endpoint>,
    /// Times with a broker-poll event already scheduled, so a burst of
    /// publishes arms one wakeup per delivery time instead of one per
    /// publish. Dropping only *exact-time* duplicates keeps the event
    /// stream behaviorally identical: a duplicate poll at an already-armed
    /// time always fires after the armed one and drains nothing.
    armed_broker_polls: BTreeSet<SimTime>,
    /// Same as `armed_broker_polls`, for the backhaul mesh.
    armed_backhaul_polls: BTreeSet<SimTime>,
    /// Scratch buffer for device outbound packets, reused across ticks so
    /// the per-device tick path stays allocation-free.
    outbound_scratch: Vec<rtem_device::device::Outbound>,
    /// Scratch buffer for per-branch loads during upstream sampling.
    loads_scratch: Vec<(BranchId, rtem_sensors::energy::Milliamps)>,
    /// Which meter protocol each device speaks. Absent means
    /// [`MeterKind::Internal`] — the native packet encoding, byte-identical
    /// with every earlier revision of the testbed.
    device_meter_kinds: BTreeMap<DeviceId, MeterKind>,
    /// Wire-level accounting at the meter-codec boundary.
    wire: WireStats,
    /// Optional capture of every telegram put on the wire (golden-fixture
    /// tests); `None` keeps the hot path allocation-free.
    telegram_log: Option<Vec<TelegramLogEntry>>,
    /// Scheduled fleet commands (see [`World::schedule_control`]). Empty
    /// unless a control plan was given, in which case the control plane's
    /// broker clients and subscriptions exist at all.
    controls: Vec<ControlRuntime>,
    /// Whether the control plane (manager session, command/status
    /// subscriptions, cohort order) has been set up.
    control_ready: bool,
    /// One seeded shuffle of the fleet, drawn from a derived stream when the
    /// control plane comes up. A `Cohort { percent }` target takes the first
    /// `percent` of this order, so the cohorts of a staged rollout nest.
    cohort_order: Vec<DeviceId>,
    /// Per-device Tmeasure overrides installed by `SetMeasureInterval`
    /// commands. Empty in uncommanded runs, so the measurement cadence is
    /// bit-identical with earlier revisions.
    measure_overrides: BTreeMap<DeviceId, SimDuration>,
    /// Always-on dispatch tally by [`WorldEvent`] kind — two array writes
    /// per event, read back at telemetry snapshot time.
    events_by_kind: [u64; WorldEvent::KIND_COUNT],
    /// High-water mark of the scheduler queue length, sampled at the top of
    /// the event loop.
    queue_high_water: usize,
    /// Always-on telegram parse-failure tally by protocol family × error
    /// kind (two array indexes per failed parse — failures are rare).
    codec_failures: CodecFailureTable,
    /// Optional telemetry collection (see [`World::enable_telemetry`]).
    /// `None` costs nothing beyond the always-on taps above; enabled, it
    /// reads — never writes — deterministic state, so results stay
    /// bit-identical whatever the configuration.
    telemetry: Option<Box<TelemetryRuntime>>,
    /// How many `notifications` entries the telemetry trace has already
    /// recorded — a watermark, so tracing needs no hook at push sites.
    traced_notifications: usize,
}

/// The live telemetry state hanging off a [`World`] when enabled.
struct TelemetryRuntime {
    config: TelemetryConfig,
    /// Next grid time to stamp. The grid is anchored at [`SimTime::ZERO`];
    /// when telemetry is enabled mid-run, points at or before "now" are
    /// skipped without emitting.
    next_snapshot_at: SimTime,
    /// Sequence number of the next snapshot.
    seq: u64,
    /// Reusable pull-model sink, reset and refilled at each grid point.
    registry: MetricsRegistry,
    /// Every snapshot stamped so far, for the end-of-run report.
    snapshots: Vec<std::sync::Arc<rtem_telemetry::MetricsSnapshot>>,
    /// The structured trace, when configured.
    trace: Option<TraceLog>,
    /// The wall-clock dispatch profiler, when configured. Strictly outside
    /// deterministic state: it only ever observes elapsed host time.
    profiler: Option<DispatchProfiler>,
    /// Dispatch ordinal driving the profiler's sampling stride. Advances
    /// deterministically with the event stream, so *which* dispatches get
    /// timed never depends on the clock.
    profile_tick: u64,
}

impl core::fmt::Debug for World {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now())
            .field("devices", &self.devices.len())
            .field("networks", &self.sites.len())
            .finish()
    }
}

/// Mangles raw telegram bytes per the fault's declared mode. A `None` rng
/// (fault never armed) leaves the bytes untouched.
fn corrupt_bytes(bytes: &mut Vec<u8>, mode: CorruptionMode, rng: Option<&mut SimRng>) {
    let Some(rng) = rng else { return };
    if bytes.is_empty() {
        return;
    }
    match mode {
        CorruptionMode::BitFlip { flips } => {
            for _ in 0..flips.max(1) {
                let bit = rng.next_below(bytes.len() as u64 * 8) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        CorruptionMode::Truncate => {
            let keep = rng.next_below(bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        CorruptionMode::MangleField => {
            let start = rng.next_below(bytes.len() as u64) as usize;
            let span = (1 + rng.next_below(8) as usize).min(bytes.len() - start);
            for byte in &mut bytes[start..start + span] {
                *byte = rng.next_u64() as u8;
            }
        }
    }
}

/// The `Internal`-kind analogue of [`corrupt_bytes`]: with no telegram
/// framing to damage, the fault lands directly on the record values — which
/// the packed native encoding then carries without complaint.
fn corrupt_records(
    records: &mut Vec<MeasurementRecord>,
    mode: CorruptionMode,
    rng: Option<&mut SimRng>,
) {
    let Some(rng) = rng else { return };
    if records.is_empty() {
        return;
    }
    // Corrupted values stay within 32 bits: wildly wrong for any plausible
    // interval (reports run in the thousands of µA·s), while keeping the
    // billing accumulators a run sums them into far from u64 overflow.
    match mode {
        CorruptionMode::BitFlip { flips } => {
            for _ in 0..flips.max(1) {
                let idx = rng.next_below(records.len() as u64) as usize;
                let bit = 1u64 << rng.next_below(32);
                if rng.chance(0.5) {
                    records[idx].mean_current_ua ^= bit;
                } else {
                    records[idx].charge_uas ^= bit;
                }
            }
        }
        CorruptionMode::Truncate => {
            let keep = rng.next_below(records.len() as u64) as usize;
            records.truncate(keep);
        }
        CorruptionMode::MangleField => {
            let idx = rng.next_below(records.len() as u64) as usize;
            records[idx].mean_current_ua = rng.next_below(1 << 32);
            records[idx].charge_uas = rng.next_below(1 << 32);
        }
    }
}

fn device_client(device: DeviceId) -> ClientId {
    ClientId(device.0)
}

/// The fleet manager's broker session — the operator-side endpoint of the
/// control plane, connected only when a control plan is scheduled.
fn manager_client() -> ClientId {
    ClientId(2_000_000)
}

/// How many devices a `percent` cohort selects out of `fleet` — rounded up,
/// so a non-empty fleet always yields a non-empty cohort.
fn cohort_size(fleet: usize, percent: u8) -> usize {
    (fleet * usize::from(percent.min(100))).div_ceil(100)
}

fn aggregator_client(addr: AggregatorAddr) -> ClientId {
    ClientId(1_000_000 + u64::from(addr.0))
}

fn uplink_topic(addr: AggregatorAddr) -> String {
    format!("metering/agg-{}/uplink", addr.0)
}

fn downlink_topic(device: DeviceId) -> String {
    format!("metering/dev-{}/downlink", device.0)
}

impl World {
    /// Creates an empty world.
    pub fn new(config: WorldConfig) -> Self {
        let rng = SimRng::seed_from_u64(config.seed);
        World {
            scheduler: Scheduler::new(),
            devices: DeviceTable::new(),
            device_clients: BTreeMap::new(),
            device_sites: BTreeMap::new(),
            sites: BTreeMap::new(),
            broker: MqttBroker::new(rng.derive(1)),
            backhaul: BackhaulMesh::new(rng.derive(2)),
            radio: RadioEnvironment::new(PathLossModel::default()),
            rng,
            config,
            notifications: Vec::new(),
            faults: Vec::new(),
            down_sites: BTreeMap::new(),
            client_endpoints: BTreeMap::new(),
            armed_broker_polls: BTreeSet::new(),
            armed_backhaul_polls: BTreeSet::new(),
            outbound_scratch: Vec::new(),
            loads_scratch: Vec::new(),
            device_meter_kinds: BTreeMap::new(),
            wire: WireStats::default(),
            telegram_log: None,
            controls: Vec::new(),
            control_ready: false,
            cohort_order: Vec::new(),
            measure_overrides: BTreeMap::new(),
            events_by_kind: [0; WorldEvent::KIND_COUNT],
            queue_high_water: 0,
            codec_failures: CodecFailureTable::new(),
            telemetry: None,
            traced_notifications: 0,
        }
    }

    /// Drains the milestone notifications buffered since the last call (or
    /// since construction). Entries are in dispatch order, which is
    /// deterministic for a given seed regardless of how `run_until` calls
    /// are sliced.
    pub fn take_notifications(&mut self) -> Vec<WorldNotification> {
        self.trace_new_notifications();
        self.traced_notifications = 0;
        std::mem::take(&mut self.notifications)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Adds a network (aggregator + its grid) at `position`.
    pub fn add_network(&mut self, addr: AggregatorAddr, position: Position) {
        let aggregator = Aggregator::new(
            AggregatorConfig {
                tariff: self.config.tariff.clone(),
                ..AggregatorConfig::testbed(addr)
            },
            self.rng.derive(0xA000 + u64::from(addr.0)),
        );
        let client = aggregator_client(addr);
        let uplink_topic = uplink_topic(addr);
        self.broker.connect(client, LinkConfig::ideal());
        self.broker
            .subscribe(client, &uplink_topic)
            .expect("aggregator subscription");
        self.backhaul.join(addr);
        for &other in self.sites.keys() {
            self.backhaul.connect(addr, other, self.config.backhaul);
        }
        self.radio.place_aggregator(addr, position);
        self.client_endpoints.insert(client, Endpoint::Site(addr));
        self.sites.insert(
            addr,
            NetworkSite {
                aggregator,
                grid: GridNetwork::new(),
                position,
                client,
                uplink_topic,
                members: BTreeMap::new(),
            },
        );
        // Periodic aggregator-side sampling and verification windows.
        self.scheduler.schedule(
            SimTime::ZERO + self.config.upstream_sample_interval,
            WorldEvent::UpstreamSample(addr),
        );
        self.scheduler.schedule(
            SimTime::ZERO + self.config.verification_window,
            WorldEvent::WindowEnd(addr),
        );
    }

    /// Adds a device to the world. The device is initially unplugged; use
    /// [`plug_in_now`](Self::plug_in_now) or [`schedule_plug_in`](Self::schedule_plug_in)
    /// to connect it to a network.
    pub fn add_device(&mut self, mut device: MeteringDevice) {
        let id = device.id();
        device.boot(self.now());
        let client = device_client(id);
        let downlink_topic = downlink_topic(id);
        self.broker.connect(client, self.config.wifi);
        self.broker
            .subscribe(client, &downlink_topic)
            .expect("device subscription");
        self.device_clients.insert(
            id,
            DeviceClient {
                id: client,
                downlink_topic,
            },
        );
        self.client_endpoints.insert(client, Endpoint::Device(id));
        // Start the measurement timer. A re-added id keeps its slot, whose
        // timer is already armed; a second one would tick it twice per
        // Tmeasure.
        let (slot, fresh) = self.devices.insert(device);
        if fresh {
            self.scheduler.schedule(
                self.now() + self.config.t_measure,
                WorldEvent::MeasureTick(slot),
            );
        }
    }

    /// Immediately plugs `device` into `network`'s grid.
    ///
    /// # Panics
    ///
    /// Panics if the device or the network does not exist.
    pub fn plug_in_now(&mut self, device: DeviceId, network: AggregatorAddr) {
        let now = self.now();
        self.do_plug_in(device, network, now);
    }

    /// Schedules a plug-in at an absolute time.
    pub fn schedule_plug_in(&mut self, at: SimTime, device: DeviceId, network: AggregatorAddr) {
        self.scheduler
            .schedule(at, WorldEvent::PlugIn { device, network });
    }

    /// Schedules an unplug at an absolute time.
    pub fn schedule_unplug(&mut self, at: SimTime, device: DeviceId) {
        self.scheduler.schedule(at, WorldEvent::Unplug(device));
    }

    /// Schedules the home network removing a device (sequence 3 of Fig. 3).
    pub fn schedule_remove_device(&mut self, at: SimTime, device: DeviceId, home: AggregatorAddr) {
        self.scheduler
            .schedule(at, WorldEvent::RemoveDevice { device, home });
    }

    /// Schedules a fault injection. The event takes effect at its own
    /// injection time and — for the transient families — clears at its
    /// declared clear time; the world emits
    /// [`WorldNotification::FaultInjected`] / [`FaultCleared`] /
    /// [`FaultDetected`] at the corresponding hook points and keeps a
    /// [`FaultRecord`] per scheduled fault (see
    /// [`fault_records`](Self::fault_records)).
    ///
    /// Returns the fault's id, which the notifications and records carry.
    /// Faults targeting devices or networks the world does not contain are
    /// recorded but never take effect; validate plans up front through the
    /// facade to catch that early.
    ///
    /// [`FaultCleared`]: WorldNotification::FaultCleared
    /// [`FaultDetected`]: WorldNotification::FaultDetected
    pub fn schedule_fault(&mut self, event: FaultEvent) -> usize {
        let id = self.faults.len();
        self.scheduler
            .schedule(event.at(), WorldEvent::FaultStart(id));
        if let Some(until) = event.clears_at() {
            self.scheduler.schedule(until, WorldEvent::FaultEnd(id));
        }
        self.faults.push(FaultRuntime::new(id, event));
        id
    }

    /// Lifecycle records of every scheduled fault, in scheduling order.
    pub fn fault_records(&self) -> Vec<FaultRecord> {
        self.faults.iter().map(|f| f.record).collect()
    }

    /// Schedules a fleet command. At the event's time the manager session
    /// publishes the command's wire frame on every targeted device's command
    /// topic with the event's QoS and retain flag; each device applies the
    /// command on delivery and acknowledges on its status topic, which the
    /// manager subscribes to. The world emits
    /// [`WorldNotification::CommandPublished`] / [`CommandApplied`] at the
    /// corresponding hook points and keeps a [`CommandRecord`] per command
    /// (see [`command_records`](Self::command_records)).
    ///
    /// The first call brings the control plane up: the manager connects on
    /// an ideal operations link, every device present subscribes to its own
    /// command topic, and the cohort order for staged rollouts is drawn from
    /// a derived stream. Devices added afterwards are outside the control
    /// plane. Uncommanded worlds never pay any of this — the broker's
    /// client and subscription population is bit-identical with earlier
    /// revisions.
    ///
    /// Returns the command's sequence number, which its wire frames,
    /// notifications and record carry.
    ///
    /// [`CommandApplied`]: WorldNotification::CommandApplied
    pub fn schedule_control(&mut self, event: ControlEvent) -> usize {
        self.ensure_control_plane();
        let id = self.controls.len();
        self.scheduler
            .schedule(event.at, WorldEvent::ControlCommand(id));
        self.controls.push(ControlRuntime {
            event,
            record: CommandRecord {
                seq: id as u32,
                ..CommandRecord::default()
            },
            applied_to: BTreeSet::new(),
        });
        id
    }

    /// Lifecycle records of every scheduled fleet command, in scheduling
    /// (= sequence-number) order.
    pub fn command_records(&self) -> Vec<CommandRecord> {
        self.controls.iter().map(|c| c.record).collect()
    }

    /// Devices a `Cohort { percent }` target resolves to right now — the
    /// first `percent` of the seeded fleet shuffle, in id order. Empty until
    /// the control plane is up.
    pub fn cohort(&self, percent: u8) -> Vec<DeviceId> {
        let take = cohort_size(self.cohort_order.len(), percent);
        let mut cohort: Vec<DeviceId> = self.cohort_order[..take].to_vec();
        cohort.sort_unstable();
        cohort
    }

    fn ensure_control_plane(&mut self) {
        if self.control_ready {
            return;
        }
        self.control_ready = true;
        let now = self.now();
        self.broker.connect(manager_client(), LinkConfig::ideal());
        let device_ids: Vec<DeviceId> = self.devices.ids().collect();
        for id in &device_ids {
            let client = self.device_clients[id].id;
            self.broker
                .subscribe_at(client, &command_topic(*id), now)
                .expect("device command subscription");
            self.broker
                .subscribe_at(manager_client(), &status_topic(*id), now)
                .expect("manager status subscription");
        }
        // One seeded Fisher-Yates shuffle of the fleet, from a derived
        // stream so bringing the control plane up never perturbs the
        // world's main RNG sequence. Every cohort of the run is a prefix of
        // this order, which is what makes staged-rollout cohorts nested.
        let mut order = device_ids;
        let mut rng = self.rng.derive(0xC047_0125);
        for i in (1..order.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        self.cohort_order = order;
    }

    /// Declares which meter protocol `device` speaks on its access link.
    ///
    /// Consumption reports from the device are encoded through the matching
    /// `rtem-codecs` encoder before transmission and parsed back on the
    /// aggregator side. Devices never assigned a kind speak
    /// [`MeterKind::Internal`], the native packet encoding.
    pub fn set_meter_kind(&mut self, device: DeviceId, kind: MeterKind) {
        if kind == MeterKind::Internal {
            self.device_meter_kinds.remove(&device);
        } else {
            self.device_meter_kinds.insert(device, kind);
        }
    }

    /// The meter protocol `device` speaks ([`MeterKind::Internal`] unless
    /// assigned otherwise).
    pub fn meter_kind(&self, device: DeviceId) -> MeterKind {
        self.device_meter_kinds
            .get(&device)
            .copied()
            .unwrap_or(MeterKind::Internal)
    }

    /// Wire-level accounting at the meter-codec boundary.
    pub fn wire_stats(&self) -> WireStats {
        self.wire
    }

    /// Starts capturing every telegram put on the wire. Intended for
    /// golden-fixture tests; off by default to keep the hot path
    /// allocation-free.
    pub fn enable_telegram_log(&mut self) {
        self.telegram_log.get_or_insert_with(Vec::new);
    }

    /// Drains the captured telegrams (empty unless
    /// [`enable_telegram_log`](Self::enable_telegram_log) was called).
    pub fn take_telegram_log(&mut self) -> Vec<TelegramLogEntry> {
        self.telegram_log
            .take()
            .map(|log| {
                self.telegram_log = Some(Vec::new());
                log
            })
            .unwrap_or_default()
    }

    /// Turns on telemetry collection: periodic
    /// [`MetricsSnapshot`](rtem_telemetry::MetricsSnapshot)s on a grid
    /// anchored at [`SimTime::ZERO`] (emitted both as
    /// [`WorldNotification::MetricsSnapshot`] and into the end-of-run
    /// [`TelemetryReport`]), plus the optional structured trace and
    /// wall-clock dispatch profiler. Telemetry only *reads* deterministic
    /// state, so simulation results are bit-identical with telemetry on,
    /// off, or at any snapshot interval. When enabled mid-run, grid points
    /// at or before "now" are skipped without emitting.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero snapshot interval or
    /// zero profiler sampling stride).
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        assert!(
            config.is_valid(),
            "telemetry snapshot interval and profile sample stride must be non-zero"
        );
        let trace = config
            .trace
            .then(|| TraceLog::with_capacity(config.trace_capacity));
        let profiler = config
            .profile
            .then(|| DispatchProfiler::new(&WorldEvent::KIND_LABELS));
        let mut next_snapshot_at = SimTime::ZERO + config.snapshot_interval;
        while next_snapshot_at <= self.now() {
            next_snapshot_at += config.snapshot_interval;
        }
        // Notifications buffered before enablement predate the trace.
        self.traced_notifications = self.notifications.len();
        self.telemetry = Some(Box::new(TelemetryRuntime {
            config,
            next_snapshot_at,
            seq: 0,
            registry: MetricsRegistry::new(),
            snapshots: Vec::new(),
            trace,
            profiler,
            profile_tick: 0,
        }));
    }

    /// Whether telemetry collection is currently enabled.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Tears down telemetry and returns everything it recorded, with one
    /// final snapshot stamped at `at` (normally the run horizon). `None`
    /// when telemetry was never enabled.
    pub fn take_telemetry(&mut self, at: SimTime) -> Option<TelemetryReport> {
        self.trace_new_notifications();
        let mut runtime = self.telemetry.take()?;
        runtime.registry.reset();
        self.fill_registry(&mut runtime.registry);
        let final_snapshot = runtime.registry.snapshot(at, runtime.seq);
        Some(TelemetryReport {
            config: runtime.config,
            snapshots: runtime.snapshots,
            final_snapshot,
            trace: runtime.trace,
            profile: runtime.profiler.map(DispatchProfiler::finish),
        })
    }

    /// Emits every due snapshot with grid time strictly before `before`
    /// (the timestamp of the event about to dispatch).
    fn emit_due_snapshots(&mut self, before: SimTime) {
        while self
            .telemetry
            .as_ref()
            .is_some_and(|runtime| runtime.next_snapshot_at < before)
        {
            let at = self
                .telemetry
                .as_ref()
                .expect("checked above")
                .next_snapshot_at;
            self.emit_snapshot(at);
        }
    }

    /// Emits every remaining snapshot with grid time at or before `horizon`
    /// (all still-queued events are strictly later).
    fn emit_snapshots_through(&mut self, horizon: SimTime) {
        while self
            .telemetry
            .as_ref()
            .is_some_and(|runtime| runtime.next_snapshot_at <= horizon)
        {
            let at = self
                .telemetry
                .as_ref()
                .expect("checked above")
                .next_snapshot_at;
            self.emit_snapshot(at);
        }
    }

    /// Stamps one snapshot at grid time `at`: resets the registry, refills
    /// it from the subsystems' cumulative counters, stores the copy for the
    /// report and publishes it as a notification.
    fn emit_snapshot(&mut self, at: SimTime) {
        // Take the runtime out so the fill can borrow the rest of the world.
        let Some(mut runtime) = self.telemetry.take() else {
            return;
        };
        runtime.registry.reset();
        self.fill_registry(&mut runtime.registry);
        let snapshot = std::sync::Arc::new(runtime.registry.snapshot(at, runtime.seq));
        runtime.seq += 1;
        runtime.next_snapshot_at = at + runtime.config.snapshot_interval;
        runtime.snapshots.push(std::sync::Arc::clone(&snapshot));
        self.telemetry = Some(runtime);
        self.notifications
            .push(WorldNotification::MetricsSnapshot { at, snapshot });
        self.trace_new_notifications();
    }

    /// Copies any still-untraced notifications into the telemetry trace as
    /// instants. Called after each dispatch and whenever the notification
    /// buffer is about to be drained; a watermark (rather than hooks at the
    /// ~10 push sites) keeps the hot paths and borrow structure untouched.
    fn trace_new_notifications(&mut self) {
        let Some(runtime) = self.telemetry.as_mut() else {
            return;
        };
        let Some(trace) = runtime.trace.as_mut() else {
            return;
        };
        for notification in &self.notifications[self.traced_notifications..] {
            trace.push_instant(notification.label(), notification.at().as_micros());
        }
        self.traced_notifications = self.notifications.len();
    }

    /// The pull sync: fills a freshly reset registry from the cumulative
    /// counters every subsystem already maintains. Reads only — this is the
    /// one place telemetry touches the deterministic state.
    fn fill_registry(&self, registry: &mut MetricsRegistry) {
        // Broker, fleet-wide.
        let fleet = registry.fleet_mut();
        fleet.set(MetricId::BrokerPublishes, self.broker.published());
        fleet.set(MetricId::BrokerDelivered, self.broker.delivered());
        fleet.set(MetricId::BrokerDropped, self.broker.dropped());
        fleet.set(
            MetricId::BrokerQueuedForResume,
            self.broker.queued_for_resume(),
        );
        fleet.set(MetricId::BrokerResumed, self.broker.resumed());
        fleet.set(
            MetricId::BrokerRetainedReplays,
            self.broker.retained_delivered(),
        );
        fleet.set(
            MetricId::BrokerQos2HandshakeFrames,
            self.broker.qos2_handshake_frames(),
        );
        fleet.set(
            MetricId::BrokerQos2DupSuppressed,
            self.broker.qos2_dup_suppressed(),
        );
        fleet.set(
            MetricId::BrokerSessionQueueDepth,
            self.broker.session_queue_total() as u64,
        );
        // Links: every broker client link plus the backhaul mesh.
        let mut links = self.broker.link_totals();
        links += self.backhaul.link_totals();
        fleet.set(MetricId::LinkPacketsOffered, links.offered);
        fleet.set(MetricId::LinkPacketsLost, links.lost);
        fleet.set(MetricId::LinkBytesDelivered, links.delivered_bytes());
        fleet.set(MetricId::LinkBytesLost, links.lost_bytes);
        fleet.set(
            MetricId::LinkFaultsActive,
            self.faults
                .iter()
                .filter(|fault| {
                    fault.record.family == FaultFamily::Link
                        && fault.record.injected_at.is_some()
                        && fault.record.cleared_at.is_none()
                })
                .count() as u64,
        );
        // Scheduler.
        fleet.set(
            MetricId::SchedulerEventsDispatched,
            self.events_by_kind.iter().sum(),
        );
        fleet.set(
            MetricId::SchedulerQueueHighWater,
            self.queue_high_water as u64,
        );
        fleet.set(MetricId::DeviceMeasureTicks, self.events_by_kind[0]);
        // Devices, fleet-wide (unplugged devices count here even while they
        // belong to no network).
        let mut buffered = 0u64;
        let mut reboots = 0u64;
        let mut crashed = 0u64;
        let mut lost_to_crashes = 0u64;
        for (_, device) in self.devices.iter() {
            buffered += device.buffered_records() as u64;
            reboots += u64::from(device.counters().reboots);
            crashed += u64::from(device.is_crashed());
            lost_to_crashes += device.records_lost_to_crashes();
        }
        fleet.set(MetricId::DeviceBufferedRecords, buffered);
        fleet.set(MetricId::DeviceReboots, reboots);
        fleet.set(MetricId::DeviceCrashedNow, crashed);
        fleet.set(MetricId::DeviceRecordsLostToCrashes, lost_to_crashes);
        fleet.set(
            MetricId::NetworkMembers,
            self.sites
                .values()
                .map(|site| site.members.len() as u64)
                .sum(),
        );
        // Aggregators, fleet-wide.
        let mut reports_accepted = 0u64;
        let mut reports_nacked = 0u64;
        let mut records_accepted = 0u64;
        let mut dup_filtered = 0u64;
        let mut verdicts = 0u64;
        let mut anomalous = 0u64;
        for site in self.sites.values() {
            reports_accepted += site.aggregator.reports_accepted();
            reports_nacked += site.aggregator.nacks_sent();
            records_accepted += site.aggregator.records_accepted();
            dup_filtered += site.aggregator.records_duplicate_filtered();
            verdicts += site.aggregator.verdicts().len() as u64;
            anomalous += site
                .aggregator
                .verdicts()
                .iter()
                .filter(|v| v.anomalous)
                .count() as u64;
        }
        fleet.set(MetricId::AggReportsAccepted, reports_accepted);
        fleet.set(MetricId::AggReportsNacked, reports_nacked);
        fleet.set(MetricId::AggRecordsAccepted, records_accepted);
        fleet.set(MetricId::AggRecordsDuplicateFiltered, dup_filtered);
        fleet.set(MetricId::AggVerdicts, verdicts);
        fleet.set(MetricId::AggAnomalousWindows, anomalous);
        // Codecs.
        fleet.set(MetricId::CodecTelegramsSent, self.wire.telegrams_sent);
        fleet.set(MetricId::CodecTelegramsParsed, self.wire.telegrams_parsed);
        fleet.set(MetricId::CodecParseFailures, self.wire.parse_failures);
        fleet.set(
            MetricId::CodecCorruptedInjected,
            self.wire.corrupted_injected,
        );
        // Control plane.
        let mut cmds_published = 0u64;
        let mut cmds_applied = 0u64;
        let mut cmds_rejected = 0u64;
        let mut cmds_acked = 0u64;
        for control in &self.controls {
            cmds_published += u64::from(control.record.published_at.is_some());
            cmds_applied += control.record.applied as u64;
            cmds_rejected += control.record.rejected as u64;
            cmds_acked += control.record.acked as u64;
        }
        fleet.set(MetricId::ControlCommandsPublished, cmds_published);
        fleet.set(MetricId::ControlCommandsApplied, cmds_applied);
        fleet.set(MetricId::ControlCommandsRejected, cmds_rejected);
        fleet.set(MetricId::ControlCommandsAcked, cmds_acked);
        registry.set_codec_failures(self.codec_failures);
        // Per-network scopes.
        for (addr, site) in &self.sites {
            let scope = registry.network_mut(addr.0);
            scope.set(MetricId::NetworkMembers, site.members.len() as u64);
            scope.set(
                MetricId::AggReportsAccepted,
                site.aggregator.reports_accepted(),
            );
            scope.set(MetricId::AggReportsNacked, site.aggregator.nacks_sent());
            scope.set(
                MetricId::AggRecordsAccepted,
                site.aggregator.records_accepted(),
            );
            scope.set(
                MetricId::AggRecordsDuplicateFiltered,
                site.aggregator.records_duplicate_filtered(),
            );
            scope.set(
                MetricId::AggVerdicts,
                site.aggregator.verdicts().len() as u64,
            );
            scope.set(
                MetricId::AggAnomalousWindows,
                site.aggregator
                    .verdicts()
                    .iter()
                    .filter(|v| v.anomalous)
                    .count() as u64,
            );
            let mut queue_depth = 0u64;
            let mut links = rtem_net::link::LinkTotals::default();
            let mut buffered = 0u64;
            let mut reboots = 0u64;
            let mut crashed = 0u64;
            for (&device_id, member) in &site.members {
                let client = device_client(device_id);
                queue_depth += self.broker.session_queue_len(client).unwrap_or(0) as u64;
                if let Some(totals) = self.broker.client_link_totals(client) {
                    links += totals;
                }
                let device = self.devices.at(member.slot);
                buffered += device.buffered_records() as u64;
                reboots += u64::from(device.counters().reboots);
                crashed += u64::from(device.is_crashed());
            }
            let scope = registry.network_mut(addr.0);
            scope.set(MetricId::BrokerSessionQueueDepth, queue_depth);
            scope.set(MetricId::LinkPacketsOffered, links.offered);
            scope.set(MetricId::LinkPacketsLost, links.lost);
            scope.set(MetricId::LinkBytesDelivered, links.delivered_bytes());
            scope.set(MetricId::LinkBytesLost, links.lost_bytes);
            scope.set(MetricId::DeviceBufferedRecords, buffered);
            scope.set(MetricId::DeviceReboots, reboots);
            scope.set(MetricId::DeviceCrashedNow, crashed);
        }
    }

    /// Runs the world until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        // The scheduler needs the world's maps, so the loop lives here rather
        // than in a closure passed to Scheduler::run_until.
        while let Some(next) = self.scheduler.queue_mut().peek_time() {
            if next > horizon {
                break;
            }
            // A snapshot at grid time t covers exactly the events with
            // `at <= t`: everything earlier has dispatched, the event about
            // to dispatch is strictly later. Emitting here (instead of via
            // scheduled events) leaves the scheduler untouched, so the
            // simulation is trivially bit-identical with telemetry off.
            self.emit_due_snapshots(next);
            let depth = self.scheduler.queue_mut().len();
            if depth > self.queue_high_water {
                self.queue_high_water = depth;
            }
            let event = self.scheduler.queue_mut().pop().expect("peeked event");
            self.dispatch(event.payload, event.at);
        }
        // Events beyond the horizon are still queued, so every remaining
        // grid point up to the horizon is already fully covered.
        self.emit_snapshots_through(horizon);
    }

    /// Counts, traces and (when configured) wall-clock-profiles one event
    /// dispatch. The profiler reads the host clock strictly *around* the
    /// deterministic dispatch — it never feeds anything back into it.
    fn dispatch(&mut self, event: WorldEvent, now: SimTime) {
        let kind = event.kind_index();
        self.events_by_kind[kind] += 1;
        if let Some(trace) = self
            .telemetry
            .as_mut()
            .and_then(|runtime| runtime.trace.as_mut())
        {
            trace.push_span(WorldEvent::KIND_LABELS[kind], now.as_micros());
        }
        let started = self.telemetry.as_mut().and_then(|runtime| {
            runtime.profiler.as_ref()?;
            // Sample on the configured stride: the decision depends only on
            // the dispatch ordinal, so the sampled subset is deterministic
            // even though the measured wall times are not.
            let tick = runtime.profile_tick;
            runtime.profile_tick += 1;
            (tick % u64::from(runtime.config.profile_sample_stride.max(1)) == 0)
                .then(std::time::Instant::now)
        });
        self.dispatch_inner(event, now);
        if let Some(started) = started {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(profiler) = self
                .telemetry
                .as_mut()
                .and_then(|runtime| runtime.profiler.as_mut())
            {
                profiler.record(kind, nanos);
            }
        }
        self.trace_new_notifications();
    }

    fn dispatch_inner(&mut self, event: WorldEvent, now: SimTime) {
        match event {
            WorldEvent::MeasureTick(slot) => {
                self.handle_measure_tick(slot, now);
            }
            WorldEvent::UpstreamSample(addr) => {
                self.handle_upstream_sample(addr, now);
            }
            WorldEvent::WindowEnd(addr) => {
                // A dark aggregator seals nothing; the timer stays alive so
                // windows resume at the usual cadence after recovery.
                if !self.down_sites.contains_key(&addr) {
                    let mut anomalous = false;
                    if let Some(site) = self.sites.get_mut(&addr) {
                        let blocks_before = site.aggregator.ledger().chain().len();
                        let entries_before = site.aggregator.ledger().chain().total_records();
                        let verdict = site.aggregator.end_window(now);
                        let chain = site.aggregator.ledger().chain();
                        if chain.len() > blocks_before {
                            self.notifications.push(WorldNotification::BlockSealed {
                                at: now,
                                network: addr,
                                block_index: chain.len() as u64 - 1,
                                entries: chain.total_records() - entries_before,
                            });
                        }
                        if let Some(verdict) = verdict.filter(|v| v.anomalous) {
                            anomalous = true;
                            self.notifications.push(WorldNotification::AnomalousWindow {
                                at: now,
                                network: addr,
                                verdict,
                            });
                        }
                    }
                    // Fault hook points, in order: forgeries that waited for
                    // a sealed block apply first, then the audit looks for
                    // earlier forgeries, then this window's verdict and the
                    // recovery block are attributed, then the shadow
                    // consensus round runs.
                    self.apply_pending_tampers(addr, now);
                    self.audit_tamper_faults(addr, now);
                    if anomalous {
                        self.attribute_anomaly_to_faults(addr, now);
                    }
                    self.detect_link_degradation(addr, now);
                    self.attribute_recovery_backfill(addr, now);
                    self.run_byzantine_rounds(addr, now);
                    // Streaming compaction runs after every hook that reads
                    // the resident window: under a bounded retention policy
                    // the sealed blocks older than the active horizon are
                    // folded into summaries and evicted, and the members'
                    // measured series prune to the same horizon. Free under
                    // the default keep-all policy.
                    if let Some(site) = self.sites.get_mut(&addr) {
                        let window = self.config.verification_window;
                        site.aggregator.compact(self.config.retention, now, window);
                        if let Some(cutoff) = self.config.retention.cutoff(now, window) {
                            for member in site.members.values() {
                                self.devices.at_mut(member.slot).prune_series_before(cutoff);
                            }
                        }
                    }
                }
                self.scheduler.schedule(
                    now + self.config.verification_window,
                    WorldEvent::WindowEnd(addr),
                );
            }
            WorldEvent::BrokerPoll => {
                self.armed_broker_polls.remove(&now);
                self.drain_broker(now);
            }
            WorldEvent::BackhaulPoll => {
                self.armed_backhaul_polls.remove(&now);
                self.drain_backhaul(now);
            }
            WorldEvent::PlugIn { device, network } => self.do_plug_in(device, network, now),
            WorldEvent::Unplug(device) => self.do_unplug(device, now),
            WorldEvent::RemoveDevice { device, home } => {
                if let Some(site) = self.sites.get_mut(&home) {
                    let out = site.aggregator.handle_backhaul(
                        home,
                        &Packet::RemoveDevice { device },
                        now,
                    );
                    self.route_aggregator_output(home, out, now);
                }
            }
            WorldEvent::FaultStart(id) => self.fault_start(id, now),
            WorldEvent::FaultEnd(id) => self.fault_end(id, now),
            WorldEvent::ControlCommand(id) => self.control_fire(id, now),
        }
    }

    /// Publishes a scheduled fleet command at its firing time.
    fn control_fire(&mut self, id: usize, now: SimTime) {
        let event = self.controls[id].event;
        let targets: Vec<DeviceId> = match event.target {
            CommandTarget::AllDevices => self.devices.ids().collect(),
            CommandTarget::Device(device) => self
                .devices
                .contains(device)
                .then_some(device)
                .into_iter()
                .collect(),
            CommandTarget::Site(addr) => self
                .sites
                .get(&addr)
                .map(|site| site.members.keys().copied().collect())
                .unwrap_or_default(),
            CommandTarget::Cohort { percent } => self.cohort(percent),
        };
        self.controls[id].record.published_at = Some(now);
        self.controls[id].record.targets = targets.len();
        let frame = CommandFrame {
            seq: id as u32,
            command: event.command,
        };
        let payload = frame.encode();
        for device in &targets {
            let _ = self.broker.publish_with(
                manager_client(),
                &command_topic(*device),
                payload.clone(),
                event.qos,
                event.retain,
                now,
            );
        }
        self.notifications
            .push(WorldNotification::CommandPublished {
                at: now,
                seq: id as u32,
                label: event.command.label(),
                targets: targets.len(),
            });
        self.arm_broker_poll(now);
    }

    /// A command frame reached a device: execute it once (retained
    /// redeliveries and session-resume replays are idempotent) and
    /// acknowledge on the device's status topic.
    fn handle_command_delivery(
        &mut self,
        to: ClientId,
        topic: &str,
        payload: &bytes::Bytes,
        now: SimTime,
    ) {
        let Some(&Endpoint::Device(device_id)) = self.client_endpoints.get(&to) else {
            return;
        };
        let Ok(frame) = CommandFrame::decode(payload) else {
            return;
        };
        let Some(runtime) = self.controls.get_mut(frame.seq as usize) else {
            return;
        };
        runtime.record.delivered += 1;
        runtime.record.command_bytes += (payload.len() + topic.len() + 8) as u64;
        // A crashed firmware is deaf; its broker session is disconnected, so
        // this only guards the crash-at-the-same-instant race. The queued
        // replay (or the retained copy) catches the device after restart.
        if self.devices.get(device_id).map_or(true, |d| d.is_crashed()) {
            return;
        }
        if !runtime.applied_to.insert(device_id) {
            return;
        }
        let applied = self.apply_fleet_command(device_id, frame.command);
        let runtime = &mut self.controls[frame.seq as usize];
        if applied {
            runtime.record.applied += 1;
        } else {
            runtime.record.rejected += 1;
        }
        self.notifications.push(WorldNotification::CommandApplied {
            at: now,
            seq: frame.seq,
            device: device_id,
            applied,
        });
        let ack = CommandAck {
            device: device_id,
            seq: frame.seq,
            applied,
        };
        let client = self.device_clients[&device_id].id;
        let _ = self.broker.publish(
            client,
            &status_topic(device_id),
            ack.encode(),
            QoS::AtLeastOnce,
            now,
        );
        self.arm_broker_poll(now);
    }

    /// A device's acknowledgment reached the manager's status subscription.
    fn handle_status_delivery(
        &mut self,
        to: ClientId,
        topic: &str,
        payload: &bytes::Bytes,
        now: SimTime,
    ) {
        if to != manager_client() {
            return;
        }
        let Ok(ack) = CommandAck::decode(payload) else {
            return;
        };
        let Some(runtime) = self.controls.get_mut(ack.seq as usize) else {
            return;
        };
        runtime.record.acked += 1;
        runtime.record.ack_bytes += (payload.len() + topic.len() + 8) as u64;
        if runtime.record.first_ack_at.is_none() {
            runtime.record.first_ack_at = Some(now);
        }
        runtime.record.last_ack_at = Some(now);
    }

    /// Executes one fleet command on one device's firmware (or the world
    /// state standing in for it). Returns whether the command was accepted.
    fn apply_fleet_command(&mut self, device_id: DeviceId, command: FleetCommand) -> bool {
        match command {
            FleetCommand::SetMeasureInterval { interval } => {
                let Some(device) = self.devices.get_mut(device_id) else {
                    return false;
                };
                if !device.set_measure_interval(interval) {
                    return false;
                }
                // The already-armed tick fires at the old cadence once; the
                // reschedule after it picks up the override.
                self.measure_overrides.insert(device_id, interval);
                true
            }
            FleetCommand::SetTariffHint(hint) => {
                if !hint.is_valid() {
                    return false;
                }
                let Some(device) = self.devices.get_mut(device_id) else {
                    return false;
                };
                device.set_tariff(DeviceTariff {
                    peak_price_per_mwh: hint.peak_price_per_mwh,
                    off_peak_price_per_mwh: hint.off_peak_price_per_mwh,
                    peak_start_s: hint.peak_start_s,
                    peak_end_s: hint.peak_end_s,
                });
                true
            }
            FleetCommand::SetMeterKind { kind } => {
                if !self.devices.contains(device_id) {
                    return false;
                }
                self.set_meter_kind(device_id, kind);
                true
            }
            FleetCommand::StartReporting => {
                let Some(device) = self.devices.get_mut(device_id) else {
                    return false;
                };
                device.set_reporting(true);
                true
            }
            FleetCommand::StopReporting => {
                let Some(device) = self.devices.get_mut(device_id) else {
                    return false;
                };
                device.set_reporting(false);
                true
            }
            FleetCommand::CrashRecoveryConfig { persist_store } => {
                let Some(device) = self.devices.get_mut(device_id) else {
                    return false;
                };
                device.set_persist_store(persist_store);
                true
            }
        }
    }

    /// Emits a [`WorldNotification::HandshakeCompleted`] when the most
    /// recent handshake of the device in `slot` changed across a state
    /// transition.
    fn note_handshake(&mut self, slot: u32, before: Option<HandshakeBreakdown>, now: SimTime) {
        let device = self.devices.at(slot);
        let after = device.last_handshake();
        if after != before {
            if let Some(breakdown) = after {
                let network = device.registration().map(|(addr, _, _)| addr);
                self.notifications
                    .push(WorldNotification::HandshakeCompleted {
                        at: now,
                        device: device.id(),
                        network,
                        breakdown,
                    });
            }
        }
    }

    fn handle_measure_tick(&mut self, slot: u32, now: SimTime) {
        let mut outbound = std::mem::take(&mut self.outbound_scratch);
        outbound.clear();
        let device = self.devices.at_mut(slot);
        let device_id = device.id();
        let handshake_before = device.last_handshake();
        device.on_measure_tick_into(now, &self.radio, &mut outbound);
        self.note_handshake(slot, handshake_before, now);
        for out in outbound.drain(..) {
            self.publish_uplink(device_id, out.to, out.packet, now);
        }
        self.outbound_scratch = outbound;
        // A `SetMeasureInterval` command overrides the world-wide Tmeasure
        // per device; the map is empty in uncommanded runs.
        let interval = self
            .measure_overrides
            .get(&device_id)
            .copied()
            .unwrap_or(self.config.t_measure);
        self.scheduler
            .schedule(now + interval, WorldEvent::MeasureTick(slot));
        self.arm_broker_poll(now);
    }

    fn handle_upstream_sample(&mut self, addr: AggregatorAddr, now: SimTime) {
        // A dark aggregator's own meter is dark too; keep the timer alive.
        if self.down_sites.contains_key(&addr) {
            self.scheduler.schedule(
                now + self.config.upstream_sample_interval,
                WorldEvent::UpstreamSample(addr),
            );
            return;
        }
        // Ground truth: sum the true currents of devices plugged into this
        // network's grid, evaluate the grid (losses) and let the aggregator's
        // own sensor observe the upstream total. The site's member index
        // makes this one batch over the network's own population.
        let mut loads = std::mem::take(&mut self.loads_scratch);
        loads.clear();
        if let Some(site) = self.sites.get(&addr) {
            for member in site.members.values() {
                let current = self.devices.at_mut(member.slot).true_grid_current(now);
                loads.push((member.branch, current));
            }
        }
        // The grid sums in branch order, which differs from member order
        // once a visitor plugs in (it takes a later branch). On a static
        // site the loads are already in branch order and this is one pass;
        // either way the evaluation allocates nothing.
        loads.sort_unstable_by_key(|&(branch, _)| branch);
        if let Some(site) = self.sites.get_mut(&addr) {
            let snapshot = site.grid.evaluate(&loads);
            site.aggregator
                .observe_upstream(now, snapshot.upstream_total);
        }
        self.loads_scratch = loads;
        self.scheduler.schedule(
            now + self.config.upstream_sample_interval,
            WorldEvent::UpstreamSample(addr),
        );
    }

    fn do_plug_in(&mut self, device_id: DeviceId, network: AggregatorAddr, now: SimTime) {
        let slot = self.devices.slot(device_id).expect("unknown device");
        // Remove from the previous grid, if any.
        if let Some((old_addr, old_branch)) = self.device_sites.remove(&device_id) {
            if let Some(old_site) = self.sites.get_mut(&old_addr) {
                old_site.grid.remove_branch(old_branch);
                old_site.members.remove(&device_id);
            }
        }
        let site = self.sites.get_mut(&network).expect("unknown network");
        let branch = site.grid.add_branch(Branch::default());
        let position = Position::new(site.position.x + 2.0, site.position.y + 1.0);
        site.members.insert(device_id, Member { branch, slot });
        self.device_sites.insert(device_id, (network, branch));
        self.devices.at_mut(slot).plug_in(now, branch, position);
        self.notifications.push(WorldNotification::PluggedIn {
            at: now,
            device: device_id,
            network,
        });
    }

    fn do_unplug(&mut self, device_id: DeviceId, now: SimTime) {
        if let Some((addr, branch)) = self.device_sites.remove(&device_id) {
            if let Some(site) = self.sites.get_mut(&addr) {
                site.grid.remove_branch(branch);
                site.members.remove(&device_id);
            }
        }
        if let Some(device) = self.devices.get_mut(device_id) {
            device.unplug(now);
            self.notifications.push(WorldNotification::Unplugged {
                at: now,
                device: device_id,
            });
        }
    }

    fn publish_uplink(
        &mut self,
        device_id: DeviceId,
        to: AggregatorAddr,
        packet: Packet,
        now: SimTime,
    ) {
        let packet = self.lower_to_wire(device_id, packet, now);
        let client = self.device_clients[&device_id].id;
        let payload = packet.encode();
        let topic: Cow<'_, str> = match self.sites.get(&to) {
            Some(site) => Cow::Borrowed(&site.uplink_topic),
            None => Cow::Owned(uplink_topic(to)),
        };
        let _ = self
            .broker
            .publish(client, &topic, payload, QoS::AtLeastOnce, now);
        self.arm_broker_poll(now);
    }

    /// The meter-codec boundary on the transmit side: consumption reports
    /// from real-protocol devices are re-framed as telegram bytes, and any
    /// active telegram-corruption fault targeting the device mutates the
    /// report here — on the wire for real codecs, in the record values for
    /// `Internal` (whose packed encoding has no checksum to trip, so the
    /// corruption sails through undetected).
    fn lower_to_wire(&mut self, device_id: DeviceId, packet: Packet, _now: SimTime) -> Packet {
        let Packet::ConsumptionReport {
            device,
            master,
            mut records,
        } = packet
        else {
            return packet;
        };
        let kind = self.meter_kind(device_id);
        self.wire.records_sent += records.len() as u64;
        if kind == MeterKind::Internal {
            if let Some((fault, mode)) = self.active_corruption_draw(device_id) {
                corrupt_records(
                    &mut records,
                    mode,
                    self.faults[fault].corruption_rng.as_mut(),
                );
                self.wire.corrupted_injected += 1;
            }
            let packet = Packet::ConsumptionReport {
                device,
                master,
                records,
            };
            self.wire.native_bytes += packet.encoded_len() as u64;
            return packet;
        }
        let telegram = Telegram::new(device, master, records);
        let mut bytes = rtem_codecs::encode(kind, &telegram)
            .expect("every real meter kind encodes every telegram");
        self.wire.native_bytes += Packet::ConsumptionReport {
            device: telegram.device,
            master: telegram.master,
            records: telegram.records,
        }
        .encoded_len() as u64;
        if let Some((fault, mode)) = self.active_corruption_draw(device_id) {
            corrupt_bytes(&mut bytes, mode, self.faults[fault].corruption_rng.as_mut());
            self.wire.corrupted_injected += 1;
        }
        self.wire.telegrams_sent += 1;
        self.wire.telegram_bytes += bytes.len() as u64;
        // Freeze once; the wire log and the packet share the allocation.
        let bytes = bytes::Bytes::from(bytes);
        if let Some(log) = self.telegram_log.as_mut() {
            log.push(TelegramLogEntry {
                at: _now,
                device: device_id,
                kind,
                bytes: bytes.clone(),
            });
            // Under bounded retention the wire log is a tail window too;
            // keep-all (every golden fixture) captures everything.
            if self.config.retention != RetentionPolicy::KeepAll
                && log.len() > TELEGRAM_LOG_BOUNDED_CAP
            {
                log.drain(..log.len() - TELEGRAM_LOG_BOUNDED_CAP);
            }
        }
        Packet::Telegram {
            device: device_id,
            codec: kind.code(),
            payload: bytes,
        }
    }

    /// Rolls the per-telegram corruption dice for every *active* corruption
    /// fault targeting `device`: returns the first fault whose draw comes up
    /// corrupt, together with its mangling mode.
    fn active_corruption_draw(&mut self, device: DeviceId) -> Option<(usize, CorruptionMode)> {
        for (id, fault) in self.faults.iter_mut().enumerate() {
            let FaultEvent::TelegramCorruption {
                device: target,
                mode,
                per_mille,
                ..
            } = fault.event
            else {
                continue;
            };
            if target != device
                || fault.record.injected_at.is_none()
                || fault.record.cleared_at.is_some()
            {
                continue;
            }
            let Some(rng) = fault.corruption_rng.as_mut() else {
                continue;
            };
            if rng.next_below(1000) < u64::from(per_mille) {
                return Some((id, mode));
            }
        }
        None
    }

    /// The meter-codec boundary on the receive side: runs the codec named by
    /// the envelope over the telegram bytes and reconstructs the native
    /// consumption report. Returns `None` when the telegram does not parse —
    /// the rejection is counted, and if an active corruption fault targets
    /// the device the rejection is credited to it as its detection signal.
    fn parse_telegram(
        &mut self,
        device: DeviceId,
        codec: u8,
        payload: &[u8],
        now: SimTime,
    ) -> Option<Packet> {
        let parsed = match MeterKind::from_code(codec).filter(|k| *k != MeterKind::Internal) {
            Some(kind) => rtem_codecs::parse(kind, payload),
            None => Err(CodecError::Semantic("unknown codec discriminant")),
        };
        match parsed {
            Ok(telegram) if telegram.device == device => {
                self.wire.telegrams_parsed += 1;
                Some(Packet::ConsumptionReport {
                    device: telegram.device,
                    master: telegram.master,
                    records: telegram.records,
                })
            }
            Ok(_) => {
                // Parsed clean but for the wrong device: a semantic
                // cross-frame identity failure.
                self.note_parse_failure(device, codec, rtem_codecs::CodecErrorKind::Semantic, now);
                None
            }
            Err(error) => {
                self.note_parse_failure(device, codec, error.kind(), now);
                None
            }
        }
    }

    fn note_parse_failure(
        &mut self,
        device: DeviceId,
        codec: u8,
        kind: rtem_codecs::CodecErrorKind,
        now: SimTime,
    ) {
        self.wire.parse_failures += 1;
        self.codec_failures.record(codec, kind);
        let undetected: Vec<usize> = self
            .faults
            .iter()
            .enumerate()
            .filter(|(_, fault)| {
                matches!(
                    fault.event,
                    FaultEvent::TelegramCorruption { device: target, .. } if target == device
                ) && fault.record.injected_at.is_some()
                    && fault.record.detected_at.is_none()
            })
            .map(|(id, _)| id)
            .collect();
        for id in undetected {
            self.mark_detected(id, now, DetectionSignal::TelegramRejected { codec });
        }
    }

    fn publish_downlink(&mut self, from: AggregatorAddr, packet: Packet, now: SimTime) {
        let Some(device) = packet.device() else {
            return;
        };
        let site_client = self.sites[&from].client;
        let payload = packet.encode();
        let topic: Cow<'_, str> = match self.device_clients.get(&device) {
            Some(client) => Cow::Borrowed(&client.downlink_topic),
            None => Cow::Owned(downlink_topic(device)),
        };
        let _ = self
            .broker
            .publish(site_client, &topic, payload, QoS::AtLeastOnce, now);
        self.arm_broker_poll(now);
    }

    fn arm_broker_poll(&mut self, now: SimTime) {
        if let Some(at) = self.broker.next_delivery_at() {
            let at = if at <= now { now } else { at };
            if self.armed_broker_polls.insert(at) {
                self.scheduler.schedule(at, WorldEvent::BrokerPoll);
            }
        }
    }

    fn arm_backhaul_poll(&mut self, now: SimTime) {
        if let Some(at) = self.backhaul.next_delivery_at() {
            let at = if at <= now { now } else { at };
            if self.armed_backhaul_polls.insert(at) {
                self.scheduler.schedule(at, WorldEvent::BackhaulPoll);
            }
        }
    }

    fn drain_broker(&mut self, now: SimTime) {
        let deliveries = self.broker.drain_due(now);
        for delivery in deliveries {
            // Control-plane traffic carries its own frames, not `Packet`s;
            // route it by topic before attempting a packet decode. Metering
            // topics end in /uplink or /downlink, so the suffix checks never
            // misroute data-plane traffic (and no such delivery exists at
            // all unless a control plan brought the subscriptions up).
            if delivery.topic.ends_with("/command") {
                self.handle_command_delivery(delivery.to, &delivery.topic, &delivery.payload, now);
                continue;
            }
            if delivery.topic.ends_with("/status") {
                self.handle_status_delivery(delivery.to, &delivery.topic, &delivery.payload, now);
                continue;
            }
            let Ok(packet) = Packet::decode(&delivery.payload) else {
                continue;
            };
            match self.client_endpoints.get(&delivery.to) {
                // Uplink to an aggregator.
                Some(&Endpoint::Site(addr)) => {
                    // The meter-codec boundary on the receive side: telegram
                    // envelopes are parsed back into consumption reports
                    // before the aggregator sees them. A telegram that fails
                    // its codec is dropped here — no acknowledgment goes
                    // back, so the device retries from local storage.
                    let packet = match packet {
                        Packet::Telegram {
                            device,
                            codec,
                            payload,
                        } => {
                            let Some(report) = self.parse_telegram(device, codec, &payload, now)
                            else {
                                continue;
                            };
                            report
                        }
                        other => other,
                    };
                    let out = {
                        let site = self.sites.get_mut(&addr).expect("site exists");
                        site.aggregator.handle_device_packet(&packet, now)
                    };
                    self.route_aggregator_output(addr, out, now);
                }
                // Downlink to a device.
                Some(&Endpoint::Device(device_id)) => {
                    let mut outbound = std::mem::take(&mut self.outbound_scratch);
                    outbound.clear();
                    let slot = self.devices.slot(device_id).expect("device exists");
                    let device = self.devices.at_mut(slot);
                    let handshake_before = device.last_handshake();
                    device.on_packet_into(&packet, now, &mut outbound);
                    self.note_handshake(slot, handshake_before, now);
                    for out in outbound.drain(..) {
                        self.publish_uplink(device_id, out.to, out.packet, now);
                    }
                    self.outbound_scratch = outbound;
                }
                None => {}
            }
        }
        self.arm_broker_poll(now);
    }

    fn drain_backhaul(&mut self, now: SimTime) {
        let deliveries = self.backhaul.drain_due(now);
        for delivery in deliveries {
            if let Some(&fault_id) = self.down_sites.get(&delivery.to) {
                self.deliver_to_down_site(fault_id, delivery, now);
                continue;
            }
            let out = {
                let Some(site) = self.sites.get_mut(&delivery.to) else {
                    continue;
                };
                site.aggregator
                    .handle_backhaul(delivery.from, &delivery.packet, now)
            };
            self.route_aggregator_output(delivery.to, out, now);
        }
        self.arm_backhaul_poll(now);
    }

    /// Handles backhaul traffic addressed to a dark aggregator: membership
    /// verification for devices adopted by a failover network is answered by
    /// the backup's membership replica; everything else queues until
    /// recovery (the mesh transport is reliable, the endpoint is not).
    fn deliver_to_down_site(&mut self, fault_id: usize, delivery: BackhaulDelivery, now: SimTime) {
        if let Packet::MembershipVerifyRequest {
            device, requester, ..
        } = delivery.packet
        {
            if self.faults[fault_id].failover_moved.contains(&device) {
                let _ = self.backhaul.send(
                    delivery.to,
                    requester,
                    Packet::MembershipVerifyResponse {
                        device,
                        accepted: true,
                    },
                    now,
                );
                return;
            }
        }
        self.faults[fault_id]
            .queued_backhaul
            .push((delivery.from, delivery.packet));
    }

    fn route_aggregator_output(
        &mut self,
        from: AggregatorAddr,
        out: rtem_aggregator::aggregator::AggregatorOutput,
        now: SimTime,
    ) {
        for packet in out.to_devices {
            self.publish_downlink(from, packet, now);
        }
        for (to, packet) in out.to_aggregators {
            let _ = self.backhaul.send(from, to, packet, now);
        }
        self.arm_backhaul_poll(now);
        self.arm_broker_poll(now);
    }

    fn note_fault_injected(&mut self, id: usize, now: SimTime) {
        self.faults[id].record.injected_at = Some(now);
        self.notifications.push(WorldNotification::FaultInjected {
            at: now,
            id,
            family: self.faults[id].record.family,
        });
    }

    fn mark_detected(&mut self, id: usize, now: SimTime, signal: DetectionSignal) {
        let record = &mut self.faults[id].record;
        record.detected_at = Some(now);
        record.signal = Some(signal);
        self.notifications.push(WorldNotification::FaultDetected {
            at: now,
            id,
            family: record.family,
            signal,
        });
    }

    /// Applies a scheduled fault at its injection time.
    fn fault_start(&mut self, id: usize, now: SimTime) {
        match self.faults[id].event {
            FaultEvent::SensorFault { device, kind, .. } => {
                let Some(d) = self.devices.get_mut(device) else {
                    return;
                };
                d.inject_sensor_fault(SensorFault::new(kind, now));
                self.note_fault_injected(id, now);
            }
            FaultEvent::MeterTamper { network, .. } => {
                if !self.try_apply_tamper(id, network, now) {
                    // Nothing committed yet: forge the first block that
                    // seals with records (applied at the WindowEnd hook).
                    self.faults[id].pending_tamper = true;
                }
            }
            FaultEvent::LinkDegrade {
                target, degraded, ..
            } => {
                match target {
                    LinkTarget::Wifi { network } => {
                        // Both halves of the access medium degrade: the
                        // device clients (downlink deliveries to devices)
                        // and the aggregator clients (uplink deliveries of
                        // device reports) — the broker charges each
                        // delivery against its recipient's link. A scoped
                        // burst reads the target site's member index; only
                        // a medium-wide burst walks the whole population.
                        let mut clients: Vec<ClientId> = match network {
                            Some(n) => self
                                .sites
                                .get(&n)
                                .into_iter()
                                .flat_map(|site| site.members.keys())
                                .map(|dev| self.device_clients[dev].id)
                                .collect(),
                            None => self.device_clients.values().map(|c| c.id).collect(),
                        };
                        clients.extend(
                            self.sites
                                .iter()
                                .filter(|(addr, _)| network.map_or(true, |n| **addr == n))
                                .map(|(_, site)| site.client),
                        );
                        let mut watch = LinkWatch {
                            clients: Vec::new(),
                            backhaul: false,
                            baseline: LinkTotals::default(),
                            ambient_loss: 0.0,
                        };
                        for client in clients {
                            if let Some(old) = self.broker.link_config(client) {
                                self.faults[id].saved_wifi.push((client, old));
                                self.broker.reconfigure_link(client, degraded);
                                watch.ambient_loss = watch.ambient_loss.max(old.loss_probability);
                                if let Some(totals) = self.broker.client_link_totals(client) {
                                    watch.baseline += totals;
                                    watch.clients.push(client);
                                }
                            }
                        }
                        self.faults[id].link_watch = Some(watch);
                    }
                    LinkTarget::Backhaul => {
                        let mut ambient_loss: f64 = 0.0;
                        for (a, b) in self.backhaul.link_pairs() {
                            if let Some(old) = self.backhaul.link_config(a, b) {
                                self.faults[id].saved_backhaul.push((a, b, old));
                                self.backhaul.reconfigure(a, b, degraded);
                                ambient_loss = ambient_loss.max(old.loss_probability);
                            }
                        }
                        self.faults[id].link_watch = Some(LinkWatch {
                            clients: Vec::new(),
                            backhaul: true,
                            baseline: self.backhaul.link_totals(),
                            ambient_loss,
                        });
                    }
                }
                self.note_fault_injected(id, now);
            }
            FaultEvent::DeviceCrash { device, .. } => {
                let Some(d) = self.devices.get_mut(device) else {
                    return;
                };
                d.crash(now);
                if let Some(client) = self.device_clients.get(&device) {
                    self.broker.disconnect(client.id);
                }
                self.note_fault_injected(id, now);
            }
            FaultEvent::AggregatorOutage {
                network, failover, ..
            } => {
                let Some(site) = self.sites.get(&network) else {
                    return;
                };
                // The aggregator's MQTT session drops; device publishes find
                // no subscriber and the devices fall back to local storage.
                self.broker.disconnect(site.client);
                self.down_sites.insert(network, id);
                if let Some(backup) = failover {
                    if self.sites.contains_key(&backup) {
                        let moved: Vec<DeviceId> =
                            self.sites[&network].members.keys().copied().collect();
                        for device in &moved {
                            self.do_plug_in(*device, backup, now);
                        }
                        self.faults[id].failover_moved = moved;
                    }
                }
                self.note_fault_injected(id, now);
            }
            FaultEvent::ByzantineVoters {
                network, voters, ..
            } => {
                // The validator set is the network's current population; the
                // first `voters` of it (id order) collude.
                let validators: Vec<DeviceId> = self
                    .sites
                    .get(&network)
                    .map(|site| site.members.keys().copied().collect())
                    .unwrap_or_default();
                if validators.len() >= 2 {
                    let byzantine = (voters as usize).min(validators.len());
                    self.faults[id].consensus = Some((
                        QuorumConsensus::majority(validators.iter().copied()),
                        validators,
                        byzantine,
                    ));
                }
                self.note_fault_injected(id, now);
            }
            FaultEvent::TelegramCorruption { device, .. } => {
                if !self.devices.contains(device) {
                    return;
                }
                // The fault's draws come from a derived stream so arming it
                // never perturbs the world's main sequence.
                self.faults[id].corruption_rng = Some(self.rng.derive(0xC0DE_C000 + id as u64));
                self.note_fault_injected(id, now);
            }
        }
    }

    /// Clears a transient fault at its scheduled clear time.
    fn fault_end(&mut self, id: usize, now: SimTime) {
        if self.faults[id].record.injected_at.is_none() {
            return;
        }
        match self.faults[id].event {
            FaultEvent::SensorFault { device, .. } => {
                if let Some(d) = self.devices.get_mut(device) {
                    d.clear_sensor_fault();
                }
            }
            FaultEvent::LinkDegrade { .. } => {
                let saved_wifi = std::mem::take(&mut self.faults[id].saved_wifi);
                for (client, config) in saved_wifi {
                    self.broker.reconfigure_link(client, config);
                }
                let saved_backhaul = std::mem::take(&mut self.faults[id].saved_backhaul);
                for (a, b, config) in saved_backhaul {
                    self.backhaul.reconfigure(a, b, config);
                }
            }
            FaultEvent::DeviceCrash { device, .. } => {
                if let Some(d) = self.devices.get_mut(device) {
                    d.restart(now);
                }
                if let Some(client) = self.device_clients.get(&device).map(|c| c.id) {
                    // Resume the MQTT session in place: a link burst active
                    // across the reboot keeps degrading this client, and
                    // its offered/lost history survives. The broker replays
                    // QoS >= 1 messages queued during the crash plus any
                    // retained config, so the rebooted device catches up.
                    self.broker.reconnect(client, now);
                    self.arm_broker_poll(now);
                }
            }
            FaultEvent::AggregatorOutage {
                network, failover, ..
            } => {
                self.down_sites.remove(&network);
                if let Some(site) = self.sites.get(&network) {
                    // The MQTT session resumes; the link (and whatever
                    // quality a concurrent burst set on it) is untouched.
                    // Uplinks queued for the dark site's persistent session
                    // replay now instead of being silently lost.
                    self.broker.reconnect(site.client, now);
                    self.arm_broker_poll(now);
                }
                // Replay the backhaul traffic that queued during the outage.
                let queued = std::mem::take(&mut self.faults[id].queued_backhaul);
                for (from, packet) in queued {
                    let out = {
                        let Some(site) = self.sites.get_mut(&network) else {
                            continue;
                        };
                        site.aggregator.handle_backhaul(from, &packet, now)
                    };
                    self.route_aggregator_output(network, out, now);
                }
                // Send the adopted devices home — but only the ones still
                // sitting at the failover network. A device the scenario
                // unplugged or moved elsewhere during the outage keeps the
                // topology the script gave it.
                let moved = std::mem::take(&mut self.faults[id].failover_moved);
                for device in moved {
                    let still_adopted = failover.is_some()
                        && self.device_sites.get(&device).map(|(a, _)| *a) == failover;
                    if still_adopted {
                        self.do_plug_in(device, network, now);
                    }
                }
            }
            FaultEvent::ByzantineVoters { .. } => {
                self.faults[id].consensus = None;
            }
            FaultEvent::MeterTamper { .. } => {}
            FaultEvent::TelegramCorruption { .. } => {
                self.faults[id].corruption_rng = None;
            }
        }
        self.faults[id].record.cleared_at = Some(now);
        self.notifications.push(WorldNotification::FaultCleared {
            at: now,
            id,
            family: self.faults[id].record.family,
        });
    }

    /// Forges a committed record in `network`'s ledger: the latest sealed
    /// block with records gets its first record rewritten to claim half the
    /// consumption. Returns `false` when nothing is committed yet.
    fn try_apply_tamper(&mut self, id: usize, network: AggregatorAddr, now: SimTime) -> bool {
        let Some(site) = self.sites.get_mut(&network) else {
            return false;
        };
        let chain = site.aggregator.ledger().chain();
        let victim = (1..chain.len() as u64)
            .rev()
            .find(|&i| chain.block(i).is_some_and(|b| b.record_count() > 0));
        let Some(victim) = victim else {
            return false;
        };
        let chain = site
            .aggregator
            .ledger_mut_for_experiment()
            .chain_mut_for_experiment();
        let block = chain
            .block_mut_for_experiment(victim)
            .expect("victim exists");
        let forged = match LedgerEntry::from_bytes(&block.records()[0]) {
            Some(mut entry) => {
                entry.charge_uas /= 2;
                entry.to_bytes()
            }
            None => b"forged".to_vec(),
        };
        block.tamper_record_for_experiment(0, forged);
        self.faults[id].record.tampered_block = Some(victim);
        self.faults[id].pending_tamper = false;
        self.note_fault_injected(id, now);
        true
    }

    /// Applies tamper faults that were waiting for a sealed block with
    /// records on `addr`'s chain.
    fn apply_pending_tampers(&mut self, addr: AggregatorAddr, now: SimTime) {
        for id in 0..self.faults.len() {
            let fault = &self.faults[id];
            if !fault.pending_tamper || fault.record.scheduled_at > now {
                continue;
            }
            if fault.event.network() == Some(addr) {
                let _ = self.try_apply_tamper(id, addr, now);
            }
        }
    }

    /// Audits `addr`'s chain for the tamper faults applied before this
    /// window and attributes audit findings to them. The (linear) audit only
    /// runs while an applied-but-undetected tamper fault exists, so
    /// fault-free runs pay nothing.
    fn audit_tamper_faults(&mut self, addr: AggregatorAddr, now: SimTime) {
        let awaiting: Vec<usize> = self
            .faults
            .iter()
            .filter(|f| {
                f.record.family == FaultFamily::Tamper
                    && f.event.network() == Some(addr)
                    && f.record.detected_at.is_none()
                    && f.record.injected_at.is_some_and(|t| t < now)
            })
            .map(|f| f.record.id)
            .collect();
        if awaiting.is_empty() {
            return;
        }
        let Some(site) = self.sites.get(&addr) else {
            return;
        };
        let report = rtem_chain::audit::audit_chain(site.aggregator.ledger().chain(), None);
        for id in awaiting {
            let Some(block) = self.faults[id].record.tampered_block else {
                continue;
            };
            if report.findings.iter().any(|f| f.block_index == block) {
                self.mark_detected(id, now, DetectionSignal::ChainAudit { block_index: block });
            }
        }
    }

    /// Attributes an anomalous verification window on `addr` to the active
    /// (or just-cleared) faults that plausibly caused it: sensor faults and
    /// crashes of devices in the network, link bursts covering it, and the
    /// network's own outage. A cleared fault stays attributable for two
    /// windows so the first post-clear verdict still counts.
    ///
    /// Attribution is specificity-aware: faults scoped to this network or
    /// to one of its devices claim the anomaly first; a medium-wide link
    /// burst (all-Wi-Fi or backhaul) is only credited when no scoped fault
    /// explains the verdict, so an absorbed burst elsewhere in the plan is
    /// not marked "detected" by someone else's anomaly.
    fn attribute_anomaly_to_faults(&mut self, addr: AggregatorAddr, now: SimTime) {
        let grace = self.config.verification_window * 2;
        let mut scoped = Vec::new();
        let mut medium_wide = Vec::new();
        for fault in &self.faults {
            let record = &fault.record;
            if record.detected_at.is_some() || !record.injected_at.is_some_and(|t| t < now) {
                continue;
            }
            if record.cleared_at.is_some_and(|c| now > c + grace) {
                continue;
            }
            match fault.event {
                FaultEvent::SensorFault { device, .. } | FaultEvent::DeviceCrash { device, .. }
                    if self.device_sites.get(&device).map(|(a, _)| *a) == Some(addr) =>
                {
                    scoped.push(record.id);
                }
                FaultEvent::LinkDegrade {
                    target: LinkTarget::Wifi { network: Some(n) },
                    ..
                } if n == addr => scoped.push(record.id),
                FaultEvent::LinkDegrade {
                    target: LinkTarget::Wifi { network: None },
                    ..
                }
                | FaultEvent::LinkDegrade {
                    target: LinkTarget::Backhaul,
                    ..
                } => medium_wide.push(record.id),
                FaultEvent::AggregatorOutage { network, .. } if network == addr => {
                    scoped.push(record.id)
                }
                _ => {}
            }
        }
        let detections = if scoped.is_empty() {
            medium_wide
        } else {
            scoped
        };
        for id in detections {
            self.mark_detected(id, now, DetectionSignal::AnomalousWindow);
        }
    }

    /// Checks the traffic baselines of active (or just-cleared) link bursts
    /// against the watched links' current counters at window seal. A burst
    /// whose cumulative loss since injection significantly exceeds the
    /// medium's ambient expectation is marked detected with
    /// [`DetectionSignal::LinkDegraded`] — this is the per-link
    /// delivery-gap telemetry a real deployment gets from its broker, and it
    /// catches the loss bursts whose drops QoS-1 retries absorb without
    /// ever widening a verification window's residual.
    ///
    /// Scoped Wi-Fi bursts are only checked at the targeted network's own
    /// seal; medium-wide bursts (all-Wi-Fi, backhaul) can be flagged by any
    /// aggregator, since every site sees the shared medium's counters.
    fn detect_link_degradation(&mut self, addr: AggregatorAddr, now: SimTime) {
        let grace = self.config.verification_window * 2;
        let mut detections = Vec::new();
        for fault in &self.faults {
            let FaultEvent::LinkDegrade { target, .. } = fault.event else {
                continue;
            };
            let record = &fault.record;
            if record.detected_at.is_some() || !record.injected_at.is_some_and(|t| t < now) {
                continue;
            }
            if record.cleared_at.is_some_and(|c| now > c + grace) {
                continue;
            }
            if let LinkTarget::Wifi {
                network: Some(n), ..
            } = target
            {
                if n != addr {
                    continue;
                }
            }
            let Some(watch) = fault.link_watch.as_ref() else {
                continue;
            };
            let mut current = LinkTotals::default();
            if watch.backhaul {
                current = self.backhaul.link_totals();
            } else {
                for client in &watch.clients {
                    if let Some(totals) = self.broker.client_link_totals(*client) {
                        current += totals;
                    }
                }
            }
            let offered = current.offered.saturating_sub(watch.baseline.offered);
            let lost = current.lost.saturating_sub(watch.baseline.lost);
            // Alarm only on strong evidence: enough traffic to judge, and a
            // loss count several times the ambient expectation plus a
            // constant floor so quiet links never alarm on a handful of
            // unlucky drops.
            let expected_ambient = watch.ambient_loss * offered as f64;
            if offered >= 20 && lost >= 8 && lost as f64 > expected_ambient * 3.0 + 5.0 {
                detections.push((record.id, lost, offered));
            }
        }
        for (id, lost, offered) in detections {
            self.mark_detected(id, now, DetectionSignal::LinkDegraded { lost, offered });
        }
    }

    /// After an outage recovers, the first block sealed with backfilled
    /// records is the evidence that the data buffered through the outage
    /// survived — attribute it to the outage fault.
    fn attribute_recovery_backfill(&mut self, addr: AggregatorAddr, now: SimTime) {
        let awaiting: Vec<usize> = self
            .faults
            .iter()
            .filter(|f| {
                matches!(f.event, FaultEvent::AggregatorOutage { network, .. } if network == addr)
                    && f.record.detected_at.is_none()
                    && f.record.cleared_at.is_some()
            })
            .map(|f| f.record.id)
            .collect();
        if awaiting.is_empty() {
            return;
        }
        let Some(site) = self.sites.get(&addr) else {
            return;
        };
        let head = site.aggregator.ledger().chain().head();
        let backfilled = head
            .records()
            .iter()
            .filter_map(|r| LedgerEntry::from_bytes(r))
            .filter(|e| e.backfilled)
            .count();
        if backfilled == 0 {
            return;
        }
        for id in awaiting {
            self.mark_detected(
                id,
                now,
                DetectionSignal::RecoveryBackfill {
                    records: backfilled,
                },
            );
        }
    }

    /// Runs one shadow consensus round per active byzantine fault on `addr`:
    /// a byzantine proposer broadcasts a forged block, its co-conspirators
    /// approve through [`QuorumConsensus::vote`] and the honest validators
    /// reject. A rejected round is one detection signal; a *committed*
    /// forgery — the byzantine share reached quorum — is handed to the peer
    /// aggregators for a ledger cross-check at the same window seal, so a
    /// colluding majority no longer goes unnoticed whenever an honest site
    /// exists to disagree (a single-network world has no peer to ask).
    fn run_byzantine_rounds(&mut self, addr: AggregatorAddr, now: SimTime) {
        let mut detections = Vec::new();
        let mut committed_forgeries = Vec::new();
        for (fault_idx, fault) in self.faults.iter_mut().enumerate() {
            let FaultEvent::ByzantineVoters { network, .. } = fault.event else {
                continue;
            };
            if network != addr
                || fault.record.detected_at.is_some()
                || fault.record.cleared_at.is_some()
            {
                continue;
            }
            let Some((consensus, validators, byzantine)) = fault.consensus.as_mut() else {
                continue;
            };
            let records = vec![b"forged-consensus-record".to_vec()];
            if consensus
                .propose(validators[0], now.as_micros(), records)
                .is_err()
            {
                continue;
            }
            let mut outcome = RoundOutcome::Pending;
            for (i, voter) in validators.iter().enumerate().skip(1) {
                let vote = if i < *byzantine {
                    Vote::Approve
                } else {
                    Vote::Reject
                };
                match consensus.vote(*voter, vote) {
                    Ok(o) => {
                        outcome = o;
                        if outcome != RoundOutcome::Pending {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            match outcome {
                RoundOutcome::Rejected { rejections } => {
                    detections.push((
                        fault.record.id,
                        DetectionSignal::ConsensusRejected { rejections },
                    ));
                }
                RoundOutcome::Committed { .. } => {
                    committed_forgeries.push((fault.record.id, fault_idx));
                }
                _ => {}
            }
        }
        // Cross-check committed forgeries against every honest peer's
        // ledger: the quorum controls its own network, but a sealed block
        // whose records no peer can vouch for is flagged from outside. The
        // forged records are read back from the consensus chain head (the
        // block just committed), so the round never copies them.
        for (id, fault_idx) in committed_forgeries {
            let Some((consensus, _, _)) = self.faults[fault_idx].consensus.as_ref() else {
                continue;
            };
            let records = consensus.chain().head().records();
            let peers = self
                .sites
                .iter()
                .filter(|(peer, site)| {
                    **peer != addr
                        && !self.down_sites.contains_key(peer)
                        && site.aggregator.cross_check_records(records) > 0
                })
                .count();
            if peers > 0 {
                detections.push((id, DetectionSignal::LedgerCrossCheck { peers }));
            }
        }
        for (id, signal) in detections {
            self.mark_detected(id, now, signal);
        }
    }

    /// Shared access to an aggregator.
    pub fn aggregator(&self, addr: AggregatorAddr) -> Option<&Aggregator> {
        self.sites.get(&addr).map(|s| &s.aggregator)
    }

    /// Mutable access to an aggregator (used by the tamper experiments).
    pub fn aggregator_mut(&mut self, addr: AggregatorAddr) -> Option<&mut Aggregator> {
        self.sites.get_mut(&addr).map(|s| &mut s.aggregator)
    }

    /// Shared access to a device.
    pub fn device(&self, id: DeviceId) -> Option<&MeteringDevice> {
        self.devices.get(id)
    }

    /// Network a device is currently plugged into, if any.
    pub fn device_network(&self, id: DeviceId) -> Option<AggregatorAddr> {
        self.device_sites.get(&id).map(|(addr, _)| *addr)
    }

    /// All aggregator addresses in the world.
    ///
    /// Allocates; callers on a per-step path should prefer
    /// [`networks`](Self::networks).
    pub fn network_addresses(&self) -> Vec<AggregatorAddr> {
        self.sites.keys().copied().collect()
    }

    /// All device ids in the world.
    ///
    /// Allocates; callers on a per-step path should prefer
    /// [`devices`](Self::devices).
    pub fn device_ids(&self) -> Vec<DeviceId> {
        self.devices.ids().collect()
    }

    /// Iterates the aggregator addresses in ascending order, without
    /// cloning the index ([`network_addresses`](Self::network_addresses)
    /// does).
    pub fn networks(&self) -> impl Iterator<Item = AggregatorAddr> + '_ {
        self.sites.keys().copied()
    }

    /// Iterates `(id, device)` pairs in ascending id order, without cloning
    /// the index ([`device_ids`](Self::device_ids) does).
    pub fn devices(&self) -> impl Iterator<Item = (DeviceId, &MeteringDevice)> + '_ {
        self.devices.iter()
    }

    /// Number of devices in the world.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Collects the summary metrics of the run so far.
    pub fn metrics(&self) -> WorldMetrics {
        WorldMetrics::collect(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_device::device::MeteringDevice;
    use rtem_sensors::profile::{ChargingProfile, ConstantProfile};

    fn two_network_world() -> World {
        let mut world = World::new(WorldConfig {
            verification_window: SimDuration::from_secs(5),
            ..WorldConfig::default()
        });
        world.add_network(AggregatorAddr(1), Position::new(0.0, 0.0));
        world.add_network(AggregatorAddr(2), Position::new(200.0, 0.0));
        for i in 0..2u64 {
            let device = MeteringDevice::testbed(
                DeviceId(i + 1),
                ConstantProfile::new(150.0),
                SimRng::seed_from_u64(100 + i),
            );
            world.add_device(device);
            world.plug_in_now(DeviceId(i + 1), AggregatorAddr(1));
        }
        world
    }

    fn single_network_world(devices: u64) -> World {
        single_network_world_with(RetentionPolicy::KeepAll, devices)
    }

    fn single_network_world_with(retention: RetentionPolicy, devices: u64) -> World {
        let mut world = World::new(WorldConfig {
            verification_window: SimDuration::from_secs(5),
            retention,
            ..WorldConfig::default()
        });
        world.add_network(AggregatorAddr(1), Position::new(0.0, 0.0));
        for i in 0..devices {
            let device = MeteringDevice::testbed(
                DeviceId(i + 1),
                ConstantProfile::new(150.0),
                SimRng::seed_from_u64(100 + i),
            );
            world.add_device(device);
            world.plug_in_now(DeviceId(i + 1), AggregatorAddr(1));
        }
        world
    }

    #[test]
    fn devices_register_and_report_through_the_broker() {
        let mut world = two_network_world();
        // Handshake (~6 s) plus some reporting time.
        world.run_until(SimTime::from_secs(30));
        let agg = world.aggregator(AggregatorAddr(1)).unwrap();
        assert_eq!(agg.registry().len(), 2, "both devices registered");
        assert!(agg.reports_accepted() > 10, "reports flowed");
        assert!(agg.ledger().chain().len() > 2, "blocks were sealed");
        for id in [1u64, 2] {
            assert!(world.device(DeviceId(id)).unwrap().is_registered());
            assert!(agg.ledger().account(id).unwrap().entries > 0);
        }
    }

    #[test]
    fn aggregator_measurement_exceeds_reported_sum() {
        let mut world = two_network_world();
        world.run_until(SimTime::from_secs(40));
        let agg = world.aggregator(AggregatorAddr(1)).unwrap();
        let measured = agg.network_series().stats().mean;
        // Two devices at 150 mA: upstream must be above 300 mA (losses) but
        // not wildly so.
        assert!(measured > 300.0, "measured mean {measured}");
        assert!(measured < 330.0, "measured mean {measured}");
    }

    #[test]
    fn mobility_nack_then_temporary_membership() {
        let mut world = two_network_world();
        // Let device 1 settle in network 1, then move it to network 2.
        world.schedule_unplug(SimTime::from_secs(30), DeviceId(1));
        world.schedule_plug_in(SimTime::from_secs(50), DeviceId(1), AggregatorAddr(2));
        world.run_until(SimTime::from_secs(90));

        let device = world.device(DeviceId(1)).unwrap();
        assert!(device.is_registered());
        assert_eq!(device.master(), Some(AggregatorAddr(1)));
        assert_eq!(world.device_network(DeviceId(1)), Some(AggregatorAddr(2)));
        // The foreign aggregator holds a temporary membership...
        let foreign = world.aggregator(AggregatorAddr(2)).unwrap();
        assert!(foreign.registry().is_member(DeviceId(1)));
        // ...and the home aggregator received forwarded (roaming) consumption.
        let home = world.aggregator(AggregatorAddr(1)).unwrap();
        let bill = home.billing().bill(DeviceId(1)).unwrap();
        assert!(
            bill.roaming_charge_uas > 0,
            "roaming consumption billed at home"
        );
    }

    #[test]
    fn removed_device_cannot_rejoin() {
        let mut world = two_network_world();
        world.run_until(SimTime::from_secs(20));
        world.schedule_remove_device(SimTime::from_secs(21), DeviceId(2), AggregatorAddr(1));
        world.schedule_unplug(SimTime::from_secs(22), DeviceId(2));
        world.schedule_plug_in(SimTime::from_secs(25), DeviceId(2), AggregatorAddr(1));
        world.run_until(SimTime::from_secs(60));
        let agg = world.aggregator(AggregatorAddr(1)).unwrap();
        assert!(!agg.registry().is_member(DeviceId(2)));
        assert!(!world.device(DeviceId(2)).unwrap().is_registered());
    }

    #[test]
    fn notifications_cover_every_hook_point() {
        let mut world = two_network_world();
        world.schedule_unplug(SimTime::from_secs(30), DeviceId(1));
        world.schedule_plug_in(SimTime::from_secs(50), DeviceId(1), AggregatorAddr(2));
        world.run_until(SimTime::from_secs(90));
        let notifications = world.take_notifications();
        let count =
            |f: fn(&WorldNotification) -> bool| notifications.iter().filter(|n| f(n)).count();
        assert!(
            count(|n| matches!(n, WorldNotification::BlockSealed { .. })) > 2,
            "blocks sealed"
        );
        // Two initial registrations plus the temporary one after the move.
        assert!(
            count(|n| matches!(n, WorldNotification::HandshakeCompleted { .. })) >= 3,
            "handshakes observed"
        );
        assert_eq!(
            count(|n| matches!(n, WorldNotification::PluggedIn { .. })),
            3,
            "two initial plug-ins plus the scripted one"
        );
        assert_eq!(
            count(|n| matches!(n, WorldNotification::Unplugged { .. })),
            1
        );
        // Times are monotone (dispatch order) and the buffer is drained.
        assert!(notifications.windows(2).all(|w| w[0].at() <= w[1].at()));
        assert!(world.take_notifications().is_empty());
    }

    #[test]
    fn bounded_retention_prunes_device_series_to_the_active_windows() {
        let keep = 2;
        let mut bounded = single_network_world_with(RetentionPolicy::ActiveWindows(keep), 3);
        let mut keep_all = single_network_world(3);
        let config = bounded.config().clone();
        let horizon = SimTime::ZERO + config.verification_window * 10;
        bounded.run_until(horizon);
        keep_all.run_until(horizon);
        let ticks_per_window =
            (config.verification_window.as_micros() / config.t_measure.as_micros()) as usize;
        for id in 1..=3 {
            let full = keep_all.device(DeviceId(id)).unwrap().measured_series();
            let kept = bounded.device(DeviceId(id)).unwrap().measured_series();
            assert_eq!(
                full.len(),
                10 * ticks_per_window,
                "keep-all keeps every tick"
            );
            assert!(
                kept.len() <= (keep + 1) * ticks_per_window,
                "device {id} kept {} entries",
                kept.len()
            );
            assert_eq!(kept, &full[full.len() - kept.len()..]);
        }
        assert_eq!(bounded.metrics(), keep_all.metrics());
    }

    #[test]
    fn sliced_run_until_matches_one_shot() {
        let mut a = two_network_world();
        a.run_until(SimTime::from_secs(40));
        let mut b = two_network_world();
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(40) {
            t += SimDuration::from_millis(3_700);
            b.run_until(t.min(SimTime::from_secs(40)));
        }
        assert_eq!(
            a.metrics(),
            b.metrics(),
            "stepping must not perturb the run"
        );
        assert_eq!(a.take_notifications(), b.take_notifications());
    }

    #[test]
    fn fleet_command_reaches_every_device_and_is_acked() {
        use rtem_sim::time::SimDuration;
        let mut world = two_network_world();
        let seq = world.schedule_control(ControlEvent {
            at: SimTime::from_secs(30),
            target: CommandTarget::AllDevices,
            command: FleetCommand::SetMeasureInterval {
                interval: SimDuration::from_millis(500),
            },
            qos: QoS::AtLeastOnce,
            retain: false,
        });
        world.run_until(SimTime::from_secs(60));
        let record = world.command_records()[seq];
        assert_eq!(record.published_at, Some(SimTime::from_secs(30)));
        assert_eq!(record.targets, 2);
        assert_eq!(record.applied, 2, "record {record:?}");
        assert_eq!(record.rejected, 0);
        assert_eq!(record.acked, 2);
        assert!(record.first_ack_at.unwrap() >= SimTime::from_secs(30));
        assert!(record.last_ack_at.unwrap() >= record.first_ack_at.unwrap());
        assert!(record.command_bytes > 0 && record.ack_bytes > 0);
        for dev in [1u64, 2] {
            assert_eq!(
                world.device(DeviceId(dev)).unwrap().measure_interval(),
                SimDuration::from_millis(500)
            );
        }
        let notifications = world.take_notifications();
        assert!(notifications
            .iter()
            .any(|n| matches!(n, WorldNotification::CommandPublished { targets: 2, .. })));
        assert_eq!(
            notifications
                .iter()
                .filter(|n| matches!(n, WorldNotification::CommandApplied { applied: true, .. }))
                .count(),
            2
        );
        // The slower cadence sticks: ticks after the command are 500 ms
        // apart, so far fewer records accumulate than at 100 ms.
        let before = world.device(DeviceId(1)).unwrap().measured_series().len();
        world.run_until(SimTime::from_secs(70));
        let after = world.device(DeviceId(1)).unwrap().measured_series().len();
        assert!(
            (15..=25).contains(&(after - before)),
            "10 s at 500 ms cadence, got {}",
            after - before
        );
    }

    #[test]
    fn cohorts_nest_and_site_targets_scope() {
        let mut world = two_network_world();
        // Bring the control plane up via a benign command.
        world.schedule_control(ControlEvent {
            at: SimTime::from_secs(20),
            target: CommandTarget::Site(AggregatorAddr(1)),
            command: FleetCommand::StopReporting,
            qos: QoS::AtLeastOnce,
            retain: false,
        });
        let half = world.cohort(50);
        let full = world.cohort(100);
        assert_eq!(half.len(), 1, "50 % of 2 devices");
        assert_eq!(full.len(), 2);
        assert!(half.iter().all(|d| full.contains(d)), "cohorts nest");
        // Both devices sit on network 1, so the site command hits both; a
        // command to network 2 would target nobody.
        world.schedule_control(ControlEvent {
            at: SimTime::from_secs(21),
            target: CommandTarget::Site(AggregatorAddr(2)),
            command: FleetCommand::StartReporting,
            qos: QoS::AtLeastOnce,
            retain: false,
        });
        world.run_until(SimTime::from_secs(40));
        let records = world.command_records();
        assert_eq!(records[0].targets, 2);
        assert_eq!(records[0].applied, 2);
        assert_eq!(records[1].targets, 0);
        // Muted devices buffer but no longer report.
        assert!(!world.device(DeviceId(1)).unwrap().reporting_enabled());
    }

    #[test]
    fn retained_command_catches_a_crashed_device_after_restart() {
        let mut world = two_network_world();
        world.schedule_fault(FaultEvent::DeviceCrash {
            at: SimTime::from_secs(25),
            restart_at: SimTime::from_secs(45),
            device: DeviceId(1),
        });
        // Published mid-crash, retained: device 2 applies promptly, device 1
        // catches up from its resumed session after the reboot.
        let seq = world.schedule_control(ControlEvent {
            at: SimTime::from_secs(30),
            target: CommandTarget::AllDevices,
            command: FleetCommand::CrashRecoveryConfig {
                persist_store: true,
            },
            qos: QoS::AtLeastOnce,
            retain: true,
        });
        world.run_until(SimTime::from_secs(40));
        assert_eq!(world.command_records()[seq].applied, 1, "only device 2");
        world.run_until(SimTime::from_secs(60));
        let record = world.command_records()[seq];
        assert_eq!(record.applied, 2, "replay after restart, record {record:?}");
        assert_eq!(record.acked, 2);
        assert!(world.device(DeviceId(1)).unwrap().persists_store());
    }

    #[test]
    fn stuck_sensor_is_detected_by_the_anomalous_window() {
        use rtem_sensors::fault::SensorFaultKind;
        let mut world = two_network_world();
        let id = world.schedule_fault(FaultEvent::SensorFault {
            at: SimTime::from_secs(20),
            until: None,
            device: DeviceId(1),
            kind: SensorFaultKind::StuckAt { level_ma: 5.0 },
        });
        world.run_until(SimTime::from_secs(60));
        let record = world.fault_records()[id];
        assert_eq!(record.family, FaultFamily::Sensor);
        assert_eq!(record.injected_at, Some(SimTime::from_secs(20)));
        assert_eq!(record.signal, Some(DetectionSignal::AnomalousWindow));
        // Detected at a window boundary after injection.
        let latency = record.detection_latency().unwrap();
        assert!(latency <= SimDuration::from_secs(10), "latency {latency:?}");
        let notifications = world.take_notifications();
        assert!(notifications
            .iter()
            .any(|n| matches!(n, WorldNotification::FaultInjected { .. })));
        assert!(notifications
            .iter()
            .any(|n| matches!(n, WorldNotification::FaultDetected { .. })));
    }

    #[test]
    fn tampered_ledger_is_detected_by_the_audit_with_latency() {
        let mut world = two_network_world();
        let id = world.schedule_fault(FaultEvent::MeterTamper {
            at: SimTime::from_secs(22),
            network: AggregatorAddr(1),
        });
        world.run_until(SimTime::from_secs(45));
        let record = world.fault_records()[id];
        assert_eq!(record.injected_at, Some(SimTime::from_secs(22)));
        let block = record.tampered_block.expect("a block was forged");
        assert_eq!(
            record.signal,
            Some(DetectionSignal::ChainAudit { block_index: block })
        );
        // The audit fires at the next window boundary after the forgery.
        assert_eq!(record.detected_at, Some(SimTime::from_secs(25)));
        // The forgery is real: the chain no longer audits clean.
        let agg = world.aggregator(AggregatorAddr(1)).unwrap();
        let audit = rtem_chain::audit::audit_chain(agg.ledger().chain(), None);
        assert!(!audit.is_clean());
        assert_eq!(audit.first_bad_block(), Some(block));
    }

    #[test]
    fn tamper_before_any_records_waits_for_the_first_sealed_block() {
        let mut world = two_network_world();
        let id = world.schedule_fault(FaultEvent::MeterTamper {
            at: SimTime::from_secs(1),
            network: AggregatorAddr(1),
        });
        world.run_until(SimTime::from_secs(40));
        let record = world.fault_records()[id];
        let injected_at = record.injected_at.expect("applied eventually");
        assert!(
            injected_at > SimTime::from_secs(1),
            "deferred past schedule"
        );
        assert!(record.detected());
    }

    #[test]
    fn crashed_device_loses_state_then_recovers_and_is_detected() {
        let mut world = two_network_world();
        let id = world.schedule_fault(FaultEvent::DeviceCrash {
            at: SimTime::from_secs(30),
            restart_at: SimTime::from_secs(50),
            device: DeviceId(1),
        });
        world.run_until(SimTime::from_secs(40));
        assert!(world.device(DeviceId(1)).unwrap().is_crashed());
        world.run_until(SimTime::from_secs(90));
        let device = world.device(DeviceId(1)).unwrap();
        assert!(!device.is_crashed());
        assert!(device.is_registered(), "re-registered after reboot");
        let record = world.fault_records()[id];
        assert_eq!(record.cleared_at, Some(SimTime::from_secs(50)));
        assert_eq!(record.signal, Some(DetectionSignal::AnomalousWindow));
    }

    #[test]
    fn outage_with_failover_adopts_devices_and_recovers() {
        let mut world = two_network_world();
        let id = world.schedule_fault(FaultEvent::AggregatorOutage {
            at: SimTime::from_secs(30),
            until: SimTime::from_secs(60),
            network: AggregatorAddr(1),
            failover: Some(AggregatorAddr(2)),
        });
        world.run_until(SimTime::from_secs(45));
        // Both devices moved to the backup and registered as temporaries
        // through the membership replica.
        for dev in [1u64, 2] {
            assert_eq!(
                world.device_network(DeviceId(dev)),
                Some(AggregatorAddr(2)),
                "device {dev} adopted by the backup"
            );
        }
        let backup = world.aggregator(AggregatorAddr(2)).unwrap();
        assert!(backup.registry().is_member(DeviceId(1)));
        world.run_until(SimTime::from_secs(100));
        // Recovered: devices are home again and reporting.
        for dev in [1u64, 2] {
            assert_eq!(world.device_network(DeviceId(dev)), Some(AggregatorAddr(1)));
        }
        let record = world.fault_records()[id];
        assert_eq!(record.cleared_at, Some(SimTime::from_secs(60)));
        assert!(record.detected(), "outage left observable evidence");
        // The home ledger kept growing after recovery.
        let home = world.aggregator(AggregatorAddr(1)).unwrap();
        assert!(home.ledger().chain().len() > 3);
    }

    #[test]
    fn recovery_respects_topology_changes_scripted_during_the_outage() {
        let mut world = two_network_world();
        world.schedule_fault(FaultEvent::AggregatorOutage {
            at: SimTime::from_secs(30),
            until: SimTime::from_secs(60),
            network: AggregatorAddr(1),
            failover: Some(AggregatorAddr(2)),
        });
        // Mid-outage the scenario unplugs device 1 for good.
        world.schedule_unplug(SimTime::from_secs(45), DeviceId(1));
        world.run_until(SimTime::from_secs(80));
        // Recovery must not resurrect the unplugged device...
        assert_eq!(world.device_network(DeviceId(1)), None);
        assert!(!world.device(DeviceId(1)).unwrap().is_plugged());
        // ...while the still-adopted device goes home as usual.
        assert_eq!(world.device_network(DeviceId(2)), Some(AggregatorAddr(1)));
    }

    #[test]
    fn byzantine_minority_is_rejected_majority_commits_forgeries() {
        // Minority: 1 byzantine of 2 validators -> quorum 2 unreachable for
        // the forgery, honest rejection detects the collusion.
        let mut world = two_network_world();
        let id = world.schedule_fault(FaultEvent::ByzantineVoters {
            at: SimTime::from_secs(20),
            until: SimTime::from_secs(50),
            network: AggregatorAddr(1),
            voters: 1,
        });
        world.run_until(SimTime::from_secs(60));
        let record = world.fault_records()[id];
        assert!(matches!(
            record.signal,
            Some(DetectionSignal::ConsensusRejected { rejections: 1 })
        ));

        // Majority: both validators collude -> the forgery reaches quorum
        // and commits; nothing inside the network rejects it, but the peer
        // aggregator's ledger cross-check refuses to vouch for the forged
        // records at the same window seal.
        let mut world = two_network_world();
        let id = world.schedule_fault(FaultEvent::ByzantineVoters {
            at: SimTime::from_secs(20),
            until: SimTime::from_secs(50),
            network: AggregatorAddr(1),
            voters: 2,
        });
        world.run_until(SimTime::from_secs(60));
        let record = world.fault_records()[id];
        assert!(record.injected());
        assert!(
            matches!(
                record.signal,
                Some(DetectionSignal::LedgerCrossCheck { peers: 1 })
            ),
            "the honest peer flags the committed forgery: {:?}",
            record.signal
        );
    }

    #[test]
    fn colluding_quorum_goes_unnoticed_without_an_honest_peer() {
        // A single-network world has no peer aggregator to cross-check the
        // committed forgery against — the blind spot is structural, not a
        // detection bug.
        let mut world = single_network_world(3);
        let id = world.schedule_fault(FaultEvent::ByzantineVoters {
            at: SimTime::from_secs(20),
            until: SimTime::from_secs(50),
            network: AggregatorAddr(1),
            voters: 3,
        });
        world.run_until(SimTime::from_secs(60));
        let record = world.fault_records()[id];
        assert!(record.injected());
        assert!(
            !record.detected(),
            "no peer exists, so the quorum's forgery stands"
        );
    }

    #[test]
    fn fault_run_is_deterministic_and_slicing_invariant() {
        use rtem_sensors::fault::SensorFaultKind;
        let plan = |world: &mut World| {
            world.schedule_fault(FaultEvent::SensorFault {
                at: SimTime::from_secs(15),
                until: Some(SimTime::from_secs(35)),
                device: DeviceId(2),
                kind: SensorFaultKind::Drift { rate_ma_per_s: 8.0 },
            });
            world.schedule_fault(FaultEvent::MeterTamper {
                at: SimTime::from_secs(20),
                network: AggregatorAddr(1),
            });
        };
        let mut a = two_network_world();
        plan(&mut a);
        a.run_until(SimTime::from_secs(50));
        let mut b = two_network_world();
        plan(&mut b);
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(50) {
            t += SimDuration::from_millis(3_300);
            b.run_until(t.min(SimTime::from_secs(50)));
        }
        assert_eq!(a.fault_records(), b.fault_records());
        assert_eq!(a.take_notifications(), b.take_notifications());
        assert_eq!(a.metrics(), b.metrics());
    }

    /// Pins a run in which a site's member order and branch order differ
    /// (a visitor plugs into network 2 behind its home members, taking a
    /// later branch) and one device id is added twice (the second device
    /// replaces the first and ticks on both pending timers). The digest was
    /// taken from the world as it stood before devices moved into slots.
    #[test]
    fn visitor_and_re_added_device_run_is_pinned() {
        let mut world = World::new(WorldConfig {
            verification_window: SimDuration::from_secs(5),
            ..WorldConfig::default()
        });
        world.add_network(AggregatorAddr(1), Position::new(0.0, 0.0));
        world.add_network(AggregatorAddr(2), Position::new(200.0, 0.0));
        let charging = |id: u64| {
            MeteringDevice::testbed(
                DeviceId(id),
                ChargingProfile::esp32_testbed(SimRng::seed_from_u64(500 + id)),
                SimRng::seed_from_u64(100 + id),
            )
        };
        for id in 1..=7u64 {
            world.add_device(charging(id));
            let home = if id <= 4 { 1 } else { 2 };
            world.plug_in_now(DeviceId(id), AggregatorAddr(home));
        }
        world.add_device(MeteringDevice::testbed(
            DeviceId(3),
            ConstantProfile::new(260.0),
            SimRng::seed_from_u64(999),
        ));
        world.plug_in_now(DeviceId(3), AggregatorAddr(1));
        world.schedule_unplug(SimTime::from_secs(20), DeviceId(2));
        world.schedule_plug_in(SimTime::from_secs(30), DeviceId(2), AggregatorAddr(2));
        world.run_until(SimTime::from_secs(60));
        assert_eq!(world.device_count(), 7);
        assert_eq!(world.device_network(DeviceId(2)), Some(AggregatorAddr(2)));
        // The re-added device keeps one measurement timer, so it records
        // at the same cadence as its neighbours.
        let buffered = |id: u64| {
            world
                .device(DeviceId(id))
                .unwrap()
                .counters()
                .records_buffered
        };
        assert_eq!(buffered(3), buffered(1));

        let mut text = format!("{:#?}\n", world.metrics());
        for addr in world.networks() {
            let agg = world.aggregator(addr).unwrap();
            text += &format!(
                "{addr:?} {:?}\n{:?}\n{}\n",
                agg.network_series(),
                agg.verdicts(),
                agg.ledger().chain().head_hash().to_hex(),
            );
        }
        for (id, device) in world.devices() {
            text += &format!(
                "{id:?} {:?} {} {:?}\n",
                device.counters(),
                device.buffered_records(),
                device.last_handshake(),
            );
        }
        assert_eq!(
            rtem_chain::sha256::Sha256::digest(text.as_bytes()).to_hex(),
            "f70268fda3b5ac721185729fce6507b215a89b14fbf0a18ebf125a468c82f785"
        );
    }

    #[test]
    fn world_accessors_are_consistent() {
        let world = two_network_world();
        assert_eq!(world.network_addresses().len(), 2);
        assert_eq!(world.device_ids().len(), 2);
        assert!(world.device(DeviceId(99)).is_none());
        assert!(world.aggregator(AggregatorAddr(9)).is_none());
    }

    #[test]
    fn real_codec_fleet_reports_flow_end_to_end() {
        let mut world = two_network_world();
        world.set_meter_kind(DeviceId(1), MeterKind::Sml);
        world.set_meter_kind(DeviceId(2), MeterKind::WirelessMbus);
        world.run_until(SimTime::from_secs(30));
        let agg = world.aggregator(AggregatorAddr(1)).unwrap();
        assert_eq!(agg.registry().len(), 2, "both devices registered");
        assert!(agg.reports_accepted() > 10, "reports flowed over telegrams");
        let wire = world.wire_stats();
        assert!(wire.telegrams_sent > 10);
        assert_eq!(wire.telegrams_parsed, wire.telegrams_sent);
        assert_eq!(wire.parse_failures, 0);
        assert_eq!(wire.corrupted_injected, 0);
        assert!(
            wire.telegram_bytes > wire.native_bytes,
            "real framing costs more than the packed native encoding \
             ({} telegram bytes vs {} native)",
            wire.telegram_bytes,
            wire.native_bytes
        );
    }

    #[test]
    fn internal_fleet_has_untouched_wire_stats_shape() {
        let mut world = two_network_world();
        world.run_until(SimTime::from_secs(20));
        let wire = world.wire_stats();
        assert_eq!(wire.telegrams_sent, 0);
        assert_eq!(wire.telegram_bytes, 0);
        assert!(wire.records_sent > 0, "native reports still accounted");
        assert!(wire.native_bytes > 0);
    }

    #[test]
    fn telegram_corruption_is_detected_on_checksummed_codecs() {
        let mut world = two_network_world();
        world.set_meter_kind(DeviceId(1), MeterKind::Iec62056);
        let id = world.schedule_fault(FaultEvent::TelegramCorruption {
            at: SimTime::from_secs(15),
            until: SimTime::from_secs(25),
            device: DeviceId(1),
            mode: CorruptionMode::BitFlip { flips: 3 },
            per_mille: 1000,
        });
        world.run_until(SimTime::from_secs(40));
        let record = world.fault_records()[id];
        assert!(record.injected());
        assert!(record.detected(), "checksummed codec rejects the frames");
        assert!(matches!(
            record.signal,
            Some(DetectionSignal::TelegramRejected { .. })
        ));
        let wire = world.wire_stats();
        assert!(wire.corrupted_injected > 0);
        assert!(wire.parse_failures > 0);
        // After the burst clears, reports get through again and the device's
        // storage-backed retries recover the dropped window.
        let agg = world.aggregator(AggregatorAddr(1)).unwrap();
        assert!(agg.reports_accepted() > 10, "fleet recovered after burst");
    }

    #[test]
    fn internal_encoding_misses_the_same_corruption() {
        let mut world = two_network_world();
        let id = world.schedule_fault(FaultEvent::TelegramCorruption {
            at: SimTime::from_secs(15),
            until: SimTime::from_secs(25),
            device: DeviceId(1),
            mode: CorruptionMode::BitFlip { flips: 3 },
            per_mille: 1000,
        });
        world.run_until(SimTime::from_secs(40));
        let record = world.fault_records()[id];
        assert!(record.injected());
        assert!(
            !record.detected(),
            "the packed native encoding has no checksum to trip"
        );
        let wire = world.wire_stats();
        assert!(wire.corrupted_injected > 0, "values were mangled");
        assert_eq!(wire.parse_failures, 0, "nothing ever failed to parse");
    }

    #[test]
    fn corruption_fault_run_is_deterministic_and_slicing_invariant() {
        let plan = |world: &mut World| {
            world.set_meter_kind(DeviceId(1), MeterKind::ModbusRtu);
            world.schedule_fault(FaultEvent::TelegramCorruption {
                at: SimTime::from_secs(15),
                until: SimTime::from_secs(35),
                device: DeviceId(1),
                mode: CorruptionMode::MangleField,
                per_mille: 500,
            });
        };
        let mut a = two_network_world();
        plan(&mut a);
        a.run_until(SimTime::from_secs(50));
        let mut b = two_network_world();
        plan(&mut b);
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(50) {
            t += SimDuration::from_millis(3_300);
            b.run_until(t.min(SimTime::from_secs(50)));
        }
        assert_eq!(a.fault_records(), b.fault_records());
        assert_eq!(a.take_notifications(), b.take_notifications());
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.wire_stats(), b.wire_stats());
    }

    #[test]
    fn telegram_log_captures_wire_bytes() {
        let mut world = two_network_world();
        world.set_meter_kind(DeviceId(1), MeterKind::Sml);
        world.enable_telegram_log();
        world.run_until(SimTime::from_secs(20));
        let log = world.take_telegram_log();
        assert!(!log.is_empty());
        assert!(log.iter().all(|e| e.device == DeviceId(1)));
        assert!(log.iter().all(|e| e.kind == MeterKind::Sml));
        assert_eq!(
            log.iter().map(|e| e.bytes.len() as u64).sum::<u64>(),
            world.wire_stats().telegram_bytes
        );
        // The log keeps capturing after a drain.
        world.run_until(SimTime::from_secs(25));
        assert!(!world.take_telegram_log().is_empty());
    }
}
