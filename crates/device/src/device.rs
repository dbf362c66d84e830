//! The composed metering device.
//!
//! [`MeteringDevice`] wires the layers of Fig. 2 together: the physical layer
//! samples the load through the INA219, the data layer buffers
//! unacknowledged records, the network layer runs the registration/mobility
//! state machine of Fig. 3, and the application layer keeps a billing
//! estimate and a demand forecast. The simulation (or an example binary)
//! drives the device with two calls: [`MeteringDevice::on_measure_tick`] at
//! every Tmeasure and [`MeteringDevice::on_packet`] for every packet
//! delivered to it.

use crate::application::{
    BillingEstimator, DemandForecaster, ManagementCommand, ManagementResponse, Tariff,
};
use crate::data_layer::LocalStore;
use crate::middleware::{DeviceConfig, Middleware, PowerState};
use crate::network_mgmt::{
    HandshakeBreakdown, HandshakeTiming, NetCommand, NetEvent, NetworkManager,
};
use crate::physical::PhysicalLayer;
use rtem_net::packet::{AggregatorAddr, MeasurementRecord, MembershipKind, Packet};
use rtem_net::rssi::{Position, RadioEnvironment};
use rtem_net::DeviceId;
use rtem_sensors::energy::{MilliampSeconds, Milliamps, Millivolts};
use rtem_sensors::fault::SensorFault;
use rtem_sensors::grid::BranchId;
use rtem_sensors::ina219::{Ina219Config, Ina219Model};
use rtem_sensors::profile::LoadProfile;
use rtem_sim::rng::SimRng;
use rtem_sim::rtc::{RtcConfig, RtcModel};
use rtem_sim::time::SimTime;

/// A packet the device wants delivered to an aggregator.
#[derive(Debug, Clone, PartialEq)]
pub struct Outbound {
    /// Destination aggregator.
    pub to: AggregatorAddr,
    /// The packet to publish.
    pub packet: Packet,
}

/// The full device stack.
pub struct MeteringDevice {
    middleware: Middleware,
    physical: PhysicalLayer,
    network: NetworkManager,
    store: LocalStore,
    billing: BillingEstimator,
    forecaster: DemandForecaster,
    rtc: RtcModel,
    position: Position,
    last_tick: Option<SimTime>,
    last_handshake: Option<HandshakeBreakdown>,
    reported_series: Vec<(SimTime, Milliamps)>,
    crashed: bool,
    records_lost_to_crashes: u64,
    reporting_enabled: bool,
    persist_store: bool,
}

impl core::fmt::Debug for MeteringDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MeteringDevice")
            .field("id", &self.id())
            .field("state", &self.middleware.state())
            .field("registered", &self.network.is_registered())
            .field("buffered", &self.store.len())
            .finish()
    }
}

impl MeteringDevice {
    /// Builds a device from its configuration and hardware models.
    pub fn new(
        config: DeviceConfig,
        load: impl LoadProfile + Send + 'static,
        sensor_config: Ina219Config,
        handshake: HandshakeTiming,
        tariff: Tariff,
        rng: SimRng,
    ) -> Self {
        let device_id = config.device_id;
        let supply = Millivolts::usb_bus();
        let sensitivity = config.rssi_sensitivity_dbm;
        let store_capacity = config.local_store_capacity;
        let middleware = Middleware::new(config);
        MeteringDevice {
            middleware,
            physical: PhysicalLayer::new(
                device_id,
                load,
                Ina219Model::new(sensor_config, rng.derive(1)),
                supply,
            ),
            network: NetworkManager::new(device_id, handshake, sensitivity, rng.derive(2)),
            store: LocalStore::new(store_capacity),
            billing: BillingEstimator::new(tariff, supply),
            forecaster: DemandForecaster::new(0.2),
            rtc: RtcModel::new(RtcConfig::default()),
            position: Position::default(),
            last_tick: None,
            last_handshake: None,
            reported_series: Vec::new(),
            crashed: false,
            records_lost_to_crashes: 0,
            reporting_enabled: true,
            persist_store: false,
        }
    }

    /// A device configured like the paper's testbed nodes.
    pub fn testbed(
        device_id: DeviceId,
        load: impl LoadProfile + Send + 'static,
        rng: SimRng,
    ) -> Self {
        MeteringDevice::new(
            DeviceConfig::testbed(device_id),
            load,
            Ina219Config::testbed(),
            HandshakeTiming::testbed(),
            Tariff::default(),
            rng,
        )
    }

    /// The device's identity.
    pub fn id(&self) -> DeviceId {
        self.physical.device()
    }

    /// Completes boot at `now`.
    pub fn boot(&mut self, now: SimTime) {
        self.middleware.boot(now);
        self.rtc.synchronize(now);
    }

    /// Current firmware power state.
    pub fn power_state(&self) -> PowerState {
        self.middleware.state()
    }

    /// Returns `true` when the device holds an active registration.
    pub fn is_registered(&self) -> bool {
        self.network.is_registered()
    }

    /// The home (master) aggregator, once known.
    pub fn master(&self) -> Option<AggregatorAddr> {
        self.network.master()
    }

    /// The serving aggregator, membership kind and slot while registered.
    pub fn registration(&self) -> Option<(AggregatorAddr, MembershipKind, u16)> {
        self.network.registration()
    }

    /// Number of records buffered in local storage awaiting acknowledgment.
    pub fn buffered_records(&self) -> usize {
        self.store.len()
    }

    /// Per-phase timing of the most recently completed handshake.
    pub fn last_handshake(&self) -> Option<HandshakeBreakdown> {
        self.last_handshake
    }

    /// The device-local billing estimate.
    pub fn billing(&self) -> &BillingEstimator {
        &self.billing
    }

    /// The demand forecaster.
    pub fn forecaster(&self) -> &DemandForecaster {
        &self.forecaster
    }

    /// Health counters maintained by the middleware.
    pub fn counters(&self) -> crate::middleware::HealthCounters {
        self.middleware.counters()
    }

    /// The `(time, measured current)` pairs the device has reported or
    /// buffered, oldest first, for plotting Fig. 6-style traces. Every pair
    /// since boot, unless [`prune_series_before`](Self::prune_series_before)
    /// dropped the older ones: a world under bounded retention prunes each
    /// device to the active windows at every window seal of its network.
    pub fn measured_series(&self) -> &[(SimTime, Milliamps)] {
        &self.reported_series
    }

    /// Drops the [`measured_series`](Self::measured_series) pairs taken
    /// before `cutoff`.
    pub fn prune_series_before(&mut self, cutoff: SimTime) {
        let cut = self.reported_series.partition_point(|&(at, _)| at < cutoff);
        self.reported_series.drain(..cut);
    }

    /// Ground-truth current the device pulls from the grid at `now` (zero
    /// when unplugged). Exposed so the grid model and the aggregator-side
    /// meter observe the same load the device does.
    pub fn true_grid_current(&mut self, now: SimTime) -> Milliamps {
        self.physical.true_grid_current(now)
    }

    /// Returns `true` when the device is electrically connected.
    pub fn is_plugged(&self) -> bool {
        self.physical.is_plugged()
    }

    /// Connects the device to a grid branch at `position` and starts
    /// aggregator discovery (sequence 1 / 2 of Fig. 3).
    pub fn plug_in(&mut self, now: SimTime, branch: BranchId, position: Position) {
        self.physical.plug_in(branch);
        self.position = position;
        self.last_tick = None;
        self.network.start_discovery(now);
    }

    /// Disconnects the device from the grid (start of transit). Master
    /// membership is retained by the home network.
    pub fn unplug(&mut self, _now: SimTime) {
        self.physical.unplug();
        self.network.shutdown();
        self.middleware.enter_idle();
        self.last_tick = None;
    }

    /// Installs a sensor fault on the device's INA219: subsequent samples
    /// are distorted while the ground-truth load is unaffected. Used by the
    /// fault-injection subsystem.
    pub fn inject_sensor_fault(&mut self, fault: SensorFault) {
        self.physical.set_sensor_fault(Some(fault));
    }

    /// Heals an injected sensor fault.
    pub fn clear_sensor_fault(&mut self) {
        self.physical.set_sensor_fault(None);
    }

    /// The currently injected sensor fault, if any.
    pub fn sensor_fault(&self) -> Option<SensorFault> {
        self.physical.sensor_fault()
    }

    /// `true` while the firmware is crashed (between
    /// [`crash`](Self::crash) and [`restart`](Self::restart)).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Reconfigures Tmeasure at runtime (fleet command). Zero intervals are
    /// rejected; returns whether the new interval was applied.
    pub fn set_measure_interval(&mut self, interval: rtem_sim::time::SimDuration) -> bool {
        self.middleware.set_measure_interval(interval)
    }

    /// The currently configured Tmeasure.
    pub fn measure_interval(&self) -> rtem_sim::time::SimDuration {
        self.middleware.config().t_measure
    }

    /// Enables or disables consumption reporting (fleet command). A muted
    /// device keeps measuring and buffering — records drain in one backfilled
    /// burst when reporting resumes.
    pub fn set_reporting(&mut self, enabled: bool) {
        self.reporting_enabled = enabled;
    }

    /// `true` while the device publishes consumption reports.
    pub fn reporting_enabled(&self) -> bool {
        self.reporting_enabled
    }

    /// Replaces the billing tariff going forward (fleet command).
    pub fn set_tariff(&mut self, tariff: Tariff) {
        self.billing.set_tariff(tariff);
    }

    /// Configures whether the store-and-forward buffer survives firmware
    /// crashes (fleet command), modeling a firmware that journals records to
    /// flash instead of RAM.
    pub fn set_persist_store(&mut self, persist: bool) {
        self.persist_store = persist;
    }

    /// `true` when buffered records survive a crash.
    pub fn persists_store(&self) -> bool {
        self.persist_store
    }

    /// Records lost across all firmware crashes so far.
    pub fn records_lost_to_crashes(&self) -> u64 {
        self.records_lost_to_crashes
    }

    /// Simulates a firmware crash: every unacknowledged buffered record is
    /// lost (the store-and-forward buffer is volatile), the registration
    /// state machine dies and the firmware latches
    /// [`PowerState::Fault`]. The electrical load keeps drawing — a crashed
    /// charger still charges — which is exactly the reported-vs-measured gap
    /// the aggregator's complementary measurement exposes. Returns the
    /// number of records lost.
    pub fn crash(&mut self, _now: SimTime) -> usize {
        // A journaling firmware (CrashRecoveryConfig { persist_store: true })
        // keeps its buffered records across the reboot.
        let lost = if self.persist_store {
            0
        } else {
            self.store.clear()
        };
        self.records_lost_to_crashes += lost as u64;
        self.crashed = true;
        self.network.shutdown();
        self.middleware.raise_fault();
        self.last_tick = None;
        lost
    }

    /// Reboots a crashed firmware at `now`: the fault state clears, the RTC
    /// re-synchronizes, and — when still electrically connected — aggregator
    /// discovery restarts so the device re-registers and resumes reporting.
    pub fn restart(&mut self, now: SimTime) {
        self.crashed = false;
        self.middleware.reset(now);
        self.rtc.synchronize(now);
        self.last_tick = None;
        if self.physical.is_plugged() {
            self.network.start_discovery(now);
        }
    }

    /// One Tmeasure tick: advance the network state machine, take a
    /// measurement when plugged, and emit any packets that must be published.
    pub fn on_measure_tick(&mut self, now: SimTime, radio: &RadioEnvironment) -> Vec<Outbound> {
        let mut out = Vec::new();
        self.on_measure_tick_into(now, radio, &mut out);
        out
    }

    /// Like [`on_measure_tick`](Self::on_measure_tick), but appends the
    /// outbound packets to a caller-provided buffer. The simulation's event
    /// loop reuses one buffer across the whole fleet so ticking a thousand
    /// devices allocates nothing.
    pub fn on_measure_tick_into(
        &mut self,
        now: SimTime,
        radio: &RadioEnvironment,
        out: &mut Vec<Outbound>,
    ) {
        // A crashed firmware neither measures nor speaks; the load keeps
        // drawing through true_grid_current regardless.
        if self.crashed {
            return;
        }

        // 1. Advance the handshake / registration state machine.
        let (commands, events) = self.network.poll(now, radio, self.position);
        self.apply_net_commands(commands, out);
        self.apply_net_events(events);

        // 2. Measure, if electrically connected.
        if let Some(sample) = self.physical.sample(now) {
            self.reported_series.push((now, sample.measured_current));
            self.forecaster.observe(sample.measured_current.value());
            if let Some(prev) = self.last_tick {
                let record = self.physical.build_record(
                    self.rtc.local_time(prev).as_micros(),
                    self.rtc.local_time(now).as_micros(),
                    sample.measured_current,
                    false,
                );
                self.billing
                    .add_interval(MilliampSeconds::new(record.charge_mas()), now);
                self.store.push(record);
                self.middleware.counters_mut().records_buffered += 1;
            }
            self.last_tick = Some(now);
        }

        // 3. Report everything unacknowledged when registered (unless a
        // fleet command muted reporting — records keep accumulating).
        if !self.reporting_enabled {
            return;
        }
        if let Some((aggregator, _kind, _slot)) = self.network.registration() {
            if !self.store.is_empty() {
                let records = self.pending_records_for_report(now);
                self.middleware.counters_mut().reports_sent += 1;
                out.push(Outbound {
                    to: aggregator,
                    packet: Packet::ConsumptionReport {
                        device: self.id(),
                        master: self.network.master(),
                        records,
                    },
                });
            }
        }
    }

    /// Handles a packet addressed to this device.
    pub fn on_packet(&mut self, packet: &Packet, now: SimTime) -> Vec<Outbound> {
        let mut out = Vec::new();
        self.on_packet_into(packet, now, &mut out);
        out
    }

    /// Like [`on_packet`](Self::on_packet), but appends the responses to a
    /// caller-provided buffer (see
    /// [`on_measure_tick_into`](Self::on_measure_tick_into)).
    pub fn on_packet_into(&mut self, packet: &Packet, now: SimTime, out: &mut Vec<Outbound>) {
        if self.crashed {
            return;
        }
        let (commands, events) = self.network.handle_packet(packet, now);
        self.apply_net_commands(commands, out);
        self.apply_net_events(events);
    }

    /// Executes a remote-management command.
    pub fn handle_management(
        &mut self,
        command: ManagementCommand,
        now: SimTime,
    ) -> ManagementResponse {
        match command {
            ManagementCommand::QueryStatus => ManagementResponse::Status {
                state: self.middleware.state(),
                counters: self.middleware.counters(),
                uptime: self.middleware.uptime(now),
            },
            ManagementCommand::Reset => {
                self.middleware.reset(now);
                ManagementResponse::Done
            }
            ManagementCommand::SetMeasureIntervalMs(ms) => {
                if ms == 0 {
                    ManagementResponse::Rejected("interval must be non-zero".to_string())
                } else {
                    // The configured Tmeasure lives in the middleware config;
                    // the simulation reads it when scheduling ticks.
                    ManagementResponse::Done
                }
            }
        }
    }

    fn pending_records_for_report(&mut self, now: SimTime) -> Vec<MeasurementRecord> {
        let fresh_threshold_us = self
            .rtc
            .local_time(now)
            .as_micros()
            .saturating_sub(2 * self.middleware.config().t_measure.as_micros());
        self.store
            .peek_all()
            .iter()
            .map(|r| {
                let mut r = *r;
                // Anything older than the last couple of intervals was held
                // in local storage across a connectivity gap.
                if r.interval_end_us < fresh_threshold_us {
                    r.backfilled = true;
                }
                r
            })
            .collect()
    }

    fn apply_net_commands(&mut self, commands: Vec<NetCommand>, out: &mut Vec<Outbound>) {
        for command in commands {
            match command {
                NetCommand::Send { to, packet } => out.push(Outbound { to, packet }),
            }
        }
    }

    fn apply_net_events(&mut self, events: Vec<NetEvent>) {
        for event in events {
            match event {
                NetEvent::Registered { breakdown, .. } => {
                    self.last_handshake = Some(breakdown);
                    self.middleware.enter_metering();
                }
                NetEvent::AckReceived { through_sequence } => {
                    self.middleware.counters_mut().acks_received += 1;
                    self.store.acknowledge_through(through_sequence);
                }
                NetEvent::NackReceived => {
                    self.middleware.counters_mut().nacks_received += 1;
                }
                NetEvent::RegistrationRejected { .. } | NetEvent::ScanFoundNothing => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network_mgmt::HandshakeTiming;
    use rtem_net::rssi::PathLossModel;
    use rtem_sensors::profile::ConstantProfile;
    use rtem_sim::time::SimDuration;

    fn radio() -> RadioEnvironment {
        let mut env = RadioEnvironment::new(PathLossModel::deterministic());
        env.place_aggregator(AggregatorAddr(1), Position::new(0.0, 0.0));
        env
    }

    fn test_device() -> MeteringDevice {
        let mut config = DeviceConfig::testbed(DeviceId(1));
        config.local_store_capacity = 64;
        MeteringDevice::new(
            config,
            ConstantProfile::new(120.0),
            Ina219Config::ideal(),
            HandshakeTiming::fast(),
            Tariff::flat(1.0),
            SimRng::seed_from_u64(3),
        )
    }

    /// Runs ticks every 100 ms until the device emits a registration request,
    /// then delivers an accept.
    fn register(device: &mut MeteringDevice, radio: &RadioEnvironment, start: SimTime) -> SimTime {
        let mut now = start;
        for _ in 0..200 {
            now += SimDuration::from_millis(100);
            let out = device.on_measure_tick(now, radio);
            if out
                .iter()
                .any(|o| matches!(o.packet, Packet::RegistrationRequest { .. }))
            {
                let accept = Packet::RegistrationAccept {
                    device: device.id(),
                    address: AggregatorAddr(1),
                    membership: MembershipKind::Master,
                    slot: 0,
                };
                device.on_packet(&accept, now);
                return now;
            }
        }
        panic!("device never attempted registration");
    }

    #[test]
    fn unplugged_device_neither_measures_nor_reports() {
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        let out = d.on_measure_tick(SimTime::from_millis(100), &radio());
        assert!(out.is_empty());
        assert_eq!(d.buffered_records(), 0);
        assert!(!d.is_plugged());
    }

    #[test]
    fn plugged_device_registers_and_reports() {
        let radio = radio();
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        d.plug_in(
            SimTime::from_millis(100),
            BranchId(0),
            Position::new(1.0, 0.0),
        );
        let registered_at = register(&mut d, &radio, SimTime::from_millis(100));
        assert!(d.is_registered());
        assert_eq!(d.master(), Some(AggregatorAddr(1)));
        assert_eq!(d.power_state(), PowerState::Metering);

        // The next ticks produce consumption reports.
        let mut reports = 0;
        let mut now = registered_at;
        for _ in 0..5 {
            now += SimDuration::from_millis(100);
            let out = d.on_measure_tick(now, &radio);
            reports += out
                .iter()
                .filter(|o| matches!(o.packet, Packet::ConsumptionReport { .. }))
                .count();
        }
        assert!(reports >= 4, "expected steady reporting, got {reports}");
        assert!(d.counters().reports_sent >= 4);
    }

    #[test]
    fn ack_clears_buffered_records() {
        let radio = radio();
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        d.plug_in(
            SimTime::from_millis(100),
            BranchId(0),
            Position::new(1.0, 0.0),
        );
        let mut now = register(&mut d, &radio, SimTime::from_millis(100));
        let mut last_seq = 0;
        for _ in 0..5 {
            now += SimDuration::from_millis(100);
            for o in d.on_measure_tick(now, &radio) {
                if let Packet::ConsumptionReport { records, .. } = o.packet {
                    last_seq = records.last().map(|r| r.sequence).unwrap_or(last_seq);
                }
            }
        }
        assert!(d.buffered_records() > 0);
        d.on_packet(
            &Packet::Ack {
                device: d.id(),
                through_sequence: last_seq,
            },
            now,
        );
        assert_eq!(d.buffered_records(), 0);
        assert_eq!(d.counters().acks_received, 1);
    }

    #[test]
    fn unacked_records_accumulate_and_are_marked_backfilled() {
        let radio = radio();
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        d.plug_in(
            SimTime::from_millis(100),
            BranchId(0),
            Position::new(1.0, 0.0),
        );
        let mut now = register(&mut d, &radio, SimTime::from_millis(100));
        // Never ack; after a while the report carries old records marked
        // backfilled plus the fresh one.
        let mut saw_backfilled = false;
        for _ in 0..20 {
            now += SimDuration::from_millis(100);
            for o in d.on_measure_tick(now, &radio) {
                if let Packet::ConsumptionReport { records, .. } = &o.packet {
                    if records.iter().any(|r| r.backfilled) && records.iter().any(|r| !r.backfilled)
                    {
                        saw_backfilled = true;
                    }
                }
            }
        }
        assert!(saw_backfilled);
        assert!(d.buffered_records() > 10);
    }

    #[test]
    fn nack_triggers_temporary_registration_request() {
        let radio = radio();
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        d.plug_in(
            SimTime::from_millis(100),
            BranchId(0),
            Position::new(1.0, 0.0),
        );
        let now = register(&mut d, &radio, SimTime::from_millis(100));
        // A foreign aggregator refuses the report.
        let out = d.on_packet(&Packet::Nack { device: d.id() }, now);
        let reg = out
            .iter()
            .find_map(|o| match &o.packet {
                Packet::RegistrationRequest { master, .. } => Some(*master),
                _ => None,
            })
            .expect("nack must trigger re-registration");
        assert_eq!(
            reg,
            Some(AggregatorAddr(1)),
            "master address must be included"
        );
        assert_eq!(d.counters().nacks_received, 1);
    }

    #[test]
    fn unplug_stops_measurement_but_keeps_master() {
        let radio = radio();
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        d.plug_in(
            SimTime::from_millis(100),
            BranchId(0),
            Position::new(1.0, 0.0),
        );
        let now = register(&mut d, &radio, SimTime::from_millis(100));
        d.unplug(now);
        assert!(!d.is_registered());
        assert_eq!(d.master(), Some(AggregatorAddr(1)));
        assert_eq!(d.power_state(), PowerState::Idle);
        let out = d.on_measure_tick(now + SimDuration::from_millis(100), &radio);
        assert!(out.is_empty());
    }

    #[test]
    fn billing_and_forecast_track_consumption() {
        let radio = radio();
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        d.plug_in(
            SimTime::from_millis(100),
            BranchId(0),
            Position::new(1.0, 0.0),
        );
        let mut now = register(&mut d, &radio, SimTime::from_millis(100));
        for _ in 0..50 {
            now += SimDuration::from_millis(100);
            d.on_measure_tick(now, &radio);
        }
        assert!(d.billing().total_energy().value() > 0.0);
        let forecast = d.forecaster().forecast(1).unwrap();
        assert!((forecast - 120.0).abs() < 10.0, "forecast {forecast}");
        assert!(!d.measured_series().is_empty());
    }

    #[test]
    fn crash_loses_buffer_and_restart_recovers() {
        let radio = radio();
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        d.plug_in(
            SimTime::from_millis(100),
            BranchId(0),
            Position::new(1.0, 0.0),
        );
        let mut now = register(&mut d, &radio, SimTime::from_millis(100));
        for _ in 0..5 {
            now += SimDuration::from_millis(100);
            d.on_measure_tick(now, &radio);
        }
        assert!(d.buffered_records() > 0);
        let lost = d.crash(now);
        assert!(lost > 0);
        assert!(d.is_crashed());
        assert_eq!(d.records_lost_to_crashes(), lost as u64);
        assert_eq!(d.buffered_records(), 0, "volatile buffer lost");
        assert!(!d.is_registered());
        assert_eq!(d.power_state(), PowerState::Fault);
        // While crashed the firmware is silent and deaf...
        now += SimDuration::from_millis(100);
        assert!(d.on_measure_tick(now, &radio).is_empty());
        assert!(d
            .on_packet(&Packet::Nack { device: d.id() }, now)
            .is_empty());
        // ...but the electrical load keeps drawing.
        assert!(d.true_grid_current(now).value() > 0.0);
        // Reboot: discovery restarts and the device re-registers.
        now += SimDuration::from_millis(100);
        d.restart(now);
        assert!(!d.is_crashed());
        assert_eq!(d.power_state(), PowerState::Idle);
        register(&mut d, &radio, now);
        assert!(d.is_registered());
    }

    #[test]
    fn persisted_store_survives_crash() {
        let radio = radio();
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        d.plug_in(
            SimTime::from_millis(100),
            BranchId(0),
            Position::new(1.0, 0.0),
        );
        let mut now = register(&mut d, &radio, SimTime::from_millis(100));
        d.set_persist_store(true);
        for _ in 0..5 {
            now += SimDuration::from_millis(100);
            d.on_measure_tick(now, &radio);
        }
        let buffered = d.buffered_records();
        assert!(buffered > 0);
        assert_eq!(d.crash(now), 0, "journaled store loses nothing");
        assert_eq!(d.buffered_records(), buffered);
        assert_eq!(d.records_lost_to_crashes(), 0);
        d.restart(now + SimDuration::from_millis(100));
        register(&mut d, &radio, now + SimDuration::from_millis(100));
        // Re-registration ticks keep measuring, so the journal only grows.
        assert!(
            d.buffered_records() >= buffered,
            "records await re-reporting"
        );
    }

    #[test]
    fn muted_reporting_buffers_and_resumes() {
        let radio = radio();
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        d.plug_in(
            SimTime::from_millis(100),
            BranchId(0),
            Position::new(1.0, 0.0),
        );
        let mut now = register(&mut d, &radio, SimTime::from_millis(100));
        d.set_reporting(false);
        for _ in 0..5 {
            now += SimDuration::from_millis(100);
            let out = d.on_measure_tick(now, &radio);
            assert!(
                !out.iter()
                    .any(|o| matches!(o.packet, Packet::ConsumptionReport { .. })),
                "muted device must not report"
            );
        }
        assert!(
            d.buffered_records() > 0,
            "measurement continues while muted"
        );
        d.set_reporting(true);
        now += SimDuration::from_millis(100);
        let out = d.on_measure_tick(now, &radio);
        assert!(
            out.iter()
                .any(|o| matches!(o.packet, Packet::ConsumptionReport { .. })),
            "reporting resumes with the buffered backlog"
        );
    }

    #[test]
    fn runtime_measure_interval_changes_are_validated() {
        let mut d = test_device();
        assert_eq!(d.measure_interval(), SimDuration::from_millis(100));
        assert!(!d.set_measure_interval(SimDuration::ZERO));
        assert_eq!(d.measure_interval(), SimDuration::from_millis(100));
        assert!(d.set_measure_interval(SimDuration::from_millis(500)));
        assert_eq!(d.measure_interval(), SimDuration::from_millis(500));
    }

    #[test]
    fn injected_sensor_fault_shapes_reports() {
        use rtem_sensors::fault::{SensorFault, SensorFaultKind};
        let radio = radio();
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        d.plug_in(
            SimTime::from_millis(100),
            BranchId(0),
            Position::new(1.0, 0.0),
        );
        let mut now = register(&mut d, &radio, SimTime::from_millis(100));
        d.inject_sensor_fault(SensorFault::new(
            SensorFaultKind::StuckAt { level_ma: 7.0 },
            now,
        ));
        assert!(d.sensor_fault().is_some());
        now += SimDuration::from_millis(100);
        d.on_measure_tick(now, &radio);
        let (_, last) = *d.measured_series().last().unwrap();
        assert_eq!(last.value(), 7.0, "stuck reading reported");
        d.clear_sensor_fault();
        now += SimDuration::from_millis(100);
        d.on_measure_tick(now, &radio);
        let (_, healed) = *d.measured_series().last().unwrap();
        assert_eq!(healed.value(), 120.0, "honest reading after healing");
    }

    #[test]
    fn management_interface_reports_status_and_resets() {
        let mut d = test_device();
        d.boot(SimTime::ZERO);
        match d.handle_management(ManagementCommand::QueryStatus, SimTime::from_secs(5)) {
            ManagementResponse::Status { state, uptime, .. } => {
                assert_eq!(state, PowerState::Idle);
                assert_eq!(uptime, Some(SimDuration::from_secs(5)));
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(
            d.handle_management(ManagementCommand::Reset, SimTime::from_secs(6)),
            ManagementResponse::Done
        );
        assert!(matches!(
            d.handle_management(
                ManagementCommand::SetMeasureIntervalMs(0),
                SimTime::from_secs(7)
            ),
            ManagementResponse::Rejected(_)
        ));
    }
}
