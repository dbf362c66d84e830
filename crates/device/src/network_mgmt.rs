//! Network-management component of the device's network layer (Fig. 2).
//!
//! This is the device-side implementation of the registration and mobility
//! protocol of Fig. 3: aggregator discovery (RSSI scan), association and
//! broker connection, membership registration (master or temporary),
//! re-registration after a Nack, and the Thandshake bookkeeping the
//! evaluation reports.
//!
//! The component is a pure state machine: callers feed it time (`poll`) and
//! received packets (`handle_packet`), and it returns commands (packets to
//! publish) and events (state changes the device application cares about).

use rtem_net::packet::{AggregatorAddr, MembershipKind, Packet, RejectReason};
use rtem_net::rssi::{Position, RadioEnvironment};
use rtem_net::DeviceId;
use rtem_sim::rng::SimRng;
use rtem_sim::time::{SimDuration, SimTime};

/// Durations of the handshake phases a mobile device goes through after
/// plugging in at a new grid-location, before it can report consumption.
///
/// The defaults are calibrated so that the end-to-end temporary-membership
/// handshake lands in the 5.5–6.5 s band the paper measures (mean ≈ 6 s over
/// 15 runs): a full 2.4 GHz Wi-Fi channel scan, association + DHCP, MQTT
/// broker connection, then the registration exchange itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandshakeTiming {
    /// Mean duration of the Wi-Fi scan phase.
    pub scan: SimDuration,
    /// Half-width of the uniform jitter applied to the scan phase.
    pub scan_jitter: SimDuration,
    /// Mean duration of association + DHCP.
    pub association: SimDuration,
    /// Half-width of the association jitter.
    pub association_jitter: SimDuration,
    /// Mean duration of the MQTT broker connection.
    pub broker_connect: SimDuration,
    /// Half-width of the broker-connection jitter.
    pub broker_connect_jitter: SimDuration,
    /// How long to wait for a registration response before retransmitting.
    pub registration_timeout: SimDuration,
    /// Maximum registration retransmissions before restarting the scan.
    pub max_registration_attempts: u32,
}

impl HandshakeTiming {
    /// Timing calibrated against the paper's testbed (Thandshake ≈ 6 s).
    pub fn testbed() -> Self {
        HandshakeTiming {
            scan: SimDuration::from_millis(3200),
            scan_jitter: SimDuration::from_millis(300),
            association: SimDuration::from_millis(1700),
            association_jitter: SimDuration::from_millis(150),
            broker_connect: SimDuration::from_millis(950),
            broker_connect_jitter: SimDuration::from_millis(80),
            registration_timeout: SimDuration::from_millis(500),
            max_registration_attempts: 4,
        }
    }

    /// A fast profile for unit tests (all phases a few milliseconds).
    pub fn fast() -> Self {
        HandshakeTiming {
            scan: SimDuration::from_millis(3),
            scan_jitter: SimDuration::ZERO,
            association: SimDuration::from_millis(2),
            association_jitter: SimDuration::ZERO,
            broker_connect: SimDuration::from_millis(1),
            broker_connect_jitter: SimDuration::ZERO,
            registration_timeout: SimDuration::from_millis(50),
            max_registration_attempts: 3,
        }
    }

    fn jittered(&self, mean: SimDuration, jitter: SimDuration, rng: &mut SimRng) -> SimDuration {
        if jitter.is_zero() {
            return mean;
        }
        let j = rng.uniform(-(jitter.as_micros() as f64), jitter.as_micros() as f64);
        let total = mean.as_micros() as f64 + j;
        SimDuration::from_micros(total.max(0.0) as u64)
    }
}

/// Per-phase breakdown of one completed handshake, used for the Thandshake
/// statistics of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandshakeBreakdown {
    /// Time spent scanning for aggregators.
    pub scan: SimDuration,
    /// Time spent associating with the network.
    pub association: SimDuration,
    /// Time spent connecting to the MQTT broker.
    pub broker_connect: SimDuration,
    /// Time spent in the registration exchange (including verification).
    pub registration: SimDuration,
    /// Kind of membership that was established.
    pub membership: MembershipKind,
}

impl HandshakeBreakdown {
    /// Total handshake duration (the paper's Thandshake).
    pub fn total(&self) -> SimDuration {
        self.scan + self.association + self.broker_connect + self.registration
    }
}

/// State of the network-management state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetState {
    /// Radio idle (device unplugged or just booted).
    Down,
    /// Scanning for aggregators.
    Scanning {
        /// When the scan completes.
        until: SimTime,
    },
    /// Associating with the chosen aggregator's network.
    Associating {
        /// Aggregator selected by the scan.
        aggregator: AggregatorAddr,
        /// When association completes.
        until: SimTime,
    },
    /// Connecting to the MQTT broker.
    ConnectingBroker {
        /// Aggregator being connected to.
        aggregator: AggregatorAddr,
        /// When the connection completes.
        until: SimTime,
    },
    /// Registration request sent, waiting for a response.
    Registering {
        /// Aggregator the request was sent to.
        aggregator: AggregatorAddr,
        /// When the current attempt times out.
        timeout_at: SimTime,
        /// Attempts made so far.
        attempts: u32,
    },
    /// Registered and allowed to report.
    Registered {
        /// Serving aggregator.
        aggregator: AggregatorAddr,
        /// Membership kind granted.
        membership: MembershipKind,
        /// TDMA slot assigned for reporting.
        slot: u16,
    },
}

/// A command the device must execute on behalf of the network manager.
#[derive(Debug, Clone, PartialEq)]
pub enum NetCommand {
    /// Publish a packet addressed to an aggregator.
    Send {
        /// Destination aggregator.
        to: AggregatorAddr,
        /// Packet to publish.
        packet: Packet,
    },
}

/// An event the network manager reports to the rest of the device.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEvent {
    /// Registration succeeded.
    Registered {
        /// Serving aggregator.
        aggregator: AggregatorAddr,
        /// Membership kind granted.
        membership: MembershipKind,
        /// Assigned reporting slot.
        slot: u16,
        /// Per-phase handshake timing.
        breakdown: HandshakeBreakdown,
    },
    /// Registration was rejected by the aggregator.
    RegistrationRejected {
        /// Aggregator that rejected the device.
        aggregator: AggregatorAddr,
        /// Reason carried in the reject packet.
        reason: RejectReason,
    },
    /// The serving aggregator acknowledged records up to a sequence number.
    AckReceived {
        /// Highest acknowledged device sequence number.
        through_sequence: u64,
    },
    /// The aggregator refused a report because the device is not a member —
    /// the manager has already started re-registration.
    NackReceived,
    /// No aggregator was heard during the scan; the scan will be retried.
    ScanFoundNothing,
}

/// The device-side network manager.
pub struct NetworkManager {
    device: DeviceId,
    timing: HandshakeTiming,
    rssi_sensitivity_dbm: f64,
    state: NetState,
    master: Option<AggregatorAddr>,
    rng: SimRng,
    handshake_started_at: Option<SimTime>,
    phase_started_at: SimTime,
    scan_elapsed: SimDuration,
    association_elapsed: SimDuration,
    broker_elapsed: SimDuration,
    registration_started_at: Option<SimTime>,
    handshakes_completed: u64,
}

impl core::fmt::Debug for NetworkManager {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NetworkManager")
            .field("device", &self.device)
            .field("state", &self.state)
            .field("master", &self.master)
            .finish()
    }
}

impl NetworkManager {
    /// Creates the manager for `device` with the given handshake timing.
    pub fn new(
        device: DeviceId,
        timing: HandshakeTiming,
        rssi_sensitivity_dbm: f64,
        rng: SimRng,
    ) -> Self {
        NetworkManager {
            device,
            timing,
            rssi_sensitivity_dbm,
            state: NetState::Down,
            master: None,
            rng,
            handshake_started_at: None,
            phase_started_at: SimTime::ZERO,
            scan_elapsed: SimDuration::ZERO,
            association_elapsed: SimDuration::ZERO,
            broker_elapsed: SimDuration::ZERO,
            registration_started_at: None,
            handshakes_completed: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> NetState {
        self.state
    }

    /// The device's home (master) aggregator, once known.
    pub fn master(&self) -> Option<AggregatorAddr> {
        self.master
    }

    /// Pre-provisions the master address (e.g. restored from flash after a
    /// reboot in the home network).
    pub fn set_master(&mut self, master: Option<AggregatorAddr>) {
        self.master = master;
    }

    /// Returns the serving aggregator and assigned slot when registered.
    pub fn registration(&self) -> Option<(AggregatorAddr, MembershipKind, u16)> {
        match self.state {
            NetState::Registered {
                aggregator,
                membership,
                slot,
            } => Some((aggregator, membership, slot)),
            _ => None,
        }
    }

    /// Returns `true` when the device may transmit consumption reports.
    pub fn is_registered(&self) -> bool {
        matches!(self.state, NetState::Registered { .. })
    }

    /// Number of completed handshakes (master + temporary).
    pub fn handshakes_completed(&self) -> u64 {
        self.handshakes_completed
    }

    /// Brings the radio up and starts aggregator discovery at `now`
    /// (the device has just been plugged in at some grid-location).
    pub fn start_discovery(&mut self, now: SimTime) {
        let scan_len =
            self.timing
                .jittered(self.timing.scan, self.timing.scan_jitter, &mut self.rng);
        self.handshake_started_at = Some(now);
        self.phase_started_at = now;
        self.scan_elapsed = SimDuration::ZERO;
        self.association_elapsed = SimDuration::ZERO;
        self.broker_elapsed = SimDuration::ZERO;
        self.registration_started_at = None;
        self.state = NetState::Scanning {
            until: now + scan_len,
        };
    }

    /// Shuts the radio down (device unplugged). Master membership is kept —
    /// the home network retains it until explicitly removed (Fig. 3, seq. 3).
    pub fn shutdown(&mut self) {
        self.state = NetState::Down;
        self.handshake_started_at = None;
    }

    /// Advances timed phases. Must be called whenever simulated time moves
    /// (the device calls it on every measurement tick).
    pub fn poll(
        &mut self,
        now: SimTime,
        radio: &RadioEnvironment,
        position: Position,
    ) -> (Vec<NetCommand>, Vec<NetEvent>) {
        let mut commands = Vec::new();
        let mut events = Vec::new();
        match self.state {
            NetState::Down | NetState::Registered { .. } => {}
            NetState::Scanning { until } => {
                if now >= until {
                    self.scan_elapsed += now.saturating_duration_since(self.phase_started_at);
                    match radio.best_aggregator(position, self.rssi_sensitivity_dbm, &mut self.rng)
                    {
                        Some(found) => {
                            let assoc = self.timing.jittered(
                                self.timing.association,
                                self.timing.association_jitter,
                                &mut self.rng,
                            );
                            self.phase_started_at = now;
                            self.state = NetState::Associating {
                                aggregator: found.aggregator,
                                until: now + assoc,
                            };
                        }
                        None => {
                            events.push(NetEvent::ScanFoundNothing);
                            // Retry the scan.
                            let scan_len = self.timing.jittered(
                                self.timing.scan,
                                self.timing.scan_jitter,
                                &mut self.rng,
                            );
                            self.phase_started_at = now;
                            self.state = NetState::Scanning {
                                until: now + scan_len,
                            };
                        }
                    }
                }
            }
            NetState::Associating { aggregator, until } => {
                if now >= until {
                    self.association_elapsed +=
                        now.saturating_duration_since(self.phase_started_at);
                    let connect = self.timing.jittered(
                        self.timing.broker_connect,
                        self.timing.broker_connect_jitter,
                        &mut self.rng,
                    );
                    self.phase_started_at = now;
                    self.state = NetState::ConnectingBroker {
                        aggregator,
                        until: now + connect,
                    };
                }
            }
            NetState::ConnectingBroker { aggregator, until } => {
                if now >= until {
                    self.broker_elapsed += now.saturating_duration_since(self.phase_started_at);
                    self.registration_started_at = Some(now);
                    commands.push(self.send_registration(aggregator, now));
                }
            }
            NetState::Registering {
                aggregator,
                timeout_at,
                attempts,
            } => {
                if now >= timeout_at {
                    if attempts >= self.timing.max_registration_attempts {
                        // Give up on this aggregator and rescan.
                        self.start_discovery(now);
                    } else {
                        commands.push(NetCommand::Send {
                            to: aggregator,
                            packet: Packet::RegistrationRequest {
                                device: self.device,
                                master: self.master,
                            },
                        });
                        self.state = NetState::Registering {
                            aggregator,
                            timeout_at: now + self.timing.registration_timeout,
                            attempts: attempts + 1,
                        };
                    }
                }
            }
        }
        (commands, events)
    }

    fn send_registration(&mut self, aggregator: AggregatorAddr, now: SimTime) -> NetCommand {
        self.state = NetState::Registering {
            aggregator,
            timeout_at: now + self.timing.registration_timeout,
            attempts: 1,
        };
        NetCommand::Send {
            to: aggregator,
            packet: Packet::RegistrationRequest {
                device: self.device,
                master: self.master,
            },
        }
    }

    /// Handles a packet addressed to this device.
    pub fn handle_packet(
        &mut self,
        packet: &Packet,
        now: SimTime,
    ) -> (Vec<NetCommand>, Vec<NetEvent>) {
        let mut commands = Vec::new();
        let mut events = Vec::new();
        match packet {
            Packet::RegistrationAccept {
                device,
                address,
                membership,
                slot,
            } if *device == self.device => {
                let registration_time = self
                    .registration_started_at
                    .map(|t| now.saturating_duration_since(t))
                    .unwrap_or(SimDuration::ZERO);
                if *membership == MembershipKind::Master {
                    self.master = Some(*address);
                }
                self.state = NetState::Registered {
                    aggregator: *address,
                    membership: *membership,
                    slot: *slot,
                };
                self.handshakes_completed += 1;
                let breakdown = HandshakeBreakdown {
                    scan: self.scan_elapsed,
                    association: self.association_elapsed,
                    broker_connect: self.broker_elapsed,
                    registration: registration_time,
                    membership: *membership,
                };
                events.push(NetEvent::Registered {
                    aggregator: *address,
                    membership: *membership,
                    slot: *slot,
                    breakdown,
                });
            }
            Packet::RegistrationReject { device, reason } if *device == self.device => {
                if let NetState::Registering { aggregator, .. } = self.state {
                    events.push(NetEvent::RegistrationRejected {
                        aggregator,
                        reason: *reason,
                    });
                }
                // Back off and rescan; a different aggregator may be in range.
                self.start_discovery(now);
            }
            Packet::Ack {
                device,
                through_sequence,
            } if *device == self.device => {
                events.push(NetEvent::AckReceived {
                    through_sequence: *through_sequence,
                });
            }
            Packet::Nack { device } if *device == self.device => {
                events.push(NetEvent::NackReceived);
                // Re-initiate membership including the master address
                // (temporary-membership request, Fig. 3 sequence 2).
                if let NetState::Registered { aggregator, .. } = self.state {
                    self.registration_started_at = Some(now);
                    // Nack implies we are already associated and connected to
                    // the broker of the new network; only registration redoes.
                    if self.handshake_started_at.is_none() {
                        self.handshake_started_at = Some(now);
                    }
                    commands.push(self.send_registration(aggregator, now));
                } else if let NetState::Registering { .. } = self.state {
                    // Already re-registering; nothing extra to do.
                } else {
                    self.start_discovery(now);
                }
            }
            _ => {}
        }
        (commands, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_net::rssi::PathLossModel;

    fn radio_with_one_aggregator() -> RadioEnvironment {
        let mut env = RadioEnvironment::new(PathLossModel::deterministic());
        env.place_aggregator(AggregatorAddr(1), Position::new(0.0, 0.0));
        env
    }

    fn manager() -> NetworkManager {
        NetworkManager::new(
            DeviceId(7),
            HandshakeTiming::fast(),
            -90.0,
            SimRng::seed_from_u64(5),
        )
    }

    /// Drives the manager through time until it emits a registration request.
    fn drive_until_registration_request(
        nm: &mut NetworkManager,
        radio: &RadioEnvironment,
        start: SimTime,
    ) -> (SimTime, AggregatorAddr) {
        let mut now = start;
        for _ in 0..100 {
            now += SimDuration::from_millis(1);
            let (commands, _) = nm.poll(now, radio, Position::new(1.0, 0.0));
            if let Some(NetCommand::Send { to, packet }) = commands.first() {
                if matches!(packet, Packet::RegistrationRequest { .. }) {
                    return (now, *to);
                }
            }
        }
        panic!("registration request never emitted");
    }

    #[test]
    fn full_master_registration_flow() {
        let radio = radio_with_one_aggregator();
        let mut nm = manager();
        assert_eq!(nm.state(), NetState::Down);
        nm.start_discovery(SimTime::ZERO);
        assert!(matches!(nm.state(), NetState::Scanning { .. }));

        let (now, to) = drive_until_registration_request(&mut nm, &radio, SimTime::ZERO);
        assert_eq!(to, AggregatorAddr(1));
        assert!(matches!(nm.state(), NetState::Registering { .. }));

        let accept = Packet::RegistrationAccept {
            device: DeviceId(7),
            address: AggregatorAddr(1),
            membership: MembershipKind::Master,
            slot: 2,
        };
        let (_, events) = nm.handle_packet(&accept, now + SimDuration::from_millis(5));
        assert!(nm.is_registered());
        assert_eq!(nm.master(), Some(AggregatorAddr(1)));
        assert_eq!(nm.handshakes_completed(), 1);
        match &events[0] {
            NetEvent::Registered {
                membership,
                slot,
                breakdown,
                ..
            } => {
                assert_eq!(*membership, MembershipKind::Master);
                assert_eq!(*slot, 2);
                assert!(breakdown.total() > SimDuration::ZERO);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn temporary_registration_includes_master_address() {
        let radio = radio_with_one_aggregator();
        let mut nm = manager();
        nm.set_master(Some(AggregatorAddr(9)));
        nm.start_discovery(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut seen_master = None;
        for _ in 0..100 {
            now += SimDuration::from_millis(1);
            let (commands, _) = nm.poll(now, &radio, Position::new(1.0, 0.0));
            if let Some(NetCommand::Send {
                packet: Packet::RegistrationRequest { master, .. },
                ..
            }) = commands.first()
            {
                seen_master = *master;
                break;
            }
        }
        assert_eq!(seen_master, Some(AggregatorAddr(9)));
    }

    #[test]
    fn nack_triggers_reregistration_with_master() {
        let mut nm = manager();
        nm.set_master(Some(AggregatorAddr(1)));
        // Pretend the device is already registered (e.g. stale state after
        // moving to a new network whose aggregator does not know it).
        nm.state = NetState::Registered {
            aggregator: AggregatorAddr(2),
            membership: MembershipKind::Master,
            slot: 0,
        };
        let nack = Packet::Nack {
            device: DeviceId(7),
        };
        let (commands, events) = nm.handle_packet(&nack, SimTime::from_secs(10));
        assert!(events.contains(&NetEvent::NackReceived));
        match &commands[0] {
            NetCommand::Send {
                to,
                packet: Packet::RegistrationRequest { master, .. },
            } => {
                assert_eq!(*to, AggregatorAddr(2));
                assert_eq!(*master, Some(AggregatorAddr(1)));
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(matches!(nm.state(), NetState::Registering { .. }));
    }

    #[test]
    fn rejection_restarts_discovery() {
        let radio = radio_with_one_aggregator();
        let mut nm = manager();
        nm.start_discovery(SimTime::ZERO);
        let (now, _) = drive_until_registration_request(&mut nm, &radio, SimTime::ZERO);
        let reject = Packet::RegistrationReject {
            device: DeviceId(7),
            reason: RejectReason::NoFreeSlots,
        };
        let (_, events) = nm.handle_packet(&reject, now);
        assert!(matches!(
            events[0],
            NetEvent::RegistrationRejected {
                reason: RejectReason::NoFreeSlots,
                ..
            }
        ));
        assert!(matches!(nm.state(), NetState::Scanning { .. }));
    }

    #[test]
    fn registration_times_out_and_retries() {
        let radio = radio_with_one_aggregator();
        let mut nm = manager();
        nm.start_discovery(SimTime::ZERO);
        let (now, _) = drive_until_registration_request(&mut nm, &radio, SimTime::ZERO);
        // Never answer; after the timeout the manager retransmits.
        let retry_time = now + SimDuration::from_millis(60);
        let (commands, _) = nm.poll(retry_time, &radio, Position::new(1.0, 0.0));
        assert_eq!(commands.len(), 1);
        if let NetState::Registering { attempts, .. } = nm.state() {
            assert_eq!(attempts, 2);
        } else {
            panic!("should still be registering");
        }
    }

    #[test]
    fn exhausted_retries_fall_back_to_scanning() {
        let radio = radio_with_one_aggregator();
        let mut nm = manager();
        nm.start_discovery(SimTime::ZERO);
        let (mut now, _) = drive_until_registration_request(&mut nm, &radio, SimTime::ZERO);
        for _ in 0..10 {
            now += SimDuration::from_millis(60);
            nm.poll(now, &radio, Position::new(1.0, 0.0));
            if matches!(nm.state(), NetState::Scanning { .. }) {
                return;
            }
        }
        panic!("manager never gave up and rescanned");
    }

    #[test]
    fn empty_scan_reports_and_retries() {
        let empty_radio = RadioEnvironment::new(PathLossModel::deterministic());
        let mut nm = manager();
        nm.start_discovery(SimTime::ZERO);
        let (_, events) = nm.poll(
            SimTime::from_millis(10),
            &empty_radio,
            Position::new(0.0, 0.0),
        );
        assert!(events.contains(&NetEvent::ScanFoundNothing));
        assert!(matches!(nm.state(), NetState::Scanning { .. }));
    }

    #[test]
    fn ack_event_is_forwarded() {
        let mut nm = manager();
        let ack = Packet::Ack {
            device: DeviceId(7),
            through_sequence: 31,
        };
        let (_, events) = nm.handle_packet(&ack, SimTime::ZERO);
        assert_eq!(
            events,
            vec![NetEvent::AckReceived {
                through_sequence: 31
            }]
        );
    }

    #[test]
    fn packets_for_other_devices_are_ignored() {
        let mut nm = manager();
        let foreign_ack = Packet::Ack {
            device: DeviceId(99),
            through_sequence: 1,
        };
        let (commands, events) = nm.handle_packet(&foreign_ack, SimTime::ZERO);
        assert!(commands.is_empty());
        assert!(events.is_empty());
    }

    #[test]
    fn shutdown_keeps_master_membership() {
        let mut nm = manager();
        nm.set_master(Some(AggregatorAddr(1)));
        nm.state = NetState::Registered {
            aggregator: AggregatorAddr(1),
            membership: MembershipKind::Master,
            slot: 1,
        };
        nm.shutdown();
        assert_eq!(nm.state(), NetState::Down);
        assert_eq!(nm.master(), Some(AggregatorAddr(1)));
    }

    #[test]
    fn testbed_handshake_duration_is_about_six_seconds() {
        // Monte-carlo over the timing model alone (scan + association +
        // broker connect), which dominates Thandshake.
        let timing = HandshakeTiming::testbed();
        let mut rng = SimRng::seed_from_u64(77);
        for _ in 0..100 {
            let total = timing.jittered(timing.scan, timing.scan_jitter, &mut rng)
                + timing.jittered(timing.association, timing.association_jitter, &mut rng)
                + timing.jittered(
                    timing.broker_connect,
                    timing.broker_connect_jitter,
                    &mut rng,
                );
            let secs = total.as_secs_f64();
            assert!(
                (5.2..6.6).contains(&secs),
                "handshake phase total {secs} s outside expected band"
            );
        }
    }
}
